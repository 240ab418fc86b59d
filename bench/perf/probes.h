/**
 * @file
 * Per-layer probes of the traced spatial-perf run.  Each one times
 * calls into a single layer's public functions on the workload's own
 * designs and inputs, outside the measurement window, and checks what
 * the layer returned against the int64 reference:
 *
 *  - compiler:      core::TiledDesign::compile, one design per spec;
 *  - store:         store::saveDesignFile / loadDesignFile;
 *  - batch_engine:  TiledDesign::multiplyBatchWide on 256 and 16 lanes
 *                   (one thread), scored against a STREAM-triad probe;
 *  - tiled_design:  core::TiledGemv::multiplyInto (one W=1 step);
 *  - wire:          wire::append*Frame / peekFrame / decode*.
 */

#ifndef SPATIAL_BENCH_PERF_PROBES_H
#define SPATIAL_BENCH_PERF_PROBES_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "matrix/dense.h"
#include "reference.h"
#include "result.h"
#include "serve/request.h"
#include "tracer.h"

namespace spatial::perf
{

/** One design to probe (one per distinct spec of the workload). */
struct ProbeDesign
{
    const IntMatrix *weights = nullptr;
    core::CompileOptions compile;
    const Reference *reference = nullptr;
};

/** One request of the workload's traffic, with its reference answer. */
struct WireSample
{
    std::uint32_t designId = 0;
    const serve::Request *request = nullptr;
    IntMatrix answer;
};

/** What the probes measured, and whether every output checked out. */
struct ProbeReport
{
    std::vector<Metric> metrics;
    bool correct = true;
    std::vector<std::string> notes; //!< one line per mismatch
};

/**
 * Run every probe.  The engine probes use the heaviest design (most
 * nonzero weights); `scratchDir` receives the store probe's file.
 */
ProbeReport probeLayers(const std::vector<ProbeDesign> &designs,
                        const std::vector<WireSample> &wire,
                        std::uint64_t seed, const std::string &scratchDir,
                        Tracer &tracer);

/** Best-of-5 STREAM-triad bandwidth (a = b + s*c) in GB/s. */
double triadGbps(Tracer &tracer);

} // namespace spatial::perf

#endif // SPATIAL_BENCH_PERF_PROBES_H
