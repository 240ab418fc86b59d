/**
 * @file
 * The five spatial-perf workloads and the runner that measures one.
 *
 * A workload is a set of designs, a request mix, and a way of applying
 * load (open-loop Poisson arrivals, closed-loop clients, or drain
 * rounds) against either an in-process serve::Server (2 workers) or a
 * loopback serve::NetServer (2 shards x 1 worker) through one
 * serve::NetClient.  Every input — weights, vectors, arrival times,
 * the checked sample — is generated here from the run's seed; the
 * library only ever sees the generated matrices and vectors.
 */

#ifndef SPATIAL_BENCH_PERF_WORKLOADS_H
#define SPATIAL_BENCH_PERF_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/options.h"
#include "result.h"
#include "serve/request.h"

namespace spatial::perf
{

/** How a workload applies load. */
enum class Drive
{
    OpenLoop,    //!< Poisson arrivals at a fixed rate, timed from due time
    ClosedLoop,  //!< clients that each wait for a reply before resending
    DrainRounds, //!< rounds of blocks submitted at once, then drain()
};

/** One registered design of a workload. */
struct DesignSpec
{
    std::size_t dim = 0;                        //!< dim x dim weights
    core::SignMode sign = core::SignMode::Csd;  //!< compile sign mode
    double sparsity = 0.9;                      //!< element sparsity
    double traffic = 1.0;                       //!< relative request share
};

/** A benchmark workload. */
struct WorkloadSpec
{
    std::string name; //!< CLI and BENCHMARK.json name
    std::string why;  //!< the layer it stresses (one line)
    Drive drive = Drive::OpenLoop;
    bool net = false; //!< loopback NetServer instead of in-process Server
    std::vector<DesignSpec> designs;

    /** Request kind; Gemv traffic sends `esnStepShare` as EsnStep. */
    serve::RequestKind kind = serve::RequestKind::Gemv;
    double esnStepShare = 0.0;
    std::size_t batchRows = 0; //!< GemvBatch rows
    std::size_t steps = 0;     //!< EsnSequence T

    double rate = 0.0;          //!< open loop: arrivals per second
    double sloMs = 0.0;         //!< latency limit; 0 = none
    unsigned clients = 0;       //!< closed loop: concurrent clients
    std::size_t roundBlocks = 0; //!< drain rounds: blocks per round
    double seconds = 10.0;      //!< default measurement window

    /** Hot-tier capacity with a fresh spill dir; 0 = default store. */
    std::size_t storeCapacity = 0;

    /** Lane counts of the warm-up groups sent to every design. */
    std::vector<std::size_t> warmGroups;
};

/** The workloads, in run order. */
const std::vector<WorkloadSpec> &workloads();

/** The workload called `name`; fatal when there is none. */
const WorkloadSpec &findWorkload(const std::string &name);

/** Knobs of one run. */
struct RunOptions
{
    std::uint64_t seed = 1;   //!< every input derives from this
    double seconds = 0.0;     //!< window; 0 = the workload's default
    bool trace = false;       //!< keep spans, run the layer probes
    std::string traceDir;     //!< where the span file goes (traced)
    std::string scratchDir;   //!< spill dirs and probe files

    /** Seconds of cold set-ups made in other processes (setUpOnce). */
    std::vector<double> otherSetups;
};

/**
 * Set the workload up once, warm it, run the measurement window, check
 * the sampled responses against the int64 reference, and (traced) run
 * the per-layer probes and write the span file.  setup_s is the median
 * of this run's set-up and options.otherSetups.
 */
RunResult runWorkload(const WorkloadSpec &spec, const RunOptions &options);

/**
 * Set the workload up once and tear it down: the result carries the
 * set-up's seconds as setup_s, and the warm-up responses are checked
 * against the int64 reference.  Called first in a fresh process, it
 * measures a cold set-up.
 */
RunResult setUpOnce(const WorkloadSpec &spec, const RunOptions &options);

} // namespace spatial::perf

#endif // SPATIAL_BENCH_PERF_WORKLOADS_H
