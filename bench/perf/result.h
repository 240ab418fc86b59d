/**
 * @file
 * What one spatial-perf workload run reports, and the one-line JSON
 * result every run prints last:
 *
 *   {"correct": true, "attempted": N, "failed": F,
 *    "metrics": {"p50_ms": {"value": 1.23, "unit": "ms"}, ...}}
 *
 * An untraced run's line carries the end-to-end metrics, a traced
 * run's the per-layer ones; the names are exactly those BENCHMARK.json
 * lists (perf_selftest checks the two agree).
 */

#ifndef SPATIAL_BENCH_PERF_RESULT_H
#define SPATIAL_BENCH_PERF_RESULT_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tracer.h"

namespace spatial::perf
{

/** One named, unit-carrying number. */
struct Metric
{
    std::string name;  //!< e.g. "p50_ms", "batch_engine.group_ms"
    double value = 0.0; //!< as measured
    std::string unit;  //!< e.g. "ms", "1/s", "count"
};

/** Everything one workload run measured. */
struct RunResult
{
    bool correct = true;        //!< every checked response matched
    std::uint64_t attempted = 0; //!< requests issued in the window
    std::uint64_t failed = 0;   //!< shed, timed out, or disconnected

    /** The end-to-end metrics every workload reports. */
    std::vector<Metric> endToEnd;

    /** End-to-end figures that apply to this workload only. */
    std::vector<Metric> detail;

    /** Per-layer metrics (traced runs only). */
    std::vector<Metric> perLayer;

    /** Self time per span name (traced runs only). */
    std::vector<LayerTime> selfTimes;

    /** Run-validity flags and other remarks, one line each. */
    std::vector<std::string> notes;

    /** The metric called `name` in any list, or null. */
    const Metric *find(const std::string &name) const;
};

/** A metric's name and unit as BENCHMARK.json lists it. */
struct MetricDef
{
    std::string name;
    std::string unit;
};

/** The end-to-end metrics, in BENCHMARK.json order. */
const std::vector<MetricDef> &endToEndMetrics();

/** The per-layer metrics of the traced JSON line, in order. */
const std::vector<MetricDef> &perLayerMetrics();

/** The names of `defs`, in order. */
std::vector<std::string> namesOf(const std::vector<MetricDef> &defs);

/** Which metrics the JSON result line carries. */
enum class LineMetrics
{
    EndToEnd, //!< endToEndMetrics() (untraced runs)
    PerLayer, //!< perLayerMetrics() (traced runs)
    All,      //!< every metric the run produced
};

/**
 * The one-line JSON result.  Fatal when a metric of the selected set
 * is missing from `result` or carries another unit (a benchmark bug,
 * never a data issue).
 */
std::string resultLine(const RunResult &result, LineMetrics which);

/** A result line read back (spatial-perf run/repeat parse children). */
struct ParsedLine
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;

    /** The metric called `name`, or null. */
    const Metric *find(const std::string &name) const;
};

/**
 * Parse a result line, reading the metrics called `names` and those of
 * `optional` that are present; nullopt unless the line is a JSON object
 * with the four top-level keys and every metric read carries a numeric
 * value and a string unit.
 */
std::optional<ParsedLine>
parseResultLine(const std::string &line,
                const std::vector<std::string> &names,
                const std::vector<std::string> &optional = {});

} // namespace spatial::perf

#endif // SPATIAL_BENCH_PERF_RESULT_H
