/**
 * @file
 * Registry spec for the serving layer: batching-policy sweeps over the
 * online request scheduler.  Each grid point drives the shared load
 * generator twice — an open-loop Poisson phase for the latency
 * distribution at a target QPS, and a drain-mode phase for the
 * batch-saturating throughput ceiling against the naive
 * one-request-per-multiply path (verified bit-identical before the
 * speedup is reported).  `spatial-bench run serving_throughput
 * --max_batch=...` sweeps the lane budget like any other figure;
 * `--seed` varies the workload/arrival streams.
 */

#include "common/logging.h"
#include "experiments/registry.h"
#include "serve/loadgen.h"

namespace spatial::experiments
{

namespace
{

Experiment
makeServingThroughput()
{
    Experiment exp;
    exp.name = "serving_throughput";
    exp.figure = "ours (serving layer)";
    exp.title = "Online serving: work-conserving lane batching vs the "
                "naive path";
    exp.description =
        "open-loop latency percentiles plus drain-mode batching "
        "speedup, bit-exact";
    exp.runtime = "~10 s (timed load phases)";
    exp.columns = {"designs", "dim", "max_batch", "qps", "throughput",
                   "p50 ms", "p95 ms", "p99 ms", "occupancy",
                   "drain speedup"};
    exp.grid = Grid::cartesian(
        {Axis{"designs", {std::int64_t{1}, std::int64_t{2}}},
         Axis{"dim", {std::int64_t{96}}},
         Axis{"max_batch", {std::int64_t{64}, std::int64_t{256}}},
         Axis{"qps", {std::int64_t{15000}}}});
    exp.serialOnly = true; // wall-clock load phases
    exp.evaluate = [](const ParamPoint &point, const void *,
                      EvalContext &ctx) {
        serve::LoadGenOptions options;
        options.designs =
            static_cast<std::size_t>(point.getInt("designs"));
        options.dim = static_cast<std::size_t>(point.getInt("dim"));
        options.qps = point.getReal("qps");
        options.duration = 0.4;
        options.batchFraction = 0.1;
        options.esnFraction = 0.1;
        options.seed = mixSeed(404, ctx.seed);
        options.serve.maxBatch =
            static_cast<std::size_t>(point.getInt("max_batch"));
        options.serve.sim = ctx.sim;

        options.mode = serve::LoadGenOptions::Mode::Open;
        const auto open = serve::runLoadGen(options);

        options.mode = serve::LoadGenOptions::Mode::Drain;
        options.requests = 2048;
        options.compareNaive = true;
        const auto drain = serve::runLoadGen(options);
        if (!drain.bitExact)
            SPATIAL_FATAL("serving_throughput: batched outputs differ "
                          "from the naive path; refusing to report");

        return std::vector<Row>{
            {cell(static_cast<std::int64_t>(options.designs)),
             cell(static_cast<std::int64_t>(options.dim)),
             cell(static_cast<std::int64_t>(options.serve.maxBatch)),
             cell(static_cast<std::int64_t>(options.qps)),
             cell(static_cast<std::int64_t>(open.throughput)),
             cell(open.latencyMs.p50, 3), cell(open.latencyMs.p95, 3),
             cell(open.latencyMs.p99, 3),
             cell(open.stats.occupancy(), 3),
             cell(drain.speedup, 2)}};
    };
    exp.expectedShape =
        "Occupancy grows with load as requests coalesce behind busy "
        "workers; drain speedup is the batched engine's advantage over "
        "one-request-per-multiply on identical, bit-identical work "
        "(grows with max_batch until the engine saturates).";
    return exp;
}

} // namespace

void
registerServeExperiments(Registry &registry)
{
    registry.add(makeServingThroughput());
}

} // namespace spatial::experiments
