/**
 * @file
 * Registry spec for the simulation-engine throughput benchmark: the
 * compiled-tape batch engine against the seed 64-lane interpreter
 * path, one row per SIMD dispatch target supported by the running CPU,
 * every row verified bit-exact before any number is reported.  Mirrors
 * bench/sim_throughput.cc so CI can collect the same trajectory
 * through the spatial-bench JSON artifact.
 */

#include <algorithm>
#include <chrono>
#include <string>

#include "circuit/kernels.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "experiments/design_cache.h"
#include "experiments/registry.h"
#include "matrix/generate.h"

namespace spatial::experiments
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Best-of-N wall-clock seconds for one batch multiply. */
template <typename F>
double
bestOf(int repeats, F &&run)
{
    double best = 1e300;
    for (int i = 0; i < repeats; ++i) {
        const auto start = Clock::now();
        run();
        best = std::min(best, secondsSince(start));
    }
    return best;
}

Experiment
makeSimThroughput()
{
    Experiment exp;
    exp.name = "sim_throughput";
    exp.figure = "ours (engine perf trajectory)";
    exp.title = "Simulation-engine throughput: compiled tape vs seed "
                "interpreter";
    exp.description = "batch-engine wall-clock speedup over the seed "
                      "path per SIMD kernel, gated and ungated, "
                      "bit-exact";
    exp.runtime = "~5 s (timing loops)";
    exp.columns = {"dim", "bits", "batch", "sparsity", "nodes",
                   "drain cycles", "kernel", "lane words", "threads",
                   "gating", "seg skip %", "legacy ms", "tape ms",
                   "gemv/s", "speedup", "vs scalar"};
    exp.grid = Grid::cartesian(
        {Axis{"dim", {std::int64_t{256}}},
         Axis{"batch", {std::int64_t{1024}}},
         Axis{"bits", {std::int64_t{8}}},
         Axis{"sparsity", {0.9}},
         Axis{"gating", {std::int64_t{1}, std::int64_t{0}}},
         Axis{"repeats", {std::int64_t{3}}}});
    exp.serialOnly = true; // wall-clock timing; no concurrent neighbours
    exp.evaluate = [](const ParamPoint &point, const void *,
                      EvalContext &ctx) {
        const auto dim =
            static_cast<std::size_t>(point.getInt("dim"));
        const auto batch_rows =
            static_cast<std::size_t>(point.getInt("batch"));
        const int bits = static_cast<int>(point.getInt("bits"));
        const double sparsity = point.getReal("sparsity");
        const bool gating = point.getInt("gating") != 0;
        const int repeats = static_cast<int>(point.getInt("repeats"));

        Rng rng(99);
        const auto weights = makeSignedElementSparseMatrix(
            dim, dim, bits, sparsity, rng);
        const auto batch = makeSignedBatch(batch_rows, dim, bits, rng);

        core::CompileOptions options;
        options.inputBits = bits;
        options.inputsSigned = true;
        options.signMode = core::SignMode::Csd;
        const auto entry = ctx.cache.get(weights, options);
        const auto &design = *entry->design;

        // Verify bit-exactness before timing anything: scalar
        // reference on the first 64-lane group, then full legacy.
        const std::size_t check =
            std::min<std::size_t>(64, batch_rows);
        IntMatrix head(check, dim);
        for (std::size_t b = 0; b < check; ++b)
            for (std::size_t r = 0; r < dim; ++r)
                head.at(b, r) = batch.at(b, r);
        const auto expected = design.multiplyBatch(head);
        core::SimOptions base_sim = ctx.sim;
        base_sim.activityGating = gating;
        const auto legacy_out = design.multiplyBatchWideLegacy(batch);
        const auto tape_out = design.multiplyBatchWide(batch, base_sim);
        bool exact = legacy_out == tape_out;
        for (std::size_t b = 0; exact && b < expected.rows(); ++b)
            for (std::size_t c = 0; exact && c < expected.cols(); ++c)
                exact = expected.at(b, c) == tape_out.at(b, c);
        if (!exact)
            SPATIAL_FATAL("sim_throughput: engines disagree; refusing "
                          "to report timings");

        const double legacy_s = bestOf(repeats, [&] {
            (void)design.multiplyBatchWideLegacy(batch);
        });

        // One row per dispatch target, timed in ascending vector
        // width: scalar first so the last column can report each
        // vector kernel against it.
        auto kernels = circuit::kernels::supportedKernels();
        std::sort(kernels.begin(), kernels.end(),
                  [](const auto *a, const auto *b) {
                      return a->vectorWords < b->vectorWords;
                  });
        std::vector<Row> rows;
        double scalar_s = 0.0;
        for (const auto *kernel : kernels) {
            core::SimOptions sim = base_sim;
            sim.kernel = kernel;
            // Single-threaded unless --threads was given, mirroring
            // the bench: the vs-scalar column should measure kernel
            // code, not how the group scheduler shares the machine.
            if (sim.threads == 0)
                sim.threads = 1;
            core::BatchStats seg_stats;
            if (!(legacy_out ==
                  core::runBatchWide(design, batch, sim, &seg_stats)))
                SPATIAL_FATAL("sim_throughput: kernel ", kernel->name,
                              " disagrees with the seed path");
            const double seg_total = static_cast<double>(
                seg_stats.segmentsExecuted + seg_stats.segmentsSkipped);
            const double skip_pct =
                seg_total > 0.0
                    ? 100.0 *
                          static_cast<double>(seg_stats.segmentsSkipped) /
                          seg_total
                    : 0.0;
            const double tape_s = bestOf(repeats, [&] {
                (void)design.multiplyBatchWide(batch, sim);
            });
            if (std::string("scalar") == kernel->name)
                scalar_s = tape_s;
            const unsigned lane_words =
                core::resolvedLaneWords(design, sim, batch_rows);
            rows.push_back(
                {cell(dim), cell(bits), cell(batch_rows),
                 cell(sparsity, 3), cell(design.netlist().numNodes()),
                 cell(std::uint64_t{design.drainCycles()}),
                 cell(std::string(kernel->name)),
                 cell(static_cast<int>(lane_words)),
                 cell(static_cast<int>(sim.threads)),
                 cell(static_cast<int>(gating ? 1 : 0)),
                 cell(skip_pct, 3), cell(legacy_s * 1e3, 4),
                 cell(tape_s * 1e3, 4),
                 cell(static_cast<double>(batch_rows) / tape_s, 1),
                 cell(legacy_s / tape_s, 3),
                 cell(scalar_s > 0.0 ? scalar_s / tape_s : 0.0, 3)});
        }
        return rows;
    };
    exp.expectedShape =
        "Speedup is the wall-clock ratio of the seed interpreter to "
        "the compiled-tape engine on identical (bit-exact) work, one "
        "row per (SIMD kernel, activity gating) pair; the preferred "
        "vector kernel should lead, gated rows should skip over half "
        "of all segment-cycles on this drain-heavy workload, and "
        "multi-core machines add near-linear thread scaling.";
    return exp;
}

} // namespace

void
registerPerfExperiments(Registry &registry)
{
    registry.add(makeSimThroughput());
}

} // namespace spatial::experiments
