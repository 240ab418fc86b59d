/**
 * @file
 * Registry spec for the tiled large-matrix engine: compile-vs-load
 * latency and batch throughput as the design dimension grows past the
 * single-device envelope (Section VIII's "must be tiled similar to
 * DNN accelerators" regime, executed).
 *
 * Each grid point generates a sparse signed dim x dim matrix, compiles
 * it as column-strip tiles (core::TiledDesign), round-trips it through
 * the design store's serialized format (store::saveDesignFile /
 * loadDesignFile — the cold-tier demote/promote path), and checks the
 * loaded design's wide-engine output bit-exact against a plain integer
 * GEMV of the original weights.  The headline columns are the
 * compile-vs-load split: rematerializing a spilled design is a linear
 * netlist replay plus the segmented ExecPlan build, several times
 * cheaper than recompiling, which is the entire case for memory
 * tiering (docs/store.md).  `spatial-bench run large_matrix --json=.` writes
 * BENCH_large_matrix.json; CI gates `load x` at dim >= 2048 with
 * --check_load_speedup.
 */

#include <chrono>
#include <cstdio>
#include <filesystem>

#include "common/logging.h"
#include "common/rng.h"
#include "core/tiled_design.h"
#include "experiments/registry.h"
#include "matrix/generate.h"
#include "store/format.h"

namespace spatial::experiments
{

namespace
{

/** Nonzeros per column the generated workload targets (keeps the
 * per-tile ones-cost, and so the tile count, dimension-independent). */
constexpr double kNonzerosPerColumn = 48.0;

/** Batch rows of the throughput phase. */
constexpr std::size_t kThroughputBatch = 64;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Plain integer GEMV of the raw weights: the untiled reference. */
IntMatrix
referenceMultiply(const IntMatrix &weights, const IntMatrix &batch)
{
    IntMatrix out(batch.rows(), weights.cols());
    for (std::size_t b = 0; b < batch.rows(); ++b)
        for (std::size_t r = 0; r < weights.rows(); ++r) {
            const std::int64_t x = batch.at(b, r);
            if (x == 0)
                continue;
            for (std::size_t c = 0; c < weights.cols(); ++c)
                out.at(b, c) += x * weights.at(r, c);
        }
    return out;
}

Experiment
makeLargeMatrix()
{
    Experiment exp;
    exp.name = "large_matrix";
    exp.figure = "ours (tiled large-matrix engine)";
    exp.title = "Column-tiled designs: compile vs cold-tier load, "
                "batch throughput";
    exp.description =
        "tile counts, serialize/load round-trip vs recompile, and "
        "wide-engine throughput up to dim 8192, bit-exact";
    exp.runtime = "~1-2 min (dim-8192 compile dominates)";
    exp.columns = {"dim",    "tiles",  "ones",        "compile s",
                   "save s", "load s", "load x",      "batch vec/s",
                   "exact"};
    exp.grid = Grid::cartesian(
        {Axis{"dim", {std::int64_t{1024}, std::int64_t{2048},
                      std::int64_t{4096}, std::int64_t{8192}}}});
    exp.serialOnly = true; // wall-clock compile/load timings
    exp.evaluate = [](const ParamPoint &point, const void *,
                      EvalContext &ctx) {
        const std::size_t dim =
            static_cast<std::size_t>(point.getInt("dim"));
        Rng rng(mixSeed(8192 + dim, ctx.seed));

        core::CompileOptions compile;
        compile.inputBits = 8;
        compile.inputsSigned = true;
        compile.signMode = core::SignMode::Csd;

        const double sparsity =
            1.0 - kNonzerosPerColumn / static_cast<double>(dim);
        const IntMatrix weights = makeSignedElementSparseMatrix(
            dim, dim, compile.inputBits, sparsity, rng);

        // Compile as column-strip tiles under the default device
        // budget (TileOptions::onesBudget); dims past ~2048 need
        // several strips.
        const auto compile_start = std::chrono::steady_clock::now();
        auto design = core::TiledDesign::compile(weights, compile);
        const double compile_s = secondsSince(compile_start);

        // Round-trip through the cold-tier format: the exact bytes a
        // DesignStore demotion writes and a promotion reads.
        const auto key = makeDesignKey(weights, compile);
        const auto path =
            std::filesystem::temp_directory_path() /
            ("spatial-large-matrix-" + std::to_string(dim) + "-" +
             std::to_string(key.contentHash) + ".sptd");
        const auto save_start = std::chrono::steady_clock::now();
        if (!store::saveDesignFile(path.string(), key, design))
            SPATIAL_FATAL("large_matrix: cannot write ",
                          path.string());
        const double save_s = secondsSince(save_start);

        std::shared_ptr<const core::TiledDesign> loaded;
        const auto load_start = std::chrono::steady_clock::now();
        const auto status =
            store::loadDesignFile(path.string(), &loaded);
        const double load_s = secondsSince(load_start);
        std::filesystem::remove(path);
        if (status != store::LoadStatus::Ok)
            SPATIAL_FATAL("large_matrix: reload failed (",
                          store::loadStatusName(status), ")");

        // Bit-exactness: the loaded tiled design against a plain
        // integer GEMV of the raw weights.  Any mismatch is fatal —
        // every run of this experiment doubles as the tiled-engine
        // correctness smoke.
        Rng batch_rng(mixSeed(515, ctx.seed));
        const IntMatrix batch = makeSignedBatch(
            kThroughputBatch, dim, compile.inputBits, batch_rng);
        const auto run_start = std::chrono::steady_clock::now();
        const IntMatrix got = loaded->multiplyBatchWide(batch, ctx.sim);
        const double run_s = secondsSince(run_start);
        if (!(got == referenceMultiply(weights, batch)))
            SPATIAL_FATAL("large_matrix: tiled output differs from "
                          "the reference multiply at dim ", dim);

        return std::vector<Row>{
            {cell(static_cast<std::int64_t>(dim)),
             cell(static_cast<std::int64_t>(design.tileCount())),
             cell(static_cast<std::int64_t>(design.weightOnes())),
             cell(compile_s, 3), cell(save_s, 3), cell(load_s, 3),
             cell(load_s > 0.0 ? compile_s / load_s : 0.0, 2),
             cell(run_s > 0.0 ? static_cast<double>(kThroughputBatch) /
                                    run_s
                              : 0.0,
                  1),
             cell("yes")}};
    };
    exp.expectedShape =
        "Tile count grows with dim once the ones-cost passes the "
        "device budget; `load x` (compile time over cold-load time) "
        "grows with dim and should sit well above 5x by dim 2048 — "
        "loading validates the netlist linearly while compiling "
        "re-derives it.";
    return exp;
}

} // namespace

void
registerLargeMatrixExperiments(Registry &registry)
{
    registry.add(makeLargeMatrix());
}

} // namespace spatial::experiments
