#include "core/tiled_design.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "core/compiler.h"
#include "matrix/pn_split.h"

namespace spatial::core
{

namespace
{

/** Split any tile wider than `max_cols` into equal-ish strips. */
TilePlan
capTileCols(TilePlan plan, std::size_t max_cols)
{
    if (max_cols == 0)
        return plan;
    TilePlan capped;
    capped.lutBudget = plan.lutBudget;
    for (const Tile &tile : plan.tiles) {
        std::size_t begin = tile.colBegin;
        while (begin < tile.colEnd) {
            const std::size_t end =
                std::min(tile.colEnd, begin + max_cols);
            // The ones estimate is per-column additive, so a pro-rata
            // split keeps the plan's accounting roughly honest.
            const std::size_t width = tile.colEnd - tile.colBegin;
            Tile part;
            part.colBegin = begin;
            part.colEnd = end;
            part.estimatedLuts =
                tile.estimatedLuts * (end - begin) / std::max<std::size_t>(1, width);
            capped.tiles.push_back(part);
            begin = end;
        }
    }
    return capped;
}

} // namespace

TiledDesign
TiledDesign::compile(const IntMatrix &weights,
                     const CompileOptions &options,
                     const TileOptions &tile)
{
    if (weights.rows() == 0 || weights.cols() == 0)
        SPATIAL_FATAL("cannot tile an empty matrix");
    const MatrixCompiler compiler(options);

    TiledDesign out;
    out.tileOptions_ = tile;
    out.rows_ = weights.rows();
    out.cols_ = weights.cols();

    // The budget is in compiled ones (the Figure-10 cost model over
    // the P/N split).  onesBudget == 0 disables tiling outright.
    TilePlan plan;
    if (tile.onesBudget == 0) {
        Tile whole;
        whole.colBegin = 0;
        whole.colEnd = weights.cols();
        whole.estimatedLuts = pnSplit(weights).onesCount();
        plan.tiles.push_back(whole);
    } else {
        plan = planColumnTiles(pnSplit(weights), tile.onesBudget);
    }
    plan = capTileCols(std::move(plan), tile.maxTileCols);
    out.plan_ = plan;

    out.tiles_.reserve(plan.tiles.size());
    if (plan.tiles.size() == 1) {
        // Skip the slice copy: the whole matrix is the one tile.
        out.tiles_.push_back(std::make_shared<const CompiledMatrix>(
            compiler.compile(weights)));
        return out;
    }
    for (const Tile &t : plan.tiles)
        out.tiles_.push_back(std::make_shared<const CompiledMatrix>(
            compiler.compile(
                sliceColumns(weights, t.colBegin, t.colEnd))));
    return out;
}

TiledDesign
TiledDesign::fromTiles(
    TilePlan plan,
    std::vector<std::shared_ptr<const CompiledMatrix>> tiles,
    std::size_t rows, const TileOptions &tile)
{
    if (tiles.empty() || plan.tiles.size() != tiles.size())
        SPATIAL_FATAL("tile plan/compiled tile mismatch: ",
                      plan.tiles.size(), " vs ", tiles.size());
    std::size_t col = 0;
    for (std::size_t i = 0; i < tiles.size(); ++i) {
        const Tile &t = plan.tiles[i];
        if (t.colBegin != col || t.colEnd <= t.colBegin)
            SPATIAL_FATAL("tile ", i, " not contiguous at column ",
                          col);
        if (tiles[i] == nullptr || tiles[i]->rows() != rows ||
            tiles[i]->cols() != t.colEnd - t.colBegin)
            SPATIAL_FATAL("tile ", i, " shape mismatch");
        col = t.colEnd;
    }
    TiledDesign out;
    out.plan_ = std::move(plan);
    out.tiles_ = std::move(tiles);
    out.tileOptions_ = tile;
    out.rows_ = rows;
    out.cols_ = col;
    return out;
}

const CompileOptions &
TiledDesign::options() const
{
    return tiles_.front()->options();
}

const CompiledMatrix &
TiledDesign::single() const
{
    if (tiled())
        SPATIAL_FATAL("design is tiled (", tiles_.size(),
                      " tiles); no single CompiledMatrix view");
    return *tiles_.front();
}

const std::shared_ptr<const CompiledMatrix> &
TiledDesign::singlePtr() const
{
    if (tiled())
        SPATIAL_FATAL("design is tiled (", tiles_.size(),
                      " tiles); no single CompiledMatrix view");
    return tiles_.front();
}

std::size_t
TiledDesign::weightOnes() const
{
    std::size_t ones = 0;
    for (const auto &t : tiles_)
        ones += t->weightOnes();
    return ones;
}

std::uint32_t
TiledDesign::drainCycles() const
{
    std::uint32_t drain = 0;
    for (const auto &t : tiles_)
        drain = std::max(drain, t->drainCycles());
    return drain;
}

std::size_t
TiledDesign::netlistNodes() const
{
    std::size_t n = 0;
    for (const auto &t : tiles_)
        n += t->netlist().numNodes();
    return n;
}

std::vector<std::int64_t>
TiledDesign::multiply(const std::vector<std::int64_t> &a) const
{
    if (!tiled())
        return tiles_.front()->multiply(a);
    std::vector<std::int64_t> out(cols_);
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
        const auto part = tiles_[i]->multiply(a);
        std::copy(part.begin(), part.end(),
                  out.begin() +
                      static_cast<std::ptrdiff_t>(plan_.tiles[i].colBegin));
    }
    return out;
}

IntMatrix
TiledDesign::multiplyBatch(const IntMatrix &batch) const
{
    if (!tiled())
        return tiles_.front()->multiplyBatch(batch);
    IntMatrix out(batch.rows(), cols_);
    for (std::size_t i = 0; i < tiles_.size(); ++i) {
        const IntMatrix part = tiles_[i]->multiplyBatch(batch);
        const std::size_t c0 = plan_.tiles[i].colBegin;
        for (std::size_t r = 0; r < part.rows(); ++r)
            for (std::size_t c = 0; c < part.cols(); ++c)
                out.at(r, c0 + c) = part.at(r, c);
    }
    return out;
}

IntMatrix
TiledDesign::multiplyBatchWide(const IntMatrix &batch,
                               const SimOptions &sim,
                               BatchStats *stats) const
{
    if (!tiled())
        return runBatchWide(*tiles_.front(), batch, sim, stats);
    if (batch.cols() != rows_)
        SPATIAL_FATAL("batch width ", batch.cols(),
                      " != design rows ", rows_);

    IntMatrix out(batch.rows(), cols_);

    // Shard whole tiles across workers.  Tiles write disjoint column
    // ranges of `out`, so the only synchronization is the join and the
    // stats merge; inside a tile the engine runs single-threaded —
    // cross-tile parallelism already saturates the requested threads.
    unsigned threads = sim.threads != 0
                           ? sim.threads
                           : std::thread::hardware_concurrency();
    threads = std::max(1u, threads);
    threads = static_cast<unsigned>(std::min<std::size_t>(
        threads, tiles_.size()));
    SimOptions tile_sim = sim;
    tile_sim.threads = 1;

    std::atomic<std::size_t> next{0};
    std::mutex stats_mutex;
    BatchStats total;
    auto work = [&] {
        BatchStats local;
        for (;;) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= tiles_.size())
                break;
            const IntMatrix part =
                runBatchWide(*tiles_[i], batch, tile_sim, &local);
            const std::size_t c0 = plan_.tiles[i].colBegin;
            for (std::size_t r = 0; r < part.rows(); ++r)
                for (std::size_t c = 0; c < part.cols(); ++c)
                    out.at(r, c0 + c) = part.at(r, c);
        }
        std::lock_guard<std::mutex> lock(stats_mutex);
        total.add(local);
    };
    std::vector<std::thread> pool;
    pool.reserve(threads - 1);
    for (unsigned t = 1; t < threads; ++t)
        pool.emplace_back(work);
    work();
    for (auto &t : pool)
        t.join();

    if (stats != nullptr)
        stats->add(total);
    return out;
}

TiledGemv::TiledGemv(const TiledDesign &design) : design_(design)
{
    gemvs_.reserve(design.tileCount());
    for (std::size_t i = 0; i < design.tileCount(); ++i)
        gemvs_.emplace_back(design.tile(i));
}

std::vector<std::int64_t>
TiledGemv::multiply(const std::vector<std::int64_t> &x)
{
    std::vector<std::int64_t> out(design_.cols());
    multiplyInto(x, out);
    return out;
}

void
TiledGemv::multiplyInto(const std::vector<std::int64_t> &x,
                        std::vector<std::int64_t> &out)
{
    out.resize(design_.cols());
    if (gemvs_.size() == 1) {
        gemvs_.front().multiplyInto(x, out);
        return;
    }
    for (std::size_t i = 0; i < gemvs_.size(); ++i) {
        gemvs_[i].multiplyInto(x, scratch_);
        std::copy(scratch_.begin(), scratch_.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(
                                    design_.plan().tiles[i].colBegin));
    }
}

BatchStats
TiledGemv::engineStats() const
{
    BatchStats total;
    for (const auto &g : gemvs_)
        total.add(g.engineStats());
    return total;
}

} // namespace spatial::core
