/**
 * @file
 * Runtime column tiling: one logical design composed of column-strip
 * CompiledMatrix tiles — Section VIII executed, not just modeled.
 *
 * The paper's large-scale section observes that "the compute matrix
 * cannot entirely fit in hardware and must be tiled similar to DNN
 * accelerators".  core::planColumnTiles already knows how to cut a
 * matrix into contiguous column strips whose ones-cost fits a device
 * budget; TiledDesign drives that plan from the runtime.  Each tile is
 * an ordinary CompiledMatrix (its own netlist, ExecPlan, SIMD tape
 * and activity gating), and because the output columns
 * of a GEMV are independent dot products, the tile results stitch
 * together by column concatenation — the composed result is bit-exact
 * with compiling the whole matrix at once.
 *
 * Execution: every tile consumes the full input vector (tiles split
 * columns, not rows).  multiplyBatchWide shards whole tiles across
 * worker threads — tiles write disjoint column ranges of the output,
 * so no synchronization is needed beyond the join — while each tile
 * runs its own single-threaded engine pass.  A design that fits in
 * one tile delegates straight through to the untiled hot paths.
 */

#ifndef SPATIAL_CORE_TILED_DESIGN_H
#define SPATIAL_CORE_TILED_DESIGN_H

#include <cstdint>
#include <memory>
#include <vector>

#include "core/batch_engine.h"
#include "core/compiled_matrix.h"
#include "core/options.h"
#include "core/tiling.h"
#include "matrix/dense.h"

namespace spatial::core
{

/** Device-budget knobs for runtime column tiling. */
struct TileOptions
{
    /**
     * Ones budget per tile (the Figure-10 LUT-cost model: set bits of
     * the compiled P/N pair).  A dim-256 dense 8-bit design lands
     * around 2^18 ones, so the default keeps every tile within the
     * envelope the single-device experiments already exercise while a
     * dim-8192 matrix splits into strips.  0 means "never tile".
     */
    std::size_t onesBudget = std::size_t(1) << 18;

    /**
     * Optional hard cap on columns per tile; 0 disables.  Mostly a
     * test hook (forcing many tiles on small matrices) but also useful
     * to bound per-tile output width independently of density.
     */
    std::size_t maxTileCols = 0;

    /** Field-wise equality (the store serializes these). */
    bool operator==(const TileOptions &) const = default;
};

/**
 * A fixed matrix compiled as one or more column-strip tiles.
 *
 * Immutable after compile() and shared across threads the same way
 * CompiledMatrix is; the tile vector itself holds shared_ptrs so a
 * serializer or store can alias individual tiles.
 */
class TiledDesign
{
  public:
    /**
     * Compile `weights` under `options`, cutting the column space into
     * tiles whose estimated ones-cost fits `tile.onesBudget` (see
     * planColumnTiles; a single over-budget column still gets its own
     * tile).  A matrix within budget compiles as exactly one tile.
     */
    static TiledDesign compile(const IntMatrix &weights,
                               const CompileOptions &options,
                               const TileOptions &tile = {});

    /**
     * Reassemble from already-compiled tiles (the store's load path).
     * `plan.tiles` and `tiles` must correspond one-to-one, cover
     * [0, cols) contiguously, and share `rows`.
     */
    static TiledDesign
    fromTiles(TilePlan plan,
              std::vector<std::shared_ptr<const CompiledMatrix>> tiles,
              std::size_t rows, const TileOptions &tile);

    /** Input dimension (every tile consumes the full vector). */
    std::size_t rows() const { return rows_; }

    /** Output dimension (the concatenation of the tile strips). */
    std::size_t cols() const { return cols_; }

    /** The compiler configuration every tile was built with. */
    const CompileOptions &options() const;

    /** The tiling budget this design was cut under. */
    const TileOptions &tileOptions() const { return tileOptions_; }

    /** The column partition (one entry per tile). */
    const TilePlan &plan() const { return plan_; }

    /** Number of column-strip tiles (1 when the matrix fit). */
    std::size_t tileCount() const { return tiles_.size(); }

    /** True when the design needed more than one tile. */
    bool tiled() const { return tiles_.size() > 1; }

    /** Tile `i`'s compiled strip. */
    const CompiledMatrix &tile(std::size_t i) const { return *tiles_[i]; }

    /** Tile `i`'s strip as a shareable pointer (serializer). */
    const std::shared_ptr<const CompiledMatrix> &
    tilePtr(std::size_t i) const
    {
        return tiles_[i];
    }

    /**
     * The untiled design; fatal when tiled() — callers that need a
     * plain CompiledMatrix (e.g. TapeGemv-based tooling) must check.
     */
    const CompiledMatrix &single() const;

    /** As single(), as a shareable pointer. */
    const std::shared_ptr<const CompiledMatrix> &singlePtr() const;

    /** Total set bits across every tile's compiled P/N pair. */
    std::size_t weightOnes() const;

    /** Worst-case drain cycles across tiles (tiles run in parallel). */
    std::uint32_t drainCycles() const;

    /** Netlist nodes summed over tiles (size reporting). */
    std::size_t netlistNodes() const;

    /**
     * o = a^T V by cycle-accurate simulation of every tile, results
     * concatenated by column range.  Bit-exact with compiling the
     * whole matrix untiled (the column strips are independent).
     */
    std::vector<std::int64_t>
    multiply(const std::vector<std::int64_t> &a) const;

    /** Scalar-interpreter batch path (reference; every row of batch). */
    IntMatrix multiplyBatch(const IntMatrix &batch) const;

    /**
     * The fast path: every tile's strip runs through the wide tape
     * engine, whole tiles sharded across `sim.threads` workers (0 =
     * hardware concurrency, clamped to the tile count); each tile's
     * pass is single-threaded.  A single-tile design delegates to
     * CompiledMatrix::multiplyBatchWide with `sim` untouched, keeping
     * the untiled hot path identical to before.  When `stats` is
     * non-null every tile's engine accounting is added to it.
     */
    IntMatrix multiplyBatchWide(const IntMatrix &batch,
                                const SimOptions &sim = {},
                                BatchStats *stats = nullptr) const;

  private:
    TiledDesign() = default;

    std::vector<std::shared_ptr<const CompiledMatrix>> tiles_;
    TilePlan plan_;
    TileOptions tileOptions_;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
};

/**
 * Persistent single-vector executor over a tiled design: one TapeGemv
 * per tile, outputs stitched per call.  The sequential ESN update
 * cannot batch, so keeping every tile's simulator and scratch planes
 * alive across the thousands of steps matters exactly as it does for
 * the untiled TapeGemv.
 */
class TiledGemv
{
  public:
    /** Bind to a design; the design must outlive this object. */
    explicit TiledGemv(const TiledDesign &design,
                       const SimOptions &options = {});

    /** o = x^T V; bit-exact with TiledDesign::multiply(). */
    std::vector<std::int64_t>
    multiply(const std::vector<std::int64_t> &x);

    /** As multiply(), writing into a caller-owned output vector. */
    void multiplyInto(const std::vector<std::int64_t> &x,
                      std::vector<std::int64_t> &out);

    /** Cumulative engine accounting summed over the tile executors. */
    BatchStats engineStats() const;

  private:
    const TiledDesign &design_;
    std::vector<std::unique_ptr<TapeGemv>> gemvs_; //!< one per tile
    std::vector<std::int64_t> scratch_;            //!< per-tile output
};

} // namespace spatial::core

#endif // SPATIAL_CORE_TILED_DESIGN_H
