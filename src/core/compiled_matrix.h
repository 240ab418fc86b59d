/**
 * @file
 * The artifact produced by the spatial compiler: a netlist implementing
 * o = a^T V for one fixed matrix, plus the stream bookkeeping needed to
 * drive it and capture results.
 */

#ifndef SPATIAL_CORE_COMPILED_MATRIX_H
#define SPATIAL_CORE_COMPILED_MATRIX_H

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/netlist.h"
#include "circuit/simulator.h"
#include "core/options.h"
#include "matrix/dense.h"

namespace spatial::circuit
{
class ExecPlan;
} // namespace spatial::circuit

namespace spatial::store
{
class DesignSerializer;
} // namespace spatial::store

namespace spatial::core
{

/** Where one output column's result stream emerges. */
struct ColumnOutput
{
    /** Producing component, or kNoNode for an all-zero column. */
    circuit::NodeId node = circuit::kNoNode;

    /**
     * Cycle at which result bit 0 appears (bit t appears at
     * lsbLatency + t).  May be negative for columns whose bookkeeping
     * doubled an undelayed stream; bits before cycle 0 are zero.
     */
    std::int32_t lsbLatency = 0;
};

/**
 * A fixed matrix compiled to a spatial bit-serial design.
 *
 * multiply() streams a vector through a cycle-accurate simulation of the
 * generated netlist and returns the exact integer product, which tests
 * compare against the reference gemv.
 */
class CompiledMatrix
{
  public:
    const circuit::Netlist &netlist() const { return netlist_; }
    const std::vector<ColumnOutput> &outputs() const { return outputs_; }
    const CompileOptions &options() const { return options_; }

    /**
     * The netlist's compiled execution plan, built once at compile time
     * and shared (immutably) by every simulator instance and worker
     * thread that executes this design.
     */
    const circuit::ExecPlan &plan() const;

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }

    /** Unsigned bitwidth of the compiled (post-transform) weights. */
    int weightBits() const { return weightBits_; }

    /** Total set bits across the compiled P/N pair (the cost driver). */
    std::size_t weightOnes() const { return weightOnes_; }

    /** Bits captured per output column (no-overflow width). */
    int outputBits() const { return outputBits_; }

    /** Cycles from reset until every output has fully drained. */
    std::uint32_t drainCycles() const { return drainCycles_; }

    /**
     * The paper's Equation 5 cycle count for this design
     * (BW_i + BW_w + ceil(log2 R) + 2), used by the evaluation figures.
     */
    std::uint32_t paperLatencyCycles() const;

    /**
     * Steady-state cycles between successive vectors when streaming a
     * batch (one output-width stream per wire per vector).
     */
    std::uint32_t initiationInterval() const;

    /**
     * Compute o = a^T V by cycle-accurate simulation.
     *
     * @param a input vector of length rows(); each element must fit the
     *        configured input bitwidth.
     */
    std::vector<std::int64_t> multiply(const std::vector<std::int64_t> &a)
        const;

    /** As multiply(), reusing the caller's simulator (reset first). */
    std::vector<std::int64_t>
    multiplyWith(circuit::Simulator &sim,
                 const std::vector<std::int64_t> &a) const;

    /** Multiply every row of `batch` (batch.cols() == rows()). */
    IntMatrix multiplyBatch(const IntMatrix &batch) const;

    /**
     * As multiplyBatch(), but on the compiled-tape engine: up to
     * 64 * SimOptions::laneWords vectors per netlist pass on
     * BlockSimulator, with independent lane groups sharded across
     * worker threads.  Bit-exact with the scalar path (proved by the
     * equivalence suite) and the fast path for every batch workload.
     */
    IntMatrix multiplyBatchWide(const IntMatrix &batch,
                                const SimOptions &sim_options = {}) const;

    /**
     * The seed implementation of the wide batch path: one 64-lane
     * WideSimulator group at a time, gathering input bits from the
     * batch every cycle.  Retained as the reference baseline for the
     * equivalence tests and the bench/sim_throughput speedup
     * measurement; use multiplyBatchWide() everywhere else.
     */
    IntMatrix multiplyBatchWideLegacy(const IntMatrix &batch) const;

  private:
    friend class MatrixCompiler;
    /** The store's load path rebuilds designs field-by-field. */
    friend class spatial::store::DesignSerializer;

    circuit::Netlist netlist_;
    std::shared_ptr<const circuit::ExecPlan> plan_;
    std::vector<ColumnOutput> outputs_;
    CompileOptions options_;
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    int weightBits_ = 0;
    int outputBits_ = 0;
    std::size_t weightOnes_ = 0;
    std::uint32_t drainCycles_ = 0;
};

/**
 * Measure the design's register switching activity by streaming the
 * given vectors (up to 64, one per simulator lane) through the
 * netlist: toggles per register bit per cycle per lane.  Feed the
 * result into fpga::PowerCoefficients::activity to replace the default
 * Vivado-style assumption with data-dependent switching.  The engine
 * knobs of `options` (kernel, activity gating) select the execution
 * path; every path counts toggles identically.
 */
double measureSwitchingActivity(const CompiledMatrix &design,
                                const IntMatrix &batch,
                                const SimOptions &options = {});

} // namespace spatial::core

#endif // SPATIAL_CORE_COMPILED_MATRIX_H
