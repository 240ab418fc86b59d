/**
 * @file
 * Batched execution of compiled designs on the tape engine.
 *
 * This is the machinery behind CompiledMatrix::multiplyBatchWide and the
 * batched ESN backend: it runs a design's cached ExecPlan on
 * BlockSimulator<W> over groups of 64*W input vectors, sharding
 * independent groups across worker threads.
 *
 * Per group, the input vectors are bit-transposed once into port-major
 * lane-word planes (one plane per input bit position plus one
 * sign-extension plane), so the drain loop feeds each cycle with a
 * single pointer bump instead of re-gathering batch elements per row per
 * cycle.  Output streams are captured as raw lane-words (a W-word copy
 * per column per capture cycle) and decoded back to integers once per
 * group.  All scratch planes live in a per-worker context that is reused
 * across that worker's groups.
 */

#ifndef SPATIAL_CORE_BATCH_ENGINE_H
#define SPATIAL_CORE_BATCH_ENGINE_H

#include <cstdint>
#include <vector>

#include "circuit/block_simulator.h"
#include "core/options.h"
#include "matrix/dense.h"

namespace spatial::core
{

class CompiledMatrix;

/**
 * Engine-side accounting of one batched run: how many tape segments
 * the activity-gated simulators executed versus skipped as quiescent
 * (both zero when gating is disabled).
 */
struct BatchStats
{
    /** Segments executed across all groups and workers. */
    std::uint64_t segmentsExecuted = 0;

    /** Segments skipped as provably quiescent. */
    std::uint64_t segmentsSkipped = 0;

    /** Accumulate another run's counters. */
    void
    add(const BatchStats &other)
    {
        segmentsExecuted += other.segmentsExecuted;
        segmentsSkipped += other.segmentsSkipped;
    }
};

/**
 * Multiply every row of `batch` through the design's compiled tape.
 * Bit-exact with CompiledMatrix::multiplyBatch (proved by the
 * equivalence suite); groups run across `options.threads` workers.
 * When `stats` is non-null, the run's segment accounting is added to
 * it.
 */
IntMatrix runBatchWide(const CompiledMatrix &design, const IntMatrix &batch,
                       const SimOptions &options = {},
                       BatchStats *stats = nullptr);

/**
 * The lane-word count W that runBatchWide uses for this design and a
 * batch of `batch_rows` vectors under `options` (resolves
 * laneWords == 0 auto sizing against the resolved kernel's vector
 * width), so callers can account netlist passes exactly.
 */
unsigned resolvedLaneWords(const CompiledMatrix &design,
                           const SimOptions &options,
                           std::size_t batch_rows);

/**
 * The SIMD kernel runBatchWide executes under `options`: the injected
 * SimOptions::kernel, or the process-wide runtime-detected one.
 * Callers use it to report the dispatched kernel by name.
 */
const circuit::kernels::Kernel &resolvedKernel(const SimOptions &options);

/**
 * The worker-thread count runBatchWide actually spawns for this
 * design/batch pair under `options`: SimOptions::threads with the 0 =
 * "one per hardware context" sentinel resolved and the result clamped
 * to the number of 64*W-lane groups, so benches and serving stats can
 * report the real parallelism instead of the raw option value.
 */
unsigned resolvedThreads(const CompiledMatrix &design,
                         const SimOptions &options,
                         std::size_t batch_rows);

/**
 * Persistent single-vector executor on the tape engine.
 *
 * The recurrent ESN update is sequential (each state feeds the next), so
 * it cannot use batch lanes — but it issues thousands of single-vector
 * multiplies against one design.  TapeGemv keeps one BlockSimulator and
 * all scratch planes alive across calls, replacing the per-call
 * interpreter dispatch and allocation of the scalar path.
 */
class TapeGemv
{
  public:
    /**
     * Bind to a design; the design must outlive this object.  The
     * gating knobs of `options` apply per multiply (threads and
     * laneWords are meaningless for a single-vector executor and are
     * ignored).
     */
    explicit TapeGemv(const CompiledMatrix &design,
                      const SimOptions &options = {});

    /** o = x^T V; bit-exact with CompiledMatrix::multiply(). */
    std::vector<std::int64_t> multiply(const std::vector<std::int64_t> &x);

    /** As multiply(), writing into a caller-owned output vector. */
    void multiplyInto(const std::vector<std::int64_t> &x,
                      std::vector<std::int64_t> &out);

    /** Cumulative segment accounting across this object's multiplies. */
    const BatchStats &engineStats() const { return stats_; }

  private:
    const CompiledMatrix &design_;
    circuit::BlockSimulator<1, false> sim_;
    std::vector<std::uint64_t> planes_; //!< (inputBits+1) x rows words
    std::vector<std::uint64_t> raw_;    //!< per-column captured bits
    BatchStats stats_;                  //!< cumulative segment counters
};

} // namespace spatial::core

#endif // SPATIAL_CORE_BATCH_ENGINE_H
