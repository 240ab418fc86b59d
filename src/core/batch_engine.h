/**
 * @file
 * Batched execution of compiled designs on the tape engine, and exact
 * single-vector stream evaluation.
 *
 * This is the machinery behind CompiledMatrix::multiplyBatchWide and the
 * batched ESN backend: it runs a design's ExecPlan — the one segmented
 * schedule built at compile time — on BlockSimulator<W> over groups of
 * 64*W input vectors, sharding independent groups across worker threads.
 *
 * Per group, the input vectors are bit-transposed once into port-major
 * lane-word planes (one plane per input bit position plus one
 * sign-extension plane), so the drain loop feeds each cycle with a
 * single pointer bump instead of re-gathering batch elements per row per
 * cycle.  Output streams are captured as raw lane-words (a W-word copy
 * per column per capture cycle) and decoded back to integers once per
 * group.  All scratch planes live in a per-worker context that is reused
 * across that worker's groups.
 *
 * A batch of at most kStreamMaxRows vectors does not pay for 64 lanes:
 * StreamEvaluator runs the same ExecPlan once per vector, each value
 * slot holding the node's whole bit stream as one integer (see
 * docs/simulation.md, "Stream evaluation").  TapeGemv, the sequential
 * ESN executor, uses it for every multiply.
 */

#ifndef SPATIAL_CORE_BATCH_ENGINE_H
#define SPATIAL_CORE_BATCH_ENGINE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/kernels.h"
#include "core/options.h"
#include "matrix/dense.h"

namespace spatial::core
{

class CompiledMatrix;

/**
 * Engine-side accounting of one batched run: how many tape segments
 * the simulators executed versus skipped as quiescent (a forced-dense
 * run executes every segment every cycle and skips none).
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
 * The lane-word count W that runBatchWide uses for a batch of
 * `batch_rows` vectors under `options` (resolves laneWords == 0 auto
 * sizing), so callers can account netlist passes exactly.
 */
unsigned resolvedLaneWords(const SimOptions &options,
                           std::size_t batch_rows);

/**
 * The SIMD kernel runBatchWide executes under `options`: the injected
 * SimOptions::kernel, or the process-wide runtime-detected one.
 * Callers use it to report the dispatched kernel by name.
 */
const circuit::kernels::Kernel &resolvedKernel(const SimOptions &options);

/**
 * The worker-thread count runBatchWide actually spawns for a batch of
 * `batch_rows` vectors under `options`: SimOptions::threads with the
 * 0 = "one per hardware context" sentinel resolved and the result
 * clamped to the number of 64*W-lane groups, so benches and serving
 * stats can report the real parallelism instead of the raw option
 * value.
 */
unsigned resolvedThreads(const SimOptions &options, std::size_t batch_rows);

/**
 * Batches of at most this many rows run StreamEvaluator once per row
 * instead of one bit-serial pass.  Against one bit-serial pass at W = 1
 * on five serving and ESN designs, 16 stream passes ran 0.95-2.05x as
 * fast and 32 ran 0.52-0.91x (docs/simulation.md, "Stream evaluation").
 */
constexpr std::size_t kStreamMaxRows = 16;

/**
 * Exact single-vector evaluation of a compiled netlist in one pass.
 *
 * A bit-serial adder run for T cycles emits exactly the low T bits of
 * the sum of its two operand streams, so every value slot can hold its
 * node's whole stream as one integer: an adder is `(a + b) << 1`, a
 * subtractor `(a - b) << 1`, a DFF `a << 1` and a comb op the bitwise
 * op.  One walk over the plan's comb and register tapes, merged in
 * ascending destination slot (topological: every source slot is below
 * its op's slot), computes every stream; a column's result is its
 * stream shifted down by lsbLatency, cut to the cycles below
 * drainCycles and to outputBits, then sign-extended.  Bit-exact with
 * the bit-serial engines (the stream_eval suite proves it).
 *
 * The stream word is 64 bits wide when drainCycles <= 64 and 128 bits
 * up to kMaxDrainCycles; supports() is false beyond that, and callers
 * fall back to the bit-serial engine.  One object is single-threaded;
 * its value array is reused across calls.
 */
class StreamEvaluator
{
  public:
    /** Widest stream, in cycles, the 128-bit word holds. */
    static constexpr std::uint32_t kMaxDrainCycles = 128;

    /** Whether `design`'s streams fit the widest word. */
    static bool
    supports(const CompiledMatrix &design);

    /**
     * Bind to a design; the design must outlive this object, and
     * supports(design) must hold.
     */
    explicit StreamEvaluator(const CompiledMatrix &design);

    /**
     * out[c] = (x^T V)[c] for the design's rows() inputs at `x` and
     * cols() outputs at `out`.  Inputs are taken as the bit-serial
     * engines take them: the low inputBits bits, sign-extended when
     * inputsSigned.
     */
    void multiply(const std::int64_t *x, std::int64_t *out);

  private:
    template <typename Word>
    void multiplyT(std::vector<Word> &values, const std::int64_t *x,
                   std::int64_t *out) const;

    const CompiledMatrix &design_;
    std::vector<std::uint64_t> narrow_;  //!< slot streams, <= 64 cycles
    std::vector<unsigned __int128> wide_; //!< slot streams, <= 128 cycles
};

/**
 * Persistent single-vector executor: the recurrent ESN update is
 * sequential (each state feeds the next), so it cannot use batch lanes,
 * but it issues thousands of single-vector multiplies against one
 * design.  Every multiply is one StreamEvaluator pass over a value
 * array kept alive across calls (a design beyond
 * StreamEvaluator::kMaxDrainCycles runs the bit-serial engine on one
 * lane instead).
 */
class TapeGemv
{
  public:
    /** Bind to a design; the design must outlive this object. */
    explicit TapeGemv(const CompiledMatrix &design);

    /** o = x^T V; bit-exact with CompiledMatrix::multiply(). */
    std::vector<std::int64_t> multiply(const std::vector<std::int64_t> &x);

    /** As multiply(), writing into a caller-owned output vector. */
    void multiplyInto(const std::vector<std::int64_t> &x,
                      std::vector<std::int64_t> &out);

    /**
     * Cumulative segment accounting across this object's multiplies: a
     * stream pass books every plan segment once as executed and none
     * as skipped.
     */
    const BatchStats &engineStats() const { return stats_; }

  private:
    const CompiledMatrix &design_;
    std::optional<StreamEvaluator> stream_; //!< empty past 128 cycles
    BatchStats stats_;                      //!< cumulative segment counters
};

} // namespace spatial::core

#endif // SPATIAL_CORE_BATCH_ENGINE_H
