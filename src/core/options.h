/**
 * @file
 * Configuration of the spatial matrix compiler.
 */

#ifndef SPATIAL_CORE_OPTIONS_H
#define SPATIAL_CORE_OPTIONS_H

#include <cstdint>

namespace spatial::circuit::kernels
{
struct Kernel;
}

/**
 * @namespace spatial::core
 * The spatial matrix compiler and its batch simulation engine.
 */
namespace spatial::core
{

/** How signed weights are decomposed before spatial implementation. */
enum class SignMode : std::uint8_t
{
    /** Weights used as-is; requires a non-negative matrix.  (Section IV) */
    Unsigned,
    /** V = P - N positive/negative split plus final subtractors. */
    PnSplit,
    /** PN split followed by the CSD transform (Section V). */
    Csd,
};

const char *signModeName(SignMode mode);

/** Compiler knobs; defaults match the paper's main configuration. */
struct CompileOptions
{
    /** Bit width of the streamed input elements. */
    int inputBits = 8;

    /** Whether input elements are two's complement (sign-extended). */
    bool inputsSigned = true;

    /** Signed-weight handling. */
    SignMode signMode = SignMode::PnSplit;

    /**
     * The paper's fundamental minimization: cull AND gates and adders for
     * zero weight bits.  Disabling keeps the naive Figure-2a structure —
     * an AND gate and a full reduction tree over every row — and exists
     * for the ablation bench.
     */
    bool constantPropagation = true;

    /**
     * Reduce partial sums with a balanced binary tree (logarithmic
     * depth).  Disabling degrades to a linear chain for the ablation.
     */
    bool balancedTree = true;

    /**
     * Insert delay registers so every column's output stream starts at
     * the same cycle, as the SRAM capture wrapper expects.
     */
    bool alignOutputs = true;

    /** Extra captured output bits beyond the no-overflow width. */
    int extraOutputBits = 0;

    /**
     * Maximum loads any single net may drive; 0 disables the limit.
     * When set, high-fanout input broadcasts are pipelined through
     * register repeater trees — the Section VIII fix for "the fanout of
     * the input broadcast saturates the interconnect ... and limits
     * frequency".  Costs one cycle of latency per repeater level.
     */
    std::uint32_t broadcastFanoutLimit = 0;

    /** Seed for the CSD length-2 chain coin flips. */
    std::uint64_t csdSeed = 0x5eed;

    /** Field-wise equality (the experiment design cache keys on it). */
    bool operator==(const CompileOptions &) const = default;
};

/**
 * Runtime knobs of the compiled-tape batch simulation engine (the
 * ExecPlan / BlockSimulator path behind CompiledMatrix::multiplyBatchWide
 * and the batched ESN backend).  Defaults auto-size to the workload and
 * machine; see docs/simulation.md for the threading model.
 */
struct SimOptions
{
    /**
     * Worker threads sharding independent 64*laneWords-lane groups of a
     * batch.  0 = one thread per hardware context (clamped to the number
     * of groups, so small batches never pay thread-spawn overhead).
     */
    unsigned threads = 0;

    /**
     * 64-bit lane-words processed per node per pass (W): each netlist
     * pass evaluates 64*laneWords independent vectors.  Must be one of
     * 1, 2, 4, 8; 0 = auto — the widest block the batch can fill,
     * shrunk while the simulator state overflows a conservative
     * mid-level-cache budget; when the batch fills at least one vector
     * register of the dispatched kernel (an AVX2 op covers 4 words,
     * NEON 2), the shrink floors at that width so large
     * batches always ride the SIMD sweeps.  Under activity gating the
     * cache shrink is skipped entirely: execution is already blocked
     * into L1-sized segments, and the widest fillable block amortizes
     * the gated sweeps' per-op overhead over the most lanes.
     */
    unsigned laneWords = 0;

    /**
     * SIMD kernel executing the settle/commit sweeps and transposes
     * (see circuit/kernels.h): scalar, avx2 or neon.  nullptr = the
     * process-wide kernel picked by runtime CPU detection (overridable
     * with the SPATIAL_KERNEL environment variable); tests and the
     * throughput bench inject specific kernels to compare dispatch
     * targets.
     */
    const circuit::kernels::Kernel *kernel = nullptr;

    /**
     * Segmented, activity-gated execution (circuit::Segmentation): the
     * tapes run as cache-sized segments settled and committed in one
     * fused pass each, and a segment is skipped entirely in cycles
     * where its dependency frontier did not change — bit-exact
     * (outputs and toggle counts) with the full sweeps, and the big
     * win on the drain cycles of a bit-serial stream, where most of
     * the circuit is provably quiescent.  Disabling falls back to the
     * monolithic settle/commit sweeps.
     */
    bool activityGating = true;

    /**
     * Working-set target per segment in KiB for activity-gated
     * execution: smaller segments gate at a finer grain (more skipped
     * work) but pay more per-segment bookkeeping.  The default keeps a
     * segment's slice of the value array L1-resident between its
     * settle and its commit — measured fastest around 2-8 KiB on the
     * acceptance workload, degrading past the L1 size.
     */
    unsigned segmentKib = 4;
};

} // namespace spatial::core

#endif // SPATIAL_CORE_OPTIONS_H
