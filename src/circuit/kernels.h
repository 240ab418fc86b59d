/**
 * @file
 * Explicit SIMD kernels for the tape engine's three hot loops.
 *
 * BlockSimulator<W> spends essentially all of its time in two sweeps —
 * the settle tape `(a & b) ^ inv` loop and the commit full-adder loop —
 * and the batch engine adds a third hot spot, the 64x64 bit-matrix
 * transpose that converts lane-major values to bit-plane lane-words.
 * All three are pure 64-bit word-parallel bit logic, which vector units
 * execute 2-4 words at a time; relying on auto-vectorization of the
 * fixed-trip word loops (the PR 1 approach) leaves most of that width
 * unused because Release builds target baseline SSE2.
 *
 * A Kernel packages explicit implementations of the three loops.  The
 * registry holds one Kernel per instruction set compiled into the
 * binary and supported by the running CPU:
 *
 *  - `scalar` — portable 64-bit code, always present; semantically the
 *    reference (it is the PR 1 inner loop, hoisted out of the class).
 *  - `avx2`   — 256-bit, 4 lane-words per op (x86 with AVX2).
 *  - `neon`   — 128-bit, 2 lane-words per op (AArch64).
 *
 * There is deliberately no 512-bit kernel: the tape is bound by memory
 * bandwidth, and an AVX-512 kernel never cleared AVX2 by the 1.15x a
 * second path must earn (see docs/simulation.md), so it was removed.
 *
 * activeKernel() picks the best supported kernel once per process —
 * preference order avx2, neon, scalar (overridable with the
 * SPATIAL_KERNEL environment variable, e.g. SPATIAL_KERNEL=scalar to
 * rule the SIMD paths out while debugging);
 * SimOptions::kernel and the BlockSimulator constructor accept an
 * explicit Kernel so the equivalence suite and the throughput bench can
 * pin every dispatch target.
 *
 * Every kernel is bit-identical to the scalar path by construction
 * (same word reads, same word writes, exact popcount toggle
 * accounting), and the equivalence suite proves it against
 * WideSimulator for each registered kernel.
 */

#ifndef SPATIAL_CIRCUIT_KERNELS_H
#define SPATIAL_CIRCUIT_KERNELS_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "circuit/exec_plan.h"

/**
 * @namespace spatial::circuit
 * Netlist representation, execution planning, and simulation engines.
 */

/**
 * @namespace spatial::circuit::kernels
 * Runtime-dispatched SIMD implementations of the tape engine's hot
 * loops (settle sweep, commit sweep, 64x64 bit transpose).
 */
namespace spatial::circuit::kernels
{

/**
 * One dispatchable implementation of the tape engine's hot loops.
 *
 * The sweeps take the lane-word count W (the BlockSimulator template
 * parameter) at runtime; implementations specialize internally for the
 * supported widths {1, 2, 4, 8} and fall back to a generic word loop
 * otherwise.  `cur` is the simulator's value array laid out as W
 * consecutive words per node slot.
 */
struct Kernel
{
    /** Registry name: "scalar", "avx2", or "neon". */
    const char *name;

    /**
     * 64-bit lane-words covered by one vector register (1 for scalar);
     * the adaptive lane-word heuristic sizes W to a multiple of this.
     */
    unsigned vectorWords;

    /** Settle sweep: `cur[op.dst*W + w] = (a[w] & b[w]) ^ inv`. */
    void (*settle)(const ExecPlan::CombOp *ops, std::size_t count,
                   std::uint64_t *cur, unsigned laneWords);

    /**
     * Commit sweep (bit-serial full adder, in place, tape order).
     * `carry` holds W words per RegOp, indexed by tape position.
     * Returns the register-bit toggle count of the pass when
     * `countToggles` is set (exactly WideSimulator's accounting), 0
     * otherwise.
     */
    std::uint64_t (*commit)(const ExecPlan::RegOp *ops, std::size_t count,
                            std::uint64_t *cur, std::uint64_t *carry,
                            unsigned laneWords, bool countToggles);

    /**
     * As commit(), but processing the tape from the last op to the
     * first.  On a tape sorted by ascending destination slot this is
     * the hazard-free in-place order (every reader commits before its
     * source is overwritten), which is how gated simulators run their
     * dense full-sweep cycles without disturbing the ascending layout
     * the per-segment sweeps prefer.
     */
    std::uint64_t (*commitReverse)(const ExecPlan::RegOp *ops,
                                   std::size_t count, std::uint64_t *cur,
                                   std::uint64_t *carry,
                                   unsigned laneWords, bool countToggles);

    /**
     * Settle sweep that additionally OR-reduces every value change:
     * returns the OR over all ops and lane-words of
     * `old dst ^ new dst` — the segment's combinational change mask
     * for activity gating (zero means the sweep was a fixed point).
     * Same writes as settle().
     */
    std::uint64_t (*settleMasked)(const ExecPlan::CombOp *ops,
                                  std::size_t count, std::uint64_t *cur,
                                  unsigned laneWords);

    /**
     * Gated commit sweep: computes each register's next state into
     * `pending` (W words per RegOp, tape position order) instead of
     * writing `cur` in place, advances `carry`, and returns the
     * OR-reduced register change mask
     * `(old dst ^ sum) | (carry ^ carry')`.  When `countToggles` is
     * set, adds the pass's exact toggle count (identical to commit's
     * accounting) to `*toggles`.
     *
     * The previous pending value *is* the op's presented value (the
     * simulator keeps `cur[dst]` equal to it), so the old state is
     * read from the sequential pending stream rather than a scattered
     * dst load.  When `flipCur` is non-null (the segment still owes
     * the flip of its previous next states into the value array), the
     * sweep performs that flip inline — `flipCur[dst] = old pending` —
     * before overwriting pending, folding what would be a separate
     * pass over both arrays into stores the sweep already has in
     * registers.  The simulator makes this cycle's next states visible
     * the same way at the segment's following execution, which keeps
     * every reader of a register — including ops in segments executed
     * after this one — on the presented value for the rest of the
     * cycle.
     */
    std::uint64_t (*commitGated)(const ExecPlan::RegOp *ops,
                                 std::size_t count,
                                 const std::uint64_t *cur,
                                 std::uint64_t *carry,
                                 std::uint64_t *pending,
                                 unsigned laneWords, bool countToggles,
                                 std::uint64_t *toggles,
                                 std::uint64_t *flipCur);

    /**
     * In-place 64x64 bit-matrix transpose: afterwards bit t of
     * block[l] is the old bit l of block[t].
     */
    void (*transpose64)(std::uint64_t block[64]);
};

/** The portable reference kernel (always available). */
const Kernel &scalarKernel();

/**
 * Kernels compiled into this binary and supported by the running CPU
 * in dispatch-preference order; the scalar kernel is always last.
 */
const std::vector<const Kernel *> &supportedKernels();

/** Look up a supported kernel by name; nullptr when absent. */
const Kernel *findKernel(const std::string &name);

/**
 * The process-wide dispatched kernel: the first (preferred) entry of
 * supportedKernels(), unless the SPATIAL_KERNEL environment variable
 * names another supported kernel (fatal if it names anything else).
 * Resolved once and cached.
 */
const Kernel &activeKernel();

} // namespace spatial::circuit::kernels

#endif // SPATIAL_CIRCUIT_KERNELS_H
