/**
 * @file
 * Tape-driven, >64-lane netlist simulator.
 *
 * BlockSimulator<W> executes a segmented ExecPlan over W consecutive
 * 64-bit lane-words per node, evaluating the same netlist for up to
 * 64*W independent input vectors per step (W=1 matches WideSimulator's
 * 64 lanes; W=4 gives 256, W=8 gives 512).  The settle and commit
 * sweeps are executed by a circuit::kernels::Kernel — explicit SIMD
 * code (AVX2/NEON) selected once per process by runtime CPU detection,
 * or injected by the caller to pin a specific dispatch target (the
 * equivalence suite cross-checks every one).
 *
 * Every W runs the same schedule, the plan's segments, in two kinds of
 * cycle:
 *
 *  - **Gated cycles.**  settle() runs one fused pass over the
 *    segments, settling each segment's comb ops and computing its
 *    registers' next states into a pending buffer in one cache-warm
 *    visit — and *skips* every segment whose frontier did not change:
 *    no frontier segment's comb values changed this cycle, none of its
 *    registers or carries changed last cycle, and the driven inputs
 *    are unchanged (after the input bits of a bit-serial stream are
 *    exhausted, most of the circuit is provably quiescent, which is
 *    where the drain-cycle win comes from).  commit() then flips the
 *    pending next states into the value array.
 *  - **Dense cycles.**  While the driven inputs are changing, gating
 *    is pure overhead, so the cycle runs one full settle sweep and one
 *    in-place commit over the whole plan instead.  Passing
 *    `activityGating = false` forces every cycle dense; that mode
 *    exists only as a bench and test reference for the gated one.
 *
 * Skipping is exact, not approximate: a segment is only skipped when
 * every op would recompute its current value, so outputs *and* toggle
 * counts are bit-identical to forced-dense execution and to
 * WideSimulator (proved by the equivalence suite).  Each settle() must
 * be paired with a commit() before the next settle() — carries advance
 * during the fused pass.
 *
 * The cycle is split into the two synchronous phases explicitly:
 * settle() computes every output for the cycle; outputs must be read
 * between settle() and commit(); commit() latches all register next
 * states.  step() runs both for callers that do not sample outputs.
 *
 * CountToggles selects lane-wise register toggle accounting, identical
 * to WideSimulator's (for switching-activity probes); product paths
 * instantiate the non-counting variant and skip the popcounts entirely.
 *
 * Lane semantics, toggle accounting, and reset state are bit-identical
 * to WideSimulator per lane — verified by the equivalence test suite.
 */

#ifndef SPATIAL_CIRCUIT_BLOCK_SIMULATOR_H
#define SPATIAL_CIRCUIT_BLOCK_SIMULATOR_H

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "circuit/exec_plan.h"
#include "circuit/kernels.h"
#include "common/aligned.h"
#include "common/logging.h"

namespace spatial::circuit
{

/** Executes an ExecPlan over 64*W lanes per step. */
template <unsigned W, bool CountToggles = true>
class BlockSimulator
{
    static_assert(W >= 1 && W <= 16, "1..16 lane-words per node");

  public:
    /** Lane-words per node. */
    static constexpr unsigned kLaneWords = W;

    /** Independent vectors evaluated per step. */
    static constexpr unsigned kLanes = 64 * W;

    /**
     * Bind to a plan; the plan must outlive the simulator.  The sweeps
     * run on `kernel` (default: the runtime-detected process kernel).
     * `activityGating = false` forces every cycle dense (see the file
     * comment).
     */
    BlockSimulator(const ExecPlan &plan,
                   const kernels::Kernel *kernel = nullptr,
                   bool activityGating = true)
        : plan_(plan),
          kernel_(kernel != nullptr ? *kernel : kernels::activeKernel()),
          activityGating_(activityGating),
          slotOf_(plan.slotOf().data()),
          cur_(plan.numSlots() * W, 0),
          carry_(plan.regs().size() * W, 0),
          pending_(plan.regs().size() * W, 0)
    {
        const std::size_t segments = plan.segments().size();
        const std::size_t words = (segments + 63) / 64;
        dirtyNow_.assign(words, 0);
        dirtyNext_.assign(words, 0);
        flipPending_.assign(segments, 0);
        pendingStale_.assign(segments, 0);
        reset();
    }

    /** Power-on state in every lane; clears toggle counters. */
    void
    reset()
    {
        cycle_ = 0;
        toggles_ = 0;
        pendingToggles_ = 0;
        denseCycle_ = false;
        wasDense_ = false;
        quietCycles_ = 0;
        segmentsExecuted_ = 0;
        segmentsSkipped_ = 0;
        std::fill(cur_.begin(), cur_.end(), 0);
        for (unsigned w = 0; w < W; ++w)
            cur_[std::size_t{plan_.onesSlot()} * W + w] = ~std::uint64_t{0};
        for (const auto node : plan_.constOnes())
            for (unsigned w = 0; w < W; ++w)
                cur_[std::size_t{node} * W + w] = ~std::uint64_t{0};
        const auto &regs = plan_.regs();
        for (std::size_t k = 0; k < regs.size(); ++k)
            for (unsigned w = 0; w < W; ++w)
                carry_[k * W + w] = regs[k].carryInit;
        // pending_ needs no clear: cycle 0 always runs dense, and
        // leaving dense marks every segment pendingStale_, so each
        // pending slice is refreshed from the value array before its
        // first gated read.
        std::fill(dirtyNow_.begin(), dirtyNow_.end(), 0);
        std::fill(dirtyNext_.begin(), dirtyNext_.end(), 0);
        std::fill(flipPending_.begin(), flipPending_.end(), 0);
        std::fill(pendingStale_.begin(), pendingStale_.end(), 0);
    }

    /**
     * Phase 1 of a cycle: drive the inputs and settle every output.
     * A gated cycle also computes register next states (into the
     * pending buffer), so each settle() must be followed by a commit()
     * before the next settle().
     *
     * @param input_words port-major plane of W lane-words per port
     *        (port p's words at input_words[p*W .. p*W+W)); ports at or
     *        beyond num_ports read 0 in all lanes.
     */
    void
    settle(const std::uint64_t *input_words, std::size_t num_ports)
    {
        const std::uint64_t input_change =
            driveInputs(input_words, num_ports);
        const auto &segments = plan_.segments();
        const auto *comb = plan_.comb().data();
        const auto *regs = plan_.regs().data();
        const auto *consumers = plan_.consumers().data();

        // While the driven inputs are still changing, essentially the
        // whole circuit is active and per-segment gating is pure
        // overhead — run the cycle *dense*: owed flips first, then one
        // full settle sweep now and one hazard-free in-place commit
        // over the reg tape (walked backwards, so descending slots) at
        // commit() time, with no pending traffic and no change masks
        // at all.  The activity wavefront needs a couple of cycles to
        // recede once the inputs go quiet, so gating resumes shortly
        // after — the drain phase, the skip win this engine exists
        // for.  Forced-dense simulators take this branch every cycle.
        constexpr std::uint32_t kDenseHysteresis = 2;
        quietCycles_ = input_change != 0 ? 0 : quietCycles_ + 1;
        if (!activityGating_ || cycle_ == 0 ||
            quietCycles_ <= kDenseHysteresis) {
            denseCycle_ = true;
            for (std::size_t s = 0; s < segments.size(); ++s) {
                if (!flipPending_[s])
                    continue;
                flipPending_[s] = 0;
                flipSegment(segments[s], regs);
            }
            const auto &all_comb = plan_.comb();
            kernel_.settle(all_comb.data(), all_comb.size(), cur_.data(),
                           W);
            segmentsExecuted_ += segments.size();
            return;
        }

        // First gated cycle after a dense one: the in-place commits
        // bypassed the pending buffer, so every segment must restore
        // its pending == presented invariant before its next gated
        // sweep (done lazily below, right when the slice is hot), and
        // every segment is treated as changed — the masks rebuild the
        // activity wavefront this cycle.
        if (wasDense_) {
            wasDense_ = false;
            std::fill(pendingStale_.begin(), pendingStale_.end(), 1);
            std::fill(dirtyNow_.begin(), dirtyNow_.end(),
                      ~std::uint64_t{0});
            const std::size_t tail = segments.size() % 64;
            if (tail != 0)
                dirtyNow_.back() = (std::uint64_t{1} << tail) - 1;
        }

        // Build this cycle's wake set.  Quiescent segments are never
        // even looked at: changes wake exactly their consumers (comb
        // readers in the same cycle, register readers and the segment
        // itself in the next), and changed input planes wake the
        // input-reading segments.  (Input changes land in the dense
        // branch above, so no input wake is needed here.)

        const auto wake = [](std::vector<std::uint64_t> &set,
                             const std::uint32_t *list,
                             std::uint32_t begin, std::uint32_t end) {
            for (std::uint32_t i = begin; i < end; ++i)
                set[list[i] / 64] |= std::uint64_t{1} << (list[i] % 64);
        };

        std::uint64_t executed = 0;
        for (std::size_t word = 0; word < dirtyNow_.size();) {
            if (dirtyNow_[word] == 0) {
                ++word;
                continue;
            }
            // Re-read the word each round: a comb change can wake a
            // consumer at a higher bit of the same word (consumers
            // always sort after their producer).
            const auto bit = static_cast<unsigned>(
                std::countr_zero(dirtyNow_[word]));
            dirtyNow_[word] &= ~(std::uint64_t{1} << bit);
            const std::size_t s = word * 64 + bit;
            const ExecPlan::Segment &seg = segments[s];
            ++executed;

            // Deferred commit: the segment's pending register states
            // from its last execution become visible now, just before
            // they are needed — every reader of a register sorts after
            // its owner segment, so no earlier op can have observed
            // the stale value.

            // The flip normally rides inside the gated commit sweep
            // (which reloads pending anyway); only a segment with comb
            // ops must flip up front, because its comb ops may read its
            // own registers during settle.
            bool flip = flipPending_[s] != 0;
            flipPending_[s] = 0;
            if (flip && seg.combEnd > seg.combBegin) {
                flip = false;
                flipSegment(seg, regs);
            }
            if (pendingStale_[s]) {
                // Restore pending == presented after a dense cycle's
                // in-place commits, touching exactly the slice the
                // sweep below is about to work on.  (No flip can be
                // owed here: dense entry consumed them all.)
                pendingStale_[s] = 0;
                for (std::uint32_t k = seg.regBegin; k < seg.regEnd;
                     ++k) {
                    const std::uint64_t *src =
                        &cur_[std::size_t{regs[k].dst} * W];
                    std::uint64_t *__restrict dst =
                        &pending_[std::size_t{k} * W];
                    for (unsigned w = 0; w < W; ++w)
                        dst[w] = src[w];
                }
            }

            if (seg.combEnd > seg.combBegin) {
                const std::uint64_t comb_change = kernel_.settleMasked(
                    comb + seg.combBegin, seg.combEnd - seg.combBegin,
                    cur_.data(), W);
                if (comb_change != 0)
                    wake(dirtyNow_, consumers, seg.combConsumersBegin,
                         seg.combConsumersEnd);
            }
            if (seg.regEnd > seg.regBegin) {
                const std::uint64_t reg_change = kernel_.commitGated(
                    regs + seg.regBegin, seg.regEnd - seg.regBegin,
                    cur_.data(),
                    carry_.data() + std::size_t{seg.regBegin} * W,
                    pending_.data() + std::size_t{seg.regBegin} * W, W,
                    CountToggles, &pendingToggles_,
                    flip ? cur_.data() : nullptr);
                if (reg_change != 0) {
                    // A changed register means a changed presented
                    // value next cycle: wake the readers, and the
                    // segment itself so the pending values get flipped
                    // in (an unchanged segment needs no flip — pending
                    // equals the presented state bit for bit).
                    wake(dirtyNext_, consumers, seg.regConsumersBegin,
                         seg.regConsumersEnd);
                    dirtyNext_[word] |= std::uint64_t{1} << bit;
                    flipPending_[s] = 1;
                }
            }
        }
        segmentsExecuted_ += executed;
        segmentsSkipped_ += segments.size() - executed;
    }

    /**
     * Phase 2: latch all register next states.  After a gated cycle
     * the latch becomes *visible* lazily — each segment folds its
     * pending states in at its next settle visit, before any reader —
     * so outputs must be sampled between settle() and commit(), as the
     * contract has always required.
     */
    void
    commit()
    {
        if (denseCycle_) {
            // The dense in-place commit: one hazard-free pass over the
            // reg tape in descending slot order.
            denseCycle_ = false;
            wasDense_ = true;
            const auto &regs = plan_.regs();
            const std::uint64_t toggles =
                kernel_.commitReverse(regs.data(), regs.size(), cur_.data(),
                                      carry_.data(), W, CountToggles);
            if constexpr (CountToggles)
                toggles_ += toggles;
            // Any wake bits queued by an earlier gated cycle are
            // superseded: the next gated cycle starts all-dirty.
            std::fill(dirtyNow_.begin(), dirtyNow_.end(), 0);
            std::fill(dirtyNext_.begin(), dirtyNext_.end(), 0);
            ++cycle_;
            return;
        }

        if constexpr (CountToggles)
            toggles_ += pendingToggles_;
        pendingToggles_ = 0;
        // settle() drained dirtyNow_, so the swap hands it over empty
        // to collect the cycle after next.
        std::swap(dirtyNow_, dirtyNext_);
        ++cycle_;
    }

    /** settle() + commit() for callers that do not sample outputs. */
    void
    step(const std::uint64_t *input_words, std::size_t num_ports)
    {
        settle(input_words, num_ports);
        commit();
    }

    /** Convenience overload matching the WideSimulator vector API. */
    void
    step(const std::vector<std::uint64_t> &input_words)
    {
        SPATIAL_ASSERT(input_words.size() % W == 0,
                       "input plane must hold W words per port");
        step(input_words.data(), input_words.size() / W);
    }

    /**
     * The W settled lane-words of a component this cycle; valid between
     * settle() and commit() (registers present next state afterwards).
     */
    const std::uint64_t *
    outputWords(NodeId id) const
    {
        SPATIAL_ASSERT(id < plan_.numNodes(), "node ", id, " out of range");
        return &cur_[std::size_t{slotOf_[id]} * W];
    }

    /** Lane-word `w` of a component; see outputWords(). */
    std::uint64_t
    outputWord(NodeId id, unsigned w = 0) const
    {
        SPATIAL_ASSERT(w < W, "lane-word ", w, " out of range");
        return outputWords(id)[w];
    }

    /** Completed cycles since reset. */
    std::uint64_t cycle() const { return cycle_; }

    /**
     * Total register-bit toggles across all lanes since reset (always 0
     * in the CountToggles = false variant).
     */
    std::uint64_t toggleCount() const { return toggles_; }

    /** Toggles per register bit per cycle per lane (see WideSimulator). */
    double
    measuredActivity(std::size_t lanes_used = kLanes) const
    {
        static_assert(CountToggles,
                      "activity requires the toggle-counting variant");
        SPATIAL_ASSERT(lanes_used >= 1 && lanes_used <= kLanes, "lanes ",
                       lanes_used);
        if (cycle_ == 0 || plan_.registerBits() == 0)
            return 0.0;
        return static_cast<double>(toggles_) /
               (static_cast<double>(plan_.registerBits()) *
                static_cast<double>(cycle_) *
                static_cast<double>(lanes_used));
    }

    /** The kernel executing this simulator's sweeps. */
    const kernels::Kernel &kernel() const { return kernel_; }

    /** Segments executed since reset; a dense cycle executes them all. */
    std::uint64_t segmentsExecuted() const { return segmentsExecuted_; }

    /** Segments skipped as quiescent since reset (0 when forced dense). */
    std::uint64_t segmentsSkipped() const { return segmentsSkipped_; }

  private:
    /** Fold a segment's pending register states into the value array. */
    void
    flipSegment(const ExecPlan::Segment &seg,
                const ExecPlan::RegOp *regs)
    {
        for (std::uint32_t k = seg.regBegin; k < seg.regEnd; ++k) {
            std::uint64_t *__restrict dst =
                &cur_[std::size_t{regs[k].dst} * W];
            const std::uint64_t *src = &pending_[std::size_t{k} * W];
            for (unsigned w = 0; w < W; ++w)
                dst[w] = src[w];
        }
    }

    /**
     * Write the driven input planes and return the OR-reduced change
     * mask versus the previous cycle's values.
     */
    std::uint64_t
    driveInputs(const std::uint64_t *input_words, std::size_t num_ports)
    {
        std::uint64_t change = 0;
        for (const auto &in : plan_.inputs()) {
            std::uint64_t *dst = &cur_[std::size_t{in.node} * W];
            if (in.port < num_ports) {
                const std::uint64_t *src = input_words +
                                           std::size_t{in.port} * W;
                for (unsigned w = 0; w < W; ++w) {
                    change |= dst[w] ^ src[w];
                    dst[w] = src[w];
                }
            } else {
                for (unsigned w = 0; w < W; ++w) {
                    change |= dst[w];
                    dst[w] = 0;
                }
            }
        }
        return change;
    }

    const ExecPlan &plan_;          //!< the schedule
    const kernels::Kernel &kernel_; //!< sweep implementation
    const bool activityGating_; //!< false = every cycle dense
    const NodeId *slotOf_;      //!< node id -> value slot
    AlignedWordVector cur_;     //!< numSlots()*W settled values
    AlignedWordVector carry_;   //!< per-RegOp carry registers
    AlignedWordVector pending_; //!< per-RegOp next states awaiting commit
    std::vector<std::uint64_t> dirtyNow_;   //!< wake set, this cycle
    std::vector<std::uint64_t> dirtyNext_;  //!< wake set, next cycle
    std::vector<std::uint8_t> flipPending_; //!< await a deferred flip
    std::vector<std::uint8_t>
        pendingStale_; //!< pending bypassed by a dense in-place commit
    std::uint64_t cycle_ = 0;
    std::uint64_t toggles_ = 0;
    std::uint64_t pendingToggles_ = 0; //!< counted in settle, booked in commit
    bool denseCycle_ = false; //!< this cycle runs the dense fallback
    bool wasDense_ = false;   //!< last cycle was dense (pending is stale)
    std::uint32_t quietCycles_ = 0; //!< cycles since inputs last changed
    std::uint64_t segmentsExecuted_ = 0;
    std::uint64_t segmentsSkipped_ = 0;
};

} // namespace spatial::circuit

#endif // SPATIAL_CIRCUIT_BLOCK_SIMULATOR_H
