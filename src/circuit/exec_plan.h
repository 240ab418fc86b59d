/**
 * @file
 * Compiled execution plan for netlist simulation.
 *
 * The per-node `switch` interpreters (Simulator, WideSimulator) re-decide
 * every component's kind for all N nodes every cycle — twice, once to
 * settle and once to latch — and re-evaluate constants and inputs each
 * pass.  An ExecPlan is built once per netlist and turns it into flat,
 * branch-free instruction tapes:
 *
 *  - a combinational settle tape in topological (id) order, with NOT
 *    folded into the single op form `(a & b) ^ inv` (b = the always-ones
 *    slot), so the settle loop has no dispatch at all;
 *  - one unified register commit tape covering DFF, adder, and
 *    subtractor via the bit-serial full-adder form
 *    `sum = a ^ (b ^ bInv) ^ carry`: a DFF is an adder with b = the
 *    always-zero slot (carry stays 0), a subtractor an adder with b
 *    inverted and carry seeded to 1, also in ascending id order;
 *  - a dense input map (node, port) and the list of constant-one nodes,
 *    so constants are materialized exactly once at reset.
 *
 * The plan owns all of its data: it does not reference the Netlist after
 * construction, so a CompiledMatrix can cache one and share it across
 * simulator instances and worker threads (the tapes are immutable after
 * build and therefore safe for concurrent readers).
 *
 * Simulators do not run these tapes directly: the plan hands out
 * cached Segmentations, the same ops re-scheduled into an ordered list
 * of cache-sized segments with a precomputed cross-segment dependency
 * frontier, so a simulator can skip every segment whose fan-in did not
 * change last cycle (see the Segmentation class comment).
 */

#ifndef SPATIAL_CIRCUIT_EXEC_PLAN_H
#define SPATIAL_CIRCUIT_EXEC_PLAN_H

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "circuit/netlist.h"

namespace spatial::circuit
{

class Segmentation;

/** Immutable, pre-scheduled instruction tapes for one netlist. */
class ExecPlan
{
  public:
    /**
     * Combinational op: `cur[dst] = (cur[a] & cur[b]) ^ inv`.
     * AND has inv = 0; NOT has b = the always-ones slot and inv = ~0.
     */
    struct CombOp
    {
        NodeId dst;        //!< written value slot
        NodeId a;          //!< first source slot
        NodeId b;          //!< second source slot (ones slot for NOT)
        std::uint64_t inv; //!< XOR mask: 0 for AND, ~0 for NOT
    };

    /** Externally driven stream: `cur[node] = input_words[port]`. */
    struct InputOp
    {
        NodeId node;        //!< driven value slot
        std::uint32_t port; //!< dense input port index
    };

    /**
     * Unified register commit op (bit-serial full adder):
     *
     *   be         = cur[b] ^ bInv
     *   sum        = cur[a] ^ be ^ carry
     *   carry'     = majority(cur[a], be, carry)
     *   cur[dst]   = sum
     *
     * DFF: b = zeroSlot(), bInv = 0, carry starts 0 (and stays 0).
     * Adder: bInv = 0, carry starts 0.  Sub: bInv = ~0, carry starts 1.
     * The carry register lives in a dense per-op array of the executing
     * simulator, indexed by the op's tape position.
     */
    struct RegOp
    {
        NodeId dst;              //!< written value slot
        NodeId a;                //!< addend source slot
        NodeId b;                //!< addend source slot (zero slot: DFF)
        std::uint64_t bInv;      //!< XOR mask on b (~0 for subtract)
        std::uint64_t carryInit; //!< carry seed at reset (1 for subtract)
    };

    /** Build the tapes; the netlist is not referenced afterwards. */
    explicit ExecPlan(const Netlist &netlist);

    /** Number of netlist components the plan covers. */
    std::size_t numNodes() const { return numNodes_; }

    /**
     * Number of value slots a simulator must allocate: one per node
     * plus the trailing always-ones and always-zero slots.
     */
    std::size_t numSlots() const { return numNodes_ + 2; }

    /** Slot holding the all-ones word (index numNodes()). */
    NodeId onesSlot() const { return static_cast<NodeId>(numNodes_); }

    /** Slot holding the all-zeros word (index numNodes() + 1). */
    NodeId zeroSlot() const { return static_cast<NodeId>(numNodes_ + 1); }

    /** Number of externally driven input ports. */
    std::size_t numInputPorts() const { return numInputPorts_; }

    /** Register bits (adder/sub = 2, dff = 1) for activity accounting. */
    std::size_t registerBits() const { return registerBits_; }

    /** Settle tape, in topological (ascending id) order. */
    const std::vector<CombOp> &comb() const { return comb_; }

    /** Externally driven streams, in ascending node order. */
    const std::vector<InputOp> &inputs() const { return inputs_; }

    /** Commit tape, in ascending dst order. */
    const std::vector<RegOp> &regs() const { return regs_; }

    /** Const1 nodes, materialized once at reset. */
    const std::vector<NodeId> &constOnes() const { return constOnes_; }

    /**
     * The plan's ops re-scheduled into gateable segments of
     * `opsPerSegment` ops each (see Segmentation).  Built lazily and
     * cached per size, so every simulator and worker thread requesting
     * the same blocking shares one immutable instance; thread-safe.
     */
    std::shared_ptr<const Segmentation>
    segmentation(std::size_t opsPerSegment) const;

  private:
    std::size_t numNodes_ = 0;
    std::size_t numInputPorts_ = 0;
    std::size_t registerBits_ = 0;
    std::vector<CombOp> comb_;
    std::vector<InputOp> inputs_;
    std::vector<RegOp> regs_;
    std::vector<NodeId> constOnes_;

    mutable std::mutex segmentationMutex_;
    mutable std::map<std::size_t, std::shared_ptr<const Segmentation>>
        segmentations_;
};

/**
 * The plan's ops re-scheduled for cache-blocked, activity-gated
 * execution.
 *
 * A Segmentation partitions the plan's ops into an ordered list of
 * fixed-size **segments** that a simulator settles and commits in one
 * fused pass — and, crucially, can *skip*: a segment whose fan-in did
 * not change since it last ran is provably quiescent (every op is a
 * pure function of its sources and its own carry), so skipping
 * reproduces its outputs and its zero toggles exactly.
 *
 * Ops are ordered by (register depth, id) instead of raw id.  Register
 * depth is the bit-serial stream latency: nodes at depth d emit result
 * bit t at cycle d + t, so nodes that go quiescent together — e.g. the
 * leaf adders of every column once the input stream is sign-extending —
 * are grouped into the same segments, which is what makes whole-segment
 * gating track the circuit's actual activity wavefront.  The order is
 * still topological for the settle sweep (a comb op's sources never
 * sort after it), and register commits are order-free because gated
 * execution writes next states to a pending buffer instead of in place.
 *
 * Per segment the build precomputes the **consumers**: the segments
 * reading its comb values (to wake in the same cycle when they
 * change) and the segments reading its registers (to wake the next
 * cycle; a segment with registers also re-arms itself, since its
 * carries are self-feeding).  Cycles whose driven inputs changed run
 * everything dense, so input fan-out needs no index.
 *
 * Value slots are **renumbered into schedule order** (slotOf()): a
 * segment's destinations become one contiguous slice of the value
 * array, so its fused settle/commit pass streams over its own
 * cache-sized slice instead of scattering stores across the node-id
 * space, and its fan-in reads mostly hit the slices of the segments
 * just before it.  The segmentation's op tapes, input map, and
 * constant list are pre-rewritten into the new numbering; a simulator
 * only needs slotOf() to translate a caller's NodeId when sampling
 * outputs.
 *
 * Immutable after construction and shared across threads, exactly like
 * the plan itself.
 */
class Segmentation
{
  public:
    /** One gateable slice of the fused execution order. */
    struct Segment
    {
        /** Comb-op range [combBegin, combEnd) into comb(). */
        std::uint32_t combBegin;
        /** One past the segment's last comb op. */
        std::uint32_t combEnd;
        /** Reg-op range [regBegin, regEnd) into regs(). */
        std::uint32_t regBegin;
        /** One past the segment's last reg op. */
        std::uint32_t regEnd;
        /**
         * Segments reading this one's *comb* values, to wake in the
         * same cycle when they change: [combConsumersBegin,
         * combConsumersEnd) into consumers().  All strictly after this
         * segment in execution order.
         */
        std::uint32_t combConsumersBegin;
        /** One past the last same-cycle consumer. */
        std::uint32_t combConsumersEnd;
        /**
         * Segments reading this one's *register* values, to wake next
         * cycle when they change (registers present the new state after
         * the deferred flip): [regConsumersBegin, regConsumersEnd) into
         * consumers().
         */
        std::uint32_t regConsumersBegin;
        /** One past the last next-cycle consumer. */
        std::uint32_t regConsumersEnd;
    };

    /**
     * Re-schedule `plan` into segments of at most `opsPerSegment` ops
     * (clamped to at least 1).  Prefer ExecPlan::segmentation(), which
     * caches the result.
     */
    Segmentation(const ExecPlan &plan, std::size_t opsPerSegment);

    /** The ordered segments. */
    const std::vector<Segment> &segments() const { return segments_; }

    /**
     * Comb ops in segment order (topological across segments), with
     * sources and destinations in renumbered slot space.
     */
    const std::vector<ExecPlan::CombOp> &comb() const { return comb_; }

    /**
     * Reg ops in renumbered slot space, in segment (ascending slot)
     * order.  Gated per-segment sweeps commit through a pending buffer
     * so the order carries no in-place hazard; dense cycles walk this
     * same tape *backwards* (Kernel::commitReverse) — descending
     * destination slots — which is hazard-free in place because every
     * source slot is below its op's slot.
     */
    const std::vector<ExecPlan::RegOp> &regs() const { return regs_; }

    /**
     * Concatenated per-segment consumer segment indices, split into
     * same-cycle comb readers and next-cycle register readers (see
     * Segment).  A simulator uses these to wake exactly the segments a
     * change can affect, so quiescent segments cost nothing at all —
     * not even a scan.  (Cycles whose driven inputs changed run the
     * dense fallback, so no input-to-segment index is needed.)
     */
    const std::vector<std::uint32_t> &consumers() const
    {
        return consumers_;
    }

    /** The plan's input map in renumbered slot space. */
    const std::vector<ExecPlan::InputOp> &inputs() const { return inputs_; }

    /** The plan's Const1 list in renumbered slot space. */
    const std::vector<NodeId> &constOnes() const { return constOnes_; }

    /**
     * Renumbered value slot of each original node id (the ones/zero
     * slots keep their indices at numNodes and numNodes + 1).  Only
     * needed to sample a node's output; the op tapes are pre-rewritten.
     */
    const std::vector<NodeId> &slotOf() const { return slotOf_; }

    /** The op budget the segments were built with. */
    std::size_t opsPerSegment() const { return opsPerSegment_; }

    /**
     * Working-set target per segment in KiB.  Smaller segments gate at
     * a finer grain but pay more per-segment bookkeeping; 4 KiB keeps a
     * segment's slice of the value array L1-resident between its
     * settle and its commit, and no serving shape measured 1.15x
     * faster at 1, 2, 8 or 16 KiB (see docs/simulation.md).
     */
    static constexpr std::size_t kBudgetKib = 4;

    /**
     * The op budget for a kBudgetKib working set at `laneWords` words
     * per node: an op touches about four slots (dst, two sources,
     * carry), so a segment of this many ops keeps roughly kBudgetKib
     * of the value array hot between its settle and its commit.
     * Clamped to at least 16 ops.
     */
    static std::size_t opsForBudget(unsigned laneWords);

  private:
    std::size_t opsPerSegment_ = 0;
    std::vector<Segment> segments_;
    std::vector<ExecPlan::CombOp> comb_;
    std::vector<ExecPlan::RegOp> regs_;
    std::vector<std::uint32_t> consumers_;
    std::vector<ExecPlan::InputOp> inputs_;
    std::vector<NodeId> constOnes_;
    std::vector<NodeId> slotOf_;
};

} // namespace spatial::circuit

#endif // SPATIAL_CIRCUIT_EXEC_PLAN_H
