/**
 * @file
 * Compiled, segmented execution plan for netlist simulation.
 *
 * The per-node `switch` interpreters (Simulator, WideSimulator) re-decide
 * every component's kind for all N nodes every cycle — twice, once to
 * settle and once to latch — and re-evaluate constants and inputs each
 * pass.  An ExecPlan is built once per netlist and turns it into the
 * one schedule every BlockSimulator<W> runs, at every lane width:
 *
 *  - a combinational settle tape with NOT folded into the single op
 *    form `(a & b) ^ inv` (b = the always-ones slot), so the settle
 *    loop has no dispatch at all;
 *  - one unified register commit tape covering DFF, adder, and
 *    subtractor via the bit-serial full-adder form
 *    `sum = a ^ (b ^ bInv) ^ carry`: a DFF is an adder with b = the
 *    always-zero slot (carry stays 0), a subtractor an adder with b
 *    inverted and carry seeded to 1;
 *  - a dense input map (slot, port) and the list of constant-one
 *    slots, so constants are materialized exactly once at reset;
 *  - the ops partitioned into an ordered list of fixed-size
 *    **segments** that a simulator settles and commits in one fused
 *    pass — and, crucially, can *skip*: a segment whose fan-in did not
 *    change since it last ran is provably quiescent (every op is a pure
 *    function of its sources and its own carry), so skipping reproduces
 *    its outputs and its zero toggles exactly.
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
 * segment's destinations are one contiguous slice of the value array,
 * so its fused settle/commit pass streams over its own slice instead
 * of scattering stores across the node-id space, and its fan-in reads
 * mostly hit the slices of the segments just before it.  Every tape is
 * emitted in the renumbered space; a simulator only needs slotOf() to
 * translate a caller's NodeId when sampling outputs.
 *
 * The plan owns all of its data: it does not reference the Netlist after
 * construction, so a CompiledMatrix builds one at compile time and
 * shares it across simulator instances and worker threads (it is
 * immutable after construction and therefore safe for concurrent
 * readers).
 */

#ifndef SPATIAL_CIRCUIT_EXEC_PLAN_H
#define SPATIAL_CIRCUIT_EXEC_PLAN_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuit/netlist.h"

namespace spatial::circuit
{

/** Immutable, pre-scheduled, segmented instruction tapes. */
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
     * Ops per segment.  An op touches about four value words per lane
     * word (dst, two sources, carry), so a segment's working set is
     * about 4 KiB at W = 1 and 32 KiB at W = 8.  One size serves every
     * lane width; docs/simulation.md has the measurements behind it.
     */
    static constexpr std::size_t kOpsPerSegment = 128;

    /**
     * Build the schedule; the netlist is not referenced afterwards.
     * `opsPerSegment` (clamped to at least 1) exists for tests that
     * exercise odd segment sizes; every production plan uses the
     * default.
     */
    explicit ExecPlan(const Netlist &netlist,
                      std::size_t opsPerSegment = kOpsPerSegment);

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

    /** The op budget the segments were built with. */
    std::size_t opsPerSegment() const { return opsPerSegment_; }

    /** The ordered segments. */
    const std::vector<Segment> &segments() const { return segments_; }

    /** Settle tape in segment order (topological across segments). */
    const std::vector<CombOp> &comb() const { return comb_; }

    /**
     * Commit tape in segment (ascending slot) order.  Gated
     * per-segment sweeps commit through a pending buffer so the order
     * carries no in-place hazard; dense cycles walk this same tape
     * *backwards* (Kernel::commitReverse) — descending destination
     * slots — which is hazard-free in place because every source slot
     * is below its op's slot.
     */
    const std::vector<RegOp> &regs() const { return regs_; }

    /**
     * Concatenated per-segment consumer segment indices, split into
     * same-cycle comb readers and next-cycle register readers (see
     * Segment).  A simulator uses these to wake exactly the segments a
     * change can affect, so quiescent segments cost nothing at all —
     * not even a scan.
     */
    const std::vector<std::uint32_t> &consumers() const
    {
        return consumers_;
    }

    /** Externally driven streams, in ascending node-id order. */
    const std::vector<InputOp> &inputs() const { return inputs_; }

    /** Const1 slots, in ascending node-id order. */
    const std::vector<NodeId> &constOnes() const { return constOnes_; }

    /**
     * Value slot of each node id (the ones/zero slots keep their
     * indices at numNodes and numNodes + 1).  Only needed to sample a
     * node's output; the op tapes are already in slot space.
     */
    const std::vector<NodeId> &slotOf() const { return slotOf_; }

  private:
    std::size_t numNodes_ = 0;
    std::size_t numInputPorts_ = 0;
    std::size_t registerBits_ = 0;
    std::size_t opsPerSegment_ = 0;
    std::vector<Segment> segments_;
    std::vector<CombOp> comb_;
    std::vector<RegOp> regs_;
    std::vector<std::uint32_t> consumers_;
    std::vector<InputOp> inputs_;
    std::vector<NodeId> constOnes_;
    std::vector<NodeId> slotOf_;
};

} // namespace spatial::circuit

#endif // SPATIAL_CIRCUIT_EXEC_PLAN_H
