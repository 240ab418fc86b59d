/**
 * @file
 * Component-level netlist IR for bit-serial spatial designs.
 *
 * Every component produces exactly one bit per cycle.  Registered
 * components (D flip-flop, bit-serial adder/subtractor) present their
 * stored bit during a cycle and latch their next state on commit; purely
 * combinational components (NOT, AND) propagate within the cycle.  The
 * builder enforces SSA ordering — a component may only reference
 * previously created components — so a single in-order pass settles all
 * combinational values each cycle.
 */

#ifndef SPATIAL_CIRCUIT_NETLIST_H
#define SPATIAL_CIRCUIT_NETLIST_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/logging.h"

namespace spatial::circuit
{

/** Identifier of a netlist component; also its topological position. */
using NodeId = std::uint32_t;

/** Sentinel for "no source". */
constexpr NodeId kNoNode = 0xffffffffu;

/** Kinds of bit-serial components. */
enum class CompKind : std::uint8_t
{
    Const0, //!< constant 0 stream
    Const1, //!< constant 1 stream (tied-high; naive-mode AND inputs)
    Input,  //!< externally driven stream (one per matrix row)
    Dff,    //!< 1-cycle delay register
    Not,    //!< combinational inverter
    And,    //!< combinational 2-input AND
    Adder,  //!< bit-serial adder: registered sum, registered carry (init 0)
    Sub,    //!< bit-serial subtractor a-b: carry init 1, b inverted
};

/** Printable name of a component kind. */
const char *compKindName(CompKind kind);

/**
 * A flat, append-only netlist.
 *
 * Stored as structure-of-arrays so million-node reservoir matrices
 * simulate with good locality.
 */
class Netlist
{
  public:
    /**
     * Adopt three node arrays (e.g. read from a file) after one
     * validating pass that enforces exactly what the builders do, so
     * untrusted arrays can never yield a netlist the builders could
     * not have produced:
     *  - every kind, checked as a byte, is at most Sub;
     *  - SSA order: every source of an op is below the op's id;
     *  - every Input port is below `numInputPorts`, and the port count
     *    derived from the Inputs equals `numInputPorts`;
     *  - unused source fields hold kNoNode (srcB of Const, Input, DFF
     *    and NOT; srcA of Const), as the builders write them.
     * Returns nullopt on any violation or on arrays of unequal length.
     */
    static std::optional<Netlist>
    fromArrays(std::vector<CompKind> kinds, std::vector<NodeId> srcA,
               std::vector<NodeId> srcB, std::size_t numInputPorts);

    /** Add a constant-0 stream. */
    NodeId addConst0();

    /** Add a constant-1 stream. */
    NodeId addConst1();

    /**
     * Add an externally driven input stream.
     * @param port dense index the simulator uses to drive the bit.
     */
    NodeId addInput(std::uint32_t port);

    /** Add a 1-cycle delay (D flip-flop) of `src`. */
    NodeId addDff(NodeId src);

    /** Add a chain of `cycles` DFFs (0 returns src unchanged). */
    NodeId addDelay(NodeId src, std::uint32_t cycles);

    /** Add a combinational inverter. */
    NodeId addNot(NodeId src);

    /** Add a combinational AND. */
    NodeId addAnd(NodeId a, NodeId b);

    /** Add a bit-serial adder of two streams (LSb first). */
    NodeId addAdder(NodeId a, NodeId b);

    /** Add a bit-serial subtractor computing a - b. */
    NodeId addSub(NodeId a, NodeId b);

    std::size_t numNodes() const { return kinds_.size(); }
    std::size_t numInputPorts() const { return numInputPorts_; }

    /** The raw node arrays, indexed by NodeId (bulk serialization). */
    const std::vector<CompKind> &kinds() const { return kinds_; }
    /** First sources (the port index for Input nodes). */
    const std::vector<NodeId> &srcAs() const { return srcA_; }
    /** Second sources (kNoNode for nodes with at most one source). */
    const std::vector<NodeId> &srcBs() const { return srcB_; }

    CompKind kind(NodeId id) const { return kinds_[check(id)]; }
    NodeId srcA(NodeId id) const { return srcA_[check(id)]; }
    NodeId srcB(NodeId id) const { return srcB_[check(id)]; }

    /** Input port index (valid only for Input components). */
    std::uint32_t
    inputPort(NodeId id) const
    {
        SPATIAL_ASSERT(kind(id) == CompKind::Input, "node ", id,
                       " is not an input");
        return srcA_[id];
    }

    /** Count of components of one kind. */
    std::size_t countKind(CompKind kind) const;

    /** Number of register bits (adder/sub = 2, dff = 1, others 0). */
    std::size_t registerBits() const;

    /** Per-node fanout (number of users of each node's output). */
    std::vector<std::uint32_t> fanouts() const;

    /** Largest fanout in the design (drives the Fmax model). */
    std::uint32_t maxFanout() const;

  private:
    NodeId
    check(NodeId id) const
    {
        SPATIAL_ASSERT(id < kinds_.size(), "node id ", id, " out of range ",
                       kinds_.size());
        return id;
    }

    NodeId append(CompKind kind, NodeId a, NodeId b);

    std::vector<CompKind> kinds_;
    std::vector<NodeId> srcA_; //!< also the port index for Input nodes
    std::vector<NodeId> srcB_;
    std::size_t numInputPorts_ = 0;
};

} // namespace spatial::circuit

#endif // SPATIAL_CIRCUIT_NETLIST_H
