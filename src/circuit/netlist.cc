#include "circuit/netlist.h"

#include <algorithm>

namespace spatial::circuit
{

const char *
compKindName(CompKind kind)
{
    switch (kind) {
      case CompKind::Const0:
        return "const0";
      case CompKind::Const1:
        return "const1";
      case CompKind::Input:
        return "input";
      case CompKind::Dff:
        return "dff";
      case CompKind::Not:
        return "not";
      case CompKind::And:
        return "and";
      case CompKind::Adder:
        return "adder";
      case CompKind::Sub:
        return "sub";
    }
    return "?";
}

std::optional<Netlist>
Netlist::fromArrays(std::vector<CompKind> kinds, std::vector<NodeId> srcA,
                    std::vector<NodeId> srcB, std::size_t numInputPorts)
{
    const std::size_t n = kinds.size();
    if (srcA.size() != n || srcB.size() != n || n >= kNoNode)
        return std::nullopt;
    std::size_t derived_ports = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const NodeId a = srcA[i];
        const NodeId b = srcB[i];
        // Checked as a byte: the arrays may hold any value at all.
        const auto kind = static_cast<std::uint8_t>(kinds[i]);
        bool ok = false;
        switch (static_cast<CompKind>(kind)) {
          case CompKind::Const0:
          case CompKind::Const1:
            ok = a == kNoNode && b == kNoNode;
            break;
          case CompKind::Input:
            ok = a < numInputPorts && b == kNoNode;
            derived_ports = std::max(derived_ports, std::size_t{a} + 1);
            break;
          case CompKind::Dff:
          case CompKind::Not:
            ok = a < i && b == kNoNode;
            break;
          case CompKind::And:
          case CompKind::Adder:
          case CompKind::Sub:
            ok = a < i && b < i;
            break;
        }
        if (!ok) // also every kind byte above Sub
            return std::nullopt;
    }
    if (derived_ports != numInputPorts)
        return std::nullopt;
    Netlist netlist;
    netlist.kinds_ = std::move(kinds);
    netlist.srcA_ = std::move(srcA);
    netlist.srcB_ = std::move(srcB);
    netlist.numInputPorts_ = numInputPorts;
    return netlist;
}

NodeId
Netlist::append(CompKind kind, NodeId a, NodeId b)
{
    const auto id = static_cast<NodeId>(kinds_.size());
    SPATIAL_ASSERT(kinds_.size() < kNoNode, "netlist too large");
    kinds_.push_back(kind);
    srcA_.push_back(a);
    srcB_.push_back(b);
    return id;
}

NodeId
Netlist::addConst0()
{
    return append(CompKind::Const0, kNoNode, kNoNode);
}

NodeId
Netlist::addConst1()
{
    return append(CompKind::Const1, kNoNode, kNoNode);
}

NodeId
Netlist::addInput(std::uint32_t port)
{
    numInputPorts_ = std::max(numInputPorts_, std::size_t{port} + 1);
    return append(CompKind::Input, port, kNoNode);
}

NodeId
Netlist::addDff(NodeId src)
{
    check(src);
    return append(CompKind::Dff, src, kNoNode);
}

NodeId
Netlist::addDelay(NodeId src, std::uint32_t cycles)
{
    NodeId cur = src;
    for (std::uint32_t i = 0; i < cycles; ++i)
        cur = addDff(cur);
    return cur;
}

NodeId
Netlist::addNot(NodeId src)
{
    check(src);
    return append(CompKind::Not, src, kNoNode);
}

NodeId
Netlist::addAnd(NodeId a, NodeId b)
{
    check(a);
    check(b);
    return append(CompKind::And, a, b);
}

NodeId
Netlist::addAdder(NodeId a, NodeId b)
{
    check(a);
    check(b);
    return append(CompKind::Adder, a, b);
}

NodeId
Netlist::addSub(NodeId a, NodeId b)
{
    check(a);
    check(b);
    return append(CompKind::Sub, a, b);
}

std::size_t
Netlist::countKind(CompKind kind) const
{
    return static_cast<std::size_t>(
        std::count(kinds_.begin(), kinds_.end(), kind));
}

std::size_t
Netlist::registerBits() const
{
    std::size_t bits = 0;
    for (const auto kind : kinds_) {
        if (kind == CompKind::Dff)
            bits += 1;
        else if (kind == CompKind::Adder || kind == CompKind::Sub)
            bits += 2; // sum register + carry register
    }
    return bits;
}

std::vector<std::uint32_t>
Netlist::fanouts() const
{
    // Constant rails are absorbed into LUT configurations rather than
    // routed as nets, so edges from Const0/Const1 do not count.
    auto bump = [this](std::vector<std::uint32_t> &fan, NodeId src) {
        const auto kind = kinds_[src];
        if (kind != CompKind::Const0 && kind != CompKind::Const1)
            fan[src]++;
    };

    std::vector<std::uint32_t> fan(kinds_.size(), 0);
    for (std::size_t i = 0; i < kinds_.size(); ++i) {
        switch (kinds_[i]) {
          case CompKind::Dff:
          case CompKind::Not:
            bump(fan, srcA_[i]);
            break;
          case CompKind::And:
          case CompKind::Adder:
          case CompKind::Sub:
            bump(fan, srcA_[i]);
            bump(fan, srcB_[i]);
            break;
          case CompKind::Const0:
          case CompKind::Const1:
          case CompKind::Input:
            break;
        }
    }
    return fan;
}

std::uint32_t
Netlist::maxFanout() const
{
    const auto fan = fanouts();
    return fan.empty() ? 0 : *std::max_element(fan.begin(), fan.end());
}

} // namespace spatial::circuit
