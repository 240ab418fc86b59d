#include "analysis/verifier.h"

#include <algorithm>
#include <utility>

#include "core/compiler.h"
#include "store/format.h"

namespace spatial::analysis
{

namespace
{

using circuit::CompKind;
using circuit::ExecPlan;
using circuit::kNoNode;
using circuit::NodeId;

/** Largest valid kind byte (deserialized kinds can exceed it). */
constexpr auto kMaxKind = static_cast<std::uint8_t>(CompKind::Sub);

std::string
nodeStr(std::uint64_t id)
{
    return std::to_string(id);
}

} // namespace

// ---------------------------------------------------------------------
// Diagnostics
// ---------------------------------------------------------------------

const char *
severityName(Severity severity)
{
    return severity == Severity::Error ? "error" : "warning";
}

const char *
layerName(Layer layer)
{
    switch (layer) {
      case Layer::Compile:
        return "compile";
      case Layer::Netlist:
        return "netlist";
      case Layer::Segmentation:
        return "segmentation";
      case Layer::Tile:
        return "tile";
      case Layer::File:
        return "file";
    }
    return "?";
}

std::string
Diagnostic::str() const
{
    std::string out = severityName(severity);
    out += '[';
    out += rule;
    out += "] ";
    if (index != kNoIndex) {
        out += "at ";
        out += std::to_string(index);
        out += ": ";
    }
    out += message;
    return out;
}

std::size_t
Report::errors() const
{
    std::size_t n = 0;
    for (const auto &d : diagnostics)
        n += d.severity == Severity::Error ? 1 : 0;
    return n;
}

std::size_t
Report::warnings() const
{
    return diagnostics.size() - errors();
}

bool
Report::has(std::string_view rule) const
{
    return find(rule) != nullptr;
}

const Diagnostic *
Report::find(std::string_view rule) const
{
    for (const auto &d : diagnostics)
        if (d.rule == rule)
            return &d;
    return nullptr;
}

std::string
Report::str() const
{
    std::string out;
    for (const auto &d : diagnostics) {
        out += d.str();
        out += '\n';
    }
    return out;
}

void
Report::add(Severity severity, Layer layer, std::string rule,
            std::string message, std::uint64_t index)
{
    diagnostics.push_back(Diagnostic{severity, layer, std::move(rule),
                                     std::move(message), index});
}

// ---------------------------------------------------------------------
// View snapshots
// ---------------------------------------------------------------------

NetlistView
NetlistView::of(const circuit::Netlist &netlist)
{
    NetlistView v;
    v.numInputPorts = netlist.numInputPorts();
    const auto n = static_cast<NodeId>(netlist.numNodes());
    v.kinds.reserve(n);
    v.srcA.reserve(n);
    v.srcB.reserve(n);
    for (NodeId id = 0; id < n; ++id) {
        v.kinds.push_back(netlist.kind(id));
        v.srcA.push_back(netlist.kind(id) == CompKind::Input
                             ? netlist.inputPort(id)
                             : netlist.srcA(id));
        v.srcB.push_back(netlist.srcB(id));
    }
    return v;
}

SegmentationView
SegmentationView::of(const ExecPlan &plan)
{
    SegmentationView v;
    v.numNodes = plan.numNodes();
    v.numInputPorts = plan.numInputPorts();
    v.opsPerSegment = plan.opsPerSegment();
    v.segments = plan.segments();
    v.comb = plan.comb();
    v.regs = plan.regs();
    v.consumers = plan.consumers();
    v.inputs = plan.inputs();
    v.constOnes = plan.constOnes();
    v.slotOf = plan.slotOf();
    return v;
}

TileView
TileView::of(const core::TiledDesign &design)
{
    TileView v;
    v.rows = design.rows();
    v.cols = design.cols();
    v.lutBudget = design.plan().lutBudget;
    v.maxTileCols = design.tileOptions().maxTileCols;
    v.tiles = design.plan().tiles;
    v.tileShapes.reserve(design.tileCount());
    for (std::size_t i = 0; i < design.tileCount(); ++i)
        v.tileShapes.emplace_back(design.tile(i).rows(),
                                  design.tile(i).cols());
    return v;
}

// ---------------------------------------------------------------------
// Netlist checks
// ---------------------------------------------------------------------

void
Verifier::checkNetlist(const NetlistView &netlist, Report *report) const
{
    const auto n = static_cast<NodeId>(netlist.kinds.size());
    const auto bad = [&](std::string rule, std::string msg, NodeId id) {
        report->add(Severity::Error, Layer::Netlist, std::move(rule),
                    std::move(msg), id);
    };

    std::vector<bool> portSeen(netlist.numInputPorts, false);
    for (NodeId id = 0; id < n; ++id) {
        const auto kindByte =
            static_cast<std::uint8_t>(netlist.kinds[id]);
        if (kindByte > kMaxKind) {
            bad("NET-KIND-RANGE",
                "kind byte " + std::to_string(kindByte) +
                    " is not a CompKind",
                id);
            continue;
        }
        const CompKind kind = netlist.kinds[id];
        const NodeId a = netlist.srcA[id];
        const NodeId b = netlist.srcB[id];
        const bool unary = kind == CompKind::Not || kind == CompKind::Dff;
        const bool binary = kind == CompKind::And ||
                            kind == CompKind::Adder ||
                            kind == CompKind::Sub;
        if (kind == CompKind::Const0 || kind == CompKind::Const1) {
            if (a != kNoNode || b != kNoNode)
                bad("NET-SRC-ARITY", "constant node has operands", id);
        } else if (kind == CompKind::Input) {
            if (b != kNoNode)
                bad("NET-SRC-ARITY", "input node has a second operand",
                    id);
            if (a >= netlist.numInputPorts) {
                bad("NET-INPUT-PORT-RANGE",
                    "port " + nodeStr(a) + " >= numInputPorts " +
                        std::to_string(netlist.numInputPorts),
                    id);
            } else {
                portSeen[a] = true;
            }
        } else {
            if (a == kNoNode || (binary && b == kNoNode) ||
                (unary && b != kNoNode)) {
                bad("NET-SRC-ARITY",
                    "operand arity does not match the op kind", id);
                continue;
            }
            if (a >= id || (binary && b >= id))
                bad("NET-SSA-ORDER",
                    "source at or above its consumer (combinational "
                    "cycle or forward reference)",
                    id);
        }
    }

    for (std::uint32_t port = 0; port < netlist.numInputPorts; ++port)
        if (!portSeen[port])
            report->add(Severity::Error, Layer::Netlist,
                        "NET-PORT-DENSE",
                        "no input node drives port " +
                            std::to_string(port),
                        port);

    // Dead-logic reachability: every logic node must feed some output
    // column (directly or transitively).  Only meaningful when the
    // caller supplied the outputs; a violation is a Warning — dead
    // logic wastes work but executes correctly.
    if (!netlist.outputs.empty()) {
        std::vector<bool> live(n, false);
        std::vector<NodeId> stack;
        for (const NodeId out : netlist.outputs)
            if (out < n && !live[out]) {
                live[out] = true;
                stack.push_back(out);
            }
        while (!stack.empty()) {
            const NodeId id = stack.back();
            stack.pop_back();
            if (static_cast<std::uint8_t>(netlist.kinds[id]) > kMaxKind ||
                netlist.kinds[id] == CompKind::Input)
                continue;
            for (const NodeId src : {netlist.srcA[id], netlist.srcB[id]})
                if (src < n && !live[src]) {
                    live[src] = true;
                    stack.push_back(src);
                }
        }
        for (NodeId id = 0; id < n; ++id) {
            if (live[id])
                continue;
            switch (netlist.kinds[id]) {
              case CompKind::Not:
              case CompKind::And:
              case CompKind::Dff:
              case CompKind::Adder:
              case CompKind::Sub:
                report->add(Severity::Warning, Layer::Netlist,
                            "NET-DEAD-NODE",
                            "logic node feeds no output column", id);
                break;
              default:
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------
// Segmented schedule checks
// ---------------------------------------------------------------------

void
Verifier::checkSegmentation(const SegmentationView &seg,
                            const NetlistView *netlist,
                            Report *report) const
{
    const std::size_t numNodes = seg.numNodes;
    const std::size_t numSlots = numNodes + 2;
    const std::size_t totalOps = seg.comb.size() + seg.regs.size();
    const auto bad = [&](std::string rule, std::string msg,
                         std::uint64_t index = kNoIndex) {
        report->add(Severity::Error, Layer::Segmentation,
                    std::move(rule), std::move(msg), index);
    };

    if (totalOps > numNodes) {
        bad("SEG-PARTITION", "more ops than nodes");
        return;
    }
    const std::size_t opBase = numNodes - totalOps;

    // Segment table ranges and the exact partition of both tapes.
    bool rangesOk = true;
    for (std::size_t s = 0; s < seg.segments.size(); ++s) {
        const auto &sg = seg.segments[s];
        if (sg.combBegin > sg.combEnd || sg.combEnd > seg.comb.size() ||
            sg.regBegin > sg.regEnd || sg.regEnd > seg.regs.size() ||
            sg.combConsumersBegin > sg.combConsumersEnd ||
            sg.combConsumersEnd > seg.consumers.size() ||
            sg.regConsumersBegin > sg.regConsumersEnd ||
            sg.regConsumersEnd > seg.consumers.size()) {
            bad("SEG-RANGE-VALID", "segment ranges out of bounds", s);
            rangesOk = false;
        }
    }
    if (!rangesOk)
        return;

    std::uint32_t combCursor = 0;
    std::uint32_t regCursor = 0;
    for (std::size_t s = 0; s < seg.segments.size(); ++s) {
        const auto &sg = seg.segments[s];
        if (sg.combBegin != combCursor || sg.regBegin != regCursor) {
            bad("SEG-PARTITION",
                "segment op ranges do not tile the tapes", s);
            return;
        }
        combCursor = sg.combEnd;
        regCursor = sg.regEnd;
        const std::size_t count = (sg.combEnd - sg.combBegin) +
                                  (sg.regEnd - sg.regBegin);
        const bool last = s + 1 == seg.segments.size();
        if (count == 0 || count > seg.opsPerSegment ||
            (!last && count != seg.opsPerSegment))
            bad("SEG-PARTITION",
                "segment holds " + std::to_string(count) +
                    " ops against a budget of " +
                    std::to_string(seg.opsPerSegment),
                s);
    }
    if (combCursor != seg.comb.size() || regCursor != seg.regs.size())
        bad("SEG-PARTITION", "trailing ops belong to no segment");

    // slotOf must be a permutation fixing the ones/zero slots.
    if (seg.slotOf.size() != numSlots) {
        bad("SEG-SLOTOF-PERM", "slotOf size != numSlots");
        return;
    }
    std::vector<std::uint8_t> slotHit(numSlots, 0);
    for (std::size_t id = 0; id < numSlots; ++id) {
        const NodeId slot = seg.slotOf[id];
        if (slot >= numSlots || ++slotHit[slot] > 1) {
            bad("SEG-SLOTOF-PERM",
                "slotOf is not a permutation of the slot space", id);
            return;
        }
    }
    if (seg.slotOf[numNodes] != static_cast<NodeId>(numNodes) ||
        seg.slotOf[numNodes + 1] != static_cast<NodeId>(numNodes + 1))
        bad("SEG-SLOTOF-PERM", "ones/zero slots were renumbered");

    // Each segment owns one contiguous, ascending slice of the op-slot
    // space [opBase, numNodes); slices are consecutive across segments.
    std::size_t sliceBase = opBase;
    for (std::size_t s = 0; s < seg.segments.size(); ++s) {
        const auto &sg = seg.segments[s];
        const std::size_t count = (sg.combEnd - sg.combBegin) +
                                  (sg.regEnd - sg.regBegin);
        std::vector<std::uint8_t> hit(count, 0);
        bool sliceOk = true;
        const auto claim = [&](NodeId dst) {
            if (dst < sliceBase || dst >= sliceBase + count ||
                hit[dst - sliceBase]++ != 0)
                sliceOk = false;
        };
        for (std::uint32_t i = sg.combBegin; i < sg.combEnd; ++i) {
            claim(seg.comb[i].dst);
            if (i > sg.combBegin && seg.comb[i - 1].dst >= seg.comb[i].dst)
                sliceOk = false;
        }
        for (std::uint32_t i = sg.regBegin; i < sg.regEnd; ++i) {
            claim(seg.regs[i].dst);
            if (i > sg.regBegin && seg.regs[i - 1].dst >= seg.regs[i].dst)
                sliceOk = false;
        }
        if (!sliceOk)
            bad("SEG-SLOT-CONTIGUOUS",
                "segment dst slots are not its contiguous ascending "
                "slice of the schedule",
                s);
        sliceBase += count;
    }

    // Settle-order topology and reverse-commit hazard freedom in the
    // renumbered slot space.
    for (std::size_t i = 0; i < seg.comb.size(); ++i) {
        const auto &op = seg.comb[i];
        for (const NodeId src : {op.a, op.b}) {
            if (src >= numSlots)
                bad("SEG-RANGE-VALID", "comb source slot out of range",
                    i);
            else if (src < numNodes && src >= op.dst)
                bad("SEG-TOPO",
                    "comb op reads slot " + nodeStr(src) +
                        " the schedule has not settled",
                    i);
        }
    }
    for (std::size_t i = 0; i < seg.regs.size(); ++i) {
        const auto &op = seg.regs[i];
        for (const NodeId src : {op.a, op.b}) {
            if (src >= numSlots)
                bad("SEG-RANGE-VALID", "reg source slot out of range",
                    i);
            else if (src < numNodes && src >= op.dst)
                bad("SEG-REG-HAZARD",
                    "reverse dense commit would overwrite slot " +
                        nodeStr(src) + " before op reads it",
                    i);
        }
    }

    // Inputs and constants live in the non-op front of the slot space.
    for (std::size_t i = 0; i < seg.inputs.size(); ++i) {
        if (seg.inputs[i].node >= opBase)
            bad("SEG-INPUT-RANGE",
                "input slot collides with the op-slot space", i);
        if (seg.inputs[i].port >= seg.numInputPorts)
            bad("SEG-INPUT-RANGE",
                "input op port " + std::to_string(seg.inputs[i].port) +
                    " >= numInputPorts " +
                    std::to_string(seg.numInputPorts),
                i);
    }
    for (std::size_t i = 0; i < seg.constOnes.size(); ++i)
        if (seg.constOnes[i] >= opBase)
            bad("SEG-INPUT-RANGE",
                "constOnes slot collides with the op-slot space", i);

    // Recompute the consumer (wake) lists exactly the way the
    // constructor builds them and compare.
    constexpr std::uint32_t kUnowned = 0xffffffffu;
    std::vector<std::uint32_t> owner(numSlots, kUnowned);
    for (std::size_t s = 0; s < seg.segments.size(); ++s) {
        const auto &sg = seg.segments[s];
        for (std::uint32_t i = sg.combBegin; i < sg.combEnd; ++i)
            if (seg.comb[i].dst < numSlots)
                owner[seg.comb[i].dst] =
                    static_cast<std::uint32_t>(s);
        for (std::uint32_t i = sg.regBegin; i < sg.regEnd; ++i)
            if (seg.regs[i].dst < numSlots)
                owner[seg.regs[i].dst] =
                    static_cast<std::uint32_t>(s);
    }
    std::vector<bool> isInput(numSlots, false);
    for (const auto &in : seg.inputs)
        if (in.node < numSlots)
            isInput[in.node] = true;
    std::vector<bool> isRegDst(numSlots, false);
    for (const auto &op : seg.regs)
        if (op.dst < numSlots)
            isRegDst[op.dst] = true;

    const std::size_t numSegments = seg.segments.size();
    std::vector<std::vector<std::uint32_t>> combReaders(numSegments);
    std::vector<std::vector<std::uint32_t>> regReaders(numSegments);
    for (std::size_t s = 0; s < numSegments; ++s) {
        const auto &sg = seg.segments[s];
        const auto addSource = [&](NodeId src) {
            if (src >= numSlots || isInput[src])
                return;
            const std::uint32_t i = owner[src];
            if (i == kUnowned || i == s)
                return;
            auto &readers =
                isRegDst[src] ? regReaders[i] : combReaders[i];
            readers.push_back(static_cast<std::uint32_t>(s));
        };
        for (std::uint32_t i = sg.combBegin; i < sg.combEnd; ++i) {
            addSource(seg.comb[i].a);
            addSource(seg.comb[i].b);
        }
        for (std::uint32_t i = sg.regBegin; i < sg.regEnd; ++i) {
            addSource(seg.regs[i].a);
            addSource(seg.regs[i].b);
        }
    }
    for (std::size_t s = 0; s < numSegments; ++s) {
        const auto compare = [&](std::vector<std::uint32_t> expected,
                                 std::uint32_t begin, std::uint32_t end,
                                 const char *what) {
            std::sort(expected.begin(), expected.end());
            expected.erase(
                std::unique(expected.begin(), expected.end()),
                expected.end());
            const std::vector<std::uint32_t> got(
                seg.consumers.begin() + begin,
                seg.consumers.begin() + end);
            for (const std::uint32_t e : expected)
                if (std::find(got.begin(), got.end(), e) == got.end())
                    bad("SEG-CONSUMER-MISSING",
                        std::string(what) + " wake list lacks segment " +
                            std::to_string(e),
                        s);
            for (const std::uint32_t g : got)
                if (std::find(expected.begin(), expected.end(), g) ==
                    expected.end())
                    bad("SEG-CONSUMER-EXTRA",
                        std::string(what) + " wake list names segment " +
                            std::to_string(g) +
                            " which reads nothing here",
                        s);
        };
        const auto &sg = seg.segments[s];
        compare(combReaders[s], sg.combConsumersBegin,
                sg.combConsumersEnd, "comb");
        compare(regReaders[s], sg.regConsumersBegin,
                sg.regConsumersEnd, "reg");
    }

    if (netlist == nullptr)
        return;

    // Netlist coverage through slotOf (a permutation by now): every
    // node's slot carries exactly the op, input drive or constant its
    // kind demands, with the op fields the ExecPlan builder derives.
    if (netlist->kinds.size() != numNodes) {
        bad("SEG-COVERAGE",
            "plan has " + std::to_string(numNodes) +
                " nodes, netlist has " +
                std::to_string(netlist->kinds.size()));
        return;
    }
    if (netlist->numInputPorts != seg.numInputPorts)
        bad("SEG-COVERAGE", "plan and netlist disagree on numInputPorts");
    std::vector<std::uint32_t> combAt(numSlots, kUnowned);
    std::vector<std::uint32_t> regAt(numSlots, kUnowned);
    for (std::size_t i = 0; i < seg.comb.size(); ++i)
        if (seg.comb[i].dst < numSlots)
            combAt[seg.comb[i].dst] = static_cast<std::uint32_t>(i);
    for (std::size_t i = 0; i < seg.regs.size(); ++i)
        if (seg.regs[i].dst < numSlots)
            regAt[seg.regs[i].dst] = static_cast<std::uint32_t>(i);
    // A netlist source in slot space; a source that is not a node
    // (checkNetlist reports it) matches no op field.
    const auto slotOfSrc = [&](NodeId src) {
        return src < numNodes ? seg.slotOf[src] : kNoNode;
    };
    const auto onesSlot = static_cast<NodeId>(numNodes);
    const auto zeroSlot = static_cast<NodeId>(numNodes + 1);
    // Inputs and constants are listed in ascending node-id order.
    std::size_t ii = 0;
    std::size_t oi = 0;
    std::size_t claimed = 0;
    const auto n = static_cast<NodeId>(numNodes);
    for (NodeId id = 0; id < n; ++id) {
        if (static_cast<std::uint8_t>(netlist->kinds[id]) > kMaxKind)
            return; // checkNetlist already reported it
        const CompKind kind = netlist->kinds[id];
        const NodeId slot = seg.slotOf[id];
        const NodeId a = slotOfSrc(netlist->srcA[id]);
        const NodeId b = slotOfSrc(netlist->srcB[id]);
        switch (kind) {
          case CompKind::Const0:
            if (combAt[slot] != kUnowned || regAt[slot] != kUnowned)
                bad("SEG-COVERAGE", "an op writes a Const0 node's slot",
                    id);
            break;
          case CompKind::Const1:
            if (oi >= seg.constOnes.size() ||
                seg.constOnes[oi++] != slot)
                bad("SEG-COVERAGE", "Const1 node missing from constOnes",
                    id);
            break;
          case CompKind::Input:
            if (ii >= seg.inputs.size() || seg.inputs[ii].node != slot)
                bad("SEG-COVERAGE",
                    "Input node missing from the input tape", id);
            else if (seg.inputs[ii].port != netlist->srcA[id])
                bad("SEG-OP-FORM",
                    "input op port does not match the netlist", id);
            if (ii < seg.inputs.size())
                ++ii;
            break;
          case CompKind::Not:
          case CompKind::And: {
            if (combAt[slot] == kUnowned) {
                bad("SEG-COVERAGE", "comb node has no settle op", id);
                break;
            }
            ++claimed;
            const auto &op = seg.comb[combAt[slot]];
            const bool formOk =
                kind == CompKind::Not
                    ? op.a == a && op.b == onesSlot &&
                          op.inv == ~std::uint64_t{0}
                    : op.a == a && op.b == b && op.inv == 0;
            if (!formOk)
                bad("SEG-OP-FORM",
                    "comb op fields do not encode the netlist op", id);
            break;
          }
          case CompKind::Dff:
          case CompKind::Adder:
          case CompKind::Sub: {
            if (regAt[slot] == kUnowned) {
                bad("SEG-COVERAGE", "register node has no commit op", id);
                break;
            }
            ++claimed;
            const auto &op = seg.regs[regAt[slot]];
            bool formOk = op.a == a;
            if (kind == CompKind::Dff)
                formOk = formOk && op.b == zeroSlot && op.bInv == 0 &&
                         op.carryInit == 0;
            else if (kind == CompKind::Adder)
                formOk = formOk && op.b == b && op.bInv == 0 &&
                         op.carryInit == 0;
            else
                formOk = formOk && op.b == b &&
                         op.bInv == ~std::uint64_t{0} &&
                         op.carryInit != 0;
            if (!formOk)
                bad("SEG-OP-FORM",
                    "reg op fields do not encode the netlist op", id);
            break;
          }
        }
    }
    if (claimed != totalOps || ii != seg.inputs.size() ||
        oi != seg.constOnes.size())
        bad("SEG-COVERAGE", "tapes carry ops no netlist node accounts for");
}

// ---------------------------------------------------------------------
// Tile checks
// ---------------------------------------------------------------------

void
Verifier::checkTiles(const TileView &tiles, Report *report) const
{
    const auto bad = [&](std::string rule, std::string msg,
                         std::uint64_t index = kNoIndex) {
        report->add(Severity::Error, Layer::Tile, std::move(rule),
                    std::move(msg), index);
    };

    if (tiles.tiles.empty()) {
        if (tiles.cols != 0)
            bad("TILE-COVER", "no tiles cover the column space");
        return;
    }
    std::size_t cursor = 0;
    for (std::size_t i = 0; i < tiles.tiles.size(); ++i) {
        const auto &t = tiles.tiles[i];
        if (t.colBegin != cursor || t.colEnd <= t.colBegin ||
            t.colEnd > tiles.cols) {
            bad("TILE-COVER",
                "tile strip [" + std::to_string(t.colBegin) + ", " +
                    std::to_string(t.colEnd) +
                    ") breaks the contiguous partition",
                i);
            return;
        }
        cursor = t.colEnd;
        const std::size_t width = t.colEnd - t.colBegin;
        if (tiles.lutBudget != 0 && width > 1 &&
            t.estimatedLuts > tiles.lutBudget)
            bad("TILE-BUDGET",
                "multi-column tile estimate " +
                    std::to_string(t.estimatedLuts) +
                    " exceeds the budget " +
                    std::to_string(tiles.lutBudget),
                i);
        if (tiles.maxTileCols != 0 && width > tiles.maxTileCols)
            bad("TILE-BUDGET",
                "tile width " + std::to_string(width) +
                    " exceeds maxTileCols " +
                    std::to_string(tiles.maxTileCols),
                i);
        if (!tiles.tileShapes.empty()) {
            if (i >= tiles.tileShapes.size() ||
                tiles.tileShapes[i] != std::pair{tiles.rows, width})
                bad("TILE-SHAPE",
                    "compiled tile shape does not match its strip", i);
        }
    }
    if (cursor != tiles.cols)
        bad("TILE-COVER", "tiles stop at column " +
                              std::to_string(cursor) + " of " +
                              std::to_string(tiles.cols));
}

// ---------------------------------------------------------------------
// Whole-artifact entry points
// ---------------------------------------------------------------------

Report
verifyCompileRequest(const core::CompileOptions &options,
                     const IntMatrix &weights)
{
    Report report;
    if (const char *msg =
            core::MatrixCompiler::checkCompile(options, weights))
        report.add(Severity::Error, Layer::Compile,
                   "COMPILE-PRECONDITION", msg);
    return report;
}

Report
verifyCompiledMatrix(const core::CompiledMatrix &matrix)
{
    Report report;
    const Verifier verifier;

    NetlistView netlist = NetlistView::of(matrix.netlist());
    for (const auto &out : matrix.outputs())
        if (out.node != kNoNode)
            netlist.outputs.push_back(out.node);
    verifier.checkNetlist(netlist, &report);

    verifier.checkSegmentation(SegmentationView::of(matrix.plan()),
                               &netlist, &report);
    return report;
}

Report
verifyDesign(const core::TiledDesign &design)
{
    Report report;
    const Verifier verifier;
    verifier.checkTiles(TileView::of(design), &report);
    for (std::size_t i = 0; i < design.tileCount(); ++i) {
        Report tile = verifyCompiledMatrix(design.tile(i));
        for (auto &d : tile.diagnostics) {
            if (design.tileCount() > 1)
                d.message = "tile " + std::to_string(i) + ": " +
                            d.message;
            report.diagnostics.push_back(std::move(d));
        }
    }
    return report;
}

Report
verifyFile(const std::string &path,
           const experiments::DesignKey *expected)
{
    Report report;
    std::shared_ptr<const core::TiledDesign> design;
    experiments::DesignKey key;
    const store::LoadStatus status =
        store::loadDesignFile(path, &design, &key);
    if (status != store::LoadStatus::Ok) {
        const char *rule = "FILE-CORRUPT";
        switch (status) {
          case store::LoadStatus::NotFound:
            rule = "FILE-NOT-FOUND";
            break;
          case store::LoadStatus::BadMagic:
            rule = "FILE-MAGIC";
            break;
          case store::LoadStatus::BadVersion:
            rule = "FILE-VERSION";
            break;
          case store::LoadStatus::Truncated:
            rule = "FILE-TRUNCATED";
            break;
          case store::LoadStatus::ChecksumMismatch:
            rule = "FILE-CHECKSUM";
            break;
          default:
            break;
        }
        report.add(Severity::Error, Layer::File, rule,
                   path + ": " + store::loadStatusName(status));
        return report;
    }
    if (expected != nullptr && !(key == *expected))
        report.add(Severity::Error, Layer::File, "FILE-KEY-MISMATCH",
                   path + ": stored design key does not match the "
                          "requested identity");
    Report designReport = verifyDesign(*design);
    for (auto &d : designReport.diagnostics)
        report.diagnostics.push_back(std::move(d));
    return report;
}

} // namespace spatial::analysis
