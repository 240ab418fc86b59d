#include "circuit/exec_plan.h"

#include <algorithm>

namespace spatial::circuit
{

ExecPlan::ExecPlan(const Netlist &netlist, std::size_t ops_per_segment)
    : numNodes_(netlist.numNodes()),
      numInputPorts_(netlist.numInputPorts()),
      registerBits_(netlist.registerBits()),
      opsPerSegment_(std::max<std::size_t>(1, ops_per_segment))
{
    const std::size_t num_slots = numSlots();
    const auto num_nodes = static_cast<NodeId>(numNodes_);
    const auto isComb = [](CompKind kind) {
        return kind == CompKind::Not || kind == CompKind::And;
    };
    const auto isReg = [](CompKind kind) {
        return kind == CompKind::Dff || kind == CompKind::Adder ||
               kind == CompKind::Sub;
    };
    // An op's second source in id space: NOT reads the ones slot and a
    // DFF the zero slot, which keep their indices in slot space too.
    const auto srcB = [&](NodeId id) {
        switch (netlist.kind(id)) {
          case CompKind::Not:
            return onesSlot();
          case CompKind::Dff:
            return zeroSlot();
          default:
            return netlist.srcB(id);
        }
    };

    // Register depth per node (== bit-serial stream latency): inputs
    // and constants are 0, registers are one past their deepest source,
    // comb ops propagate within the cycle.  The netlist is in SSA
    // order (every source id is below its consumer), so one ascending
    // id walk resolves all depths.
    //
    // The same walk numbers the value slots that no op writes (inputs
    // and constants, never written by a sweep): they keep the front of
    // the slot space in id order, and their input and Const1 lists are
    // emitted here.  Const0 needs no entry: value slots power on to
    // zero and nothing ever writes a Const0 slot.
    std::vector<std::uint32_t> depth(num_slots, 0);
    std::vector<std::uint32_t> ops_at_depth;
    slotOf_.assign(num_slots, 0);
    NodeId next_slot = 0;
    for (NodeId id = 0; id < num_nodes; ++id) {
        const CompKind kind = netlist.kind(id);
        if (isComb(kind) || isReg(kind)) {
            depth[id] = std::max(depth[netlist.srcA(id)], depth[srcB(id)]) +
                        (isReg(kind) ? 1 : 0);
            if (depth[id] >= ops_at_depth.size())
                ops_at_depth.resize(depth[id] + 1, 0);
            ++ops_at_depth[depth[id]];
            continue;
        }
        const NodeId slot = next_slot++;
        slotOf_[id] = slot;
        if (kind == CompKind::Const1)
            constOnes_.push_back(slot);
        else if (kind == CompKind::Input)
            inputs_.push_back(InputOp{slot, netlist.inputPort(id)});
    }

    // Schedule every op by (depth, id) with a counting sort: each
    // depth's ops get one contiguous run of slots after the non-op
    // nodes, filled in ascending id order.  Sources land strictly
    // before their consumers (comb sources at the same depth have
    // lower ids; register sources sit one depth below), so the comb
    // subsequence stays topological while nodes that quiesce together
    // share segments.  Each segment thereby owns one contiguous slice
    // of the value array; the ones/zero slots stay at numNodes and
    // numNodes + 1 so a simulator's reset code is layout-agnostic.
    const NodeId first_op_slot = next_slot;
    std::vector<NodeId> depth_cursor(ops_at_depth.size());
    for (std::size_t d = 0; d < ops_at_depth.size(); ++d) {
        depth_cursor[d] = next_slot;
        next_slot += ops_at_depth[d];
    }
    // Schedule position -> node id.
    std::vector<NodeId> order(next_slot - first_op_slot);
    for (NodeId id = 0; id < num_nodes; ++id) {
        const CompKind kind = netlist.kind(id);
        if (!isComb(kind) && !isReg(kind))
            continue;
        const NodeId slot = depth_cursor[depth[id]]++;
        slotOf_[id] = slot;
        order[slot - first_op_slot] = id;
    }
    slotOf_[onesSlot()] = onesSlot();
    slotOf_[zeroSlot()] = zeroSlot();

    // Chunk into segments, emitting every op in slot space, and record
    // which segment owns each dst slot (for the frontier scan), tagged
    // with kRegOwner when the slot is a register's.
    constexpr std::uint32_t kUnowned = 0xffffffffu;
    constexpr std::uint32_t kRegOwner = 0x80000000u;
    std::vector<std::uint32_t> owner(num_slots, kUnowned);
    const std::size_t num_comb = netlist.countKind(CompKind::Not) +
                                 netlist.countKind(CompKind::And);
    comb_.reserve(num_comb);
    regs_.reserve(order.size() - num_comb);
    for (std::size_t first = 0; first < order.size();
         first += opsPerSegment_) {
        const std::size_t last =
            std::min(order.size(), first + opsPerSegment_);
        Segment seg{};
        seg.combBegin = static_cast<std::uint32_t>(comb_.size());
        seg.regBegin = static_cast<std::uint32_t>(regs_.size());
        const auto index = static_cast<std::uint32_t>(segments_.size());
        for (std::size_t i = first; i < last; ++i) {
            const auto dst = static_cast<NodeId>(first_op_slot + i);
            const NodeId id = order[i];
            const NodeId a = slotOf_[netlist.srcA(id)];
            const NodeId b = slotOf_[srcB(id)];
            switch (netlist.kind(id)) {
              case CompKind::Not:
                comb_.push_back(CombOp{dst, a, b, ~std::uint64_t{0}});
                owner[dst] = index;
                break;
              case CompKind::And:
                comb_.push_back(CombOp{dst, a, b, 0});
                owner[dst] = index;
                break;
              case CompKind::Sub:
                regs_.push_back(RegOp{dst, a, b, ~std::uint64_t{0},
                                      ~std::uint64_t{0}});
                owner[dst] = index | kRegOwner;
                break;
              default: // Dff (b is the zero slot) and Adder
                regs_.push_back(RegOp{dst, a, b, 0, 0});
                owner[dst] = index | kRegOwner;
                break;
            }
        }
        seg.combEnd = static_cast<std::uint32_t>(comb_.size());
        seg.regEnd = static_cast<std::uint32_t>(regs_.size());
        segments_.push_back(seg);
    }

    // Frontier: the distinct segments owning each segment's sources.
    // Input and constant sources are unowned: constants never change
    // after reset, and cycles whose driven planes changed run the dense
    // fallback, which executes every segment anyway.  Segments are
    // visited in ascending order, so every readers list comes out
    // sorted, and checking its back keeps it duplicate-free.
    const std::size_t num_segments = segments_.size();
    std::vector<std::vector<std::uint32_t>> comb_readers(num_segments);
    std::vector<std::vector<std::uint32_t>> reg_readers(num_segments);
    for (std::size_t s = 0; s < num_segments; ++s) {
        const Segment &seg = segments_[s];
        const auto reader = static_cast<std::uint32_t>(s);
        const auto addSource = [&](NodeId src) {
            const std::uint32_t tagged = owner[src];
            const std::uint32_t i = tagged & ~kRegOwner;
            // The inverse index (who to wake on a change), split by
            // what is being read: comb values propagate within the
            // cycle, register values only after the next flip.  Reads
            // inside the owning segment need no wake — a segment
            // recomputes everything when it runs, and its own register
            // changes re-arm it via the reg_change self-wake.
            if (tagged == kUnowned || i == reader)
                return;
            auto &readers = (tagged & kRegOwner) != 0 ? reg_readers[i]
                                                      : comb_readers[i];
            if (readers.empty() || readers.back() != reader)
                readers.push_back(reader);
        };
        for (std::uint32_t i = seg.combBegin; i < seg.combEnd; ++i) {
            addSource(comb_[i].a);
            addSource(comb_[i].b);
        }
        for (std::uint32_t i = seg.regBegin; i < seg.regEnd; ++i) {
            addSource(regs_[i].a);
            addSource(regs_[i].b);
        }
    }

    for (std::size_t s = 0; s < num_segments; ++s) {
        Segment &seg = segments_[s];
        const auto pack = [&](const std::vector<std::uint32_t> &readers,
                              std::uint32_t &begin, std::uint32_t &end) {
            begin = static_cast<std::uint32_t>(consumers_.size());
            consumers_.insert(consumers_.end(), readers.begin(),
                              readers.end());
            end = static_cast<std::uint32_t>(consumers_.size());
        };
        pack(comb_readers[s], seg.combConsumersBegin,
             seg.combConsumersEnd);
        pack(reg_readers[s], seg.regConsumersBegin, seg.regConsumersEnd);
    }
}

} // namespace spatial::circuit
