#include "circuit/exec_plan.h"

#include <algorithm>

namespace spatial::circuit
{

ExecPlan::ExecPlan(const Netlist &netlist)
    : numNodes_(netlist.numNodes()),
      numInputPorts_(netlist.numInputPorts()),
      registerBits_(netlist.registerBits())
{
    comb_.reserve(netlist.countKind(CompKind::Not) +
                  netlist.countKind(CompKind::And));
    regs_.reserve(netlist.countKind(CompKind::Dff) +
                  netlist.countKind(CompKind::Adder) +
                  netlist.countKind(CompKind::Sub));
    inputs_.reserve(netlist.countKind(CompKind::Input));
    constOnes_.reserve(netlist.countKind(CompKind::Const1));
    const auto n = static_cast<NodeId>(numNodes_);
    for (NodeId id = 0; id < n; ++id) {
        switch (netlist.kind(id)) {
          case CompKind::Const0:
            // Value slots power on to zero and nothing ever writes a
            // Const0 slot, so the tape carries no op for it.
            break;
          case CompKind::Const1:
            constOnes_.push_back(id);
            break;
          case CompKind::Input:
            inputs_.push_back(InputOp{id, netlist.inputPort(id)});
            break;
          case CompKind::Not:
            comb_.push_back(
                CombOp{id, netlist.srcA(id), onesSlot(), ~std::uint64_t{0}});
            break;
          case CompKind::And:
            comb_.push_back(
                CombOp{id, netlist.srcA(id), netlist.srcB(id), 0});
            break;
          case CompKind::Dff:
            regs_.push_back(
                RegOp{id, netlist.srcA(id), zeroSlot(), 0, 0});
            break;
          case CompKind::Adder:
            regs_.push_back(
                RegOp{id, netlist.srcA(id), netlist.srcB(id), 0, 0});
            break;
          case CompKind::Sub:
            regs_.push_back(RegOp{id, netlist.srcA(id), netlist.srcB(id),
                                  ~std::uint64_t{0}, ~std::uint64_t{0}});
            break;
        }
    }
}

std::shared_ptr<const Segmentation>
ExecPlan::segmentation(std::size_t ops_per_segment) const
{
    ops_per_segment = std::max<std::size_t>(1, ops_per_segment);
    std::lock_guard<std::mutex> lock(segmentationMutex_);
    auto &slot = segmentations_[ops_per_segment];
    if (slot == nullptr)
        slot = std::make_shared<const Segmentation>(*this, ops_per_segment);
    return slot;
}

std::size_t
Segmentation::opsForBudget(unsigned lane_words)
{
    const std::size_t op_bytes =
        4 * sizeof(std::uint64_t) * std::max(1u, lane_words);
    return std::max<std::size_t>(16, kBudgetKib * 1024 / op_bytes);
}

Segmentation::Segmentation(const ExecPlan &plan, std::size_t ops_per_segment)
    : opsPerSegment_(std::max<std::size_t>(1, ops_per_segment))
{
    const auto &plan_comb = plan.comb();
    const auto &plan_regs = plan.regs();
    const std::size_t num_slots = plan.numSlots();
    const auto num_nodes = static_cast<NodeId>(plan.numNodes());

    // Register depth per slot (== bit-serial stream latency): inputs
    // and constants are 0, registers are one past their deepest source,
    // comb ops propagate within the cycle.  Both tapes are sorted by
    // ascending dst and every source id is below its dst, so one
    // ascending id walk resolves all depths.
    //
    // The same walk renumbers the value slots that no op writes
    // (inputs and constants, never written by a sweep): they keep the
    // front of the slot space in id order.
    std::vector<std::uint32_t> depth(num_slots, 0);
    std::vector<std::uint32_t> ops_at_depth;
    slotOf_.assign(num_slots, 0);
    NodeId next_slot = 0;
    std::size_t ci = 0;
    std::size_t ri = 0;
    for (NodeId id = 0; id < num_nodes; ++id) {
        if (ci < plan_comb.size() && plan_comb[ci].dst == id) {
            const auto &op = plan_comb[ci++];
            depth[id] = std::max(depth[op.a], depth[op.b]);
        } else if (ri < plan_regs.size() && plan_regs[ri].dst == id) {
            const auto &op = plan_regs[ri++];
            depth[id] = std::max(depth[op.a], depth[op.b]) + 1;
        } else {
            slotOf_[id] = next_slot++;
            continue;
        }
        if (depth[id] >= ops_at_depth.size())
            ops_at_depth.resize(depth[id] + 1, 0);
        ++ops_at_depth[depth[id]];
    }

    // Schedule every op by (depth, dst) with a counting sort: each
    // depth's ops get one contiguous run of slots after the non-op
    // nodes, filled in ascending id order.  Sources land strictly
    // before their consumers (comb sources at the same depth have
    // lower ids; register sources sit one depth below), so the comb
    // subsequence stays topological while nodes that quiesce together
    // share segments.  Op destinations are renumbered into this
    // schedule order, so each segment owns one contiguous slice of the
    // value array; the ones/zero slots stay at numNodes and
    // numNodes + 1 so a simulator's reset code is layout-agnostic.
    const NodeId first_op_slot = next_slot;
    std::vector<NodeId> depth_cursor(ops_at_depth.size());
    for (std::size_t d = 0; d < ops_at_depth.size(); ++d) {
        depth_cursor[d] = next_slot;
        next_slot += ops_at_depth[d];
    }
    // Schedule position -> op: the op's tape index shifted left once,
    // with the low bit set for register ops.
    std::vector<std::uint32_t> order(next_slot - first_op_slot);
    ci = 0;
    ri = 0;
    for (NodeId id = 0; id < num_nodes; ++id) {
        std::uint32_t op;
        if (ci < plan_comb.size() && plan_comb[ci].dst == id)
            op = static_cast<std::uint32_t>(ci++) << 1;
        else if (ri < plan_regs.size() && plan_regs[ri].dst == id)
            op = static_cast<std::uint32_t>(ri++) << 1 | 1u;
        else
            continue;
        const NodeId slot = depth_cursor[depth[id]]++;
        slotOf_[id] = slot;
        order[slot - first_op_slot] = op;
    }
    slotOf_[num_nodes] = static_cast<NodeId>(num_nodes);         // ones
    slotOf_[num_nodes + 1] = static_cast<NodeId>(num_nodes + 1); // zero

    // Chunk into segments, rewriting every op into slot space, and
    // record which segment owns each dst slot (for the frontier scan),
    // tagged with kRegOwner when the slot is a register's.
    constexpr std::uint32_t kUnowned = 0xffffffffu;
    constexpr std::uint32_t kRegOwner = 0x80000000u;
    std::vector<std::uint32_t> owner(num_slots, kUnowned);
    comb_.reserve(plan_comb.size());
    regs_.reserve(plan_regs.size());
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
            const std::uint32_t op_index = order[i] >> 1;
            if (order[i] & 1u) {
                const auto &op = plan_regs[op_index];
                owner[dst] = index | kRegOwner;
                regs_.push_back(ExecPlan::RegOp{dst, slotOf_[op.a],
                                                slotOf_[op.b], op.bInv,
                                                op.carryInit});
            } else {
                const auto &op = plan_comb[op_index];
                owner[dst] = index;
                comb_.push_back(ExecPlan::CombOp{dst, slotOf_[op.a],
                                                 slotOf_[op.b], op.inv});
            }
        }
        seg.combEnd = static_cast<std::uint32_t>(comb_.size());
        seg.regEnd = static_cast<std::uint32_t>(regs_.size());
        segments_.push_back(seg);
    }

    inputs_.reserve(plan.inputs().size());
    for (const auto &in : plan.inputs())
        inputs_.push_back(ExecPlan::InputOp{slotOf_[in.node], in.port});
    constOnes_.reserve(plan.constOnes().size());
    for (const auto node : plan.constOnes())
        constOnes_.push_back(slotOf_[node]);

    // Frontier: the distinct segments owning each segment's sources.
    // Input and constant sources are unowned: constants never change
    // after reset, and cycles whose driven planes changed run the dense
    // fallback, which executes every segment anyway.  Scanned in slot
    // space, where the rewritten ops and the owner map live.  Segments
    // are visited in ascending order, so every readers list comes out
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
