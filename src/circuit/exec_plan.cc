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
    // Raw array views: every pass below walks them by id.
    const CompKind *kinds = netlist.kinds().data();
    const NodeId *src_a = netlist.srcAs().data();
    const NodeId *src_b = netlist.srcBs().data();
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
        switch (kinds[id]) {
          case CompKind::Not:
            return onesSlot();
          case CompKind::Dff:
            return zeroSlot();
          default:
            return src_b[id];
        }
    };

    // Register depth per node (== bit-serial stream latency): inputs
    // and constants are 0, registers are one past their deepest source,
    // comb ops propagate within the cycle.  The netlist is in SSA
    // order (every source id is below its consumer), so one ascending
    // id walk resolves all depths and counts each depth's comb and
    // register ops.
    //
    // The same walk numbers the value slots that no op writes (inputs
    // and constants, never written by a sweep): they keep the front of
    // the slot space in id order, and their input and Const1 lists are
    // emitted here.  Const0 needs no entry: value slots power on to
    // zero and nothing ever writes a Const0 slot.
    std::vector<std::uint32_t> depth(num_slots, 0);
    std::vector<std::uint32_t> comb_at_depth;
    std::vector<std::uint32_t> regs_at_depth;
    slotOf_.assign(num_slots, 0);
    NodeId next_slot = 0;
    for (NodeId id = 0; id < num_nodes; ++id) {
        const CompKind kind = kinds[id];
        const bool reg = isReg(kind);
        if (reg || isComb(kind)) {
            const std::uint32_t d =
                std::max(depth[src_a[id]], depth[srcB(id)]) + (reg ? 1 : 0);
            depth[id] = d;
            if (d >= comb_at_depth.size()) {
                comb_at_depth.resize(d + 1, 0);
                regs_at_depth.resize(d + 1, 0);
            }
            ++(reg ? regs_at_depth : comb_at_depth)[d];
            continue;
        }
        const NodeId slot = next_slot++;
        slotOf_[id] = slot;
        if (kind == CompKind::Const1)
            constOnes_.push_back(slot);
        else if (kind == CompKind::Input)
            inputs_.push_back(InputOp{slot, src_a[id]});
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
    //
    // The comb and commit tapes are the comb and register ops in slot
    // order, so each depth also owns one contiguous run of each tape,
    // and a second ascending id walk emits every op straight into its
    // place: its sources have lower ids, so their slots are known.
    const NodeId first_op_slot = next_slot;
    const std::size_t num_depths = comb_at_depth.size();
    std::vector<NodeId> slot_cursor(num_depths);
    std::vector<std::uint32_t> comb_cursor(num_depths);
    std::vector<std::uint32_t> reg_cursor(num_depths);
    std::uint32_t num_comb = 0;
    std::uint32_t num_regs = 0;
    for (std::size_t d = 0; d < num_depths; ++d) {
        slot_cursor[d] = first_op_slot + num_comb + num_regs;
        comb_cursor[d] = num_comb;
        reg_cursor[d] = num_regs;
        num_comb += comb_at_depth[d];
        num_regs += regs_at_depth[d];
    }
    slotOf_[onesSlot()] = onesSlot();
    slotOf_[zeroSlot()] = zeroSlot();

    // owner[] maps each slot to the consumer list that must wake when
    // it changes: list 2s holds segment s's comb readers and list
    // 2s + 1 its register readers.  Slots no op writes (inputs,
    // constants, the ones/zero slots) map to the extra list
    // 2 * num_segments, which is never packed.  The emission below
    // writes the comb/reg bit; the segment scan adds 2s.
    const std::size_t num_ops = std::size_t{num_comb} + num_regs;
    const std::size_t num_segments =
        num_ops == 0 ? 0 : (num_ops - 1) / opsPerSegment_ + 1;
    const auto unowned = static_cast<std::uint32_t>(2 * num_segments);
    std::vector<std::uint32_t> owner(num_slots, unowned);
    comb_.resize(num_comb);
    regs_.resize(num_regs);
    for (NodeId id = 0; id < num_nodes; ++id) {
        const CompKind kind = kinds[id];
        if (!isComb(kind) && !isReg(kind))
            continue;
        const std::uint32_t d = depth[id];
        const NodeId dst = slot_cursor[d]++;
        slotOf_[id] = dst;
        const NodeId a = slotOf_[src_a[id]];
        const NodeId b = slotOf_[srcB(id)];
        switch (kind) {
          case CompKind::Not:
            comb_[comb_cursor[d]++] = CombOp{dst, a, b, ~std::uint64_t{0}};
            owner[dst] = 0;
            break;
          case CompKind::And:
            comb_[comb_cursor[d]++] = CombOp{dst, a, b, 0};
            owner[dst] = 0;
            break;
          case CompKind::Sub:
            regs_[reg_cursor[d]++] = RegOp{dst, a, b, ~std::uint64_t{0},
                                           ~std::uint64_t{0}};
            owner[dst] = 1;
            break;
          default: // Dff (b is the zero slot) and Adder
            regs_[reg_cursor[d]++] = RegOp{dst, a, b, 0, 0};
            owner[dst] = 1;
            break;
        }
    }

    // Chunk the slot order into segments.
    segments_.resize(num_segments);
    std::uint32_t comb_seen = 0;
    for (std::size_t s = 0; s < num_segments; ++s) {
        const std::size_t first = s * opsPerSegment_;
        const std::size_t last =
            first + std::min(num_ops - first, opsPerSegment_);
        Segment &seg = segments_[s];
        seg.combBegin = comb_seen;
        seg.regBegin = static_cast<std::uint32_t>(first - comb_seen);
        for (std::size_t i = first; i < last; ++i) {
            std::uint32_t &list = owner[first_op_slot + i];
            comb_seen += list == 0 ? 1 : 0;
            list += static_cast<std::uint32_t>(2 * s);
        }
        seg.combEnd = comb_seen;
        seg.regEnd = static_cast<std::uint32_t>(last - comb_seen);
    }

    // Frontier: the distinct segments owning each segment's sources,
    // split by what is read: comb values propagate within the cycle,
    // register values only after the next flip.  Input and constant
    // sources are unowned: constants never change after reset, and
    // cycles whose driven planes changed run the dense fallback, which
    // executes every segment anyway.  Reads inside the owning segment
    // need no wake — a segment recomputes everything when it runs, and
    // its own register changes re-arm it via the reg_change self-wake.
    //
    // last_reader[l] is the last segment added to list l.  Stamping a
    // reader's own lists and the unowned list before its scan makes
    // "already added" the only test per source.  Readers are scanned
    // in ascending order, so a counting sort by list packs every list
    // sorted and duplicate-free.
    struct Edge
    {
        std::uint32_t list;
        std::uint32_t reader;
    };
    std::vector<Edge> edges;
    std::vector<std::uint32_t> list_begin(2 * num_segments + 2, 0);
    std::vector<std::uint32_t> last_reader(2 * num_segments + 1,
                                           0xffffffffu);
    for (std::size_t s = 0; s < num_segments; ++s) {
        const Segment &seg = segments_[s];
        const auto reader = static_cast<std::uint32_t>(s);
        last_reader[2 * s] = reader;
        last_reader[2 * s + 1] = reader;
        last_reader[unowned] = reader;
        const auto addSource = [&](NodeId src) {
            const std::uint32_t list = owner[src];
            if (last_reader[list] == reader)
                return;
            last_reader[list] = reader;
            ++list_begin[list + 1];
            edges.push_back(Edge{list, reader});
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
    for (std::size_t l = 0; l < 2 * num_segments; ++l)
        list_begin[l + 1] += list_begin[l];
    for (std::size_t s = 0; s < num_segments; ++s) {
        Segment &seg = segments_[s];
        seg.combConsumersBegin = list_begin[2 * s];
        seg.combConsumersEnd = list_begin[2 * s + 1];
        seg.regConsumersBegin = list_begin[2 * s + 1];
        seg.regConsumersEnd = list_begin[2 * s + 2];
    }
    consumers_.resize(edges.size());
    for (const Edge &e : edges)
        consumers_[list_begin[e.list]++] = e.reader;
}

} // namespace spatial::circuit
