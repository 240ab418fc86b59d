/**
 * @file
 * Equivalence and invariant suite for segmented, activity-gated tape
 * execution: the gated BlockSimulator must be bit-identical — outputs
 * *and* register toggle counts — to WideSimulator and to the ungated
 * full sweeps at every segment size (including sizes that do not
 * divide the tape and a single segment swallowing the whole netlist),
 * for every supported SIMD kernel and lane width, across quiet input
 * phases (where segments skip), active phases (where the dense
 * fallback runs), and the transitions between them.  Also pins the
 * Segmentation build invariants and the engine's resolved-knob
 * reporting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "circuit/block_simulator.h"
#include "circuit/exec_plan.h"
#include "circuit/kernels.h"
#include "circuit/wide_simulator.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/compiler.h"
#include "core/tiled_design.h"
#include "matrix/generate.h"

namespace
{

using namespace spatial;
using core::CompileOptions;
using core::MatrixCompiler;
using core::SimOptions;

/** A netlist exercising every component kind. */
circuit::Netlist
makeKitchenSinkNetlist()
{
    circuit::Netlist nl;
    const auto zero = nl.addConst0();
    const auto one = nl.addConst1();
    const auto a = nl.addInput(0);
    const auto b = nl.addInput(1);
    const auto na = nl.addNot(a);
    const auto ab = nl.addAnd(a, b);
    const auto sum = nl.addAdder(a, b);
    const auto diff = nl.addSub(sum, ab);
    const auto d1 = nl.addDff(diff);
    const auto gated = nl.addAnd(d1, one);
    const auto carryish = nl.addAdder(gated, na);
    nl.addSub(zero, carryish);
    nl.addDelay(carryish, 3);
    return nl;
}

/**
 * Drive a gated BlockSimulator<W> and W WideSimulators with identical
 * streams that alternate random and constant phases (constant phases
 * are what make segments skip; the random re-entry exercises the dense
 * fallback and its transitions), asserting every node every cycle and
 * the toggle totals at the end.
 */
template <unsigned W>
void
checkGatedAgainstWide(const circuit::Netlist &nl,
                      std::size_t ops_per_segment,
                      const circuit::kernels::Kernel *kernel,
                      std::uint64_t seed)
{
    const circuit::ExecPlan plan(nl);
    const auto segmentation = plan.segmentation(ops_per_segment);
    circuit::BlockSimulator<W> block(plan, kernel, segmentation);
    ASSERT_TRUE(block.gated());
    std::vector<circuit::WideSimulator> wides(W,
                                              circuit::WideSimulator(nl));

    Rng rng(seed);
    const std::size_t ports = nl.numInputPorts();
    std::vector<std::uint64_t> plane(ports * W, 0);
    const int cycles = 48;
    for (int t = 0; t < cycles; ++t) {
        // Random for 8 cycles, frozen for 10, twice over.
        const int phase = t % 18;
        if (phase < 8)
            for (auto &word : plane)
                word = rng.next();

        block.settle(plane.data(), ports);
        for (unsigned w = 0; w < W; ++w) {
            std::vector<std::uint64_t> words(ports);
            for (std::size_t p = 0; p < ports; ++p)
                words[p] = plane[p * W + w];
            wides[w].step(words);
            for (circuit::NodeId id = 0; id < nl.numNodes(); ++id) {
                ASSERT_EQ(block.outputWord(id, w), wides[w].outputWord(id))
                    << "kernel " << block.kernel().name << " ops/seg "
                    << ops_per_segment << " cycle " << t << " word " << w
                    << " node " << id;
            }
        }
        block.commit();
    }

    std::uint64_t wide_toggles = 0;
    for (const auto &wide : wides)
        wide_toggles += wide.toggleCount();
    EXPECT_EQ(block.toggleCount(), wide_toggles)
        << "kernel " << block.kernel().name << " ops/seg "
        << ops_per_segment;
    // The frozen phases must actually exercise the skip path.
    EXPECT_GT(block.segmentsSkipped(), 0u)
        << "ops/seg " << ops_per_segment;
}

/** Every supported kernel, one lane width, several segment sizes. */
template <unsigned W>
void
checkGatedAllKernels(std::uint64_t seed)
{
    const auto nl = makeKitchenSinkNetlist();
    // 1 = one op per segment; 3 does not divide the op count; 1000
    // swallows the whole netlist into a single segment.
    for (const std::size_t ops_per_segment : {std::size_t{1},
                                              std::size_t{3},
                                              std::size_t{1000}})
        for (const auto *kernel : circuit::kernels::supportedKernels())
            checkGatedAgainstWide<W>(nl, ops_per_segment, kernel, seed);
}

TEST(Gating, MatchesWideSimulatorEverySegmentSizeW1)
{
    checkGatedAllKernels<1>(71);
}

TEST(Gating, MatchesWideSimulatorEverySegmentSizeW2)
{
    checkGatedAllKernels<2>(72);
}

TEST(Gating, MatchesWideSimulatorEverySegmentSizeW4)
{
    checkGatedAllKernels<4>(73);
}

TEST(Gating, MatchesWideSimulatorEverySegmentSizeW8)
{
    checkGatedAllKernels<8>(74);
}

TEST(Gating, ResetRestoresPowerOnStateAndCounters)
{
    const auto nl = makeKitchenSinkNetlist();
    const circuit::ExecPlan plan(nl);
    circuit::BlockSimulator<2> sim(plan, nullptr, plan.segmentation(2));

    std::vector<std::uint64_t> ones(nl.numInputPorts() * 2,
                                    ~std::uint64_t{0});
    for (int t = 0; t < 6; ++t)
        sim.step(ones.data(), nl.numInputPorts());
    EXPECT_GT(sim.toggleCount(), 0u);
    EXPECT_GT(sim.segmentsExecuted(), 0u);

    sim.reset();
    EXPECT_EQ(sim.cycle(), 0u);
    EXPECT_EQ(sim.toggleCount(), 0u);
    EXPECT_EQ(sim.segmentsExecuted(), 0u);
    EXPECT_EQ(sim.segmentsSkipped(), 0u);

    // A reset gated simulator must track a fresh WideSimulator,
    // including through a quiet phase.
    circuit::WideSimulator wide(nl);
    Rng rng(31);
    std::vector<std::uint64_t> words(nl.numInputPorts() * 2, 0);
    for (int t = 0; t < 30; ++t) {
        if (t % 11 < 5)
            for (auto &word : words)
                word = rng.next();
        sim.settle(words.data(), nl.numInputPorts());
        std::vector<std::uint64_t> lane0(nl.numInputPorts());
        for (std::size_t p = 0; p < lane0.size(); ++p)
            lane0[p] = words[p * 2];
        wide.step(lane0);
        for (circuit::NodeId id = 0; id < nl.numNodes(); ++id)
            ASSERT_EQ(sim.outputWord(id, 0), wide.outputWord(id));
        sim.commit();
    }
}

// ---------------------------------------------------------------------
// End-to-end differential through the batch engine
// ---------------------------------------------------------------------

/**
 * Gated and ungated multiplyBatchWide must agree with the scalar
 * reference for every kernel and several segment sizes, on batches
 * that do not divide the lane count.
 */
void
checkGatedBatchEquivalence(const IntMatrix &weights,
                           CompileOptions options, std::uint64_t seed)
{
    const auto design = MatrixCompiler(options).compile(weights);
    Rng rng(seed);
    const std::size_t batch_rows = 130;
    IntMatrix batch(batch_rows, weights.rows());
    for (std::size_t b = 0; b < batch_rows; ++b)
        for (std::size_t r = 0; r < weights.rows(); ++r)
            batch.at(b, r) =
                options.inputsSigned
                    ? rng.uniformInt(-(1 << (options.inputBits - 1)),
                                     (1 << (options.inputBits - 1)) - 1)
                    : rng.uniformInt(0, (1 << options.inputBits) - 1);

    const auto scalar = design.multiplyBatch(batch);
    for (const auto *kernel : circuit::kernels::supportedKernels()) {
        for (const unsigned segment_kib : {1u, 4u, 64u, 4096u}) {
            for (const unsigned lane_words : {1u, 4u, 8u}) {
                SimOptions sim;
                sim.threads = 1;
                sim.kernel = kernel;
                sim.laneWords = lane_words;
                sim.activityGating = true;
                sim.segmentKib = segment_kib;
                ASSERT_EQ(scalar, design.multiplyBatchWide(batch, sim))
                    << "kernel " << kernel->name << " segKib "
                    << segment_kib << " W " << lane_words;
            }
        }
        SimOptions ungated;
        ungated.threads = 1;
        ungated.kernel = kernel;
        ungated.activityGating = false;
        ASSERT_EQ(scalar, design.multiplyBatchWide(batch, ungated))
            << "kernel " << kernel->name;
    }

    // Auto knobs (gating defaults on), threaded.
    SimOptions threaded;
    threaded.threads = 4;
    threaded.laneWords = 1;
    ASSERT_EQ(scalar, design.multiplyBatchWide(batch, threaded));
    ASSERT_EQ(scalar, design.multiplyBatchWide(batch));
}

TEST(Gating, BatchEquivalenceCsdSigned)
{
    Rng rng(81);
    const auto v = makeSignedElementSparseMatrix(24, 20, 6, 0.6, rng);
    CompileOptions options;
    options.inputBits = 7;
    options.signMode = core::SignMode::Csd;
    checkGatedBatchEquivalence(v, options, 181);
}

TEST(Gating, BatchEquivalencePnUnsignedInputs)
{
    Rng rng(82);
    const auto v = makeSignedElementSparseMatrix(18, 22, 5, 0.4, rng);
    CompileOptions options;
    options.inputBits = 6;
    options.inputsSigned = false;
    options.signMode = core::SignMode::PnSplit;
    checkGatedBatchEquivalence(v, options, 182);
}

TEST(Gating, BatchEquivalenceAblationWithCombOps)
{
    // constantPropagation off keeps the AND-gate plane, so the gated
    // engine's comb sweeps and the comb-forced up-front flip path run.
    Rng rng(83);
    const auto v = makeSignedElementSparseMatrix(10, 8, 4, 0.5, rng);
    CompileOptions options;
    options.inputBits = 5;
    options.constantPropagation = false;
    checkGatedBatchEquivalence(v, options, 183);
}

TEST(Gating, ToggleCountsInvariantUnderGating)
{
    Rng rng(91);
    const auto v = makeSignedElementSparseMatrix(20, 20, 8, 0.6, rng);
    const auto design = MatrixCompiler(CompileOptions{}).compile(v);
    const auto probe = makeSignedBatch(48, 20, 8, rng);

    SimOptions gated;
    gated.activityGating = true;
    SimOptions ungated;
    ungated.activityGating = false;
    // measuredActivity is toggles / (bits * cycles * lanes): equality
    // of the ratio at identical shape means identical toggle totals.
    EXPECT_DOUBLE_EQ(core::measureSwitchingActivity(design, probe, gated),
                     core::measureSwitchingActivity(design, probe,
                                                    ungated));
}

TEST(Gating, SkippedSegmentsReportedByBatchStats)
{
    Rng rng(92);
    const auto v = makeSignedElementSparseMatrix(32, 32, 8, 0.8, rng);
    core::CompileOptions options;
    options.signMode = core::SignMode::Csd;
    const auto design = MatrixCompiler(options).compile(v);
    const auto batch = makeSignedBatch(130, 32, 8, rng);

    SimOptions gated;
    gated.threads = 2;
    gated.activityGating = true;
    core::BatchStats stats;
    (void)core::runBatchWide(design, batch, gated, &stats);
    EXPECT_GT(stats.segmentsExecuted, 0u);
    EXPECT_GT(stats.segmentsSkipped, 0u);

    SimOptions ungated;
    ungated.activityGating = false;
    core::BatchStats off;
    (void)core::runBatchWide(design, batch, ungated, &off);
    EXPECT_EQ(off.segmentsExecuted, 0u);
    EXPECT_EQ(off.segmentsSkipped, 0u);
}

TEST(Gating, TapeGemvGatedMatchesScalarAndCountsSegments)
{
    Rng rng(93);
    const auto v = makeSignedElementSparseMatrix(16, 16, 6, 0.5, rng);
    core::CompileOptions options;
    options.inputBits = 6;
    const auto design = MatrixCompiler(options).compile(v);

    SimOptions gated;
    gated.activityGating = true;
    core::TapeGemv gemv(design, gated);
    for (int i = 0; i < 4; ++i) {
        const auto x = makeSignedVector(16, 6, rng);
        EXPECT_EQ(gemv.multiply(x), design.multiply(x));
    }
    EXPECT_GT(gemv.engineStats().segmentsExecuted, 0u);
}

// ---------------------------------------------------------------------
// Segmentation build invariants
// ---------------------------------------------------------------------

TEST(Segmentation, PartitionsEveryOpExactlyOnce)
{
    Rng rng(94);
    const auto v = makeSignedElementSparseMatrix(12, 12, 5, 0.5, rng);
    const auto design = MatrixCompiler(CompileOptions{}).compile(v);
    const auto &plan = design.plan();

    for (const std::size_t ops_per_segment : {std::size_t{1},
                                              std::size_t{7},
                                              std::size_t{100000}}) {
        const auto seg = plan.segmentation(ops_per_segment);
        ASSERT_EQ(seg->comb().size(), plan.comb().size());
        ASSERT_EQ(seg->regs().size(), plan.regs().size());
        ASSERT_EQ(seg->inputs().size(), plan.inputs().size());
        ASSERT_EQ(seg->constOnes().size(), plan.constOnes().size());

        // Segments tile both tapes without gaps or overlaps.
        std::uint32_t comb_cursor = 0;
        std::uint32_t reg_cursor = 0;
        std::size_t total_ops = 0;
        for (const auto &s : seg->segments()) {
            EXPECT_EQ(s.combBegin, comb_cursor);
            EXPECT_EQ(s.regBegin, reg_cursor);
            EXPECT_LE(s.combBegin, s.combEnd);
            EXPECT_LE(s.regBegin, s.regEnd);
            comb_cursor = s.combEnd;
            reg_cursor = s.regEnd;
            total_ops += (s.combEnd - s.combBegin) +
                         (s.regEnd - s.regBegin);
        }
        EXPECT_EQ(comb_cursor, seg->comb().size());
        EXPECT_EQ(reg_cursor, seg->regs().size());
        EXPECT_EQ(total_ops, plan.comb().size() + plan.regs().size());

        // slotOf is a permutation of the node ids, with the ones/zero
        // slots fixed.
        std::vector<bool> seen(plan.numSlots(), false);
        for (const auto slot : seg->slotOf()) {
            ASSERT_LT(slot, plan.numSlots());
            ASSERT_FALSE(seen[slot]);
            seen[slot] = true;
        }
        EXPECT_EQ(seg->slotOf()[plan.onesSlot()], plan.onesSlot());
        EXPECT_EQ(seg->slotOf()[plan.zeroSlot()], plan.zeroSlot());

        // Sources resolve to earlier (or same) segments, never later —
        // the property both the wake scheme and the dense in-place
        // sweep rest on.
        std::vector<std::uint32_t> owner(plan.numSlots(), 0xffffffffu);
        for (std::size_t i = 0; i < seg->segments().size(); ++i) {
            const auto &s = seg->segments()[i];
            for (std::uint32_t k = s.combBegin; k < s.combEnd; ++k)
                owner[seg->comb()[k].dst] =
                    static_cast<std::uint32_t>(i);
            for (std::uint32_t k = s.regBegin; k < s.regEnd; ++k)
                owner[seg->regs()[k].dst] =
                    static_cast<std::uint32_t>(i);
        }
        for (std::size_t i = 0; i < seg->segments().size(); ++i) {
            const auto &s = seg->segments()[i];
            const auto checkSource = [&](circuit::NodeId src) {
                if (owner[src] != 0xffffffffu) {
                    EXPECT_LE(owner[src], i);
                }
            };
            for (std::uint32_t k = s.combBegin; k < s.combEnd; ++k) {
                checkSource(seg->comb()[k].a);
                checkSource(seg->comb()[k].b);
            }
            for (std::uint32_t k = s.regBegin; k < s.regEnd; ++k) {
                checkSource(seg->regs()[k].a);
                checkSource(seg->regs()[k].b);
            }
        }

        // The cache hands back the same immutable instance.
        EXPECT_EQ(seg.get(), plan.segmentation(ops_per_segment).get());
    }
}

/** A Segmentation's outputs, as referenceSegmentation() builds them. */
struct ReferenceSegmentation
{
    std::vector<circuit::NodeId> slotOf;
    std::vector<circuit::ExecPlan::CombOp> comb;
    std::vector<circuit::ExecPlan::RegOp> regs;
    std::vector<circuit::Segmentation::Segment> segments;
    std::vector<std::uint32_t> consumers;
};

/**
 * The schedule by a plain comparison sort of (depth << 32 | dst) keys
 * and per-segment sorted, deduplicated consumer lists — the direct
 * statement of the order the linear-time build must reproduce.
 */
ReferenceSegmentation
referenceSegmentation(const circuit::ExecPlan &plan,
                      std::size_t ops_per_segment)
{
    using circuit::NodeId;
    const auto &plan_comb = plan.comb();
    const auto &plan_regs = plan.regs();
    const std::size_t num_slots = plan.numSlots();
    const auto num_nodes = static_cast<NodeId>(plan.numNodes());

    // Register depth per node: sources always have lower ids, so one
    // ascending id walk over a dst -> op index resolves every depth.
    const std::size_t kNone = ~std::size_t{0};
    std::vector<std::size_t> comb_of(num_slots, kNone);
    std::vector<std::size_t> reg_of(num_slots, kNone);
    for (std::size_t i = 0; i < plan_comb.size(); ++i)
        comb_of[plan_comb[i].dst] = i;
    for (std::size_t i = 0; i < plan_regs.size(); ++i)
        reg_of[plan_regs[i].dst] = i;
    std::vector<std::uint32_t> depth(num_slots, 0);
    for (NodeId id = 0; id < num_nodes; ++id) {
        if (comb_of[id] != kNone) {
            const auto &op = plan_comb[comb_of[id]];
            depth[id] = std::max(depth[op.a], depth[op.b]);
        } else if (reg_of[id] != kNone) {
            const auto &op = plan_regs[reg_of[id]];
            depth[id] = std::max(depth[op.a], depth[op.b]) + 1;
        }
    }

    struct Slot
    {
        std::uint64_t key;
        std::uint32_t index;
        bool isReg;
    };
    std::vector<Slot> order;
    const auto key = [&](NodeId dst) {
        return (static_cast<std::uint64_t>(depth[dst]) << 32) | dst;
    };
    for (std::uint32_t i = 0; i < plan_comb.size(); ++i)
        order.push_back(Slot{key(plan_comb[i].dst), i, false});
    for (std::uint32_t i = 0; i < plan_regs.size(); ++i)
        order.push_back(Slot{key(plan_regs[i].dst), i, true});
    std::sort(order.begin(), order.end(),
              [](const Slot &a, const Slot &b) { return a.key < b.key; });

    ReferenceSegmentation ref;
    std::vector<bool> is_op_dst(num_slots, false);
    for (const auto &op : plan_comb)
        is_op_dst[op.dst] = true;
    for (const auto &op : plan_regs)
        is_op_dst[op.dst] = true;
    ref.slotOf.assign(num_slots, 0);
    NodeId next_slot = 0;
    for (NodeId id = 0; id < num_nodes; ++id)
        if (!is_op_dst[id])
            ref.slotOf[id] = next_slot++;
    for (const Slot &slot : order)
        ref.slotOf[slot.isReg ? plan_regs[slot.index].dst
                              : plan_comb[slot.index].dst] = next_slot++;
    ref.slotOf[num_nodes] = num_nodes;
    ref.slotOf[num_nodes + 1] = num_nodes + 1;
    const auto &slot_of = ref.slotOf;

    std::vector<std::uint32_t> owner(num_slots, 0xffffffffu);
    std::vector<bool> is_reg_dst(num_slots, false);
    for (std::size_t first = 0; first < order.size();
         first += ops_per_segment) {
        const std::size_t last =
            std::min(order.size(), first + ops_per_segment);
        circuit::Segmentation::Segment seg{};
        seg.combBegin = static_cast<std::uint32_t>(ref.comb.size());
        seg.regBegin = static_cast<std::uint32_t>(ref.regs.size());
        const auto index = static_cast<std::uint32_t>(ref.segments.size());
        for (std::size_t i = first; i < last; ++i) {
            if (order[i].isReg) {
                const auto &op = plan_regs[order[i].index];
                owner[slot_of[op.dst]] = index;
                is_reg_dst[slot_of[op.dst]] = true;
                ref.regs.push_back({slot_of[op.dst], slot_of[op.a],
                                    slot_of[op.b], op.bInv,
                                    op.carryInit});
            } else {
                const auto &op = plan_comb[order[i].index];
                owner[slot_of[op.dst]] = index;
                ref.comb.push_back({slot_of[op.dst], slot_of[op.a],
                                    slot_of[op.b], op.inv});
            }
        }
        seg.combEnd = static_cast<std::uint32_t>(ref.comb.size());
        seg.regEnd = static_cast<std::uint32_t>(ref.regs.size());
        ref.segments.push_back(seg);
    }

    const std::size_t num_segments = ref.segments.size();
    std::vector<std::vector<std::uint32_t>> comb_readers(num_segments);
    std::vector<std::vector<std::uint32_t>> reg_readers(num_segments);
    for (std::size_t s = 0; s < num_segments; ++s) {
        const auto &seg = ref.segments[s];
        const auto addSource = [&](NodeId src) {
            const std::uint32_t i = owner[src];
            if (i == 0xffffffffu || i == s)
                return;
            (is_reg_dst[src] ? reg_readers[i] : comb_readers[i])
                .push_back(static_cast<std::uint32_t>(s));
        };
        for (std::uint32_t i = seg.combBegin; i < seg.combEnd; ++i) {
            addSource(ref.comb[i].a);
            addSource(ref.comb[i].b);
        }
        for (std::uint32_t i = seg.regBegin; i < seg.regEnd; ++i) {
            addSource(ref.regs[i].a);
            addSource(ref.regs[i].b);
        }
    }
    for (std::size_t s = 0; s < num_segments; ++s) {
        auto &seg = ref.segments[s];
        const auto pack = [&](std::vector<std::uint32_t> &readers,
                              std::uint32_t &begin, std::uint32_t &end) {
            std::sort(readers.begin(), readers.end());
            readers.erase(std::unique(readers.begin(), readers.end()),
                          readers.end());
            begin = static_cast<std::uint32_t>(ref.consumers.size());
            ref.consumers.insert(ref.consumers.end(), readers.begin(),
                                 readers.end());
            end = static_cast<std::uint32_t>(ref.consumers.size());
        };
        pack(comb_readers[s], seg.combConsumersBegin,
             seg.combConsumersEnd);
        pack(reg_readers[s], seg.regConsumersBegin, seg.regConsumersEnd);
    }
    return ref;
}

/** Field-by-field equality of a Segmentation and its reference. */
void
expectMatchesReference(const circuit::ExecPlan &plan,
                       std::size_t ops_per_segment, const char *what)
{
    SCOPED_TRACE(::testing::Message()
                 << what << ", ops/seg " << ops_per_segment);
    const circuit::Segmentation seg(plan, ops_per_segment);
    const auto ref = referenceSegmentation(plan, ops_per_segment);

    ASSERT_EQ(seg.slotOf(), ref.slotOf);
    ASSERT_EQ(seg.comb().size(), ref.comb.size());
    for (std::size_t i = 0; i < ref.comb.size(); ++i) {
        const auto &got = seg.comb()[i];
        const auto &want = ref.comb[i];
        ASSERT_TRUE(got.dst == want.dst && got.a == want.a &&
                    got.b == want.b && got.inv == want.inv)
            << "comb op " << i;
    }
    ASSERT_EQ(seg.regs().size(), ref.regs.size());
    for (std::size_t i = 0; i < ref.regs.size(); ++i) {
        const auto &got = seg.regs()[i];
        const auto &want = ref.regs[i];
        ASSERT_TRUE(got.dst == want.dst && got.a == want.a &&
                    got.b == want.b && got.bInv == want.bInv &&
                    got.carryInit == want.carryInit)
            << "reg op " << i;
    }
    ASSERT_EQ(seg.segments().size(), ref.segments.size());
    for (std::size_t i = 0; i < ref.segments.size(); ++i) {
        const auto &got = seg.segments()[i];
        const auto &want = ref.segments[i];
        ASSERT_TRUE(got.combBegin == want.combBegin &&
                    got.combEnd == want.combEnd &&
                    got.regBegin == want.regBegin &&
                    got.regEnd == want.regEnd &&
                    got.combConsumersBegin == want.combConsumersBegin &&
                    got.combConsumersEnd == want.combConsumersEnd &&
                    got.regConsumersBegin == want.regConsumersBegin &&
                    got.regConsumersEnd == want.regConsumersEnd)
            << "segment " << i;
    }
    ASSERT_EQ(seg.consumers(), ref.consumers);
    ASSERT_EQ(seg.inputs().size(), plan.inputs().size());
    for (std::size_t i = 0; i < plan.inputs().size(); ++i) {
        EXPECT_EQ(seg.inputs()[i].node,
                  ref.slotOf[plan.inputs()[i].node]);
        EXPECT_EQ(seg.inputs()[i].port, plan.inputs()[i].port);
    }
    ASSERT_EQ(seg.constOnes().size(), plan.constOnes().size());
    for (std::size_t i = 0; i < plan.constOnes().size(); ++i)
        EXPECT_EQ(seg.constOnes()[i], ref.slotOf[plan.constOnes()[i]]);
}

TEST(Segmentation, ScheduleMatchesDepthSortReference)
{
    const std::size_t sizes[] = {1, 16, 128, 4096};
    for (const std::size_t ops : sizes)
        expectMatchesReference(circuit::ExecPlan(makeKitchenSinkNetlist()),
                               ops, "kitchen sink");

    Rng rng(95);
    struct Case
    {
        const char *name;
        core::SignMode sign;
        bool constantPropagation;
    };
    const Case cases[] = {{"Unsigned", core::SignMode::Unsigned, true},
                          {"PnSplit", core::SignMode::PnSplit, true},
                          {"Csd", core::SignMode::Csd, true},
                          {"Csd, AND plane kept", core::SignMode::Csd,
                           false}};
    for (const Case &c : cases) {
        const auto v =
            c.sign == core::SignMode::Unsigned
                ? makeElementSparseMatrix(48, 40, 6, 0.6, rng)
                : makeSignedElementSparseMatrix(48, 40, 6, 0.6, rng);
        CompileOptions options;
        options.signMode = c.sign;
        options.constantPropagation = c.constantPropagation;
        const auto design = MatrixCompiler(options).compile(v);
        for (const std::size_t ops : sizes)
            expectMatchesReference(design.plan(), ops, c.name);
    }

    // A column-tiled design: every tile carries its own plan.
    const auto v = makeSignedElementSparseMatrix(40, 36, 7, 0.5, rng);
    CompileOptions options;
    options.signMode = core::SignMode::Csd;
    core::TileOptions tile;
    tile.maxTileCols = 10;
    const auto tiled = core::TiledDesign::compile(v, options, tile);
    ASSERT_GT(tiled.tileCount(), 1u);
    for (std::size_t t = 0; t < tiled.tileCount(); ++t)
        for (const std::size_t ops : sizes)
            expectMatchesReference(tiled.tile(t).plan(), ops, "tiled");
}

TEST(Segmentation, OpsForBudgetScalesAndFloors)
{
    using circuit::Segmentation;
    // 4 slots of W words of 8 bytes per op.
    EXPECT_EQ(Segmentation::opsForBudget(4, 1), 4u * 1024 / 32);
    EXPECT_EQ(Segmentation::opsForBudget(4, 8), 4u * 1024 / 256);
    // Tiny budgets clamp to a sane floor instead of degenerating.
    EXPECT_EQ(Segmentation::opsForBudget(0, 8), 16u);
}

// ---------------------------------------------------------------------
// Resolved-knob reporting (bench/serve artifacts record real values)
// ---------------------------------------------------------------------

TEST(ResolvedKnobs, ThreadsNeverReportTheAutoSentinel)
{
    Rng rng(95);
    const auto v = makeSignedElementSparseMatrix(16, 16, 6, 0.5, rng);
    const auto design = MatrixCompiler(CompileOptions{}).compile(v);

    SimOptions sim;
    sim.threads = 0; // auto
    // One 64-lane group at most: the resolved count clamps to 1.
    EXPECT_EQ(core::resolvedThreads(design, sim, 1), 1u);
    EXPECT_GE(core::resolvedThreads(design, sim, 4096), 1u);

    sim.threads = 3;
    sim.laneWords = 1;
    // Explicit threads clamp to the group count (4096 / 64 = 64 > 3).
    EXPECT_EQ(core::resolvedThreads(design, sim, 4096), 3u);
    EXPECT_EQ(core::resolvedThreads(design, sim, 64), 1u);
}

} // namespace
