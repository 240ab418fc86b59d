/**
 * @file
 * Tests of the static verification layer (src/analysis): a clean
 * sweep over registry-style designs in every sign mode, then
 * mutation-based negative tests — snapshot a correct artifact into
 * its *View, corrupt exactly one invariant, and assert the verifier
 * names the exact rule — spanning every layer: netlist, plan,
 * segmentation, tile partition, and the .sptd container.  Plus a
 * DesignStore concurrency regression for the thread-safety-annotated
 * admission path.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <thread>
#include <unistd.h>

#include "analysis/verifier.h"
#include "experiments/design_cache.h"
#include "experiments/workload.h"
#include "serve/design_store.h"
#include "store/format.h"

namespace
{

using namespace spatial;
using namespace spatial::analysis;
namespace fs = std::filesystem;

/** A compiled registry-style design plus the views tests corrupt. */
struct Artifacts
{
    core::TiledDesign design;
    NetlistView netlist;
    PlanView plan;
    SegmentationView seg;
    std::shared_ptr<const circuit::Segmentation> segPtr;
};

Artifacts
makeArtifacts(core::SignMode mode = core::SignMode::PnSplit,
              std::size_t dim = 24)
{
    const auto workload = experiments::makeWorkload(dim, 0.5);
    const auto options = experiments::figureCompileOptions(mode);
    Artifacts a{core::TiledDesign::compile(workload.weights, options),
                {}, {}, {}, {}};
    const core::CompiledMatrix &tile = a.design.tile(0);
    a.netlist = NetlistView::of(tile.netlist());
    for (const auto &out : tile.outputs())
        if (out.node != circuit::kNoNode)
            a.netlist.outputs.push_back(out.node);
    a.plan = PlanView::of(tile.plan());
    a.segPtr = tile.plan().segmentation(64);
    a.seg = SegmentationView::of(*a.segPtr, tile.plan());
    return a;
}

/**
 * A hand-built netlist exercising every op kind — the compiled
 * registry designs are register-only (adder/sub/dff tapes), so the
 * comb-tape and constant-node rules need a synthetic circuit.
 */
struct Synthetic
{
    circuit::Netlist netlist;
    std::unique_ptr<circuit::ExecPlan> plan;
    NetlistView netlistView;
    PlanView planView;
};

Synthetic
makeSynthetic()
{
    Synthetic s;
    circuit::Netlist &n = s.netlist;
    n.addConst0();
    const auto one = n.addConst1();
    const auto i0 = n.addInput(0);
    const auto i1 = n.addInput(1);
    const auto i2 = n.addInput(2);
    // A few layers of comb logic feeding registers, wide enough for
    // multi-segment schedules at small op budgets.
    auto acc = n.addAnd(i0, i1);
    for (int layer = 0; layer < 6; ++layer) {
        const auto inv = n.addNot(acc);
        const auto mix = n.addAnd(inv, layer % 2 == 0 ? i2 : one);
        const auto held = n.addDff(mix);
        const auto sum = n.addAdder(held, acc);
        acc = layer % 2 == 0 ? n.addSub(sum, held) : sum;
    }
    n.addDelay(acc, 3);
    s.plan = std::make_unique<circuit::ExecPlan>(n);
    s.netlistView = NetlistView::of(n);
    s.planView = PlanView::of(*s.plan);
    return s;
}

/** Expect exactly this rule among the report's errors. */
void
expectRule(const Report &report, const char *rule)
{
    EXPECT_FALSE(report.ok()) << "expected " << rule;
    EXPECT_TRUE(report.has(rule))
        << "expected " << rule << ", got:\n"
        << report.str();
}

// ---------------------------------------------------------------------
// Clean sweep: every layer of every sign mode verifies with zero
// diagnostics (warnings included), matching the spatial-lint gate.
// ---------------------------------------------------------------------

TEST(AnalysisCleanTest, EverySignModeVerifiesClean)
{
    for (const auto mode :
         {core::SignMode::Unsigned, core::SignMode::PnSplit,
          core::SignMode::Csd}) {
        const auto workload = experiments::makeWorkload(24, 0.5);
        IntMatrix weights = workload.weights;
        if (mode == core::SignMode::Unsigned)
            for (std::size_t r = 0; r < weights.rows(); ++r)
                for (std::size_t c = 0; c < weights.cols(); ++c)
                    weights.at(r, c) = std::abs(weights.at(r, c));
        const auto options = experiments::figureCompileOptions(mode);
        ASSERT_TRUE(verifyCompileRequest(options, weights).ok());
        const auto design = core::TiledDesign::compile(weights, options);
        const Report report = verifyDesign(design);
        EXPECT_TRUE(report.diagnostics.empty())
            << "sign mode " << static_cast<int>(mode) << ":\n"
            << report.str();
    }
}

TEST(AnalysisCleanTest, ForcedTilingVerifiesClean)
{
    const auto workload = experiments::makeWorkload(48, 0.5);
    core::TileOptions tile;
    tile.onesBudget = 2000;
    const auto design = core::TiledDesign::compile(
        workload.weights,
        experiments::figureCompileOptions(core::SignMode::PnSplit),
        tile);
    ASSERT_GT(design.tileCount(), 1u) << "budget did not force tiling";
    const Report report = verifyDesign(design);
    EXPECT_TRUE(report.diagnostics.empty()) << report.str();
}

TEST(AnalysisCleanTest, CompileRequestMirrorsCheckCompile)
{
    const auto workload = experiments::makeWorkload(8, 0.5);
    auto options =
        experiments::figureCompileOptions(core::SignMode::Unsigned);
    // Signed weights under Unsigned mode: the compiler refuses, and
    // the verifier reports the same refusal as a named diagnostic.
    const Report report =
        verifyCompileRequest(options, workload.weights);
    expectRule(report, "COMPILE-PRECONDITION");
    options.inputBits = 0;
    expectRule(verifyCompileRequest(options, workload.weights),
               "COMPILE-PRECONDITION");
}

// ---------------------------------------------------------------------
// Netlist mutations
// ---------------------------------------------------------------------

TEST(AnalysisNetlistTest, KindByteOutOfRange)
{
    Artifacts a = makeArtifacts();
    a.netlist.kinds[a.netlist.kinds.size() / 2] =
        static_cast<circuit::CompKind>(200);
    Report report;
    Verifier().checkNetlist(a.netlist, &report);
    expectRule(report, "NET-KIND-RANGE");
}

TEST(AnalysisNetlistTest, ForwardSourceBreaksSsaOrder)
{
    Artifacts a = makeArtifacts();
    // Find a binary logic node and point a source at a later id —
    // the settle order would read it before it is computed.
    for (std::size_t id = 0; id < a.netlist.kinds.size(); ++id) {
        const auto kind = a.netlist.kinds[id];
        if ((kind == circuit::CompKind::And ||
             kind == circuit::CompKind::Adder) &&
            id + 1 < a.netlist.kinds.size()) {
            a.netlist.srcA[id] =
                static_cast<circuit::NodeId>(id + 1);
            break;
        }
    }
    Report report;
    Verifier().checkNetlist(a.netlist, &report);
    expectRule(report, "NET-SSA-ORDER");
}

TEST(AnalysisNetlistTest, InputPortPastPortCount)
{
    Artifacts a = makeArtifacts();
    for (std::size_t id = 0; id < a.netlist.kinds.size(); ++id)
        if (a.netlist.kinds[id] == circuit::CompKind::Input) {
            a.netlist.srcA[id] = static_cast<circuit::NodeId>(
                a.netlist.numInputPorts + 7);
            break;
        }
    Report report;
    Verifier().checkNetlist(a.netlist, &report);
    expectRule(report, "NET-INPUT-PORT-RANGE");
    // The vacated port is now undriven as well.
    expectRule(report, "NET-PORT-DENSE");
}

TEST(AnalysisNetlistTest, ConstantWithOperandsBreaksArity)
{
    // Compiled designs are register-only; the constant-arity rule
    // needs the synthetic circuit's Const1 node.
    Synthetic s = makeSynthetic();
    bool mutated = false;
    for (std::size_t id = 0; id < s.netlistView.kinds.size(); ++id)
        if (s.netlistView.kinds[id] == circuit::CompKind::Const1) {
            s.netlistView.srcA[id] = 0;
            mutated = true;
            break;
        }
    ASSERT_TRUE(mutated);
    Report report;
    Verifier().checkNetlist(s.netlistView, &report);
    expectRule(report, "NET-SRC-ARITY");
}

// ---------------------------------------------------------------------
// Plan mutations
// ---------------------------------------------------------------------

TEST(AnalysisPlanTest, SwappedSettleOpsBreakTapeOrder)
{
    Synthetic s = makeSynthetic();
    ASSERT_GE(s.planView.comb.size(), 2u);
    std::swap(s.planView.comb[0], s.planView.comb[1]);
    Report report;
    Verifier().checkPlan(s.planView, nullptr, &report);
    expectRule(report, "PLAN-COMB-ORDER");
}

TEST(AnalysisPlanTest, CombReadingLaterSlotIsUnsettled)
{
    Synthetic s = makeSynthetic();
    ASSERT_GE(s.planView.comb.size(), 2u);
    // First op reads the last op's destination: a same-cycle value
    // the ascending tape has not produced yet.
    s.planView.comb.front().a = s.planView.comb.back().dst;
    Report report;
    Verifier().checkPlan(s.planView, nullptr, &report);
    expectRule(report, "PLAN-COMB-SRC-SETTLED");
}

TEST(AnalysisPlanTest, ReversedCommitTapeBreaksOrder)
{
    Artifacts a = makeArtifacts(core::SignMode::Csd);
    ASSERT_GE(a.plan.regs.size(), 2u);
    std::swap(a.plan.regs[0], a.plan.regs[1]);
    Report report;
    Verifier().checkPlan(a.plan, nullptr, &report);
    expectRule(report, "PLAN-COMMIT-ORDER");
}

TEST(AnalysisPlanTest, RegReadingHigherSlotIsAnInPlaceHazard)
{
    Artifacts a = makeArtifacts(core::SignMode::Csd);
    ASSERT_GE(a.plan.regs.size(), 2u);
    // The last commit op (lowest dst) reads the first one's dst: the
    // in-place descending sweep has already overwritten it.
    a.plan.regs.back().a = a.plan.regs.front().dst;
    Report report;
    Verifier().checkPlan(a.plan, nullptr, &report);
    expectRule(report, "PLAN-REG-HAZARD");
}

TEST(AnalysisPlanTest, DuplicateDriverAndSlotRange)
{
    Artifacts a = makeArtifacts();
    ASSERT_GE(a.plan.regs.size(), 2u);
    {
        PlanView p = a.plan;
        p.regs[1].dst = p.regs[0].dst;
        Report report;
        Verifier().checkPlan(p, nullptr, &report);
        expectRule(report, "PLAN-DST-UNIQUE");
    }
    {
        PlanView p = a.plan;
        p.regs[0].b = static_cast<circuit::NodeId>(p.numSlots() + 5);
        Report report;
        Verifier().checkPlan(p, nullptr, &report);
        expectRule(report, "PLAN-SLOT-RANGE");
    }
}

TEST(AnalysisPlanTest, DroppedOpBreaksNetlistCoverage)
{
    Artifacts a = makeArtifacts();
    ASSERT_GE(a.plan.regs.size(), 2u);
    a.plan.regs.erase(a.plan.regs.begin() + 1);
    Report report;
    Verifier().checkPlan(a.plan, &a.netlist, &report);
    expectRule(report, "PLAN-COVERAGE");
}

TEST(AnalysisPlanTest, CorruptedInvMaskBreaksOpForm)
{
    Artifacts a = makeArtifacts();
    ASSERT_FALSE(a.plan.regs.empty());
    a.plan.regs[0].bInv ^= 0x10;
    Report report;
    Verifier().checkPlan(a.plan, &a.netlist, &report);
    expectRule(report, "PLAN-OP-FORM");
}

// ---------------------------------------------------------------------
// Segmentation mutations
// ---------------------------------------------------------------------

TEST(AnalysisSegTest, WidenedSegmentSliceBreaksPartition)
{
    Artifacts a = makeArtifacts();
    ASSERT_GE(a.seg.segments.size(), 2u);
    a.seg.segments[0].regEnd += 1; // overlaps segment 1's range
    Report report;
    Verifier().checkSegmentation(a.seg, &report);
    expectRule(report, "SEG-PARTITION");
}

TEST(AnalysisSegTest, SwappedSlotOfEntriesBreakThePermutation)
{
    Artifacts a = makeArtifacts();
    // Duplicate one mapping: two nodes land in one slot.
    a.seg.slotOf[1] = a.seg.slotOf[0];
    Report report;
    Verifier().checkSegmentation(a.seg, &report);
    expectRule(report, "SEG-SLOTOF-PERM");
}

TEST(AnalysisSegTest, SwappedScheduleOpsBreakContiguity)
{
    Artifacts a = makeArtifacts();
    ASSERT_GE(a.seg.segments.size(), 2u);
    // Swap one op across the segment boundary: each segment now owns
    // a slot outside its contiguous slice.
    const auto &s0 = a.seg.segments[0];
    const auto &s1 = a.seg.segments[1];
    ASSERT_GT(s0.regEnd, s0.regBegin);
    ASSERT_GT(s1.regEnd, s1.regBegin);
    std::swap(a.seg.regs[s0.regBegin], a.seg.regs[s1.regBegin]);
    Report report;
    Verifier().checkSegmentation(a.seg, &report);
    expectRule(report, "SEG-SLOT-CONTIGUOUS");
}

TEST(AnalysisSegTest, UnsettledReadBreaksScheduleTopology)
{
    // Settle-order topology needs a comb tape, so segment the
    // synthetic plan at a budget small enough to split it.
    Synthetic s = makeSynthetic();
    const auto segPtr = s.plan->segmentation(4);
    SegmentationView seg = SegmentationView::of(*segPtr, *s.plan);
    ASSERT_GE(seg.segments.size(), 2u);
    ASSERT_GE(seg.comb.size(), 2u);
    seg.comb.front().a = seg.comb.back().dst;
    Report report;
    Verifier().checkSegmentation(seg, &report);
    expectRule(report, "SEG-TOPO");
}

TEST(AnalysisSegTest, ReversedCommitReadIsAHazard)
{
    Artifacts a = makeArtifacts();
    ASSERT_GE(a.seg.regs.size(), 2u);
    // The first commit op reads the last one's slot: the descending
    // dense-fallback sweep overwrites it first.
    a.seg.regs.front().a = a.seg.regs.back().dst;
    Report report;
    Verifier().checkSegmentation(a.seg, &report);
    expectRule(report, "SEG-REG-HAZARD");
}

TEST(AnalysisSegTest, DroppedConsumerEdgeIsCaught)
{
    Artifacts a = makeArtifacts();
    // Find a segment with a non-empty wake list and shrink it by one.
    bool mutated = false;
    for (auto &sg : a.seg.segments) {
        if (sg.combConsumersEnd > sg.combConsumersBegin) {
            sg.combConsumersEnd -= 1;
            mutated = true;
            break;
        }
        if (sg.regConsumersEnd > sg.regConsumersBegin) {
            sg.regConsumersEnd -= 1;
            mutated = true;
            break;
        }
    }
    ASSERT_TRUE(mutated) << "no segment had consumers to drop";
    Report report;
    Verifier().checkSegmentation(a.seg, &report);
    expectRule(report, "SEG-CONSUMER-MISSING");
}

TEST(AnalysisSegTest, ForeignConsumerEdgeIsCaught)
{
    Artifacts a = makeArtifacts();
    // Point a segment's wake range at some other packed run that
    // contains a segment which reads nothing from it.
    bool mutated = false;
    for (auto &sg : a.seg.segments) {
        if (sg.combConsumersEnd == sg.combConsumersBegin &&
            !a.seg.consumers.empty()) {
            // Give an empty list one arbitrary existing entry.
            sg.combConsumersBegin = 0;
            sg.combConsumersEnd = 1;
            mutated = true;
            break;
        }
    }
    if (!mutated)
        GTEST_SKIP() << "every segment already wakes someone";
    Report report;
    Verifier().checkSegmentation(a.seg, &report);
    // Either the grafted edge is spurious (EXTRA) or — if segment 0's
    // real reader coincides — the list is fine for that segment but
    // the mutation was a no-op; require the report to say EXTRA or be
    // clean, and accept only EXTRA as the mutation firing.
    expectRule(report, "SEG-CONSUMER-EXTRA");
}

// ---------------------------------------------------------------------
// Tile mutations
// ---------------------------------------------------------------------

TEST(AnalysisTileTest, GapAndBudgetViolations)
{
    const auto workload = experiments::makeWorkload(48, 0.5);
    core::TileOptions tileOptions;
    tileOptions.onesBudget = 2000;
    const auto design = core::TiledDesign::compile(
        workload.weights,
        experiments::figureCompileOptions(core::SignMode::PnSplit),
        tileOptions);
    ASSERT_GT(design.tileCount(), 1u);
    const TileView clean = TileView::of(design);
    {
        TileView v = clean;
        v.tiles[1].colBegin += 1; // gap between strip 0 and 1
        Report report;
        Verifier().checkTiles(v, &report);
        expectRule(report, "TILE-COVER");
    }
    {
        TileView v = clean;
        v.tiles[0].estimatedLuts = v.lutBudget * 3; // over budget
        Report report;
        Verifier().checkTiles(v, &report);
        expectRule(report, "TILE-BUDGET");
    }
    {
        TileView v = clean;
        v.tileShapes[0].second += 1; // compiled strip width mismatch
        Report report;
        Verifier().checkTiles(v, &report);
        expectRule(report, "TILE-SHAPE");
    }
}

// ---------------------------------------------------------------------
// .sptd container mutations
// ---------------------------------------------------------------------

class AnalysisFileTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        dir_ = fs::temp_directory_path() /
               ("analysis_test_" + std::to_string(::getpid()));
        fs::create_directories(dir_);
        const auto workload = experiments::makeWorkload(16, 0.5);
        const auto options =
            experiments::figureCompileOptions(core::SignMode::PnSplit);
        key_ = experiments::makeDesignKey(workload.weights, options);
        design_ = std::make_unique<core::TiledDesign>(
            core::TiledDesign::compile(workload.weights, options));
        path_ = (dir_ / "design.sptd").string();
        ASSERT_TRUE(store::saveDesignFile(path_, key_, *design_));
    }

    void TearDown() override { fs::remove_all(dir_); }

    std::vector<char> readFile() const
    {
        std::ifstream in(path_, std::ios::binary);
        return {std::istreambuf_iterator<char>(in),
                std::istreambuf_iterator<char>()};
    }

    void writeFile(const std::vector<char> &bytes) const
    {
        std::ofstream out(path_, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
    }

    fs::path dir_;
    std::string path_;
    experiments::DesignKey key_;
    std::unique_ptr<core::TiledDesign> design_;
};

TEST_F(AnalysisFileTest, IntactFileVerifiesCleanIncludingKey)
{
    const Report report = verifyFile(path_, &key_);
    EXPECT_TRUE(report.diagnostics.empty()) << report.str();
}

TEST_F(AnalysisFileTest, WrongMagicIsCaught)
{
    auto bytes = readFile();
    bytes[0] = 'X';
    writeFile(bytes);
    expectRule(verifyFile(path_), "FILE-MAGIC");
}

TEST_F(AnalysisFileTest, PayloadBitFlipFailsTheChecksum)
{
    auto bytes = readFile();
    bytes[bytes.size() / 2] ^= 0x40;
    writeFile(bytes);
    expectRule(verifyFile(path_), "FILE-CHECKSUM");
}

TEST_F(AnalysisFileTest, TruncationIsCaught)
{
    auto bytes = readFile();
    bytes.resize(bytes.size() / 2);
    writeFile(bytes);
    expectRule(verifyFile(path_), "FILE-TRUNCATED");
}

TEST_F(AnalysisFileTest, WrongKeyIsCaught)
{
    experiments::DesignKey other = key_;
    other.contentHash ^= 1;
    expectRule(verifyFile(path_, &other), "FILE-KEY-MISMATCH");
}

TEST_F(AnalysisFileTest, MissingFileIsCaught)
{
    expectRule(verifyFile((dir_ / "absent.sptd").string()),
               "FILE-NOT-FOUND");
}

// ---------------------------------------------------------------------
// DesignStore concurrency regression: the annotated admission path
// under a concurrent get() storm over a small capacity (evictions,
// demotions to the cold tier, and rematerializations all racing).
// ---------------------------------------------------------------------

TEST(AnalysisConcurrencyTest, DesignStoreAdmissionStormStaysCoherent)
{
    const fs::path dir =
        fs::temp_directory_path() /
        ("analysis_store_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    serve::StoreOptions options;
    options.capacity = 2;
    options.spillDir = dir.string();
    serve::DesignStore store(options);

    constexpr int kThreads = 4;
    constexpr int kIters = 12;
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&store, t] {
            for (int i = 0; i < kIters; ++i) {
                const std::size_t dim = 8 + 4 * ((t + i) % 4);
                const auto workload =
                    experiments::makeWorkload(dim, 0.5);
                const auto opts = experiments::figureCompileOptions(
                    core::SignMode::PnSplit);
                const auto design = store.get(workload.weights, opts);
                ASSERT_NE(design, nullptr);
                EXPECT_EQ(design->rows(), dim);
                // Admission hands back verifiably sound artifacts
                // even while eviction races promotion.
                if (i == 0) {
                    EXPECT_TRUE(verifyDesign(*design).ok());
                }
            }
        });
    for (auto &thread : threads)
        thread.join();
    const auto stats = store.stats();
    EXPECT_EQ(stats.coldFallbacks, 0u);
    fs::remove_all(dir);
}

} // namespace
