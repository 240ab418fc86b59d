/**
 * @file
 * Randomized equivalence suite for the compiled-tape engine: the
 * ExecPlan-driven BlockSimulator must reproduce the interpreter
 * simulators bit for bit — outputs and register toggle counts — at
 * every lane width, across sign modes, signed/unsigned inputs,
 * unaligned (including negative-latency) output columns, and batch
 * sizes that do not divide the lane count.  Every check runs once per
 * SIMD kernel the running CPU supports (scalar plus AVX2/NEON where
 * present), so each dispatch target of circuit::kernels is
 * proved bit-identical to WideSimulator, not just the one the process
 * would auto-select.  This is the proof that multiplyBatchWide's
 * rewrite onto the engine is a pure speedup.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "circuit/block_simulator.h"
#include "circuit/exec_plan.h"
#include "circuit/kernels.h"
#include "circuit/simulator.h"
#include "circuit/wide_simulator.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/compiler.h"
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
 * Drive a BlockSimulator<W> on one kernel and W independent
 * WideSimulators with the same per-lane-word streams; every node must
 * agree every cycle, and the block toggle total must equal the sum of
 * the per-word totals.  The input changes every cycle, so the gated
 * simulator runs its dense cycles throughout, as the forced-dense one
 * does by construction.
 */
template <unsigned W>
void
checkAgainstWideLanes(std::uint64_t seed,
                      const circuit::kernels::Kernel *kernel, bool gating)
{
    const auto nl = makeKitchenSinkNetlist();
    const circuit::ExecPlan plan(nl);
    circuit::BlockSimulator<W> block(plan, kernel, gating);
    std::vector<circuit::WideSimulator> wides(W, circuit::WideSimulator(nl));

    Rng rng(seed);
    const int cycles = 50;
    const std::size_t ports = nl.numInputPorts();
    std::vector<std::uint64_t> plane(ports * W);
    for (int t = 0; t < cycles; ++t) {
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
                    << "kernel " << block.kernel().name << " gating "
                    << gating << " cycle " << t << " word " << w
                    << " node " << id;
            }
        }
        block.commit();
    }

    std::uint64_t wide_toggles = 0;
    for (const auto &wide : wides)
        wide_toggles += wide.toggleCount();
    EXPECT_EQ(block.toggleCount(), wide_toggles)
        << "kernel " << block.kernel().name << " gating " << gating;
    EXPECT_EQ(block.cycle(), static_cast<std::uint64_t>(cycles));
    EXPECT_EQ(block.segmentsSkipped(), 0u);
}

/**
 * Run the wide-lane check at W on every kernel this CPU supports,
 * gated and forced-dense.
 */
template <unsigned W>
void
checkAgainstWideLanesAllKernels(std::uint64_t seed)
{
    for (const auto *kernel : circuit::kernels::supportedKernels())
        for (const bool gating : {true, false})
            checkAgainstWideLanes<W>(seed, kernel, gating);
}

TEST(BlockSimulator, MatchesWideSimulatorEveryLaneWordW1)
{
    checkAgainstWideLanesAllKernels<1>(11);
}

TEST(BlockSimulator, MatchesWideSimulatorEveryLaneWordW2)
{
    checkAgainstWideLanesAllKernels<2>(12);
}

TEST(BlockSimulator, MatchesWideSimulatorEveryLaneWordW4)
{
    checkAgainstWideLanesAllKernels<4>(13);
}

TEST(BlockSimulator, MatchesWideSimulatorEveryLaneWordW8)
{
    checkAgainstWideLanesAllKernels<8>(14);
}

TEST(BlockSimulator, MatchesScalarSimulatorPerLane)
{
    const auto nl = makeKitchenSinkNetlist();
    const circuit::ExecPlan plan(nl);
    circuit::BlockSimulator<2> block(plan);
    std::vector<circuit::Simulator> scalars;
    const int lanes_checked = 8;
    for (int l = 0; l < lanes_checked; ++l)
        scalars.emplace_back(nl);

    Rng rng(21);
    const std::size_t ports = nl.numInputPorts();
    std::vector<std::uint64_t> plane(ports * 2);
    for (int t = 0; t < 40; ++t) {
        for (auto &word : plane)
            word = rng.next();
        block.settle(plane.data(), ports);

        // Scalars 0..3 track lanes 0..3 of word 0; scalars 4..7 track
        // lanes 0..3 of word 1 (lane indices 64..67 of the block).
        for (int l = 0; l < lanes_checked; ++l) {
            const unsigned w = l < 4 ? 0u : 1u;
            const int lane = l % 4;
            auto &scalar = scalars[static_cast<std::size_t>(l)];
            std::vector<std::uint8_t> bits(ports);
            for (std::size_t p = 0; p < ports; ++p)
                bits[p] = static_cast<std::uint8_t>(
                    (plane[p * 2 + w] >> lane) & 1u);
            scalar.step(bits);
            for (circuit::NodeId id = 0; id < nl.numNodes(); ++id) {
                ASSERT_EQ((block.outputWord(id, w) >> lane) & 1u,
                          scalar.outputBit(id) ? 1u : 0u)
                    << "cycle " << t << " lane " << l << " node " << id;
            }
        }
        block.commit();
    }
}

TEST(BlockSimulator, ResetRestoresPowerOnState)
{
    const auto nl = makeKitchenSinkNetlist();
    const circuit::ExecPlan plan(nl);
    circuit::BlockSimulator<1> sim(plan);

    std::vector<std::uint64_t> ones(nl.numInputPorts(), ~std::uint64_t{0});
    sim.step(ones.data(), ones.size());
    sim.step(ones.data(), ones.size());
    EXPECT_GT(sim.toggleCount(), 0u);

    sim.reset();
    EXPECT_EQ(sim.cycle(), 0u);
    EXPECT_EQ(sim.toggleCount(), 0u);

    // A reset block simulator must track a fresh WideSimulator.
    circuit::WideSimulator wide(nl);
    Rng rng(31);
    for (int t = 0; t < 20; ++t) {
        std::vector<std::uint64_t> words(nl.numInputPorts());
        for (auto &word : words)
            word = rng.next();
        sim.settle(words.data(), words.size());
        wide.step(words);
        for (circuit::NodeId id = 0; id < nl.numNodes(); ++id)
            ASSERT_EQ(sim.outputWord(id, 0), wide.outputWord(id));
        sim.commit();
    }
    EXPECT_EQ(sim.toggleCount(), wide.toggleCount());
}

// ---------------------------------------------------------------------
// End-to-end batch equivalence through CompiledMatrix
// ---------------------------------------------------------------------

/**
 * Compile under the given options and assert scalar, legacy-wide, and
 * tape-engine batch products are identical for awkward batch sizes,
 * every explicit lane width, and a multi-threaded run.
 */
void
checkBatchEquivalence(const IntMatrix &weights, CompileOptions options,
                      std::uint64_t seed)
{
    const auto design = MatrixCompiler(options).compile(weights);
    Rng rng(seed);

    // Batches of at most kStreamMaxRows rows take the stream path, so
    // the smallest batch here is the narrowest bit-serial one.
    for (const std::size_t batch_rows : {core::kStreamMaxRows + 1,
                                         std::size_t{63},
                                         std::size_t{64}, std::size_t{65},
                                         std::size_t{130}}) {
        IntMatrix batch(batch_rows, weights.rows());
        for (std::size_t b = 0; b < batch_rows; ++b)
            for (std::size_t r = 0; r < weights.rows(); ++r)
                batch.at(b, r) =
                    options.inputsSigned
                        ? rng.uniformInt(-(1 << (options.inputBits - 1)),
                                         (1 << (options.inputBits - 1)) - 1)
                        : rng.uniformInt(0, (1 << options.inputBits) - 1);

        const auto scalar = design.multiplyBatch(batch);
        const auto legacy = design.multiplyBatchWideLegacy(batch);
        ASSERT_EQ(scalar, legacy);

        // Every explicit W on every supported kernel, including the
        // widths where a vector kernel falls back to its scalar tail,
        // gated (the default) and forced-dense.
        for (const unsigned lane_words : {1u, 2u, 4u, 8u}) {
            for (const auto *kernel :
                 circuit::kernels::supportedKernels()) {
                for (const bool gating : {true, false}) {
                    SimOptions sim_options;
                    sim_options.laneWords = lane_words;
                    sim_options.threads = 1;
                    sim_options.kernel = kernel;
                    sim_options.activityGating = gating;
                    ASSERT_EQ(scalar,
                              design.multiplyBatchWide(batch,
                                                       sim_options))
                        << "W=" << lane_words << " batch=" << batch_rows
                        << " kernel=" << kernel->name
                        << " gating=" << gating;
                }
            }
        }

        SimOptions threaded;
        threaded.threads = 4;
        threaded.laneWords = 1; // several groups even for small batches
        ASSERT_EQ(scalar, design.multiplyBatchWide(batch, threaded));

        // Default (auto) knobs.
        ASSERT_EQ(scalar, design.multiplyBatchWide(batch));
    }
}

TEST(BatchEquivalence, PnSplitSignedInputs)
{
    Rng rng(41);
    const auto v = makeSignedElementSparseMatrix(18, 14, 6, 0.5, rng);
    CompileOptions options;
    options.inputBits = 7;
    options.signMode = core::SignMode::PnSplit;
    checkBatchEquivalence(v, options, 141);
}

TEST(BatchEquivalence, CsdUnsignedInputs)
{
    Rng rng(42);
    const auto v = makeSignedElementSparseMatrix(16, 12, 5, 0.4, rng);
    CompileOptions options;
    options.inputBits = 6;
    options.inputsSigned = false;
    options.signMode = core::SignMode::Csd;
    checkBatchEquivalence(v, options, 142);
}

TEST(BatchEquivalence, UnsignedModeNonNegativeMatrix)
{
    Rng rng(43);
    const auto v = makeElementSparseMatrix(15, 11, 4, 0.3, rng);
    CompileOptions options;
    options.inputBits = 5;
    options.inputsSigned = true;
    options.signMode = core::SignMode::Unsigned;
    checkBatchEquivalence(v, options, 143);
}

TEST(BatchEquivalence, UnalignedOutputsWithNegativeLsbLatency)
{
    // A power-of-two column weight doubles an undelayed stream, which
    // drives its lsbLatency negative once output alignment is off.
    IntMatrix v(2, 3);
    v.at(0, 0) = 4;
    v.at(1, 0) = 0;
    v.at(0, 1) = 2;
    v.at(1, 1) = 6;
    v.at(0, 2) = -3;
    v.at(1, 2) = 5;

    CompileOptions options;
    options.inputBits = 6;
    options.alignOutputs = false;
    const auto design = MatrixCompiler(options).compile(v);

    bool has_negative = false;
    for (const auto &out : design.outputs())
        has_negative |=
            out.node != circuit::kNoNode && out.lsbLatency < 0;
    ASSERT_TRUE(has_negative)
        << "workload no longer produces a negative-latency column";

    checkBatchEquivalence(v, options, 144);

    // And the netlist product still matches the reference gemv.
    Rng rng(44);
    const auto a = makeSignedVector(2, 6, rng);
    EXPECT_EQ(design.multiply(a), gemvRef(a, v));
}

TEST(BatchEquivalence, AllZeroColumnsDecodeToZero)
{
    IntMatrix v(3, 4);
    v.at(0, 1) = 3;
    v.at(2, 1) = -2;
    v.at(1, 3) = 7; // columns 0 and 2 are all-zero
    CompileOptions options;
    options.inputBits = 5;
    checkBatchEquivalence(v, options, 145);
}

// ---------------------------------------------------------------------
// Kernel registry and per-kernel primitives
// ---------------------------------------------------------------------

TEST(Kernels, RegistryAlwaysEndsWithScalar)
{
    const auto &kernels = circuit::kernels::supportedKernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_STREQ(kernels.back()->name, "scalar");
    for (const auto *kernel : kernels)
        EXPECT_EQ(circuit::kernels::findKernel(kernel->name), kernel);
    EXPECT_EQ(circuit::kernels::findKernel("no-such-kernel"), nullptr);

    // The dispatched kernel must be one of the supported ones.
    const auto &active = circuit::kernels::activeKernel();
    EXPECT_NE(std::find(kernels.begin(), kernels.end(), &active),
              kernels.end());
}

TEST(Kernels, DispatchPreferenceOrderIsPinned)
{
    // The registry holds only scalar, avx2 and neon: AVX2 (or NEON)
    // leads the default dispatch, scalar is always the final fallback,
    // and the process-wide active kernel is the first supported entry
    // unless SPATIAL_KERNEL pins another one.  Pinning the order makes
    // dispatch regressions (or silently pinned artifacts) fail loudly.
    const auto &kernels = circuit::kernels::supportedKernels();
    ASSERT_FALSE(kernels.empty());
    EXPECT_STREQ(kernels.back()->name, "scalar");

    int avx2_at = -1;
    int neon_at = -1;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const std::string name = kernels[i]->name;
        EXPECT_TRUE(name == "scalar" || name == "avx2" || name == "neon")
            << "unexpected kernel " << name;
        if (name == "avx2")
            avx2_at = static_cast<int>(i);
        else if (name == "neon")
            neon_at = static_cast<int>(i);
    }
    if (avx2_at >= 0) {
        EXPECT_EQ(avx2_at, 0) << "avx2, when supported, is preferred";
    }
    if (neon_at >= 0) {
        EXPECT_EQ(neon_at, 0) << "neon leads on AArch64";
    }

    const char *env = std::getenv("SPATIAL_KERNEL");
    if (env == nullptr || *env == '\0') {
        EXPECT_EQ(&circuit::kernels::activeKernel(), kernels.front())
            << "auto dispatch must resolve to the preferred kernel";
    } else {
        EXPECT_EQ(&circuit::kernels::activeKernel(),
                  circuit::kernels::findKernel(env))
            << "SPATIAL_KERNEL must pin the dispatched kernel";
    }
}

TEST(Kernels, TransposeMatchesScalarReferenceAndRoundTrips)
{
    Rng rng(77);
    for (const auto *kernel : circuit::kernels::supportedKernels()) {
        std::uint64_t reference[64];
        std::uint64_t block[64];
        for (int i = 0; i < 64; ++i)
            reference[i] = block[i] = rng.next();

        circuit::kernels::scalarKernel().transpose64(reference);
        kernel->transpose64(block);
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(block[i], reference[i])
                << "kernel " << kernel->name << " row " << i;

        // A bit-matrix transpose is an involution.
        kernel->transpose64(block);
        kernel->transpose64(block);
        for (int i = 0; i < 64; ++i)
            ASSERT_EQ(block[i], reference[i])
                << "kernel " << kernel->name << " row " << i;
    }
}

// ---------------------------------------------------------------------
// Switching activity on the shared plan
// ---------------------------------------------------------------------

TEST(BatchEquivalence, MeasuredActivityMatchesLegacyWideSimulator)
{
    Rng rng(51);
    const auto v = makeSignedElementSparseMatrix(20, 20, 8, 0.6, rng);
    const auto design = MatrixCompiler(CompileOptions{}).compile(v);
    const auto probe = makeSignedBatch(48, 20, 8, rng);

    const double activity = core::measureSwitchingActivity(design, probe);

    // Replicate the seed measurement: one WideSimulator group driven
    // with the same streams.
    circuit::WideSimulator sim(design.netlist());
    const int bwi = design.options().inputBits;
    std::vector<std::uint64_t> words(design.rows(), 0);
    for (std::uint32_t cycle = 0; cycle < design.drainCycles(); ++cycle) {
        for (std::size_t r = 0; r < design.rows(); ++r) {
            std::uint64_t word = 0;
            for (std::size_t l = 0; l < probe.rows(); ++l) {
                const std::int64_t value = probe.at(l, r);
                std::uint64_t bit;
                if (cycle < static_cast<std::uint32_t>(bwi))
                    bit = (static_cast<std::uint64_t>(value) >> cycle) & 1u;
                else
                    bit = value < 0 ? 1u : 0u;
                word |= bit << l;
            }
            words[r] = word;
        }
        sim.step(words);
    }
    EXPECT_DOUBLE_EQ(activity, sim.measuredActivity(probe.rows()));
}

} // namespace
