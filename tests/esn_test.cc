/**
 * @file
 * Tests of the reservoir computing library: linear algebra, ridge
 * regression, reservoir dynamics (echo state property), task
 * generators, metrics, and the end-to-end float and integer pipelines —
 * including running the recurrence on the simulated spatial hardware.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "esn/backend.h"
#include "esn/esn.h"
#include "esn/linalg.h"
#include "esn/metrics.h"
#include "esn/reservoir.h"
#include "esn/ridge.h"
#include "esn/tasks.h"
#include "matrix/generate.h"

namespace
{

using namespace spatial;
using namespace spatial::esn;

// ---------------------------------------------------------------------
// Linear algebra
// ---------------------------------------------------------------------

TEST(Linalg, MatMulHandChecked)
{
    RealMatrix a(2, 3), b(3, 2);
    int v = 1;
    for (std::size_t r = 0; r < 2; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            a.at(r, c) = v++;
    v = 1;
    for (std::size_t r = 0; r < 3; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            b.at(r, c) = v++;
    const auto c = matMul(a, b);
    EXPECT_DOUBLE_EQ(c.at(0, 0), 22.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 28.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 49.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 64.0);
}

TEST(Linalg, TransposeAndMatTMulAgree)
{
    Rng rng(1);
    RealMatrix a(7, 4), b(7, 3);
    for (auto &x : a.mutableData())
        x = rng.gaussian();
    for (auto &x : b.mutableData())
        x = rng.gaussian();
    const auto direct = matTMul(a, b);
    const auto via_transpose = matMul(transpose(a), b);
    for (std::size_t r = 0; r < 4; ++r)
        for (std::size_t c = 0; c < 3; ++c)
            EXPECT_NEAR(direct.at(r, c), via_transpose.at(r, c), 1e-12);
}

TEST(Linalg, CholeskyReconstructs)
{
    // Build SPD A = M M^T + I.
    Rng rng(2);
    RealMatrix m(5, 5);
    for (auto &x : m.mutableData())
        x = rng.gaussian();
    RealMatrix a = matMul(m, transpose(m));
    addDiagonal(a, 1.0);

    const auto l = cholesky(a);
    const auto back = matMul(l, transpose(l));
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 5; ++c)
            EXPECT_NEAR(back.at(r, c), a.at(r, c), 1e-9);
}

TEST(Linalg, SolveSpdRecoversKnownSolution)
{
    Rng rng(3);
    RealMatrix m(6, 6);
    for (auto &x : m.mutableData())
        x = rng.gaussian();
    RealMatrix a = matMul(m, transpose(m));
    addDiagonal(a, 2.0);

    RealMatrix x_true(6, 2);
    for (auto &x : x_true.mutableData())
        x = rng.gaussian();
    const auto b = matMul(a, x_true);
    const auto x = solveSpd(a, b);
    for (std::size_t r = 0; r < 6; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_NEAR(x.at(r, c), x_true.at(r, c), 1e-8);
}

TEST(Linalg, SpectralRadiusOfDiagonal)
{
    RealMatrix a(3, 3);
    a.at(0, 0) = 0.5;
    a.at(1, 1) = -2.0;
    a.at(2, 2) = 1.0;
    EXPECT_NEAR(spectralRadius(a), 2.0, 1e-6);
}

TEST(Linalg, SpectralRadiusZeroMatrix)
{
    RealMatrix a(4, 4);
    EXPECT_NEAR(spectralRadius(a), 0.0, 1e-12);
}

// ---------------------------------------------------------------------
// Ridge regression
// ---------------------------------------------------------------------

TEST(Ridge, RecoversExactLinearMap)
{
    Rng rng(4);
    RealMatrix x(200, 5);
    for (auto &v : x.mutableData())
        v = rng.gaussian();
    RealMatrix w_true(5, 2);
    for (auto &v : w_true.mutableData())
        v = rng.gaussian();
    const auto y = matMul(x, w_true);

    const auto w = ridgeRegression(x, y, 0.0);
    for (std::size_t r = 0; r < 5; ++r)
        for (std::size_t c = 0; c < 2; ++c)
            EXPECT_NEAR(w.at(r, c), w_true.at(r, c), 1e-6);
}

TEST(Ridge, RegularizationShrinksWeights)
{
    Rng rng(5);
    RealMatrix x(100, 4);
    for (auto &v : x.mutableData())
        v = rng.gaussian();
    RealMatrix y(100, 1);
    for (std::size_t t = 0; t < 100; ++t)
        y.at(t, 0) = x.at(t, 0) + 0.1 * rng.gaussian();

    const auto w_small = ridgeRegression(x, y, 1e-6);
    const auto w_big = ridgeRegression(x, y, 100.0);
    EXPECT_LT(frobeniusNorm(w_big), frobeniusNorm(w_small));
}

TEST(Ridge, HandlesRankDeficientStates)
{
    // Duplicate columns would break a plain normal-equation solve.
    RealMatrix x(50, 3);
    Rng rng(6);
    for (std::size_t t = 0; t < 50; ++t) {
        x.at(t, 0) = rng.gaussian();
        x.at(t, 1) = x.at(t, 0); // duplicate
        x.at(t, 2) = 1.0;
    }
    RealMatrix y(50, 1);
    for (std::size_t t = 0; t < 50; ++t)
        y.at(t, 0) = 2.0 * x.at(t, 0);
    const auto w = ridgeRegression(x, y, 1e-6);
    const auto fit = applyReadout(x, w);
    for (std::size_t t = 0; t < 50; ++t)
        EXPECT_NEAR(fit.at(t, 0), y.at(t, 0), 1e-3);
}

// ---------------------------------------------------------------------
// Reservoir dynamics
// ---------------------------------------------------------------------

TEST(Reservoir, WeightsHonourConfig)
{
    ReservoirConfig config;
    config.dim = 80;
    config.sparsity = 0.9;
    config.spectralRadius = 0.8;
    const auto weights = makeReservoirWeights(config);

    std::size_t nonzero = 0;
    for (const auto v : weights.w.data())
        nonzero += (v != 0.0);
    const double density =
        static_cast<double>(nonzero) / (80.0 * 80.0);
    EXPECT_NEAR(density, 0.1, 0.03);
    EXPECT_NEAR(spectralRadius(weights.w), 0.8, 0.05);
}

TEST(Reservoir, EchoStateProperty)
{
    // Two trajectories from different initial states converge under the
    // same input when the spectral radius is < 1.
    ReservoirConfig config;
    config.dim = 60;
    config.seed = 7;
    const auto weights = makeReservoirWeights(config);
    FloatReservoir r1(weights, config);
    FloatReservoir r2(weights, config);

    // Desynchronize by feeding different prefixes.
    Rng rng(8);
    for (int t = 0; t < 10; ++t) {
        r1.step({rng.uniformReal(-1, 1)});
        r2.step({rng.uniformReal(1, 2)});
    }
    // Common input washes out the difference.
    double diff = 0.0;
    for (int t = 0; t < 200; ++t) {
        const double u = rng.uniformReal(-1, 1);
        const auto &x1 = r1.step({u});
        const auto &x2 = r2.step({u});
        diff = 0.0;
        for (std::size_t i = 0; i < x1.size(); ++i)
            diff += std::abs(x1[i] - x2[i]);
    }
    EXPECT_LT(diff, 1e-6);
}

TEST(Reservoir, StatesBounded)
{
    ReservoirConfig config;
    config.dim = 40;
    const auto weights = makeReservoirWeights(config);
    FloatReservoir r(weights, config);
    Rng rng(9);
    for (int t = 0; t < 100; ++t) {
        const auto &x = r.step({rng.uniformReal(-5, 5)});
        for (const auto v : x) {
            EXPECT_GE(v, -1.0);
            EXPECT_LE(v, 1.0);
        }
    }
}

TEST(IntReservoirTest, StatesWithinBitRange)
{
    ReservoirConfig config;
    config.dim = 32;
    config.seed = 10;
    const auto weights = makeReservoirWeights(config);

    IntReservoirConfig iconfig;
    iconfig.weightBits = 4;
    iconfig.stateBits = 8;
    auto reservoir =
        makeIntReservoir(weights, iconfig, BackendKind::Reference);

    Rng rng(11);
    for (int t = 0; t < 50; ++t) {
        const auto &x = reservoir.step({rng.uniformInt(-127, 127)});
        for (const auto v : x) {
            EXPECT_GE(v, -128);
            EXPECT_LE(v, 127);
        }
    }
}

TEST(IntReservoirTest, BackendsAgreeExactly)
{
    // Reference, CSR, and cycle-accurate spatial hardware must produce
    // bit-identical state trajectories.
    ReservoirConfig config;
    config.dim = 24;
    config.seed = 12;
    const auto weights = makeReservoirWeights(config);

    IntReservoirConfig iconfig;
    iconfig.weightBits = 4;
    iconfig.stateBits = 8;

    auto ref = makeIntReservoir(weights, iconfig, BackendKind::Reference);
    auto csr = makeIntReservoir(weights, iconfig, BackendKind::Csr);
    auto hw = makeIntReservoir(weights, iconfig, BackendKind::Spatial);

    Rng rng(13);
    IntMatrix inputs(30, 1);
    for (std::size_t t = 0; t < 30; ++t)
        inputs.at(t, 0) = rng.uniformInt(-127, 127);

    const auto s_ref = ref.run(inputs);
    const auto s_csr = csr.run(inputs);
    const auto s_hw = hw.run(inputs);
    EXPECT_EQ(s_ref, s_csr);
    EXPECT_EQ(s_ref, s_hw);
}

TEST(IntReservoirTest, BatchedBackendMatchesReferenceAndCountsCycles)
{
    ReservoirConfig config;
    config.dim = 24;
    config.seed = 15;
    const auto weights = makeReservoirWeights(config);
    IntReservoirConfig iconfig;

    auto hw = makeIntReservoir(weights, iconfig, BackendKind::Spatial);
    auto ref = makeIntReservoir(weights, iconfig, BackendKind::Reference);
    auto &batched = dynamic_cast<BatchedSpatialBackend &>(hw.backend());

    // 70 independent vectors span two 64-lane groups.
    Rng rng(16);
    IntMatrix xs(70, 24);
    for (std::size_t b = 0; b < xs.rows(); ++b)
        for (std::size_t r = 0; r < xs.cols(); ++r)
            xs.at(b, r) = rng.uniformInt(-127, 127);

    // The wide batch path, the default loop-over-multiply path, and
    // the per-vector tape path must all agree.
    const auto wide = batched.multiplyBatch(xs);
    const auto looped = ref.backend().multiplyBatch(xs);
    EXPECT_EQ(wide, looped);
    for (const std::size_t b : {std::size_t{0}, std::size_t{69}}) {
        std::vector<std::int64_t> x(xs.cols());
        for (std::size_t r = 0; r < xs.cols(); ++r)
            x[r] = xs.at(b, r);
        const auto single = batched.multiply(x);
        for (std::size_t c = 0; c < single.size(); ++c)
            EXPECT_EQ(wide.at(b, c), single[c]);
    }

    // Hardware-cycle accounting: one drain per netlist pass.  The
    // batch above ran ceil(70 / lanes) passes, plus one per single
    // multiply.
    const auto lanes = 64 * core::resolvedLaneWords({}, xs.rows());
    const auto groups = (xs.rows() + lanes - 1) / lanes;
    EXPECT_EQ(batched.totalCycles(),
              (groups + 2) * batched.design().drainCycles());
}

TEST(IntReservoirTest, SpatialBackendCountsCycles)
{
    ReservoirConfig config;
    config.dim = 16;
    config.seed = 14;
    const auto weights = makeReservoirWeights(config);
    IntReservoirConfig iconfig;
    auto hw = makeIntReservoir(weights, iconfig, BackendKind::Spatial);

    IntMatrix inputs(5, 1);
    hw.run(inputs);
    auto &backend = dynamic_cast<SpatialBackend &>(hw.backend());
    EXPECT_EQ(backend.totalCycles(),
              5u * backend.design().drainCycles());
}

// ---------------------------------------------------------------------
// Tasks and metrics
// ---------------------------------------------------------------------

TEST(Tasks, Narma10Deterministic)
{
    Rng a(20), b(20);
    const auto d1 = makeNarma10(500, a);
    const auto d2 = makeNarma10(500, b);
    EXPECT_EQ(d1.inputs, d2.inputs);
    EXPECT_EQ(d1.targets, d2.targets);
    for (const auto u : d1.inputs) {
        EXPECT_GE(u, 0.0);
        EXPECT_LE(u, 0.5);
    }
    for (const auto y : d1.targets) {
        EXPECT_GE(y, -1.0);
        EXPECT_LE(y, 1.0);
    }
}

TEST(Tasks, MackeyGlassIsChaoticButBounded)
{
    const auto data = makeMackeyGlass(2000, 1);
    double lo = 1e9, hi = -1e9;
    for (const auto x : data.inputs) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
    }
    EXPECT_GT(lo, 0.2);
    EXPECT_LT(hi, 1.6);
    EXPECT_GT(hi - lo, 0.4); // genuinely oscillating
    // Targets are the inputs shifted by the horizon.
    for (std::size_t t = 0; t + 1 < 2000; ++t)
        EXPECT_DOUBLE_EQ(data.targets[t], data.inputs[t + 1]);
}

TEST(Tasks, ChannelEqualizationShapes)
{
    Rng rng(21);
    const auto data = makeChannelEqualization(1000, 24.0, rng);
    EXPECT_EQ(data.inputs.size(), 1000u);
    EXPECT_EQ(data.targets.size(), 1000u);
    for (const auto d : data.targets) {
        const bool valid = d == -3.0 || d == -1.0 || d == 1.0 || d == 3.0;
        EXPECT_TRUE(valid);
    }
}

TEST(Tasks, MemoryCapacityDelays)
{
    Rng rng(22);
    const auto data = makeMemoryCapacity(100, 5, rng);
    ASSERT_EQ(data.delayedTargets.size(), 5u);
    for (std::size_t k = 1; k <= 5; ++k)
        for (std::size_t t = k; t < 100; ++t)
            EXPECT_DOUBLE_EQ(data.delayedTargets[k - 1][t],
                             data.inputs[t - k]);
}

TEST(Metrics, NrmseOfPerfectPrediction)
{
    const std::vector<double> t{1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(nrmse(t, t), 0.0);
    EXPECT_DOUBLE_EQ(meanSquaredError(t, t), 0.0);
}

TEST(Metrics, NrmseOfMeanPredictorIsOne)
{
    const std::vector<double> targets{1.0, 3.0, 5.0, 7.0};
    const std::vector<double> mean_pred(4, 4.0);
    EXPECT_NEAR(nrmse(mean_pred, targets), 1.0, 1e-12);
}

TEST(Metrics, SquaredCorrelationInvariantToScale)
{
    const std::vector<double> t{1.0, 2.0, 3.0, 5.0, 8.0};
    std::vector<double> p(t.size());
    for (std::size_t i = 0; i < t.size(); ++i)
        p[i] = 3.0 * t[i] + 7.0;
    EXPECT_NEAR(squaredCorrelation(p, t), 1.0, 1e-12);
}

TEST(Metrics, SymbolErrorRateCountsMisses)
{
    const std::vector<double> alphabet{-1.0, 1.0};
    const std::vector<double> targets{1.0, 1.0, -1.0, -1.0};
    const std::vector<double> preds{0.9, -0.2, -0.8, 0.4};
    EXPECT_DOUBLE_EQ(symbolErrorRate(preds, targets, alphabet), 0.5);
}

// ---------------------------------------------------------------------
// End-to-end pipelines
// ---------------------------------------------------------------------

TEST(Pipeline, FloatEsnLearnsNarma10)
{
    Rng rng(30);
    const auto train_data = makeNarma10(1200, rng);
    const auto test_data = makeNarma10(800, rng);

    ReservoirConfig config;
    config.dim = 120;
    config.seed = 31;
    EchoStateNetwork network(makeReservoirWeights(config), config);
    network.train(train_data.inputs, train_data.targets, 100, 1e-6);

    const auto preds = network.predict(test_data.inputs);
    std::vector<double> p(preds.begin() + 100, preds.end());
    std::vector<double> t(test_data.targets.begin() + 100,
                          test_data.targets.end());
    const double err = nrmse(p, t);
    EXPECT_LT(err, 0.45) << "NARMA-10 NRMSE " << err;
}

TEST(Pipeline, IntEsnOnHardwareLearnsNarma10)
{
    // The headline end-to-end claim: an integer ESN whose recurrence
    // runs entirely on the cycle-accurate simulation of the compiled
    // spatial multiplier still learns the task.
    Rng rng(32);
    const auto train_data = makeNarma10(700, rng);
    const auto test_data = makeNarma10(500, rng);

    ReservoirConfig config;
    config.dim = 64;
    config.sparsity = 0.9;
    config.seed = 33;
    const auto weights = makeReservoirWeights(config);

    IntReservoirConfig iconfig;
    iconfig.weightBits = 4;
    iconfig.stateBits = 8;
    IntEchoStateNetwork network(weights, iconfig, BackendKind::Spatial);
    network.train(train_data.inputs, train_data.targets, 60, 1e-4);

    const auto preds = network.predict(test_data.inputs);
    std::vector<double> p(preds.begin() + 60, preds.end());
    std::vector<double> t(test_data.targets.begin() + 60,
                          test_data.targets.end());
    const double err = nrmse(p, t);
    // Quantized reservoirs lose some quality but must beat the mean
    // predictor by a clear margin.
    EXPECT_LT(err, 0.75) << "hardware ESN NRMSE " << err;
}

TEST(Pipeline, IntEsnBackendsGiveSameQuality)
{
    Rng rng(34);
    const auto data = makeNarma10(600, rng);

    ReservoirConfig config;
    config.dim = 48;
    config.seed = 35;
    const auto weights = makeReservoirWeights(config);
    IntReservoirConfig iconfig;

    IntEchoStateNetwork ref(weights, iconfig, BackendKind::Reference);
    IntEchoStateNetwork csr(weights, iconfig, BackendKind::Csr);
    const auto e1 = ref.train(data.inputs, data.targets, 50, 1e-4);
    const auto e2 = csr.train(data.inputs, data.targets, 50, 1e-4);
    EXPECT_NEAR(e1.trainNrmse, e2.trainNrmse, 1e-9);
}

} // namespace
