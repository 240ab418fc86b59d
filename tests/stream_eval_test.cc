/**
 * @file
 * Bit-exactness grid for stream evaluation: TapeGemv, TiledGemv over
 * two or more tiles, and runBatchWide at 1, 16 and 17 rows (the last
 * one past kStreamMaxRows, so it runs the bit-serial engine) must all
 * equal CompiledMatrix::multiply and plain int64 GEMV — over every sign
 * mode, with constant propagation off (the only source of comb ops),
 * with aligned and unaligned outputs, and with signed and unsigned
 * inputs.  One design needs 65 drain cycles, so its streams only fit
 * the 128-bit word; another needs more than 128 and runs bit-serial.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/compiler.h"
#include "core/tiled_design.h"
#include "matrix/dense.h"
#include "matrix/generate.h"

namespace
{

using namespace spatial;
using core::CompileOptions;
using core::MatrixCompiler;
using core::SignMode;

/** Input vectors: the range's extremes, zero, and uniform draws. */
std::vector<std::vector<std::int64_t>>
makeInputs(std::size_t rows, const CompileOptions &options,
           std::size_t count, Rng &rng)
{
    const int bits = options.inputBits;
    const std::int64_t lo =
        options.inputsSigned ? -(std::int64_t{1} << (bits - 1)) : 0;
    const std::int64_t hi = options.inputsSigned
                                ? (std::int64_t{1} << (bits - 1)) - 1
                                : (std::int64_t{1} << bits) - 1;
    std::vector<std::vector<std::int64_t>> inputs{
        std::vector<std::int64_t>(rows, lo),
        std::vector<std::int64_t>(rows, hi),
        std::vector<std::int64_t>(rows, 0)};
    while (inputs.size() < count) {
        std::vector<std::int64_t> x(rows);
        for (auto &v : x)
            v = rng.uniformInt(lo, hi);
        inputs.push_back(std::move(x));
    }
    return inputs;
}

/**
 * Every single-vector and narrow-batch path against int64 GEMV on
 * `count` inputs.  `max_tile_cols` cuts the tiled twin into two or
 * more tiles.
 */
void
checkEveryPath(const IntMatrix &weights, const CompileOptions &options,
               std::size_t max_tile_cols, std::size_t count,
               std::uint64_t seed, const std::string &label)
{
    SCOPED_TRACE(label);
    const auto design = MatrixCompiler(options).compile(weights);
    core::TileOptions tile;
    tile.maxTileCols = max_tile_cols;
    const auto tiled = core::TiledDesign::compile(weights, options, tile);
    ASSERT_GE(tiled.tileCount(), 2u);

    Rng rng(seed);
    const auto inputs = makeInputs(weights.rows(), options, count, rng);
    core::TapeGemv gemv(design);
    core::TiledGemv tiled_gemv(tiled);
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const auto &x = inputs[i];
        const auto expected = gemvRef(x, weights);
        ASSERT_EQ(design.multiply(x), expected) << "vector " << i;
        ASSERT_EQ(gemv.multiply(x), expected) << "TapeGemv vector " << i;
        ASSERT_EQ(tiled_gemv.multiply(x), expected)
            << "TiledGemv vector " << i;
    }
    // A stream pass books every segment once per vector, skipping none.
    const bool stream = core::StreamEvaluator::supports(design);
    const std::size_t segments = design.plan().segments().size();
    if (stream) {
        EXPECT_EQ(gemv.engineStats().segmentsExecuted,
                  inputs.size() * segments);
        EXPECT_EQ(gemv.engineStats().segmentsSkipped, 0u);
    }

    for (const std::size_t batch_rows :
         {std::size_t{1}, core::kStreamMaxRows, core::kStreamMaxRows + 1}) {
        IntMatrix batch(batch_rows, weights.rows());
        IntMatrix expected(batch_rows, weights.cols());
        for (std::size_t b = 0; b < batch_rows; ++b) {
            const auto &x = inputs[b % inputs.size()];
            for (std::size_t r = 0; r < x.size(); ++r)
                batch.at(b, r) = x[r];
            const auto o = gemvRef(x, weights);
            for (std::size_t c = 0; c < o.size(); ++c)
                expected.at(b, c) = o[c];
        }
        core::BatchStats stats;
        ASSERT_EQ(core::runBatchWide(design, batch, {}, &stats), expected)
            << "runBatchWide rows " << batch_rows;
        ASSERT_EQ(tiled.multiplyBatchWide(batch), expected)
            << "tiled multiplyBatchWide rows " << batch_rows;
        if (stream && batch_rows <= core::kStreamMaxRows) {
            EXPECT_EQ(stats.segmentsExecuted, batch_rows * segments);
            EXPECT_EQ(stats.segmentsSkipped, 0u);
        }
    }
}

TEST(StreamEval, GridOverSignModesConstPropAlignmentAndInputSign)
{
    std::size_t comb_designs = 0;
    std::size_t unaligned_designs = 0;
    std::uint64_t seed = 1;
    for (const SignMode mode :
         {SignMode::Unsigned, SignMode::PnSplit, SignMode::Csd}) {
        for (const bool const_prop : {true, false}) {
            for (const bool align : {true, false}) {
                for (const bool inputs_signed : {true, false}) {
                    ++seed;
                    Rng rng(seed);
                    const IntMatrix weights =
                        mode == SignMode::Unsigned
                            ? makeElementSparseMatrix(20, 14, 5, 0.4, rng)
                            : makeSignedElementSparseMatrix(20, 14, 5, 0.4,
                                                            rng);
                    CompileOptions options;
                    options.inputBits = 6;
                    options.signMode = mode;
                    options.constantPropagation = const_prop;
                    options.alignOutputs = align;
                    options.inputsSigned = inputs_signed;

                    const auto design =
                        MatrixCompiler(options).compile(weights);
                    if (!design.plan().comb().empty())
                        ++comb_designs;
                    for (const auto &out : design.outputs())
                        if (out.node != circuit::kNoNode &&
                            out.lsbLatency + design.outputBits() <
                                static_cast<std::int64_t>(
                                    design.drainCycles())) {
                            ++unaligned_designs;
                            break;
                        }

                    checkEveryPath(
                        weights, options, 6, 24, seed * 7,
                        std::string(core::signModeName(mode)) +
                            " constProp " + std::to_string(const_prop) +
                            " align " + std::to_string(align) +
                            " signedInputs " +
                            std::to_string(inputs_signed));
                }
            }
        }
    }
    // The grid really walks merged comb/reg tapes and columns whose
    // streams end before the drain.
    EXPECT_EQ(comb_designs, 12u);
    EXPECT_GT(unaligned_designs, 0u);
}

TEST(StreamEval, SixtyFiveDrainCyclesNeedTheWideWord)
{
    // 24-bit inputs and weights at dim 256 push the last output bit to
    // cycle 64: a 64-bit stream word would drop it.
    Rng rng(65);
    const IntMatrix weights =
        makeSignedElementSparseMatrix(256, 256, 24, 0.5, rng);
    CompileOptions options;
    options.inputBits = 24;
    options.signMode = SignMode::Csd;
    const auto design = MatrixCompiler(options).compile(weights);
    ASSERT_EQ(design.drainCycles(), 65u);
    ASSERT_TRUE(core::StreamEvaluator::supports(design));
    checkEveryPath(weights, options, 128, 8, 650, "drain 65");
}

TEST(StreamEval, PastTheWideWordRunsBitSerial)
{
    // A linear reduction chain over 384 rows drains in more than 128
    // cycles, so every path falls back to the bit-serial engine.
    Rng rng(130);
    const IntMatrix weights =
        makeSignedElementSparseMatrix(384, 2, 4, 0.0, rng);
    CompileOptions options;
    options.inputBits = 4;
    options.balancedTree = false;
    const auto design = MatrixCompiler(options).compile(weights);
    ASSERT_GT(design.drainCycles(), core::StreamEvaluator::kMaxDrainCycles);
    ASSERT_FALSE(core::StreamEvaluator::supports(design));
    checkEveryPath(weights, options, 1, 4, 1300, "drain past 128");
}

} // namespace
