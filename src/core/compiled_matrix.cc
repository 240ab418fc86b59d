#include "core/compiled_matrix.h"

#include <algorithm>

#include "circuit/exec_plan.h"
#include "circuit/wide_simulator.h"
#include "core/batch_engine.h"
#include "core/latency.h"
#include "matrix/bits.h"

namespace spatial::core
{

const circuit::ExecPlan &
CompiledMatrix::plan() const
{
    SPATIAL_ASSERT(plan_ != nullptr,
                   "design has no execution plan (not built by the "
                   "compiler?)");
    return *plan_;
}

std::uint32_t
CompiledMatrix::paperLatencyCycles() const
{
    return eq5Cycles(options_.inputBits, weightBits_, rows_);
}

std::uint32_t
CompiledMatrix::initiationInterval() const
{
    return initiationIntervalCycles(outputBits_);
}

std::vector<std::int64_t>
CompiledMatrix::multiply(const std::vector<std::int64_t> &a) const
{
    circuit::Simulator sim(netlist_);
    return multiplyWith(sim, a);
}

std::vector<std::int64_t>
CompiledMatrix::multiplyWith(circuit::Simulator &sim,
                             const std::vector<std::int64_t> &a) const
{
    SPATIAL_ASSERT(a.size() == rows_, "input length ", a.size(),
                   " != rows ", rows_);
    const int bwi = options_.inputBits;
    for ([[maybe_unused]] const auto v : a) {
        if (options_.inputsSigned) {
            SPATIAL_ASSERT(v >= minSigned(bwi) && v <= maxSigned(bwi),
                           "input ", v, " out of signed ", bwi, "-bit range");
        } else {
            SPATIAL_ASSERT(v >= 0 && v <= maxUnsigned(bwi), "input ", v,
                           " out of unsigned ", bwi, "-bit range");
        }
    }

    sim.reset();
    std::vector<std::uint8_t> bits(rows_, 0);
    std::vector<std::uint64_t> raw(cols_, 0);

    for (std::uint32_t cycle = 0; cycle < drainCycles_; ++cycle) {
        // Input shift registers: stream the low bits, then sign-extend
        // (zero-extend for unsigned inputs) until the array drains.
        for (std::size_t r = 0; r < rows_; ++r) {
            const auto word = static_cast<std::uint64_t>(a[r]);
            if (cycle < static_cast<std::uint32_t>(bwi)) {
                bits[r] = static_cast<std::uint8_t>((word >> cycle) & 1u);
            } else {
                bits[r] = options_.inputsSigned && a[r] < 0 ? 1 : 0;
            }
        }
        sim.step(bits);

        // Output capture shift registers.
        for (std::size_t c = 0; c < cols_; ++c) {
            const auto &out = outputs_[c];
            if (out.node == circuit::kNoNode)
                continue;
            const std::int64_t t =
                static_cast<std::int64_t>(cycle) - out.lsbLatency;
            if (t >= 0 && t < outputBits_ && sim.outputBit(out.node))
                raw[c] |= std::uint64_t{1} << t;
        }
    }

    // Sign-extend each captured word from outputBits_ wide.
    std::vector<std::int64_t> result(cols_, 0);
    const std::uint64_t sign_bit = std::uint64_t{1}
                                   << (outputBits_ - 1);
    for (std::size_t c = 0; c < cols_; ++c) {
        std::uint64_t word = raw[c];
        if (word & sign_bit)
            word |= ~((sign_bit << 1) - 1);
        result[c] = static_cast<std::int64_t>(word);
    }
    return result;
}

namespace
{

/**
 * Run one <=64-vector group through a WideSimulator; writes results
 * into rows [first, first+lanes) of `out`.
 */
void
runWideGroup(const CompiledMatrix &design, const IntMatrix &batch,
             std::size_t first, std::size_t lanes,
             circuit::WideSimulator &sim, IntMatrix &out)
{
    const std::size_t rows = design.rows();
    const std::size_t cols = design.cols();
    const int bwi = design.options().inputBits;
    const bool inputs_signed = design.options().inputsSigned;
    const int out_bits = design.outputBits();

    sim.reset();
    std::vector<std::uint64_t> words(rows, 0);
    std::vector<std::vector<std::uint64_t>> raw(
        cols, std::vector<std::uint64_t>(lanes, 0));

    for (std::uint32_t cycle = 0; cycle < design.drainCycles(); ++cycle) {
        for (std::size_t r = 0; r < rows; ++r) {
            std::uint64_t word = 0;
            for (std::size_t l = 0; l < lanes; ++l) {
                const std::int64_t v = batch.at(first + l, r);
                std::uint64_t bit;
                if (cycle < static_cast<std::uint32_t>(bwi))
                    bit = (static_cast<std::uint64_t>(v) >> cycle) & 1u;
                else
                    bit = inputs_signed && v < 0 ? 1u : 0u;
                word |= bit << l;
            }
            words[r] = word;
        }
        sim.step(words);

        for (std::size_t c = 0; c < cols; ++c) {
            const auto &output = design.outputs()[c];
            if (output.node == circuit::kNoNode)
                continue;
            const std::int64_t t =
                static_cast<std::int64_t>(cycle) - output.lsbLatency;
            if (t < 0 || t >= out_bits)
                continue;
            const std::uint64_t word = sim.outputWord(output.node);
            for (std::size_t l = 0; l < lanes; ++l)
                if ((word >> l) & 1u)
                    raw[c][l] |= std::uint64_t{1} << t;
        }
    }

    const std::uint64_t sign_bit = std::uint64_t{1} << (out_bits - 1);
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t c = 0; c < cols; ++c) {
            std::uint64_t word = raw[c][l];
            if (word & sign_bit)
                word |= ~((sign_bit << 1) - 1);
            out.at(first + l, c) = static_cast<std::int64_t>(word);
        }
    }
}

} // namespace

IntMatrix
CompiledMatrix::multiplyBatchWide(const IntMatrix &batch,
                                  const SimOptions &sim_options) const
{
    return runBatchWide(*this, batch, sim_options);
}

IntMatrix
CompiledMatrix::multiplyBatchWideLegacy(const IntMatrix &batch) const
{
    SPATIAL_ASSERT(batch.cols() == rows_, "batch width ", batch.cols(),
                   " != rows ", rows_);
    circuit::WideSimulator sim(netlist_);
    IntMatrix out(batch.rows(), cols_);
    for (std::size_t first = 0; first < batch.rows(); first += 64) {
        const std::size_t lanes =
            std::min<std::size_t>(64, batch.rows() - first);
        runWideGroup(*this, batch, first, lanes, sim, out);
    }
    return out;
}

IntMatrix
CompiledMatrix::multiplyBatch(const IntMatrix &batch) const
{
    SPATIAL_ASSERT(batch.cols() == rows_, "batch width ", batch.cols(),
                   " != rows ", rows_);
    circuit::Simulator sim(netlist_);
    IntMatrix out(batch.rows(), cols_);
    std::vector<std::int64_t> a(rows_);
    for (std::size_t b = 0; b < batch.rows(); ++b) {
        for (std::size_t r = 0; r < rows_; ++r)
            a[r] = batch.at(b, r);
        const auto o = multiplyWith(sim, a);
        for (std::size_t c = 0; c < cols_; ++c)
            out.at(b, c) = o[c];
    }
    return out;
}

} // namespace spatial::core
