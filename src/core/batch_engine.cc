#include "core/batch_engine.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "core/compiled_matrix.h"
#include "matrix/bits.h"

namespace spatial::core
{

namespace
{

/** Sign-extend a captured word from `out_bits` wide. */
std::int64_t
signExtend(std::uint64_t word, int out_bits)
{
    const std::uint64_t sign_bit = std::uint64_t{1} << (out_bits - 1);
    if (word & sign_bit)
        word |= ~((sign_bit << 1) - 1);
    return static_cast<std::int64_t>(word);
}

/** The design's cached segmentation for gated runs; null when off. */
std::shared_ptr<const circuit::Segmentation>
segmentationFor(const CompiledMatrix &design, const SimOptions &options,
                unsigned lane_words)
{
    if (!options.activityGating)
        return nullptr;
    return design.plan().segmentation(circuit::Segmentation::opsForBudget(
        options.segmentKib, lane_words));
}

/**
 * Per-worker execution context: one simulator plus the input/capture
 * planes, reused across every group the worker processes.  Product
 * paths skip toggle accounting; the activity probe turns it on.
 */
template <unsigned W, bool CountToggles = false>
class GroupRunner
{
  public:
    GroupRunner(const CompiledMatrix &design,
                const circuit::kernels::Kernel &kernel,
                const SimOptions &options)
        : design_(design),
          sim_(design.plan(), &kernel, segmentationFor(design, options, W)),
          planeStride_(design.rows() * W),
          planes_((static_cast<std::size_t>(design.options().inputBits) + 1) *
                      planeStride_,
                  0),
          capture_(design.cols() *
                       static_cast<std::size_t>(design.outputBits()) * W,
                   0)
    {}

    /**
     * Run rows [first, first+lanes) of `batch` through the netlist and
     * write the decoded products into the same rows of `out`.
     */
    void
    run(const IntMatrix &batch, std::size_t first, std::size_t lanes,
        IntMatrix &out)
    {
        const std::size_t rows = design_.rows();
        const std::size_t cols = design_.cols();
        const int bwi = design_.options().inputBits;
        const bool inputs_signed = design_.options().inputsSigned;
        const int out_bits = design_.outputBits();
        const std::int64_t *data = batch.data().data();
        const std::size_t batch_cols = batch.cols();

        sim_.reset();

        // Bit-transpose the group into port-major lane-word planes:
        // plane b holds bit b of every vector element, plane bwi the
        // sign extension.  Built once per group; the drain loop below
        // just steps a plane pointer per cycle.  Rows are tiled eight
        // at a time so each lane contributes one contiguous 64-byte
        // read instead of eight 2-KiB-strided ones (the batch is
        // row-major; walking it column-by-column thrashes the cache).
        const std::uint64_t value_mask =
            (std::uint64_t{1} << bwi) - 1; // inputBits <= 32
        for (std::size_t r0 = 0; r0 < rows; r0 += 8) {
            const std::size_t tile = std::min<std::size_t>(8, rows - r0);
            for (unsigned wi = 0; wi < W; ++wi) {
                std::uint64_t blocks[8][64] = {};
                const std::size_t lane0 = std::size_t{wi} * 64;
                const std::size_t count =
                    lanes > lane0 ? std::min<std::size_t>(64, lanes - lane0)
                                  : 0;
                for (std::size_t l = 0; l < count; ++l) {
                    const std::int64_t *lane_row =
                        data + (first + lane0 + l) * batch_cols + r0;
                    for (std::size_t t = 0; t < tile; ++t) {
                        const std::int64_t v = lane_row[t];
                        // Low bwi bits of the value, sign flag at bwi.
                        std::uint64_t enc =
                            static_cast<std::uint64_t>(v) & value_mask;
                        if (inputs_signed && v < 0)
                            enc |= std::uint64_t{1} << bwi;
                        blocks[t][l] = enc;
                    }
                }
                for (std::size_t t = 0; t < tile; ++t) {
                    sim_.kernel().transpose64(blocks[t]);
                    std::uint64_t *base = planes_.data() + (r0 + t) * W;
                    for (int b = 0; b <= bwi; ++b)
                        base[static_cast<std::size_t>(b) * planeStride_ +
                             wi] = blocks[t][b];
                }
            }
        }

        std::fill(capture_.begin(), capture_.end(), 0);
        const auto &outputs = design_.outputs();
        for (std::uint32_t cycle = 0; cycle < design_.drainCycles();
             ++cycle) {
            const int plane = std::min<int>(static_cast<int>(cycle), bwi);
            sim_.settle(planes_.data() +
                            static_cast<std::size_t>(plane) * planeStride_,
                        rows);
            for (std::size_t c = 0; c < cols; ++c) {
                if (outputs[c].node == circuit::kNoNode)
                    continue;
                const std::int64_t t =
                    static_cast<std::int64_t>(cycle) - outputs[c].lsbLatency;
                if (t < 0 || t >= out_bits)
                    continue;
                const std::uint64_t *src = sim_.outputWords(outputs[c].node);
                std::uint64_t *dst =
                    capture_.data() +
                    (c * static_cast<std::size_t>(out_bits) +
                     static_cast<std::size_t>(t)) *
                        W;
                for (unsigned w = 0; w < W; ++w)
                    dst[w] = src[w];
            }
            sim_.commit();
        }

        // Decode the captured bit-plane lane-words back to per-lane
        // integers, one 64x64 transpose per (column, lane-word) block.
        // Columns are tiled eight at a time so each lane's results are
        // written as one contiguous 64-byte burst into the row-major
        // output instead of eight 2-KiB-strided stores.
        for (std::size_t c0 = 0; c0 < cols; c0 += 8) {
            const std::size_t tile = std::min<std::size_t>(8, cols - c0);
            for (unsigned wi = 0; wi < W; ++wi) {
                const std::size_t lane0 = std::size_t{wi} * 64;
                if (lane0 >= lanes)
                    break;
                std::uint64_t blocks[8][64] = {};
                for (std::size_t t = 0; t < tile; ++t) {
                    const std::uint64_t *cap =
                        capture_.data() +
                        (c0 + t) * static_cast<std::size_t>(out_bits) * W;
                    for (int b = 0; b < out_bits; ++b)
                        blocks[t][b] =
                            cap[static_cast<std::size_t>(b) * W + wi];
                    sim_.kernel().transpose64(blocks[t]);
                }
                const std::size_t count =
                    std::min<std::size_t>(64, lanes - lane0);
                for (std::size_t l = 0; l < count; ++l) {
                    std::int64_t *lane_row =
                        &out.at(first + lane0 + l, c0);
                    for (std::size_t t = 0; t < tile; ++t)
                        lane_row[t] = signExtend(blocks[t][l], out_bits);
                }
            }
        }

        // The next group's reset() clears the simulator counters, so
        // bank this group's segment accounting now.
        stats_.segmentsExecuted += sim_.segmentsExecuted();
        stats_.segmentsSkipped += sim_.segmentsSkipped();
    }

    const circuit::BlockSimulator<W, CountToggles> &sim() const
    {
        return sim_;
    }

    /** Segment accounting across this runner's groups. */
    const BatchStats &stats() const { return stats_; }

  private:
    const CompiledMatrix &design_;
    circuit::BlockSimulator<W, CountToggles> sim_;
    std::size_t planeStride_; //!< words per input plane (rows * W)
    std::vector<std::uint64_t> planes_;
    std::vector<std::uint64_t> capture_;
    BatchStats stats_;
};

/** Thread-count resolution shared by runBatchWideT and the reporters. */
unsigned
resolveThreads(const SimOptions &options, std::size_t num_groups)
{
    unsigned threads = options.threads != 0
                           ? options.threads
                           : std::thread::hardware_concurrency();
    return std::max(1u, std::min<unsigned>(
                            threads,
                            static_cast<unsigned>(num_groups)));
}

template <unsigned W>
void
runBatchWideT(const CompiledMatrix &design, const IntMatrix &batch,
              const SimOptions &options,
              const circuit::kernels::Kernel &kernel, IntMatrix &out,
              BatchStats *stats)
{
    constexpr std::size_t lane_cap = 64 * W;
    const std::size_t num_groups =
        (batch.rows() + lane_cap - 1) / lane_cap;
    const unsigned threads = resolveThreads(options, num_groups);

    const auto run_group = [&](GroupRunner<W> &runner, std::size_t g) {
        const std::size_t first = g * lane_cap;
        const std::size_t lanes =
            std::min<std::size_t>(lane_cap, batch.rows() - first);
        runner.run(batch, first, lanes, out);
    };

    if (threads == 1) {
        GroupRunner<W> runner(design, kernel, options);
        for (std::size_t g = 0; g < num_groups; ++g)
            run_group(runner, g);
        if (stats != nullptr)
            stats->add(runner.stats());
        return;
    }

    // Groups are fully independent (disjoint output rows, private
    // simulator state), so a shared atomic cursor is the whole schedule.
    std::atomic<std::size_t> next{0};
    std::vector<BatchStats> worker_stats(threads);
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned i = 0; i < threads; ++i) {
        pool.emplace_back([&, i] {
            GroupRunner<W> runner(design, kernel, options);
            for (std::size_t g = next.fetch_add(1); g < num_groups;
                 g = next.fetch_add(1))
                run_group(runner, g);
            worker_stats[i] = runner.stats();
        });
    }
    for (auto &worker : pool)
        worker.join();
    if (stats != nullptr)
        for (const auto &ws : worker_stats)
            stats->add(ws);
}

/**
 * Pick W for a design/batch pair on a given kernel.  Start from the
 * widest block the batch can fill (capped at the engine's maximum of
 * 8), then shrink while the simulator's value-array footprint — whose
 * accesses are random — overflows a conservative mid-level-cache
 * budget.  When the batch fills at least one vector register, the
 * shrink floors at the kernel's vector width: below it the pass count
 * stays the same but the sweeps lose their SIMD width, and measurement
 * shows one over-budget W=4 AVX2 pass beats four cached scalar passes
 * (18.6 ms vs 29.3 ms on the 26k-node acceptance design).  When the
 * batch cannot fill a vector, the floor does not apply — there the
 * same measurement flips (one half-empty W=8 pass of a since-removed
 * 512-bit kernel was 2.7x slower than two cached scalar passes), so the kernel's scalar
 * fallback at a cache-fitting W is the fast path.
 */
unsigned
autoLaneWords(const CompiledMatrix &design, std::size_t batch_rows,
              const circuit::kernels::Kernel &kernel, bool activity_gating)
{
    constexpr std::size_t cache_budget_bytes = 256 * 1024;
    const std::size_t words_needed = (batch_rows + 63) / 64;
    const std::size_t state_bytes_per_word =
        design.plan().numSlots() * sizeof(std::uint64_t);
    const unsigned vec = std::min(8u, std::max(1u, kernel.vectorWords));
    const unsigned floor = words_needed >= vec ? vec : 1;

    unsigned w = 1;
    while (w < 8 && words_needed >= 2 * w)
        w *= 2;
    // Activity-gated execution is cache-blocked per segment (the fused
    // pass works an L1-sized slice at a time) and skips most of the
    // array on quiescent cycles, so the whole-array cache-pressure
    // shrink below does not apply — and the widest block the batch can
    // fill amortizes the gated sweeps' per-op overhead over twice the
    // lanes (measured: W=8 gated beats W=4 gated by ~1.2x on the
    // acceptance workload with AVX2).
    if (activity_gating)
        return w;
    while (w > floor && state_bytes_per_word * w > cache_budget_bytes)
        w /= 2;
    return w;
}

} // namespace

const circuit::kernels::Kernel &
resolvedKernel(const SimOptions &options)
{
    return options.kernel != nullptr ? *options.kernel
                                     : circuit::kernels::activeKernel();
}

unsigned
resolvedLaneWords(const CompiledMatrix &design, const SimOptions &options,
                  std::size_t batch_rows)
{
    return options.laneWords != 0
               ? options.laneWords
               : autoLaneWords(design, batch_rows, resolvedKernel(options),
                               options.activityGating);
}

unsigned
resolvedThreads(const CompiledMatrix &design, const SimOptions &options,
                std::size_t batch_rows)
{
    const std::size_t lane_cap =
        std::size_t{64} * resolvedLaneWords(design, options, batch_rows);
    const std::size_t num_groups =
        batch_rows == 0 ? 0 : (batch_rows + lane_cap - 1) / lane_cap;
    return resolveThreads(options, std::max<std::size_t>(1, num_groups));
}

IntMatrix
runBatchWide(const CompiledMatrix &design, const IntMatrix &batch,
             const SimOptions &options, BatchStats *stats)
{
    // API boundary: keep the shape check alive in Release — a mismatch
    // would otherwise read out of bounds with no diagnostic.
    if (batch.cols() != design.rows())
        SPATIAL_FATAL("batch width ", batch.cols(), " != rows ",
                      design.rows());
    IntMatrix out(batch.rows(), design.cols());
    if (batch.rows() == 0)
        return out;

    const circuit::kernels::Kernel &kernel = resolvedKernel(options);
    const unsigned lane_words =
        resolvedLaneWords(design, options, batch.rows());
    switch (lane_words) {
      case 1:
        runBatchWideT<1>(design, batch, options, kernel, out, stats);
        break;
      case 2:
        runBatchWideT<2>(design, batch, options, kernel, out, stats);
        break;
      case 4:
        runBatchWideT<4>(design, batch, options, kernel, out, stats);
        break;
      case 8:
        runBatchWideT<8>(design, batch, options, kernel, out, stats);
        break;
      default:
        SPATIAL_FATAL("SimOptions::laneWords must be 0, 1, 2, 4, or 8; got ",
                      lane_words);
    }
    return out;
}

double
measureSwitchingActivity(const CompiledMatrix &design,
                         const IntMatrix &batch,
                         const SimOptions &options)
{
    if (batch.rows() < 1 || batch.rows() > 64)
        SPATIAL_FATAL("activity probe takes 1..64 vectors, got ",
                      batch.rows());
    // One 64-lane group on the design's cached plan; the runner's flat
    // planes replace the per-call WideSimulator and nested scratch
    // vectors of the interpreter path.  Gating does not perturb the
    // measurement: a skipped segment has exactly zero toggles.
    GroupRunner<1, true> runner(design, resolvedKernel(options), options);
    IntMatrix scratch(batch.rows(), design.cols());
    runner.run(batch, 0, batch.rows(), scratch);
    return runner.sim().measuredActivity(batch.rows());
}

TapeGemv::TapeGemv(const CompiledMatrix &design, const SimOptions &options)
    : design_(design),
      sim_(design.plan(), &resolvedKernel(options),
           segmentationFor(design, options, 1)),
      planes_((static_cast<std::size_t>(design.options().inputBits) + 1) *
                  design.rows(),
              0),
      raw_(design.cols(), 0)
{}

std::vector<std::int64_t>
TapeGemv::multiply(const std::vector<std::int64_t> &x)
{
    std::vector<std::int64_t> out(design_.cols());
    multiplyInto(x, out);
    return out;
}

void
TapeGemv::multiplyInto(const std::vector<std::int64_t> &x,
                       std::vector<std::int64_t> &out)
{
    const std::size_t rows = design_.rows();
    const std::size_t cols = design_.cols();
    const int bwi = design_.options().inputBits;
    const bool inputs_signed = design_.options().inputsSigned;
    const int out_bits = design_.outputBits();

    if (x.size() != rows)
        SPATIAL_FATAL("input length ", x.size(), " != rows ", rows);
    // Per-element range validation stays debug-only, as on the scalar
    // path: it is O(rows) per multiply.
    for ([[maybe_unused]] const auto v : x) {
        if (inputs_signed) {
            SPATIAL_ASSERT(v >= minSigned(bwi) && v <= maxSigned(bwi),
                           "input ", v, " out of signed ", bwi,
                           "-bit range");
        } else {
            SPATIAL_ASSERT(v >= 0 && v <= maxUnsigned(bwi), "input ", v,
                           " out of unsigned ", bwi, "-bit range");
        }
    }

    sim_.reset();
    std::fill(planes_.begin(), planes_.end(), 0);
    for (std::size_t r = 0; r < rows; ++r) {
        const auto word = static_cast<std::uint64_t>(x[r]);
        for (int b = 0; b < bwi; ++b)
            planes_[static_cast<std::size_t>(b) * rows + r] =
                (word >> b) & 1u;
        planes_[static_cast<std::size_t>(bwi) * rows + r] =
            inputs_signed && x[r] < 0 ? 1u : 0u;
    }

    std::fill(raw_.begin(), raw_.end(), 0);
    const auto &outputs = design_.outputs();
    for (std::uint32_t cycle = 0; cycle < design_.drainCycles(); ++cycle) {
        const int plane = std::min<int>(static_cast<int>(cycle), bwi);
        sim_.settle(planes_.data() +
                        static_cast<std::size_t>(plane) * rows,
                    rows);
        for (std::size_t c = 0; c < cols; ++c) {
            if (outputs[c].node == circuit::kNoNode)
                continue;
            const std::int64_t t =
                static_cast<std::int64_t>(cycle) - outputs[c].lsbLatency;
            if (t >= 0 && t < out_bits &&
                (sim_.outputWord(outputs[c].node) & 1u))
                raw_[c] |= std::uint64_t{1} << t;
        }
        sim_.commit();
    }

    // Bank the multiply's segment accounting before the next reset().
    stats_.segmentsExecuted += sim_.segmentsExecuted();
    stats_.segmentsSkipped += sim_.segmentsSkipped();

    out.resize(cols);
    for (std::size_t c = 0; c < cols; ++c)
        out[c] = signExtend(raw_[c], out_bits);
}

} // namespace spatial::core
