/**
 * @file
 * Throughput bench for the compiled-tape simulation engine: end-to-end
 * multiplyBatchWide wall-clock on a Section VI-style workload, new
 * engine vs. the seed 64-lane interpreter path, with results verified
 * bit-exact before any number is reported.
 *
 * Node-evals/sec counts one evaluation per node per cycle per vector
 * (numNodes * drainCycles * batch), the work a cycle-accurate simulator
 * fundamentally performs, so the two engines share a numerator and the
 * rate ratio equals the wall-clock speedup.
 *
 * The kernel-comparison mode additionally times the tape engine once
 * per SIMD dispatch target supported by the running CPU (scalar, avx2,
 * neon), each verified bit-exact before timing, and reports
 * per-kernel GEMV/s; --check_kernel_speedup gates the avx2-vs-scalar
 * ratio for CI smoke runs (skipped on machines without AVX2).
 *
 * The gating section measures what activity gating buys: a controlled
 * ablation that runs the same ExecPlan gated and forced-dense
 * (every cycle on the dense sweeps) at the gated mode's resolved
 * (kernel, W, threads) configuration, verified bit-exact against the
 * interpreter baseline AND toggle-exact against WideSimulator before
 * timing.  --check_gated_speedup gates the ratio.
 *
 * --check_baseline compares the run against a committed baseline JSON
 * (bench/sim_throughput_baseline.json): the default-path tape_ms may
 * not regress past the baseline's limit, every kernel listed in the
 * baseline floors must keep its speedup-vs-scalar, and the gated
 * speedup must hold its floor.  This is the perf-regression CI gate.
 *
 *   sim_throughput [--dim=256] [--batch=1024] [--bits=8]
 *                  [--sparsity=0.9] [--threads=0] [--lane-words=0]
 *                  [--repeats=3] [--json[=path]]
 *                  [--check_kernel_speedup=1.5]
 *                  [--check_gated_speedup=1.3]
 *                  [--check_baseline[=path]]
 *
 * --json writes a BENCH_sim_throughput.json artifact for the perf
 * trajectory in CI.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/block_simulator.h"
#include "circuit/kernels.h"
#include "circuit/wide_simulator.h"
#include "common/args.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/compiler.h"
#include "experiments/json.h"
#include "matrix/generate.h"

namespace
{

using namespace spatial;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Best-of-N wall-clock seconds for one batch multiply. */
template <typename F>
double
bestOf(int repeats, F &&run)
{
    double best = 1e300;
    for (int i = 0; i < repeats; ++i) {
        const auto start = Clock::now();
        run();
        best = std::min(best, secondsSince(start));
    }
    return best;
}

/**
 * Drive a gated BlockSimulator<W> and W WideSimulators with identical
 * streams; sets `exact` when every node agrees on every cycle and the
 * register toggle totals match, and `skipped` when the drain tail
 * actually exercised the skip path.  This is the bench's in-situ proof
 * that activity gating is exact for the compiled design under test,
 * not only for the unit-test netlists.
 */
template <unsigned W>
void
gatedTogglesMatchWideSimulator(const core::CompiledMatrix &design,
                               const core::SimOptions &options,
                               bool &exact, bool &skipped)
{
    circuit::BlockSimulator<W, true> gated(design.plan(),
                                           &core::resolvedKernel(options));
    std::vector<circuit::WideSimulator> wides(
        W, circuit::WideSimulator(design.netlist()));

    Rng rng(1234);
    const std::size_t ports = design.rows();
    std::vector<std::uint64_t> plane(ports * W, 0);
    std::vector<std::uint64_t> words(ports, 0);
    for (std::uint32_t cycle = 0; cycle < design.drainCycles(); ++cycle) {
        // Random for the input-bit phase, constant afterwards, like a
        // real drain — the constant tail is what exercises skipping.
        if (cycle <=
            static_cast<std::uint32_t>(design.options().inputBits))
            for (auto &word : plane)
                word = rng.next();
        gated.settle(plane.data(), ports);
        for (unsigned w = 0; w < W; ++w) {
            for (std::size_t p = 0; p < ports; ++p)
                words[p] = plane[p * W + w];
            wides[w].step(words);
            for (circuit::NodeId id = 0;
                 id < design.netlist().numNodes(); ++id) {
                if (gated.outputWord(id, w) != wides[w].outputWord(id)) {
                    exact = false;
                    skipped = gated.segmentsSkipped() > 0;
                    return;
                }
            }
        }
        gated.commit();
    }
    std::uint64_t wide_toggles = 0;
    for (const auto &wide : wides)
        wide_toggles += wide.toggleCount();
    exact = gated.toggleCount() == wide_toggles;
    skipped = gated.segmentsSkipped() > 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args(argc, argv);
    const auto dim = static_cast<std::size_t>(args.getInt("dim", 256));
    const auto batch_rows =
        static_cast<std::size_t>(args.getInt("batch", 1024));
    const int bits = static_cast<int>(args.getInt("bits", 8));
    const double sparsity = args.getReal("sparsity", 0.9);
    const int repeats = static_cast<int>(args.getInt("repeats", 3));

    core::SimOptions sim_options;
    sim_options.threads =
        static_cast<unsigned>(args.getInt("threads", 0));
    sim_options.laneWords =
        static_cast<unsigned>(args.getInt("lane-words", 0));

    Rng rng(99);
    const auto weights =
        makeSignedElementSparseMatrix(dim, dim, bits, sparsity, rng);
    const auto batch = makeSignedBatch(batch_rows, dim, bits, rng);

    core::CompileOptions options;
    options.inputBits = bits;
    options.inputsSigned = true;
    options.signMode = core::SignMode::Csd;

    const auto compile_start = Clock::now();
    const auto design = core::MatrixCompiler(options).compile(weights);
    const double compile_s = secondsSince(compile_start);

    const auto nodes = design.netlist().numNodes();
    const auto drain = design.drainCycles();
    std::printf("workload: %zux%zu, %d-bit, sparsity %.2f, batch %zu\n",
                dim, dim, bits, sparsity, batch_rows);
    std::printf("design:   %zu nodes, %u drain cycles, compiled in %.2fs\n",
                nodes, drain, compile_s);

    // Verify bit-exactness before timing anything.
    const auto expected = design.multiplyBatch(
        [&] {
            // Scalar reference on a truncated batch: full scalar runs are
            // ~64x the wide cost, so spot-check the first group only.
            const std::size_t check = std::min<std::size_t>(64, batch_rows);
            IntMatrix head(check, dim);
            for (std::size_t b = 0; b < check; ++b)
                for (std::size_t r = 0; r < dim; ++r)
                    head.at(b, r) = batch.at(b, r);
            return head;
        }());
    const auto legacy_out = design.multiplyBatchWideLegacy(batch);
    const auto tape_out = design.multiplyBatchWide(batch, sim_options);
    bool exact = legacy_out == tape_out;
    for (std::size_t b = 0; exact && b < expected.rows(); ++b)
        for (std::size_t c = 0; exact && c < expected.cols(); ++c)
            exact = expected.at(b, c) == tape_out.at(b, c);
    if (!exact) {
        std::printf("ERROR: engines disagree; refusing to report timings\n");
        return 1;
    }

    const double legacy_s = bestOf(
        repeats, [&] { (void)design.multiplyBatchWideLegacy(batch); });
    const double tape_s = bestOf(repeats, [&] {
        (void)design.multiplyBatchWide(batch, sim_options);
    });

    const double node_evals = static_cast<double>(nodes) *
                              static_cast<double>(drain) *
                              static_cast<double>(batch_rows);
    const double legacy_rate = node_evals / legacy_s;
    const double tape_rate = node_evals / tape_s;
    const double speedup = legacy_s / tape_s;
    const unsigned lane_words =
        core::resolvedLaneWords(sim_options, batch_rows);
    const unsigned threads = core::resolvedThreads(sim_options, batch_rows);
    const char *active = core::resolvedKernel(sim_options).name;
    // An inherited SPATIAL_KERNEL silently pins every dispatch in this
    // process; record it so a pinned artifact can never masquerade as
    // the machine's true auto-dispatch.
    const char *kernel_env = std::getenv("SPATIAL_KERNEL");
    const bool kernel_pinned = kernel_env != nullptr && *kernel_env != '\0';
    if (kernel_pinned)
        std::printf("note: SPATIAL_KERNEL=%s pins the dispatched kernel "
                    "for this run\n",
                    kernel_env);

    std::printf("seed path (64-lane interpreter): %8.1f ms, %10.3g "
                "node-evals/s\n",
                legacy_s * 1e3, legacy_rate);
    std::printf("tape engine (%3u lanes x %u thr): %8.1f ms, %10.3g "
                "node-evals/s  [kernel %s]\n",
                64 * lane_words, threads, tape_s * 1e3, tape_rate, active);
    std::printf("speedup: %.2fx (bit-exact)\n", speedup);

    // ------------------------------------------------------------------
    // Activity gating: a controlled ablation toggling only the gating
    // knob (gated vs forced-dense) at the gated mode's resolved
    // configuration (same kernel, same lane words, same threads), after
    // proving the gated engine bit-exact AND toggle-exact.
    // ------------------------------------------------------------------
    core::SimOptions gated_options = sim_options;
    gated_options.laneWords = lane_words;
    core::SimOptions dense_options = gated_options;
    dense_options.activityGating = false;

    bool toggles_exact = false;
    bool drain_skipped = false;
    gatedTogglesMatchWideSimulator<1>(design, gated_options,
                                      toggles_exact, drain_skipped);
    if (!drain_skipped)
        std::printf("note: this workload's drain never skipped a "
                    "segment; the gating comparison measures pure "
                    "overhead\n");
    core::BatchStats gate_stats;
    const auto gated_out =
        core::runBatchWide(design, batch, gated_options, &gate_stats);
    const bool gating_exact =
        gated_out == legacy_out &&
        design.multiplyBatchWide(batch, dense_options) == legacy_out;
    if (!gating_exact || !toggles_exact) {
        std::printf("ERROR: activity gating is not exact (outputs %s, "
                    "toggles %s); refusing to report timings\n",
                    gating_exact ? "ok" : "MISMATCH",
                    toggles_exact ? "ok" : "MISMATCH");
        return 1;
    }
    // Each side runs as back-to-back blocks, the way a serving engine
    // actually executes one mode repeatedly — sample-by-sample
    // interleaving would make each run start with the other's 5 MB
    // working set resident in the 2 MB-class L2 and measure eviction,
    // not execution.  The blocks alternate across several rounds, each
    // round yields its own best-gated / best-dense ratio, and the
    // gate checks the *median* round ratio: a multi-second load window
    // on a shared runner distorts the round it lands in, and the
    // median discards it, where a global best-of-each-side can pair a
    // loaded window's gated time with a quiet window's dense time.
    struct GatingRound
    {
        double gated;
        double dense;
    };
    std::vector<GatingRound> gating_rounds;
    const int rounds = 7;
    const int per_round = std::max(repeats, 5) + 1;
    for (int round = 0; round < rounds; ++round) {
        GatingRound r{1e300, 1e300};
        for (int i = 0; i < per_round; ++i) {
            const auto start = Clock::now();
            (void)design.multiplyBatchWide(batch, gated_options);
            r.gated = std::min(r.gated, secondsSince(start));
        }
        for (int i = 0; i < per_round; ++i) {
            const auto start = Clock::now();
            (void)design.multiplyBatchWide(batch, dense_options);
            r.dense = std::min(r.dense, secondsSince(start));
        }
        gating_rounds.push_back(r);
    }
    // Report the median round wholesale — its times and their ratio —
    // so the artifact's gated_ms / dense_ms always reproduce
    // gated_speedup exactly.
    std::sort(gating_rounds.begin(), gating_rounds.end(),
              [](const GatingRound &a, const GatingRound &b) {
                  return a.dense / a.gated < b.dense / b.gated;
              });
    const GatingRound &median = gating_rounds[gating_rounds.size() / 2];
    const double gated_s = median.gated;
    const double dense_s = median.dense;
    const double gated_speedup = dense_s / gated_s;
    const double seg_total = static_cast<double>(
        gate_stats.segmentsExecuted + gate_stats.segmentsSkipped);
    const double skip_fraction =
        seg_total > 0.0
            ? static_cast<double>(gate_stats.segmentsSkipped) / seg_total
            : 0.0;
    std::printf("gating (kernel %s, %u lanes, %u thr): gated %8.1f ms, "
                "dense %8.1f ms -> %.2fx, %.0f%% of segment-cycles "
                "skipped (outputs and toggles exact)\n",
                core::resolvedKernel(gated_options).name,
                64 * gated_options.laneWords, threads, gated_s * 1e3,
                dense_s * 1e3, gated_speedup, skip_fraction * 100.0);

    // Per-kernel comparison: every dispatch target supported by this
    // CPU, each verified bit-exact against the interpreter baseline
    // before timing.  Each timing round visits the kernels in reverse
    // dispatch preference (scalar, then neon or avx2), and the rounds
    // repeat with every kernel's samples spread across the whole
    // section: the vs-scalar ratios are CI-gated, and on shared runners
    // a sustained load window that lands on one kernel's only block
    // flips the gate even when best-of discards transient spikes.
    // Single-threaded unless --threads is given, so the ratio measures
    // kernel code rather than how the group scheduler shares the box.
    // The forced-dense row is what speedup_vs_scalar compares: it is
    // the full per-cycle sweep, so the ratio measures kernel code
    // rather than how much work gating skips.  It runs at W=4 unless
    // --lane-words is given — a full 256-lane serving group.  Each row
    // also times its gated mode-resolved config.
    struct KernelRow
    {
        const char *name;
        unsigned laneWords;
        double seconds;
        double speedupVsScalar;
        unsigned gatedLaneWords;
        double gatedSeconds;
        double gatedSpeedup;
    };
    std::vector<KernelRow> rows;
    auto kernels = circuit::kernels::supportedKernels();
    std::reverse(kernels.begin(), kernels.end());
    std::vector<core::SimOptions> kernel_dense;
    std::vector<core::SimOptions> kernel_gated;
    for (const auto *kernel : kernels) {
        core::SimOptions k_gated = sim_options;
        k_gated.kernel = kernel;
        if (k_gated.threads == 0)
            k_gated.threads = 1;
        core::SimOptions k_dense = k_gated;
        k_dense.activityGating = false;
        if (k_dense.laneWords == 0)
            k_dense.laneWords = 4;
        if (!(legacy_out == design.multiplyBatchWide(batch, k_dense)) ||
            !(legacy_out == design.multiplyBatchWide(batch, k_gated))) {
            std::printf("ERROR: kernel %s disagrees with the seed path\n",
                        kernel->name);
            return 1;
        }
        kernel_dense.push_back(k_dense);
        kernel_gated.push_back(k_gated);
    }
    // Warm back-to-back blocks per (kernel, gating) pair — a lone
    // sample starts with another configuration's working set resident
    // and measures eviction — repeated over rounds so each pair sees
    // several time windows; best-of then discards both cold and
    // drifted samples.
    std::vector<double> kernel_s(kernels.size(), 1e300);
    std::vector<double> kernel_gated_s(kernels.size(), 1e300);
    const int kernel_rounds = 3;
    const int kernel_block = std::max(repeats / kernel_rounds, 2) + 1;
    for (int round = 0; round < kernel_rounds; ++round) {
        for (std::size_t i = 0; i < kernels.size(); ++i) {
            for (int j = 0; j < kernel_block; ++j) {
                const auto start = Clock::now();
                (void)design.multiplyBatchWide(batch, kernel_dense[i]);
                kernel_s[i] = std::min(kernel_s[i], secondsSince(start));
            }
            for (int j = 0; j < kernel_block; ++j) {
                const auto start = Clock::now();
                (void)design.multiplyBatchWide(batch, kernel_gated[i]);
                kernel_gated_s[i] =
                    std::min(kernel_gated_s[i], secondsSince(start));
            }
        }
    }
    double scalar_s = 0.0;
    for (std::size_t i = 0; i < kernels.size(); ++i) {
        const double seconds = kernel_s[i];
        const double gated_seconds = kernel_gated_s[i];
        if (std::string("scalar") == kernels[i]->name)
            scalar_s = seconds;
        rows.push_back(
            {kernels[i]->name, kernel_dense[i].laneWords, seconds,
             scalar_s > 0.0 ? scalar_s / seconds : 0.0,
             core::resolvedLaneWords(kernel_gated[i], batch_rows),
             gated_seconds, seconds / gated_seconds});
        std::printf("kernel %-7s (%3u lanes): %8.1f ms, %10.3g "
                    "node-evals/s, %8.1f gemv/s, %.2fx vs scalar; "
                    "gated (%3u lanes) %8.1f ms, %.2fx\n",
                    kernels[i]->name, 64 * rows.back().laneWords,
                    seconds * 1e3, node_evals / seconds,
                    static_cast<double>(batch_rows) / seconds,
                    rows.back().speedupVsScalar,
                    64 * rows.back().gatedLaneWords, gated_seconds * 1e3,
                    rows.back().gatedSpeedup);
    }

    if (args.has("json")) {
        std::string path = args.getString("json", "");
        if (path.empty() || path == "true")
            path = "BENCH_sim_throughput.json";
        std::ostringstream json;
        json.precision(6);
        json << "{\n";
        json << "  \"bench\": \"sim_throughput\",\n";
        json << "  \"workload\": {\"dim\": " << dim << ", \"bits\": "
             << bits << ", \"batch\": " << batch_rows
             << ", \"sparsity\": " << sparsity << ", \"nodes\": " << nodes
             << ", \"drain_cycles\": " << drain << "},\n";
        json << "  \"engine\": {\"kernel\": \"" << active
             << "\", \"kernel_pinned\": "
             << (kernel_pinned ? "true" : "false")
             << ", \"lane_words\": " << lane_words
             << ", \"threads\": " << threads << "},\n";
        json << "  \"legacy_ms\": " << legacy_s * 1e3 << ",\n";
        json << "  \"tape_ms\": " << tape_s * 1e3 << ",\n";
        json << "  \"legacy_node_evals_per_sec\": " << legacy_rate
             << ",\n";
        json << "  \"tape_node_evals_per_sec\": " << tape_rate << ",\n";
        json << "  \"speedup\": " << speedup << ",\n";
        json << "  \"gating\": {\"gated_ms\": " << gated_s * 1e3
             << ", \"dense_ms\": " << dense_s * 1e3
             << ", \"gated_speedup\": " << gated_speedup
             << ", \"lane_words\": " << gated_options.laneWords
             << ", \"segments_executed\": " << gate_stats.segmentsExecuted
             << ", \"segments_skipped\": " << gate_stats.segmentsSkipped
             << ", \"skip_fraction\": " << skip_fraction
             << ", \"bit_exact\": true, \"toggles_exact\": true},\n";
        json << "  \"kernels\": [";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            json << (i == 0 ? "\n" : ",\n");
            json << "    {\"name\": \"" << rows[i].name
                 << "\", \"lane_words\": " << rows[i].laneWords
                 << ", \"ms\": " << rows[i].seconds * 1e3
                 << ", \"node_evals_per_sec\": "
                 << node_evals / rows[i].seconds
                 << ", \"gemv_per_sec\": "
                 << static_cast<double>(batch_rows) / rows[i].seconds
                 << ", \"speedup_vs_scalar\": "
                 << rows[i].speedupVsScalar
                 << ", \"gated_lane_words\": " << rows[i].gatedLaneWords
                 << ", \"gated_ms\": " << rows[i].gatedSeconds * 1e3
                 << ", \"gated_speedup\": " << rows[i].gatedSpeedup
                 << "}";
        }
        json << "\n  ],\n";
        json << "  \"bit_exact\": true\n";
        json << "}\n";
        std::ofstream out(path);
        out << json.str();
        std::printf("wrote %s\n", path.c_str());
    }

    int failures = 0;

    // CI smoke gate: the AVX2 kernel must beat scalar by the given
    // factor on machines that have it (after the JSON artifact is
    // written, so a regression still uploads its numbers).
    if (args.has("check_kernel_speedup")) {
        const double floor = args.getReal("check_kernel_speedup", 1.5);
        const KernelRow *avx2 = nullptr;
        for (const auto &row : rows)
            if (std::string("avx2") == row.name)
                avx2 = &row;
        if (avx2 == nullptr) {
            std::printf("kernel speedup gate skipped: no AVX2 support\n");
        } else if (avx2->speedupVsScalar < floor) {
            std::printf("ERROR: avx2 kernel %.2fx vs scalar is below the "
                        "%.2fx gate\n",
                        avx2->speedupVsScalar, floor);
            ++failures;
        } else {
            std::printf("kernel speedup gate passed: avx2 %.2fx >= %.2fx\n",
                        avx2->speedupVsScalar, floor);
        }
    }

    // CI gate on the controlled gated-vs-dense ablation.
    if (args.has("check_gated_speedup")) {
        const double floor = args.getReal("check_gated_speedup", 1.3);
        if (gated_speedup < floor) {
            std::printf("ERROR: gated speedup %.2fx is below the %.2fx "
                        "gate\n",
                        gated_speedup, floor);
            ++failures;
        } else {
            std::printf("gated speedup gate passed: %.2fx >= %.2fx\n",
                        gated_speedup, floor);
        }
    }

    // Perf-regression gate against the committed baseline artifact.
    if (args.has("check_baseline")) {
        std::string path = args.getString("check_baseline", "");
        if (path.empty() || path == "true")
            path = "bench/sim_throughput_baseline.json";
        std::ifstream in(path);
        if (!in) {
            std::printf("ERROR: cannot read baseline %s\n", path.c_str());
            return 1;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        const auto parsed = experiments::JsonValue::parse(buffer.str());
        if (!parsed) {
            std::printf("ERROR: baseline %s is not valid JSON\n",
                        path.c_str());
            return 1;
        }
        const double base_tape_ms = parsed->at("tape_ms").number();
        const double limit =
            parsed->at("tape_ms_regression_limit").number();
        const double allowed = base_tape_ms * limit;
        if (tape_s * 1e3 > allowed) {
            std::printf("ERROR: tape_ms %.1f regressed past %.1f "
                        "(baseline %.1f x %.2f)\n",
                        tape_s * 1e3, allowed, base_tape_ms, limit);
            ++failures;
        } else {
            std::printf("baseline tape_ms gate passed: %.1f <= %.1f\n",
                        tape_s * 1e3, allowed);
        }
        const double gated_floor =
            parsed->at("gated_speedup_floor").number();
        if (gated_speedup < gated_floor) {
            std::printf("ERROR: gated speedup %.2fx below baseline floor "
                        "%.2fx\n",
                        gated_speedup, gated_floor);
            ++failures;
        } else {
            std::printf("baseline gated-speedup gate passed: %.2fx >= "
                        "%.2fx\n",
                        gated_speedup, gated_floor);
        }
        const auto &floors = parsed->at("kernel_floors");
        for (const auto &row : rows) {
            const auto *floor = floors.find(row.name);
            if (floor == nullptr)
                continue; // kernel not gated by this baseline
            if (row.speedupVsScalar < floor->number()) {
                std::printf("ERROR: kernel %s %.2fx vs scalar below its "
                            "baseline floor %.2fx\n",
                            row.name, row.speedupVsScalar,
                            floor->number());
                ++failures;
            } else {
                std::printf("baseline kernel gate passed: %s %.2fx >= "
                            "%.2fx\n",
                            row.name, row.speedupVsScalar,
                            floor->number());
            }
        }
    }

    return failures == 0 ? 0 : 1;
}
