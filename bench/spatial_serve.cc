/**
 * @file
 * spatial-serve: load-test the serving layer, in-process or over TCP.
 *
 * Hosts the built-in load generator against an in-process Server:
 * open-loop Poisson arrivals at a target QPS, closed-loop clients, or
 * drain mode (submit everything, then drain — the batch-saturating
 * ceiling, optionally compared bit-for-bit against the naive
 * one-request-per-multiply path).
 *
 *   spatial-serve --mode=drain --requests=4096 --compare
 *   spatial-serve --mode=open --qps=20000 --duration=2
 *   spatial-serve --mode=closed --clients=128 --duration=2
 *   spatial-serve --designs=4 --batch_frac=0.2 --esn_frac=0.1
 *   spatial-serve --mode=drain --compare --check_speedup=3 --json
 *   spatial-serve --spill_dir=/tmp/spill --store_capacity=2
 *   spatial-serve --dim=4096 --tile_budget=262144  # column tiling
 *
 * With --listen the same binary becomes the network front end: a
 * NetServer over N engine-pool shards, serving the wire protocol until
 * SIGTERM/SIGINT triggers a graceful drain.  With --remote the load
 * generator drives such a server over TCP instead of an in-process
 * Server — bit-identical workload for the same seed.
 *
 *   spatial-serve --listen --port=7411 --shards=2 --max_queue=512
 *   spatial-serve --listen --port=0 --port_file=port.txt   # ephemeral
 *   spatial-serve --remote=127.0.0.1:7411 --mode=drain --compare
 *   spatial-serve --remote=... --retry_busy=0 --check_shed=1
 *   spatial-serve --remote=... --request_timeout_ms=200 --reconnects=3
 *   spatial-serve --listen --drain_timeout_ms=2000 \
 *                 --max_queue_age_ms=50 --slow_worker_ms=250
 *
 * --json[=path] writes BENCH_serve.json (CI trends it next to the
 * sim_throughput artifact).  --check_speedup=R exits 1 unless drain
 * mode measured a >= R batching speedup with bit-identical outputs.
 * --check_shed=N exits 1 unless at least N requests were shed with
 * BUSY (the overload smoke proves shedding, not latency collapse).
 */

#include <csignal>
#include <cstdio>
#include <fstream>

#include "common/args.h"
#include "common/logging.h"
#include "serve/loadgen.h"
#include "serve/net_server.h"

namespace
{

/** The listening server a signal must stop (set before handlers). */
spatial::serve::NetServer *g_server = nullptr;

extern "C" void
handleStopSignal(int)
{
    // Async-signal-safe: writes one byte down the server's wake pipe.
    if (g_server != nullptr)
        g_server->requestShutdown();
}

/** Run the TCP front end until a stop signal drains it. */
int
runListen(const spatial::Args &args,
          const spatial::serve::LoadGenOptions &options)
{
    using namespace spatial;
    using namespace spatial::serve;

    NetServerOptions net;
    const std::string host = args.getString("listen", "");
    if (!host.empty() && host != "true")
        net.host = host;
    net.host = args.getString("listen_host", net.host);
    net.port = static_cast<std::uint16_t>(args.getInt("port", 0));
    net.shards = static_cast<std::size_t>(args.getInt("shards", 1));
    net.maxQueue =
        static_cast<std::size_t>(args.getInt("max_queue", 1024));
    net.maxRegisterDim = static_cast<std::size_t>(args.getInt(
        "max_register_dim",
        static_cast<std::int64_t>(net.maxRegisterDim)));
    net.maxFrameBytes = static_cast<std::uint32_t>(args.getInt(
        "max_frame_bytes",
        static_cast<std::int64_t>(net.maxFrameBytes)));
    // Degradation knobs: a bounded SIGTERM drain, plus the per-shard
    // queue-age watchdog and slow-worker detector (docs/robustness.md).
    net.drainTimeout =
        std::chrono::milliseconds(args.getInt("drain_timeout_ms", 0));
    net.serve = options.serve;

    NetServer server(net);
    g_server = &server;
    std::signal(SIGTERM, handleStopSignal);
    std::signal(SIGINT, handleStopSignal);

    std::printf("spatial-serve: listening on %s:%u (%zu shards, "
                "max_queue=%zu, %u workers/shard)\n",
                net.host.c_str(), server.port(),
                server.options().shards, server.options().maxQueue,
                net.serve.workers);
    std::fflush(stdout);

    // Export the resolved port for scripts racing the ephemeral bind
    // (ctest -j, the CI smoke): write to a temp name, then rename, so
    // a reader never sees a half-written file.
    if (args.has("port_file")) {
        const std::string path = args.getString("port_file", "");
        if (path.empty() || path == "true")
            SPATIAL_FATAL("--port_file needs a path");
        const std::string tmp = path + ".tmp";
        {
            std::ofstream out(tmp);
            if (!out)
                SPATIAL_FATAL("cannot write ", tmp);
            out << server.port() << "\n";
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0)
            SPATIAL_FATAL("cannot rename ", tmp, " to ", path);
    }

    server.waitUntilStopped();
    g_server = nullptr;

    const NetServerStats stats = server.stats();
    std::printf("spatial-serve: drained; %zu connections served, %zu "
                "designs, %zu bad frames\n",
                stats.accepted, stats.registered, stats.badFrames);
    for (std::size_t s = 0; s < stats.shards.size(); ++s) {
        const ShardStats &shard = stats.shards[s];
        std::printf("  shard %zu: %zu submitted, %zu shed, occupancy "
                    "%.2f, %zu groups\n",
                    s, shard.submitted, shard.shed,
                    shard.server.occupancy(), shard.server.groups);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spatial;
    using namespace spatial::serve;

    const Args args(argc, argv);

    LoadGenOptions options;
    options.mode = parseMode(args.getString("mode", "drain"));
    options.qps = args.getReal("qps", 20000.0);
    options.clients =
        static_cast<unsigned>(args.getInt("clients", 128));
    options.duration = args.getReal("duration", 1.0);
    options.requests =
        static_cast<std::size_t>(args.getInt("requests", 4096));
    options.designs =
        static_cast<std::size_t>(args.getInt("designs", 1));
    options.dim = static_cast<std::size_t>(args.getInt("dim", 128));
    options.bits = static_cast<int>(args.getInt("bits", 8));
    options.sparsity = args.getReal("sparsity", 0.9);
    options.batchFraction = args.getReal("batch_frac", 0.0);
    options.batchSize =
        static_cast<std::size_t>(args.getInt("batch_size", 16));
    options.esnFraction = args.getReal("esn_frac", 0.0);
    options.seed =
        static_cast<std::uint64_t>(args.getInt("seed", 42));
    options.compareNaive =
        args.getBool("compare", false) || args.has("check_speedup");
    options.remote = args.getString("remote", "");
    options.retryBusy = args.getBool("retry_busy", true);
    options.sloMs = args.getReal("slo_ms", 50.0);
    // Client-side degradation (remote mode): per-request deadlines
    // and reconnect-and-replay after a dropped connection.
    options.requestTimeout = std::chrono::milliseconds(
        args.getInt("request_timeout_ms", 0));
    options.reconnects =
        static_cast<unsigned>(args.getInt("reconnects", 0));

    options.serve.maxBatch =
        static_cast<std::size_t>(args.getInt("max_batch", 256));
    options.serve.workers =
        static_cast<unsigned>(args.getInt("workers", 0));
    options.serve.storeCapacity =
        static_cast<std::size_t>(args.getInt("store_capacity", 64));
    // Memory tiering: with a spill directory, designs evicted from
    // the hot tier demote to disk and rematerialize on their next
    // request instead of recompiling (docs/store.md).
    options.serve.storeSpillDir = args.getString("spill_dir", "");
    options.serve.tile.onesBudget = static_cast<std::size_t>(
        args.getInt("tile_budget",
                    static_cast<std::int64_t>(
                        options.serve.tile.onesBudget)));
    options.serve.sim.laneWords =
        static_cast<unsigned>(args.getInt("lane-words", 0));
    // Queue-age watchdog: sheds batched work older than the bound and
    // flags workers stuck past the slow-worker threshold.
    options.serve.maxQueueAge = std::chrono::milliseconds(
        args.getInt("max_queue_age_ms", 0));
    options.serve.slowWorkerAfter = std::chrono::milliseconds(
        args.getInt("slow_worker_ms", 0));

    if (args.has("listen")) {
        if (!options.remote.empty())
            SPATIAL_FATAL("--listen and --remote are mutually "
                          "exclusive (server vs load-generator role)");
        return runListen(args, options);
    }

    if (options.compareNaive &&
        options.mode != LoadGenOptions::Mode::Drain)
        SPATIAL_FATAL("--compare/--check_speedup need --mode=drain "
                      "(the naive path replays the identical request "
                      "list)");

    std::printf("spatial-serve: mode=%s%s%s designs=%zu dim=%zu "
                "bits=%d max_batch=%zu seed=%llu\n",
                modeName(options.mode),
                options.remote.empty() ? "" : " remote=",
                options.remote.c_str(), options.designs, options.dim,
                options.bits, options.serve.maxBatch,
                static_cast<unsigned long long>(options.seed));

    const LoadGenResult result = runLoadGen(options);

    std::printf("completed %zu requests in %.3fs: %.0f req/s\n",
                result.completed, result.seconds, result.throughput);
    std::printf("latency ms: p50=%.3f p95=%.3f p99=%.3f mean=%.3f "
                "max=%.3f; %.1f%% within %.1fms SLO\n",
                result.latencyMs.p50, result.latencyMs.p95,
                result.latencyMs.p99, result.latencyMs.mean,
                result.latencyMs.max, result.sloCompliance * 100.0,
                options.sloMs);
    if (!options.remote.empty()) {
        std::printf("admission: %zu shed with BUSY, %zu retries\n",
                    result.shed, result.busyRetries);
        if (result.timeouts + result.lost + result.reconnects +
                result.watchdogShed + result.faultsInjected >
            0)
            std::printf("degradation: %zu timeouts, %zu lost, %zu "
                        "reconnects, %zu watchdog shed, %zu faults "
                        "injected\n",
                        result.timeouts, result.lost,
                        result.reconnects, result.watchdogShed,
                        result.faultsInjected);
        for (std::size_t s = 0; s < result.shardStats.rows(); ++s) {
            const double padded = static_cast<double>(
                result.shardStats.at(s, wire::kStatPaddedLanes));
            std::printf(
                "  shard %zu: %lld requests, %lld shed, occupancy "
                "%.2f, %lld in flight\n",
                s,
                static_cast<long long>(
                    result.shardStats.at(s, wire::kStatRequests)),
                static_cast<long long>(
                    result.shardStats.at(s, wire::kStatShed)),
                padded > 0.0
                    ? static_cast<double>(result.shardStats.at(
                          s, wire::kStatLanes)) /
                          padded
                    : 0.0,
                static_cast<long long>(
                    result.shardStats.at(s, wire::kStatInFlight)));
        }
    } else {
        std::printf(
            "batching: %zu groups, %zu/%zu lanes used (occupancy "
            "%.2f), flushes full=%zu idle=%zu drain=%zu, "
            "sequences=%zu\n",
            result.stats.groups, result.stats.lanes,
            result.stats.paddedLanes, result.stats.occupancy(),
            result.stats.flushFull, result.stats.flushDeadline,
            result.stats.flushDrain, result.stats.sequences);
        std::printf(
            "engine: %u workers, %zu passes, %llu/%llu segments "
            "skipped\n",
            result.workersResolved, result.stats.enginePasses,
            static_cast<unsigned long long>(
                result.stats.segmentsSkipped),
            static_cast<unsigned long long>(
                result.stats.segmentsSkipped +
                result.stats.segmentsExecuted));
        std::printf("store: %zu hits / %zu misses, %zu evictions, %zu "
                    "resident\n",
                    result.stats.store.cache.hits,
                    result.stats.store.cache.misses,
                    result.stats.store.evictions,
                    result.stats.store.resident);
        if (result.watchdogShed + result.stats.slowWorkerFlags +
                result.faultsInjected >
            0)
            std::printf("watchdog: %zu shed, %zu slow-worker flags, "
                        "%zu faults injected\n",
                        result.watchdogShed,
                        static_cast<std::size_t>(
                            result.stats.slowWorkerFlags),
                        result.faultsInjected);
        if (!options.serve.storeSpillDir.empty())
            std::printf("tiering: %zu demotions, %zu promotions, %zu "
                        "cold fallbacks; compile %.2fs vs load %.2fs\n",
                        result.stats.store.demotions,
                        result.stats.store.promotions,
                        result.stats.store.coldFallbacks,
                        result.stats.store.compileSeconds,
                        result.stats.store.loadSeconds);
    }
    if (options.compareNaive) {
        std::printf("naive path: %.0f req/s (%.3fs); batched speedup "
                    "%.2fx, outputs %s\n",
                    result.naiveThroughput, result.naiveSeconds,
                    result.speedup,
                    result.bitExact ? "bit-identical" : "MISMATCH");
        if (!result.bitExact)
            SPATIAL_FATAL("batched outputs differ from the naive "
                          "path; refusing to report timings");
    }

    if (args.has("json")) {
        std::string path = args.getString("json", "BENCH_serve.json");
        if (path.empty() || path == "true")
            path = "BENCH_serve.json";
        std::ofstream out(path);
        if (!out)
            SPATIAL_FATAL("cannot write ", path);
        out << result.toJson(options);
        std::printf("wrote %s\n", path.c_str());
    }

    if (args.has("check_speedup")) {
        const double want = args.getReal("check_speedup", 3.0);
        if (result.speedup < want) {
            std::fprintf(stderr,
                         "FAIL: batching speedup %.2fx below required "
                         "%.2fx\n",
                         result.speedup, want);
            return 1;
        }
        std::printf("OK: batching speedup %.2fx >= %.2fx\n",
                    result.speedup, want);
    }
    if (args.has("check_shed")) {
        const std::size_t want = static_cast<std::size_t>(
            args.getInt("check_shed", 1));
        if (result.shed < want) {
            std::fprintf(stderr,
                         "FAIL: %zu requests shed, expected >= %zu "
                         "(admission control never engaged)\n",
                         result.shed, want);
            return 1;
        }
        std::printf("OK: %zu requests shed with BUSY (>= %zu)\n",
                    result.shed, want);
    }
    return 0;
}
