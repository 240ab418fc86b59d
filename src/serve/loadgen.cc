#include "serve/loadgen.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <functional>
#include <sstream>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "core/batch_engine.h"
#include "core/tiled_design.h"
#include "experiments/json.h"
#include "matrix/bits.h"
#include "matrix/generate.h"
#include "serve/net_client.h"

namespace spatial::serve
{

namespace
{

/** ESN-step knobs the generated workload uses throughout. */
constexpr int kEsnPostShift = 2;

struct Workload
{
    std::vector<IntMatrix> weights; //!< per-design matrices
    std::vector<DesignId> ids;      //!< registered design ids
    core::CompileOptions compile;   //!< shared compile options
    /** Request templates, paired with their target design. */
    std::vector<std::pair<std::size_t, Request>> stream;
};

/**
 * Generate designs + a request stream from one seeded Rng; the
 * register callback hides whether the design lands in an in-process
 * Server or travels over the wire, so both paths see byte-identical
 * workloads for one seed.
 */
Workload
makeWorkload(const LoadGenOptions &options,
             const std::function<DesignId(const IntMatrix &,
                                          const core::CompileOptions &)>
                 &register_design,
             std::size_t stream_length)
{
    Workload workload;
    Rng rng(options.seed);

    workload.compile.inputBits = options.bits;
    workload.compile.inputsSigned = true;
    workload.compile.signMode = core::SignMode::Csd;

    const std::size_t designs = std::max<std::size_t>(1, options.designs);
    for (std::size_t d = 0; d < designs; ++d) {
        workload.weights.push_back(makeSignedElementSparseMatrix(
            options.dim, options.dim, options.bits, options.sparsity,
            rng));
        workload.ids.push_back(
            register_design(workload.weights.back(), workload.compile));
    }

    workload.stream.reserve(stream_length);
    for (std::size_t i = 0; i < stream_length; ++i) {
        const std::size_t d = static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(designs) - 1));
        const double mix = rng.uniformReal();
        Request request;
        if (mix < options.esnFraction) {
            request = Request::esnStep(
                makeSignedVector(options.dim, options.bits, rng),
                makeSignedVector(options.dim, options.bits, rng),
                kEsnPostShift, options.bits);
        } else if (mix < options.esnFraction + options.batchFraction) {
            request = Request::gemvBatch(makeSignedBatch(
                std::max<std::size_t>(1, options.batchSize), options.dim,
                options.bits, rng));
        } else {
            request = Request::gemv(
                makeSignedVector(options.dim, options.bits, rng));
        }
        workload.stream.emplace_back(d, std::move(request));
    }
    return workload;
}

double
secondsBetween(std::chrono::time_point<Clock> a,
               std::chrono::time_point<Clock> b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** The naive path's answer to one request (one multiply per vector). */
IntMatrix
naiveAnswer(core::TiledGemv &gemv, const Request &request,
            std::size_t cols)
{
    if (request.kind == RequestKind::GemvBatch) {
        IntMatrix out(request.batch.rows(), cols);
        std::vector<std::int64_t> x(request.batch.cols());
        std::vector<std::int64_t> o;
        for (std::size_t b = 0; b < request.batch.rows(); ++b) {
            for (std::size_t r = 0; r < x.size(); ++r)
                x[r] = request.batch.at(b, r);
            gemv.multiplyInto(x, o);
            for (std::size_t c = 0; c < cols; ++c)
                out.at(b, c) = o[c];
        }
        return out;
    }
    std::vector<std::int64_t> o;
    gemv.multiplyInto(request.vec, o);
    IntMatrix out(1, cols);
    if (request.kind == RequestKind::EsnStep) {
        for (std::size_t c = 0; c < cols; ++c) {
            const std::int64_t inj =
                request.inject.empty() ? 0 : request.inject[c];
            out.at(0, c) = esnClipUpdate(o[c] + inj, request.postShift,
                                         request.stateBits);
        }
    } else {
        for (std::size_t c = 0; c < cols; ++c)
            out.at(0, c) = o[c];
    }
    return out;
}

/** Time the identical stream on per-worker sequential executors. */
double
runNaive(
    const std::vector<std::shared_ptr<const core::TiledDesign>> &designs,
    const core::SimOptions &sim, unsigned workers,
    const Workload &workload, std::vector<IntMatrix> &outputs)
{
    outputs.assign(workload.stream.size(), IntMatrix());
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    auto body = [&] {
        // One persistent single-vector executor per (worker, design),
        // on the run's configured engine knobs — the comparison must
        // vary only the batching dimension, not the gating mode.
        std::vector<std::unique_ptr<core::TiledGemv>> gemvs;
        gemvs.reserve(designs.size());
        for (const auto &design : designs)
            gemvs.push_back(
                std::make_unique<core::TiledGemv>(*design, sim));
        const std::size_t cols = designs.front()->cols();
        for (std::size_t i = next.fetch_add(1);
             i < workload.stream.size(); i = next.fetch_add(1)) {
            const auto &[d, request] = workload.stream[i];
            outputs[i] = naiveAnswer(*gemvs[d], request, cols);
        }
    };
    if (workers <= 1) {
        body();
    } else {
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            pool.emplace_back(body);
        for (auto &thread : pool)
            thread.join();
    }
    return secondsBetween(start, Clock::now());
}

/** Latency summary + SLO compliance from the collected sample. */
void
finishLatencies(LoadGenResult &result, const LoadGenOptions &options,
                std::vector<double> &latencies_ms)
{
    // Count before summarize() sorts — either order works, but the
    // sorted vector makes the compliance scan a partition point.
    result.latencyMs = summarize(latencies_ms);
    if (latencies_ms.empty()) {
        result.sloCompliance = 1.0;
        return;
    }
    const auto within = std::upper_bound(
        latencies_ms.begin(), latencies_ms.end(), options.sloMs);
    result.sloCompliance =
        static_cast<double>(within - latencies_ms.begin()) /
        static_cast<double>(latencies_ms.size());
}

/** The local reference compile of a remote run's generated designs. */
std::vector<std::shared_ptr<const core::TiledDesign>>
compileLocally(const Workload &workload, const core::TileOptions &tile)
{
    std::vector<std::shared_ptr<const core::TiledDesign>> designs;
    designs.reserve(workload.weights.size());
    for (const IntMatrix &weights : workload.weights)
        designs.push_back(std::make_shared<const core::TiledDesign>(
            core::TiledDesign::compile(weights, workload.compile,
                                       tile)));
    return designs;
}

/** Drive a remote NetServer through the wire protocol. */
LoadGenResult
runRemote(const LoadGenOptions &options)
{
    LoadGenResult result;
    std::string host;
    std::uint16_t port = 0;
    parseEndpoint(options.remote, &host, &port);
    NetClientOptions copts;
    copts.requestTimeout = options.requestTimeout;
    copts.maxReconnects = options.reconnects;
    NetClient client(host, port, copts);

    auto register_design = [&](const IntMatrix &weights,
                               const core::CompileOptions &compile)
        -> DesignId {
        std::uint32_t id = 0;
        const wire::Status status =
            client.registerDesign(weights, compile, &id);
        if (status != wire::Status::Ok)
            SPATIAL_FATAL("remote register failed: ",
                          wire::statusName(status));
        return id;
    };

    std::vector<double> latencies;

    if (options.mode == LoadGenOptions::Mode::Drain) {
        auto workload =
            makeWorkload(options, register_design, options.requests);
        std::vector<IntMatrix> outputs(workload.stream.size());
        std::vector<bool> done(workload.stream.size(), false);

        std::vector<std::size_t> todo(workload.stream.size());
        for (std::size_t i = 0; i < todo.size(); ++i)
            todo[i] = i;

        // Inter-round pacing: jittered exponential backoff that resets
        // whenever a round completes at least one request, so a
        // briefly saturated server is repolled politely instead of
        // hammered on a fixed 1ms cadence.
        Rng backoff_rng(options.seed ^ 0x0b0ff5eedULL);
        unsigned stall_rounds = 0;
        bool client_dead = false;

        const auto start = Clock::now();
        while (!todo.empty() && !client_dead) {
            std::vector<std::pair<std::size_t,
                                  std::future<RemoteResult>>>
                futures;
            futures.reserve(todo.size());
            for (const std::size_t i : todo) {
                const auto &[d, request] = workload.stream[i];
                futures.emplace_back(
                    i, client.submit(static_cast<std::uint32_t>(
                                         workload.ids[d]),
                                     Request(request)));
            }
            std::vector<std::size_t> again;
            for (auto &[i, future] : futures) {
                RemoteResult r = future.get();
                if (r.status == wire::Status::Ok) {
                    outputs[i] = std::move(r.output);
                    done[i] = true;
                    latencies.push_back(r.latencySeconds() * 1e3);
                } else if (r.status == wire::Status::Busy ||
                           r.status == wire::Status::TimedOut) {
                    if (r.status == wire::Status::Busy)
                        ++result.shed;
                    else
                        ++result.timeouts;
                    if (options.retryBusy) {
                        again.push_back(i);
                        ++result.busyRetries;
                    }
                } else if (r.status == wire::Status::Disconnected &&
                           options.reconnects > 0) {
                    // The reconnect budget is exhausted: the client is
                    // dead for good, so everything unanswered is lost
                    // — report it rather than spinning forever.
                    ++result.lost;
                    client_dead = true;
                } else {
                    SPATIAL_FATAL("remote request failed: ",
                                  wire::statusName(r.status));
                }
            }
            stall_rounds = again.size() == todo.size()
                               ? stall_rounds + 1
                               : 0;
            todo = std::move(again);
            if (!todo.empty() && !client_dead)
                std::this_thread::sleep_for(jitteredBackoff(
                    stall_rounds, std::chrono::milliseconds(1),
                    std::chrono::milliseconds(100), backoff_rng));
        }
        result.seconds = secondsBetween(start, Clock::now());
        result.completed = latencies.size();

        if (options.compareNaive) {
            const auto local =
                compileLocally(workload, options.serve.tile);
            std::vector<IntMatrix> naive;
            const unsigned workers =
                std::max(1u, std::thread::hardware_concurrency());
            result.naiveSeconds = runNaive(local, options.serve.sim,
                                           workers, workload, naive);
            result.naiveThroughput =
                static_cast<double>(workload.stream.size()) /
                result.naiveSeconds;
            for (std::size_t i = 0; i < naive.size(); ++i)
                if (done[i] && !(naive[i] == outputs[i])) {
                    result.bitExact = false;
                    break;
                }
        }
    } else if (options.mode == LoadGenOptions::Mode::Open) {
        if (!(options.qps > 0.0))
            SPATIAL_FATAL("open-loop load needs qps > 0, got ",
                          options.qps);
        const std::size_t pool =
            std::min<std::size_t>(1024, std::max<std::size_t>(
                                            64, options.requests));
        auto workload = makeWorkload(options, register_design, pool);
        Rng arrivals(options.seed ^ 0xa11afeedull);

        std::vector<std::future<RemoteResult>> futures;
        futures.reserve(static_cast<std::size_t>(
            options.qps * options.duration * 1.2 + 64));
        const auto start = Clock::now();
        const auto end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.duration));
        auto next = start;
        std::size_t i = 0;
        for (;;) {
            const auto now = Clock::now();
            if (now >= end)
                break;
            if (now < next) {
                std::this_thread::sleep_until(std::min(next, end));
                continue;
            }
            const auto &[d, request] = workload.stream[i % pool];
            futures.push_back(client.submit(
                static_cast<std::uint32_t>(workload.ids[d]),
                Request(request)));
            ++i;
            const double u = std::min(arrivals.uniformReal(), 0.999999);
            next += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(-std::log1p(-u) /
                                              options.qps));
        }
        for (auto &future : futures) {
            RemoteResult r = future.get();
            if (r.status == wire::Status::Ok)
                latencies.push_back(r.latencySeconds() * 1e3);
            else if (r.status == wire::Status::Busy)
                ++result.shed;
            else if (r.status == wire::Status::TimedOut)
                ++result.timeouts;
            else if (r.status == wire::Status::Disconnected &&
                     options.reconnects > 0)
                ++result.lost; // budget exhausted; open loop is lossy
            else
                SPATIAL_FATAL("remote request failed: ",
                              wire::statusName(r.status));
        }
        result.seconds = secondsBetween(start, Clock::now());
        result.completed = latencies.size();
    } else {
        const std::size_t pool = 1024;
        auto workload = makeWorkload(options, register_design, pool);
        const unsigned clients = std::max(1u, options.clients);

        std::atomic<bool> stop{false};
        std::atomic<std::size_t> shed{0};
        std::atomic<std::size_t> timedOut{0};
        std::atomic<std::size_t> lost{0};
        std::mutex latMutex;

        const auto start = Clock::now();
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (unsigned t = 0; t < clients; ++t) {
            threads.emplace_back([&, t] {
                Rng pick(options.seed + 1 + t);
                std::vector<double> local;
                while (!stop.load(std::memory_order_relaxed)) {
                    const auto &[d, request] = workload.stream
                        [static_cast<std::size_t>(pick.uniformInt(
                            0, static_cast<std::int64_t>(pool) - 1))];
                    RemoteResult r =
                        client
                            .submit(static_cast<std::uint32_t>(
                                        workload.ids[d]),
                                    Request(request))
                            .get();
                    if (r.status == wire::Status::Ok) {
                        local.push_back(r.latencySeconds() * 1e3);
                    } else if (r.status == wire::Status::Busy) {
                        shed.fetch_add(1);
                    } else if (r.status == wire::Status::TimedOut) {
                        timedOut.fetch_add(1);
                    } else {
                        lost.fetch_add(1);
                        break; // disconnected mid-run
                    }
                }
                std::lock_guard<std::mutex> lock(latMutex);
                latencies.insert(latencies.end(), local.begin(),
                                 local.end());
            });
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.duration));
        stop.store(true);
        for (auto &thread : threads)
            thread.join();
        result.seconds = secondsBetween(start, Clock::now());
        result.completed = latencies.size();
        result.shed = shed.load();
        result.timeouts = timedOut.load();
        result.lost = lost.load();
    }

    finishLatencies(result, options, latencies);
    const NetClientStats client_stats = client.stats();
    result.reconnects = client_stats.reconnects;
    if (client.fetchStats(&result.shardStats) == wire::Status::Ok &&
        result.shardStats.cols() >= wire::kShardStatsCols) {
        for (std::size_t s = 0; s < result.shardStats.rows(); ++s) {
            result.watchdogShed += static_cast<std::size_t>(
                result.shardStats.at(s, wire::kStatWatchdogShed));
            result.faultsInjected += static_cast<std::size_t>(
                result.shardStats.at(s, wire::kStatFaultsInjected));
        }
    }
    return result;
}

} // namespace

LatencySummary
summarize(std::vector<double> &latencies_ms)
{
    LatencySummary summary;
    if (latencies_ms.empty())
        return summary;
    std::sort(latencies_ms.begin(), latencies_ms.end());
    // Nearest-rank percentile: the smallest sample with at least q*N
    // observations at or below it, i.e. index ceil(q*N) - 1.  (The
    // previous floor(q*N) read one rank too high: p50 of a 2-sample
    // set returned the max.)
    const auto at = [&](double q) {
        const double rank =
            std::ceil(q * static_cast<double>(latencies_ms.size()));
        const std::size_t i = std::min(
            latencies_ms.size() - 1,
            static_cast<std::size_t>(std::max(rank, 1.0)) - 1);
        return latencies_ms[i];
    };
    summary.p50 = at(0.50);
    summary.p95 = at(0.95);
    summary.p99 = at(0.99);
    summary.max = latencies_ms.back();
    double sum = 0.0;
    for (const double v : latencies_ms)
        sum += v;
    summary.mean = sum / static_cast<double>(latencies_ms.size());
    return summary;
}

const char *
modeName(LoadGenOptions::Mode mode)
{
    switch (mode) {
      case LoadGenOptions::Mode::Open:
        return "open";
      case LoadGenOptions::Mode::Closed:
        return "closed";
      case LoadGenOptions::Mode::Drain:
        return "drain";
    }
    return "?";
}

LoadGenOptions::Mode
parseMode(const std::string &name)
{
    if (name == "open")
        return LoadGenOptions::Mode::Open;
    if (name == "closed")
        return LoadGenOptions::Mode::Closed;
    if (name == "drain")
        return LoadGenOptions::Mode::Drain;
    SPATIAL_FATAL("unknown load mode '", name,
                  "' (expected open, closed, or drain)");
}

LoadGenResult
runLoadGen(const LoadGenOptions &options)
{
    if (!options.remote.empty()) {
        LoadGenResult result = runRemote(options);
        result.throughput =
            result.seconds > 0.0
                ? static_cast<double>(result.completed) /
                      result.seconds
                : 0.0;
        if (result.naiveThroughput > 0.0)
            result.speedup =
                result.throughput / result.naiveThroughput;
        return result;
    }

    LoadGenResult result;
    Server server(options.serve);
    auto register_design = [&](const IntMatrix &weights,
                               const core::CompileOptions &compile) {
        return server.registerDesign(weights, compile);
    };
    std::vector<double> latencies;

    if (options.mode == LoadGenOptions::Mode::Drain) {
        auto workload = makeWorkload(options, register_design,
                                     options.requests);
        std::vector<std::future<Response>> futures;
        futures.reserve(workload.stream.size());

        const auto start = Clock::now();
        for (const auto &[d, request] : workload.stream)
            futures.push_back(
                server.submit(workload.ids[d], Request(request)));
        server.drain();
        result.seconds = secondsBetween(start, Clock::now());

        std::vector<Response> responses;
        responses.reserve(futures.size());
        for (auto &future : futures) {
            responses.push_back(future.get());
            // Watchdog sheds resolve with shed=true and no output;
            // they count as shed, not completed.
            if (responses.back().shed)
                ++result.shed;
            else
                latencies.push_back(
                    responses.back().latencySeconds() * 1e3);
        }
        result.completed = responses.size() - result.shed;

        if (options.compareNaive) {
            std::vector<std::shared_ptr<const core::TiledDesign>> refs;
            refs.reserve(workload.ids.size());
            for (const DesignId id : workload.ids)
                refs.push_back(server.design(id));
            std::vector<IntMatrix> naive;
            result.naiveSeconds =
                runNaive(refs, server.options().sim,
                         server.options().workers, workload, naive);
            result.naiveThroughput =
                static_cast<double>(result.completed) /
                result.naiveSeconds;
            for (std::size_t i = 0; i < naive.size(); ++i)
                if (!responses[i].shed &&
                    !(naive[i] == responses[i].output)) {
                    result.bitExact = false;
                    break;
                }
        }
    } else if (options.mode == LoadGenOptions::Mode::Open) {
        if (!(options.qps > 0.0))
            SPATIAL_FATAL("open-loop load needs qps > 0, got ",
                          options.qps);
        // Template pool cycled by the arrival process: generation cost
        // stays off the submission path.
        const std::size_t pool =
            std::min<std::size_t>(1024, std::max<std::size_t>(
                                            64, options.requests));
        auto workload = makeWorkload(options, register_design, pool);
        Rng arrivals(options.seed ^ 0xa11afeedull);

        std::vector<std::future<Response>> futures;
        futures.reserve(static_cast<std::size_t>(
            options.qps * options.duration * 1.2 + 64));
        const auto start = Clock::now();
        const auto end =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(options.duration));
        auto next = start;
        std::size_t i = 0;
        for (;;) {
            const auto now = Clock::now();
            if (now >= end)
                break;
            if (now < next) {
                std::this_thread::sleep_until(std::min(next, end));
                continue;
            }
            const auto &[d, request] = workload.stream[i % pool];
            futures.push_back(
                server.submit(workload.ids[d], Request(request)));
            ++i;
            const double u = std::min(arrivals.uniformReal(), 0.999999);
            next += std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(-std::log1p(-u) /
                                              options.qps));
        }
        server.drain();
        result.seconds = secondsBetween(start, Clock::now());

        latencies.reserve(futures.size());
        for (auto &future : futures) {
            const Response response = future.get();
            if (response.shed)
                ++result.shed;
            else
                latencies.push_back(response.latencySeconds() * 1e3);
        }
        result.completed = latencies.size();
    } else {
        const std::size_t pool = 1024;
        auto workload = makeWorkload(options, register_design, pool);
        const unsigned clients = std::max(1u, options.clients);

        std::atomic<bool> stop{false};
        std::atomic<std::size_t> completed{0};
        std::atomic<std::size_t> shedCount{0};
        std::mutex latMutex;

        const auto start = Clock::now();
        std::vector<std::thread> threads;
        threads.reserve(clients);
        for (unsigned t = 0; t < clients; ++t) {
            threads.emplace_back([&, t] {
                Rng pick(options.seed + 1 + t);
                std::vector<double> local;
                while (!stop.load(std::memory_order_relaxed)) {
                    const auto &[d, request] = workload.stream
                        [static_cast<std::size_t>(pick.uniformInt(
                            0, static_cast<std::int64_t>(pool) - 1))];
                    auto future = server.submit(workload.ids[d],
                                                Request(request));
                    const Response response = future.get();
                    if (response.shed)
                        shedCount.fetch_add(1);
                    else
                        local.push_back(response.latencySeconds() *
                                        1e3);
                }
                completed.fetch_add(local.size());
                std::lock_guard<std::mutex> lock(latMutex);
                latencies.insert(latencies.end(), local.begin(),
                                 local.end());
            });
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(options.duration));
        stop.store(true);
        for (auto &thread : threads)
            thread.join();
        server.drain();
        result.seconds = secondsBetween(start, Clock::now());
        result.completed = completed.load();
        result.shed = shedCount.load();
    }

    finishLatencies(result, options, latencies);
    result.throughput = result.seconds > 0.0
                            ? static_cast<double>(result.completed) /
                                  result.seconds
                            : 0.0;
    if (result.naiveThroughput > 0.0)
        result.speedup = result.throughput / result.naiveThroughput;
    result.stats = server.stats();
    result.watchdogShed = result.stats.watchdogShed;
    result.faultsInjected = result.stats.faultsInjected;
    result.workersResolved = server.options().workers;
    return result;
}

std::string
LoadGenResult::toJson(const LoadGenOptions &options) const
{
    using experiments::jsonQuote;
    using experiments::jsonReal;
    std::ostringstream out;
    out << "{\n";
    out << "  \"schema\": \"spatial-serve/v3\",\n";
    out << "  \"mode\": " << jsonQuote(modeName(options.mode)) << ",\n";
    out << "  \"remote\": " << jsonQuote(options.remote) << ",\n";
    out << "  \"designs\": " << options.designs << ",\n";
    out << "  \"dim\": " << options.dim << ",\n";
    out << "  \"bits\": " << options.bits << ",\n";
    out << "  \"sparsity\": " << jsonReal(options.sparsity) << ",\n";
    out << "  \"max_batch\": " << options.serve.maxBatch << ",\n";
    // The resolved worker count, not the raw option: a 0 = "auto"
    // sentinel in an artifact is useless for comparing runs across
    // machines.
    out << "  \"workers\": " << workersResolved << ",\n";
    out << "  \"kernel\": "
        << jsonQuote(core::resolvedKernel(options.serve.sim).name)
        << ",\n";
    out << "  \"activity_gating\": "
        << (options.serve.sim.activityGating ? "true" : "false") << ",\n";
    out << "  \"segment_kib\": " << options.serve.sim.segmentKib
        << ",\n";
    out << "  \"seed\": " << options.seed << ",\n";
    out << "  \"qps_target\": " << jsonReal(options.qps) << ",\n";
    out << "  \"completed\": " << completed << ",\n";
    out << "  \"shed\": " << shed << ",\n";
    out << "  \"busy_retries\": " << busyRetries << ",\n";
    out << "  \"request_timeout_ms\": " << options.requestTimeout.count()
        << ",\n";
    out << "  \"timeouts\": " << timeouts << ",\n";
    out << "  \"lost\": " << lost << ",\n";
    out << "  \"reconnects\": " << reconnects << ",\n";
    out << "  \"watchdog_shed\": " << watchdogShed << ",\n";
    out << "  \"faults_injected\": " << faultsInjected << ",\n";
    out << "  \"seconds\": " << jsonReal(seconds) << ",\n";
    out << "  \"throughput\": " << jsonReal(throughput) << ",\n";
    out << "  \"p50_ms\": " << jsonReal(latencyMs.p50) << ",\n";
    out << "  \"p95_ms\": " << jsonReal(latencyMs.p95) << ",\n";
    out << "  \"p99_ms\": " << jsonReal(latencyMs.p99) << ",\n";
    out << "  \"mean_ms\": " << jsonReal(latencyMs.mean) << ",\n";
    out << "  \"max_ms\": " << jsonReal(latencyMs.max) << ",\n";
    out << "  \"slo_ms\": " << jsonReal(options.sloMs) << ",\n";
    out << "  \"slo_compliance\": " << jsonReal(sloCompliance)
        << ",\n";
    out << "  \"groups\": " << stats.groups << ",\n";
    out << "  \"lanes\": " << stats.lanes << ",\n";
    out << "  \"padded_lanes\": " << stats.paddedLanes << ",\n";
    out << "  \"occupancy\": " << jsonReal(stats.occupancy()) << ",\n";
    out << "  \"flush_full\": " << stats.flushFull << ",\n";
    out << "  \"flush_deadline\": " << stats.flushDeadline << ",\n";
    out << "  \"flush_drain\": " << stats.flushDrain << ",\n";
    out << "  \"engine_passes\": " << stats.enginePasses << ",\n";
    out << "  \"segments_executed\": " << stats.segmentsExecuted
        << ",\n";
    out << "  \"segments_skipped\": " << stats.segmentsSkipped << ",\n";
    out << "  \"sequences\": " << stats.sequences << ",\n";
    out << "  \"store_hits\": " << stats.store.cache.hits << ",\n";
    out << "  \"store_misses\": " << stats.store.cache.misses << ",\n";
    out << "  \"store_evictions\": " << stats.store.evictions << ",\n";
    out << "  \"store_demotions\": " << stats.store.demotions << ",\n";
    out << "  \"store_promotions\": " << stats.store.promotions
        << ",\n";
    out << "  \"store_cold_fallbacks\": " << stats.store.coldFallbacks
        << ",\n";
    out << "  \"store_compile_seconds\": "
        << jsonReal(stats.store.compileSeconds) << ",\n";
    out << "  \"store_load_seconds\": "
        << jsonReal(stats.store.loadSeconds) << ",\n";
    // Remote runs carry the server's own per-shard view: occupancy and
    // shed counts per engine pool, fetched over the wire at run end.
    out << "  \"shards\": [";
    for (std::size_t s = 0; s < shardStats.rows(); ++s) {
        const auto cell = [&](wire::ShardStatsCol c) {
            return shardStats.at(s, c);
        };
        const double padded =
            static_cast<double>(cell(wire::kStatPaddedLanes));
        const double occupancy =
            padded > 0.0
                ? static_cast<double>(cell(wire::kStatLanes)) / padded
                : 0.0;
        out << (s == 0 ? "\n" : ",\n");
        out << "    {\"shard\": " << s
            << ", \"requests\": " << cell(wire::kStatRequests)
            << ", \"lanes\": " << cell(wire::kStatLanes)
            << ", \"padded_lanes\": " << cell(wire::kStatPaddedLanes)
            << ", \"occupancy\": " << jsonReal(occupancy)
            << ", \"groups\": " << cell(wire::kStatGroups)
            << ", \"sequences\": " << cell(wire::kStatSequences)
            << ", \"submitted\": " << cell(wire::kStatSubmitted)
            << ", \"shed\": " << cell(wire::kStatShed)
            << ", \"in_flight\": " << cell(wire::kStatInFlight)
            << ", \"watchdog_shed\": " << cell(wire::kStatWatchdogShed)
            << ", \"faults_injected\": "
            << cell(wire::kStatFaultsInjected) << "}";
    }
    out << (shardStats.rows() > 0 ? "\n  ],\n" : "],\n");
    out << "  \"naive_seconds\": " << jsonReal(naiveSeconds) << ",\n";
    out << "  \"naive_throughput\": " << jsonReal(naiveThroughput)
        << ",\n";
    out << "  \"speedup\": " << jsonReal(speedup) << ",\n";
    out << "  \"bit_exact\": " << (bitExact ? "true" : "false") << "\n";
    out << "}\n";
    return out.str();
}

} // namespace spatial::serve
