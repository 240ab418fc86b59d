#include "workloads.h"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <tuple>

#include "common/logging.h"
#include "common/rng.h"
#include "matrix/generate.h"
#include "perf_stats.h"
#include "probes.h"
#include "reference.h"
#include "serve/net_client.h"
#include "serve/net_server.h"
#include "serve/server.h"

namespace spatial::perf
{

namespace
{

using serve::Request;
using serve::RequestKind;

constexpr int kBits = 8;        // weight and input width
constexpr int kPostShift = 8;   // ESN pre-activation shift
constexpr int kStateBits = 8;   // ESN state clip width
constexpr int kInjectBits = 12; // ESN inject term width
constexpr std::int64_t kSampleOneIn = 16;

/** Salts separating the seed's independent streams. */
constexpr std::uint64_t kWeightSalt = 0xde5197ull;
constexpr std::uint64_t kTrafficSalt = 0x7aff1cull;
constexpr std::uint64_t kArrivalSalt = 0xa11afeedull;
constexpr std::uint64_t kSampleSalt = 0x5a3b1eull;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------
// Generated inputs
// ---------------------------------------------------------------------

struct Design
{
    DesignSpec spec;
    IntMatrix weights;
    core::CompileOptions compile;
    std::unique_ptr<Reference> reference;
};

/** One request of the traffic pool and the design it targets. */
struct Template
{
    std::size_t design = 0;
    Request request;
};

std::vector<Design>
makeDesigns(const WorkloadSpec &spec, std::uint64_t seed)
{
    Rng rng(seed ^ kWeightSalt);
    std::vector<Design> designs;
    for (const DesignSpec &ds : spec.designs) {
        Design d;
        d.spec = ds;
        d.weights = ds.sign == core::SignMode::Unsigned
                        ? makeElementSparseMatrix(ds.dim, ds.dim, kBits,
                                                  ds.sparsity, rng)
                        : makeSignedElementSparseMatrix(
                              ds.dim, ds.dim, kBits, ds.sparsity, rng);
        d.compile.inputBits = kBits;
        d.compile.inputsSigned = true;
        d.compile.signMode = ds.sign;
        d.reference = std::make_unique<Reference>(d.weights);
        designs.push_back(std::move(d));
    }
    return designs;
}

Request
makeRequest(RequestKind kind, const WorkloadSpec &spec, std::size_t dim,
            std::size_t rows, Rng &rng)
{
    switch (kind) {
      case RequestKind::Gemv:
        return Request::gemv(makeSignedVector(dim, kBits, rng));
      case RequestKind::GemvBatch:
        return Request::gemvBatch(makeSignedBatch(rows, dim, kBits, rng));
      case RequestKind::EsnStep:
        return Request::esnStep(makeSignedVector(dim, kStateBits, rng),
                                makeSignedVector(dim, kInjectBits, rng),
                                kPostShift, kStateBits);
      case RequestKind::EsnSequence:
        return Request::esnSequence(
            makeSignedVector(dim, kStateBits, rng),
            makeSignedBatch(spec.steps, dim, kInjectBits, rng), kPostShift,
            kStateBits);
    }
    SPATIAL_FATAL("unknown request kind");
}

/**
 * The traffic pool: `count` requests in the workload's exact design and
 * kind mix, in seeded order.  Drives walk the pool cyclically, so every
 * whole pass offers the same work whatever the seed.
 */
std::vector<Template>
makeTraffic(const WorkloadSpec &spec, const std::vector<Design> &designs,
            std::size_t count, std::uint64_t seed)
{
    std::vector<double> shares;
    for (const Design &d : designs)
        shares.push_back(d.spec.traffic);
    Rng rng(seed ^ kTrafficSalt);
    const std::vector<std::size_t> design_of = exactMix(shares, count, rng);
    const std::vector<std::size_t> esn_step = exactMix(
        {1.0 - spec.esnStepShare, spec.esnStepShare}, count, rng);
    std::vector<Template> pool;
    pool.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Template t;
        t.design = design_of[i];
        const RequestKind kind =
            esn_step[i] == 1 ? RequestKind::EsnStep : spec.kind;
        t.request = makeRequest(kind, spec, designs[t.design].spec.dim,
                                spec.batchRows, rng);
        pool.push_back(std::move(t));
    }
    return pool;
}

/**
 * Warm-up traffic: per design, one group at each lane count the
 * workload's groups can reach plus one single-lane request of every
 * kind the workload sends, so no lazy set-up lands in the window.
 */
std::vector<Template>
makeWarmUp(const WorkloadSpec &spec, const std::vector<Design> &designs,
           std::uint64_t seed)
{
    Rng rng(seed ^ kTrafficSalt ^ 0x3a7full);
    std::vector<Template> warm;
    for (std::size_t d = 0; d < designs.size(); ++d) {
        const std::size_t dim = designs[d].spec.dim;
        for (const std::size_t lanes : spec.warmGroups)
            warm.push_back(
                {d, makeRequest(RequestKind::GemvBatch, spec, dim, lanes, rng)});
        warm.push_back({d, makeRequest(spec.kind, spec, dim, 1, rng)});
        if (spec.esnStepShare > 0.0)
            warm.push_back(
                {d, makeRequest(RequestKind::EsnStep, spec, dim, 1, rng)});
    }
    return warm;
}

/** Work units one request carries: vectors, or ESN steps. */
double
itemsOf(const Request &request)
{
    if (request.kind == RequestKind::GemvBatch)
        return static_cast<double>(request.batch.rows());
    if (request.kind == RequestKind::EsnSequence)
        return static_cast<double>(request.injectSeq.rows());
    return 1.0;
}

// ---------------------------------------------------------------------
// Fronts: the in-process Server or a loopback NetServer + NetClient
// ---------------------------------------------------------------------

/** A submitted request; exactly one of the futures is valid. */
struct Pending
{
    std::future<serve::Response> local;
    std::future<serve::RemoteResult> remote;
};

/** A request's outcome as the benchmark observes it. */
struct Observed
{
    bool ok = false;
    bool stamped = false; //!< server stamps present (in-process only)
    Clock::time_point submitAt{}, flushAt{}, doneAt{};
    IntMatrix output;
};

bool
ready(const Pending &pending)
{
    const auto now = std::chrono::seconds(0);
    return pending.local.valid()
               ? pending.local.wait_for(now) == std::future_status::ready
               : pending.remote.wait_for(now) == std::future_status::ready;
}

Observed
observe(Pending &pending)
{
    Observed o;
    if (pending.local.valid()) {
        serve::Response r = pending.local.get();
        o.ok = !r.shed;
        o.stamped = o.ok;
        o.submitAt = r.submitAt;
        o.flushAt = r.flushAt;
        o.doneAt = o.ok ? r.doneAt : Clock::now();
        o.output = std::move(r.output);
        return o;
    }
    serve::RemoteResult r = pending.remote.get();
    using serve::wire::Status;
    if (r.status != Status::Ok && r.status != Status::Busy &&
        r.status != Status::TimedOut && r.status != Status::Disconnected)
        SPATIAL_FATAL("request answered ", serve::wire::statusName(r.status));
    o.ok = r.status == Status::Ok;
    o.doneAt = o.ok ? r.doneAt : Clock::now();
    o.output = std::move(r.output);
    return o;
}

/** Server counters summed over shards. */
struct Counters
{
    double groups = 0, lanes = 0, paddedLanes = 0, flushDeadline = 0;
    double passes = 0, hits = 0, misses = 0, promotions = 0, demotions = 0;
    double loadSeconds = 0, shed = 0, inFlight = 0;

    void
    add(const serve::ServerStats &s)
    {
        groups += static_cast<double>(s.groups);
        lanes += static_cast<double>(s.lanes);
        paddedLanes += static_cast<double>(s.paddedLanes);
        flushDeadline += static_cast<double>(s.flushDeadline);
        passes += static_cast<double>(s.enginePasses);
        hits += static_cast<double>(s.store.cache.hits);
        misses += static_cast<double>(s.store.cache.misses);
        promotions += static_cast<double>(s.store.promotions);
        demotions += static_cast<double>(s.store.demotions);
        loadSeconds += s.store.loadSeconds;
    }

    Counters
    since(const Counters &b) const
    {
        Counters d;
        d.groups = groups - b.groups;
        d.lanes = lanes - b.lanes;
        d.paddedLanes = paddedLanes - b.paddedLanes;
        d.flushDeadline = flushDeadline - b.flushDeadline;
        d.passes = passes - b.passes;
        d.hits = hits - b.hits;
        d.misses = misses - b.misses;
        d.promotions = promotions - b.promotions;
        d.demotions = demotions - b.demotions;
        d.loadSeconds = loadSeconds - b.loadSeconds;
        d.shed = shed - b.shed;
        d.inFlight = inFlight;
        return d;
    }
};

/** Where requests go: an in-process Server or a NetClient. */
class Front
{
  public:
    virtual ~Front() = default;
    virtual std::uint32_t registerDesign(const IntMatrix &weights,
                                         const core::CompileOptions &c) = 0;
    virtual Pending submit(std::uint32_t id, Request request) = 0;
    virtual void drain() = 0;
    virtual Counters counters() const = 0;
    /** Span name of the submit call. */
    virtual const char *submitSpan() const = 0;
};

class LocalFront final : public Front
{
  public:
    explicit LocalFront(const serve::ServeOptions &options) : server_(options)
    {}

    std::uint32_t
    registerDesign(const IntMatrix &weights,
                   const core::CompileOptions &c) override
    {
        return static_cast<std::uint32_t>(server_.registerDesign(weights, c));
    }

    Pending
    submit(std::uint32_t id, Request request) override
    {
        return {server_.submit(id, std::move(request)), {}};
    }

    void drain() override { server_.drain(); }

    Counters
    counters() const override
    {
        Counters c;
        c.add(server_.stats());
        return c;
    }

    const char *submitSpan() const override { return "server.submit"; }

  private:
    serve::Server server_;
};

class NetFront final : public Front
{
  public:
    explicit NetFront(const serve::NetServerOptions &options)
        : server_(options), client_("127.0.0.1", server_.port())
    {}

    ~NetFront() override { client_.close(); }

    std::uint32_t
    registerDesign(const IntMatrix &weights,
                   const core::CompileOptions &c) override
    {
        std::uint32_t id = 0;
        const auto status = client_.registerDesign(weights, c, &id);
        if (status != serve::wire::Status::Ok)
            SPATIAL_FATAL("register over the wire: ",
                          serve::wire::statusName(status));
        return id;
    }

    Pending
    submit(std::uint32_t id, Request request) override
    {
        return {{}, client_.submit(id, std::move(request))};
    }

    void drain() override { SPATIAL_FATAL("drain rounds run in-process"); }

    Counters
    counters() const override
    {
        Counters c;
        for (const serve::ShardStats &s : server_.stats().shards) {
            c.add(s.server);
            c.shed += static_cast<double>(s.shed);
            c.inFlight += static_cast<double>(s.inFlight);
        }
        return c;
    }

    const char *submitSpan() const override { return "net_client.submit"; }

  private:
    serve::NetServer server_;
    serve::NetClient client_;
};

std::unique_ptr<Front>
makeFront(const WorkloadSpec &spec, const std::string &spill_dir)
{
    serve::ServeOptions serve; // max_batch 256 lanes, max_delay 2 ms
    if (spec.net) {
        serve::NetServerOptions options;
        options.shards = 2;
        options.serve = serve;
        options.serve.workers = 1;
        return std::make_unique<NetFront>(options);
    }
    serve.workers = 2;
    if (spec.storeCapacity > 0) {
        serve.storeCapacity = spec.storeCapacity;
        serve.storeSpillDir = spill_dir;
    }
    return std::make_unique<LocalFront>(serve);
}

/**
 * A workload set up: the front with every design registered and the
 * warm-up traffic answered.  This is the process's first call into the
 * library, so `seconds` is a cold set-up (one setup_s sample).
 */
struct Deployment
{
    std::unique_ptr<Front> front;
    std::vector<std::uint32_t> ids;
    std::vector<std::uint64_t> warmFps; //!< per warm-up request; 0 = failed
    Clock::time_point start{}, end{};

    double seconds() const { return secondsBetween(start, end); }
};

Deployment
setUp(const WorkloadSpec &spec, const std::vector<Design> &designs,
      const std::vector<Template> &warm, const std::string &spill_dir)
{
    Deployment deployment;
    deployment.start = Clock::now();
    deployment.front = makeFront(spec, spill_dir);
    for (const Design &d : designs)
        deployment.ids.push_back(
            deployment.front->registerDesign(d.weights, d.compile));
    std::vector<Pending> pending;
    for (const Template &t : warm)
        pending.push_back(
            deployment.front->submit(deployment.ids[t.design], t.request));
    for (Pending &p : pending) {
        const Observed o = observe(p);
        deployment.warmFps.push_back(o.ok ? fingerprint(o.output) : 0);
    }
    deployment.end = Clock::now();
    return deployment;
}

// ---------------------------------------------------------------------
// The measurement window
// ---------------------------------------------------------------------

/** A sampled response awaiting its reference check. */
struct Check
{
    std::size_t tmpl = 0;
    std::uint64_t fp = 0;
};

/** One request in flight. */
struct Issued
{
    std::uint64_t id = 0;
    std::size_t tmpl = 0;
    bool sampled = false;
    Clock::time_point due{}, sent0{}, sent1{};
    Pending pending;
};

/** What a window recorded. */
struct Window
{
    Clock::time_point start{}, end{};
    double seconds = 0.0;
    std::uint64_t attempted = 0, failed = 0;
    double items = 0.0;
    /** Due time to response, per answered request. */
    std::vector<double> latencyMs;
    std::vector<double> submitUs, lagMs, waitMs, execMs, wakeMs;
    std::vector<double> dueS, doneS; //!< open loop: for the backlog
    std::vector<Check> checks;
    double inFlightMax = 0.0;

    void
    absorb(const Window &o)
    {
        attempted += o.attempted;
        failed += o.failed;
        items += o.items;
        const auto append = [](std::vector<double> &to,
                               const std::vector<double> &from) {
            to.insert(to.end(), from.begin(), from.end());
        };
        append(latencyMs, o.latencyMs);
        append(submitUs, o.submitUs);
        append(waitMs, o.waitMs);
        append(execMs, o.execMs);
        append(wakeMs, o.wakeMs);
        checks.insert(checks.end(), o.checks.begin(), o.checks.end());
    }
};

/** Everything the drive loops share. */
struct Loop
{
    const WorkloadSpec &spec;
    Front &front;
    const std::vector<std::uint32_t> &ids;
    const std::vector<Template> &pool;
    Tracer &tracer;

    /**
     * Submit `request`, a copy of pool entry `tmpl` the caller made
     * before the call, timing the submit call alone.
     */
    Issued
    issue(std::uint64_t id, std::size_t tmpl, bool sampled,
          Clock::time_point due, Request request) const
    {
        Issued item;
        item.id = id;
        item.tmpl = tmpl;
        item.sampled = sampled;
        item.due = due;
        item.sent0 = Clock::now();
        item.pending = front.submit(ids[pool[tmpl].design], std::move(request));
        item.sent1 = Clock::now();
        return item;
    }

    /**
     * Wait for `item` and book it into `w`.  A wake-up delay is only
     * booked when this thread was already blocked on the reply: a
     * reply that completed while the collector waited on an earlier
     * one says nothing about wake-up cost.
     */
    void
    collect(Window &w, Issued &item) const
    {
        const bool blocked = !ready(item.pending);
        const Observed o = observe(item.pending);
        const auto seen = Clock::now();
        ++w.attempted;
        w.submitUs.push_back(std::chrono::duration<double, std::micro>(
                                 item.sent1 - item.sent0)
                                 .count());
        if (o.ok) {
            w.latencyMs.push_back(msBetween(item.due, o.doneAt));
            if (o.doneAt <= w.end)
                w.items += itemsOf(pool[item.tmpl].request);
            if (item.sampled)
                w.checks.push_back({item.tmpl, fingerprint(o.output)});
            if (o.stamped) {
                w.waitMs.push_back(msBetween(o.submitAt, o.flushAt));
                w.execMs.push_back(msBetween(o.flushAt, o.doneAt));
            }
            if (blocked)
                w.wakeMs.push_back(msBetween(o.doneAt, seen));
        } else {
            ++w.failed;
        }
        if (spec.drive == Drive::OpenLoop) {
            w.dueS.push_back(secondsBetween(w.start, item.due));
            w.doneS.push_back(secondsBetween(w.start, o.doneAt));
        }
        if (tracer.enabled() && item.sampled) {
            const auto root =
                tracer.record("request", item.due, seen, -1, item.id);
            tracer.record(front.submitSpan(), item.sent0, item.sent1, root,
                          item.id);
            if (o.stamped) {
                tracer.record("batcher.wait", o.submitAt, o.flushAt, root,
                              item.id);
                tracer.record("server.execute", o.flushAt, o.doneAt, root,
                              item.id);
            } else {
                tracer.record("net.response", item.sent1, o.doneAt, root,
                              item.id);
            }
            if (blocked)
                tracer.record("client.wake", o.doneAt, seen, root, item.id);
        }
    }
};

Clock::duration
toDuration(double seconds)
{
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(seconds));
}

bool
sampleNext(Rng &rng)
{
    return rng.uniformInt(0, kSampleOneIn - 1) == 0;
}

/**
 * Open loop: Poisson arrivals at spec.rate, each request timed from
 * the moment it was due, so a stall counts against every request it
 * delays.  One thread sends; a collector waits on replies in order;
 * in a traced run on a net workload a sampler reads the server's
 * in-flight count every 100 ms (NetServer::stats locks every shard, so
 * the untraced run leaves it out).
 */
Window
openLoop(const Loop &loop, double seconds, std::uint64_t seed)
{
    Window w;
    w.start = Clock::now() + std::chrono::milliseconds(1);
    w.end = w.start + toDuration(seconds);
    w.seconds = seconds;

    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Issued> queue;
    bool finished = false;
    std::thread collector([&] {
        for (;;) {
            Issued item;
            {
                std::unique_lock<std::mutex> lock(mutex);
                cv.wait(lock, [&] { return !queue.empty() || finished; });
                if (queue.empty())
                    return;
                item = std::move(queue.front());
                queue.pop_front();
            }
            loop.collect(w, item);
        }
    });

    std::mutex sampler_mutex;
    std::condition_variable sampler_cv;
    bool sampler_stop = false;
    double in_flight_max = 0.0;
    std::thread sampler;
    if (loop.spec.net && loop.tracer.enabled())
        sampler = std::thread([&] {
            std::unique_lock<std::mutex> lock(sampler_mutex);
            while (!sampler_cv.wait_for(lock, std::chrono::milliseconds(100),
                                        [&] { return sampler_stop; }))
                in_flight_max = std::max(in_flight_max,
                                         loop.front.counters().inFlight);
        });

    const std::vector<double> schedule =
        poissonSchedule(loop.spec.rate, seconds, seed ^ kArrivalSalt);
    Rng sample(seed ^ kSampleSalt);
    std::vector<double> lag;
    lag.reserve(schedule.size());
    for (std::uint64_t i = 0; i < schedule.size(); ++i) {
        const Clock::time_point due = w.start + toDuration(schedule[i]);
        const std::size_t tmpl = i % loop.pool.size();
        std::this_thread::sleep_until(due);
        Issued item = loop.issue(i, tmpl, sampleNext(sample), due,
                                 loop.pool[tmpl].request);
        lag.push_back(msBetween(due, item.sent0));
        {
            std::lock_guard<std::mutex> lock(mutex);
            queue.push_back(std::move(item));
        }
        cv.notify_one();
    }
    {
        std::lock_guard<std::mutex> lock(mutex);
        finished = true;
    }
    cv.notify_one();
    collector.join();
    if (sampler.joinable()) {
        {
            std::lock_guard<std::mutex> lock(sampler_mutex);
            sampler_stop = true;
        }
        sampler_cv.notify_one();
        sampler.join();
    }
    w.lagMs = std::move(lag);
    w.inFlightMax = in_flight_max;
    return w;
}

/**
 * Closed loop: spec.clients threads, each waiting for its reply and
 * walking the pool from its own offset.
 */
Window
closedLoop(const Loop &loop, double seconds, std::uint64_t seed)
{
    Window w;
    w.start = Clock::now();
    w.end = w.start + toDuration(seconds);
    w.seconds = seconds;

    std::mutex mutex;
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < loop.spec.clients; ++c)
        clients.emplace_back([&, c] {
            Window mine;
            mine.start = w.start;
            mine.end = w.end;
            Rng sample(seed ^ kSampleSalt ^ ((c + 1) * 0x9e3779b97f4a7c15ull));
            const std::size_t offset =
                c * loop.pool.size() / loop.spec.clients;
            for (std::uint64_t i = 0; Clock::now() < w.end; ++i) {
                const std::size_t tmpl = (offset + i) % loop.pool.size();
                Issued item = loop.issue((std::uint64_t(c) << 40) | i, tmpl,
                                         sampleNext(sample), Clock::now(),
                                         loop.pool[tmpl].request);
                item.due = item.sent0; // a closed-loop client sends on time
                loop.collect(mine, item);
            }
            std::lock_guard<std::mutex> lock(mutex);
            w.absorb(mine);
        });
    for (std::thread &t : clients)
        t.join();
    return w;
}

/**
 * Drain rounds: spec.roundBlocks requests submitted back to back, then
 * Server::drain(); every request is due when its round starts.  A
 * round's requests are copied from the pool before its clock starts,
 * so the window is the summed time of whole rounds, from the first
 * submit to the last reply, and the harness's copying stays out of it.
 */
Window
drainRounds(const Loop &loop, double seconds, std::uint64_t seed)
{
    Window w;
    w.start = Clock::now();
    w.end = Clock::time_point::max(); // every completed item counts
    Rng sample(seed ^ kSampleSalt);
    std::uint64_t next = 0;
    double measured = 0.0;
    while (measured < seconds) {
        std::vector<Request> requests;
        requests.reserve(loop.spec.roundBlocks);
        for (std::size_t b = 0; b < loop.spec.roundBlocks; ++b)
            requests.push_back(loop.pool[(next + b) % loop.pool.size()].request);
        const auto round_start = Clock::now();
        std::vector<Issued> round;
        round.reserve(loop.spec.roundBlocks);
        for (std::size_t b = 0; b < loop.spec.roundBlocks; ++b, ++next)
            round.push_back(loop.issue(next, next % loop.pool.size(),
                                       sampleNext(sample), round_start,
                                       std::move(requests[b])));
        loop.front.drain();
        measured += secondsBetween(round_start, Clock::now());
        for (Issued &item : round)
            loop.collect(w, item);
    }
    w.end = Clock::now();
    w.seconds = measured;
    return w;
}

// ---------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    SPATIAL_FATAL("no VmHWM in /proc/self/status");
}

/** Run-validity figures of an open-loop window (loadgen.*). */
void
addLoadgenValidity(RunResult &r, Window &w)
{
    std::sort(w.dueS.begin(), w.dueS.end());
    std::sort(w.doneS.begin(), w.doneS.end());
    const auto outstanding = [&](double t) {
        const auto due = std::upper_bound(w.dueS.begin(), w.dueS.end(), t) -
                         w.dueS.begin();
        const auto done =
            std::upper_bound(w.doneS.begin(), w.doneS.end(), t) -
            w.doneS.begin();
        return static_cast<double>(due - done);
    };
    std::vector<double> series;
    for (double t = 0.1; t <= w.seconds + 1e-9; t += 0.1)
        series.push_back(outstanding(t));
    const double end = outstanding(w.seconds);
    const double lag_p99 = percentile(w.lagMs, 0.99);
    r.detail.push_back({"loadgen.lag_p99_ms", lag_p99, "ms"});
    r.detail.push_back({"loadgen.outstanding_end", end, "count"});
    if (lag_p99 > 1.0)
        r.notes.push_back("FLAG: generator lag p99 " +
                          std::to_string(lag_p99) + " ms is above 1 ms");
    const std::size_t quarter = series.size() / 4;
    if (quarter > 0) {
        double first = 0.0, last = 0.0;
        for (std::size_t i = 0; i < quarter; ++i) {
            first += series[i];
            last += series[series.size() - 1 - i];
        }
        first /= static_cast<double>(quarter);
        last /= static_cast<double>(quarter);
        if (last > 1.5 * first + 8.0)
            r.notes.push_back("FLAG: backlog grows (outstanding " +
                              std::to_string(first) + " -> " +
                              std::to_string(last) + " over the window)");
    }
}

void
addWindowLayers(RunResult &r, const WorkloadSpec &spec, Window &w,
                const Counters &d)
{
    const auto add = [&](const char *name, double value, const char *unit) {
        r.perLayer.push_back({name, value, unit});
    };
    const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    add(spec.net ? "net_client.submit_us_p50" : "server.submit_us_p50",
        percentile(w.submitUs, 0.5), "us");
    if (spec.net) {
        add("net_server.shed", d.shed, "count");
        add("net_server.in_flight_max", w.inFlightMax, "count");
    }
    add("server.occupancy", ratio(d.lanes, d.paddedLanes), "frac");
    add("server.lanes_per_group", ratio(d.lanes, d.groups), "lanes");
    add("server.flush_deadline_frac", ratio(d.flushDeadline, d.groups),
        "frac");
    add("server.engine_passes", d.passes, "count");
    if (!w.waitMs.empty()) {
        add("batcher.wait_ms_p50", percentile(w.waitMs, 0.5), "ms");
        add("server.exec_ms_p50", percentile(w.execMs, 0.5), "ms");
        if (percentileSupported(w.waitMs.size(), 0.99)) {
            add("batcher.wait_ms_p99", percentile(w.waitMs, 0.99), "ms");
            add("server.exec_ms_p99", percentile(w.execMs, 0.99), "ms");
        }
    }
    if (!w.wakeMs.empty())
        add("server.wake_ms_p50", percentile(w.wakeMs, 0.5), "ms");
    add("design_store.hit_ratio", ratio(d.hits, d.hits + d.misses), "frac");
    add("design_store.promotions_per_s", d.promotions / w.seconds, "1/s");
    add("design_store.demotions_per_s", d.demotions / w.seconds, "1/s");
    if (d.promotions > 0)
        add("design_store.load_ms_mean", 1e3 * d.loadSeconds / d.promotions,
            "ms");
}

/**
 * Compare the sampled window responses and every warm-up response with
 * the int64 reference; returns the number of mismatches.
 */
std::size_t
checkOutputs(const std::vector<Design> &designs,
             const std::vector<Template> &pool, const std::vector<Check> &checks,
             const std::vector<Template> &warm,
             const std::vector<std::uint64_t> &warm_fps)
{
    const auto expected = [&](const Template &t) {
        return fingerprint(designs[t.design].reference->answer(t.request));
    };
    std::map<std::size_t, std::uint64_t> want;
    std::size_t bad = 0;
    for (const Check &c : checks) {
        auto it = want.find(c.tmpl);
        if (it == want.end())
            it = want.emplace(c.tmpl, expected(pool[c.tmpl])).first;
        bad += it->second != c.fp;
    }
    for (std::size_t i = 0; i < warm.size(); ++i)
        bad += warm_fps[i] != expected(warm[i]);
    return bad;
}

/** The seeded inputs of one workload run. */
struct Inputs
{
    std::vector<Design> designs;
    std::vector<Template> pool;
    std::vector<Template> warm;

    Inputs(const WorkloadSpec &spec, std::uint64_t seed)
        : designs(makeDesigns(spec, seed)),
          pool(makeTraffic(spec, designs,
                           spec.drive == Drive::OpenLoop ? 2048 : 64, seed)),
          warm(makeWarmUp(spec, designs, seed))
    {}
};

/** A fresh spill directory when the workload tiers its store. */
std::string
freshSpillDir(const WorkloadSpec &spec, const std::string &scratch)
{
    namespace fs = std::filesystem;
    const std::string spill = (fs::path(scratch) / "spill").string();
    if (spec.storeCapacity > 0) {
        fs::remove_all(spill);
        fs::create_directories(spill);
    }
    return spill;
}

} // namespace

const std::vector<WorkloadSpec> &
workloads()
{
    using core::SignMode;
    static const std::vector<WorkloadSpec> all = [] {
        std::vector<WorkloadSpec> v;

        WorkloadSpec low;
        low.name = "net_gemv_low";
        low.why = "4k rps over loopback: groups are cut by the 2 ms deadline, "
                  "so latency is batcher policy plus per-request stage cost";
        low.drive = Drive::OpenLoop;
        low.net = true;
        // Registration order routes designs 0 and 2 to shard 0, 1 and 3
        // to shard 1.  A dim-256 sparsity-0.5 design would cost ~3.2 ms
        // per pass of up to 64 lanes, and its deadline-cut groups need a
        // pass every 2 ms: that alone saturates a 1-worker shard, so the
        // dense design is dim 128.
        low.designs = {{64, SignMode::Unsigned, 0.9, 1.0},
                       {128, SignMode::PnSplit, 0.9, 1.0},
                       {256, SignMode::Csd, 0.9, 1.0},
                       {128, SignMode::Csd, 0.5, 1.0}};
        low.kind = RequestKind::Gemv;
        low.esnStepShare = 0.25;
        low.rate = 4000.0;
        low.sloMs = 10.0;
        low.seconds = 10.0;
        low.warmGroups = {256, 128, 64};
        v.push_back(low);

        WorkloadSpec high = low;
        high.name = "net_gemv_high";
        high.why = "24k rps over one connection: wire codec, event loop, "
                   "reapers and scatter are busy; engine passes run at low "
                   "occupancy";
        high.rate = 24000.0;
        v.push_back(high);

        WorkloadSpec drain;
        drain.name = "engine_drain";
        drain.why = "full 256-lane groups of 64-row blocks put the time in "
                    "transpose, tape and decode; wire and batcher costs are "
                    "negligible";
        drain.drive = Drive::DrainRounds;
        drain.designs = {{256, SignMode::Csd, 0.9, 3.0},
                         {1024, SignMode::PnSplit, 0.9, 1.0}};
        drain.kind = RequestKind::GemvBatch;
        drain.batchRows = 64;
        drain.roundBlocks = 256;
        drain.seconds = 15.0;
        drain.warmGroups = {256};
        v.push_back(drain);

        WorkloadSpec esn;
        esn.name = "esn_sequence";
        esn.why = "closed-loop 8-step ESN trajectories on the single-lane "
                  "TapeGemv/TiledGemv path, which a wide-batch change must "
                  "not slow";
        esn.drive = Drive::ClosedLoop;
        esn.designs = {{512, SignMode::Csd, 0.9, 3.0},
                       {1024, SignMode::Csd, 0.9, 1.0}};
        esn.kind = RequestKind::EsnSequence;
        esn.steps = 8;
        esn.clients = 2;
        esn.seconds = 20.0;
        v.push_back(esn);

        WorkloadSpec churn;
        churn.name = "store_churn";
        churn.why = "16 Zipf-popular designs in a capacity-4 store: demotion "
                    "writes and promotion reads ride the request path; every "
                    "other workload is all hits";
        churn.drive = Drive::OpenLoop;
        const auto zipf = zipfWeights(16, 1.0);
        for (const double share : zipf)
            churn.designs.push_back({512, SignMode::Csd, 0.9, share});
        churn.kind = RequestKind::Gemv;
        // At 60 rps ~56% of requests miss, and a miss holds a worker for
        // ~20 ms (demotion write with fsync, load, then the pass), so
        // miss work fills about a third of the 2 workers.  At 200 rps
        // the backlog grows and ~94 requests/s complete.
        churn.rate = 60.0;
        churn.sloMs = 50.0;
        churn.seconds = 15.0;
        churn.storeCapacity = 4;
        churn.warmGroups = {64};
        v.push_back(churn);
        return v;
    }();
    return all;
}

const WorkloadSpec &
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : workloads())
        if (spec.name == name)
            return spec;
    SPATIAL_FATAL("unknown workload '", name, "' (see spatial-perf list)");
}

RunResult
runWorkload(const WorkloadSpec &spec, const RunOptions &options)
{
    namespace fs = std::filesystem;
    const double seconds =
        options.seconds > 0.0 ? options.seconds : spec.seconds;
    Tracer tracer(options.trace);
    const Inputs in(spec, options.seed);
    const std::vector<Design> &designs = in.designs;
    const std::vector<Template> &pool = in.pool;
    const std::vector<Template> &warm = in.warm;
    const std::string spill = freshSpillDir(spec, options.scratchDir);

    RunResult r;
    Deployment deployment = setUp(spec, designs, warm, spill);
    tracer.record("setup", deployment.start, deployment.end);
    std::vector<double> setups = options.otherSetups;
    setups.push_back(deployment.seconds());

    const Counters before = deployment.front->counters();
    const Loop loop{spec, *deployment.front, deployment.ids, pool, tracer};
    Window w;
    switch (spec.drive) {
      case Drive::OpenLoop:
        w = openLoop(loop, seconds, options.seed);
        break;
      case Drive::ClosedLoop:
        w = closedLoop(loop, seconds, options.seed);
        break;
      case Drive::DrainRounds:
        w = drainRounds(loop, seconds, options.seed);
        break;
    }
    const Counters delta = deployment.front->counters().since(before);
    tracer.record("window", w.start, w.end);
    deployment.front.reset(); // tear the server down before checking
    fs::remove_all(spill);

    const std::size_t bad =
        checkOutputs(designs, pool, w.checks, warm, deployment.warmFps);
    r.correct = bad == 0;
    r.notes.push_back("checked " + std::to_string(w.checks.size()) +
                      " sampled and " + std::to_string(warm.size()) +
                      " warm-up responses against the int64 reference: " +
                      std::to_string(bad) + " mismatches");

    r.attempted = w.attempted;
    r.failed = w.failed;
    std::vector<double> &latency_ms = w.latencyMs;
    const std::size_t n = latency_ms.size();
    if (n == 0)
        SPATIAL_FATAL(spec.name, ": no request was answered");
    std::sort(latency_ms.begin(), latency_ms.end());
    r.endToEnd = {
        {"setup_s", percentile(setups, 0.5), "s"},
        {"p50_ms", nearestRank(latency_ms, 0.5), "ms"},
        {"items_per_s", w.items / w.seconds, "1/s"},
    };
    r.detail.push_back({"samples", static_cast<double>(n), "count"});
    r.notes.push_back("setup_s is the median of the cold set-ups timed, "
                      "one per process: " +
                      std::to_string(setups.size()));
    if (percentileSupported(n, 0.99))
        r.detail.push_back({"p99_ms", nearestRank(latency_ms, 0.99), "ms"});
    else
        r.notes.push_back("no p99_ms: " + std::to_string(n) +
                          " samples leave fewer than ten beyond it");
    if (spec.kind == RequestKind::GemvBatch)
        r.detail.push_back({"vectors_per_s", w.items / w.seconds, "1/s"});
    if (spec.kind == RequestKind::EsnSequence)
        r.detail.push_back({"esn_steps_per_s", w.items / w.seconds, "1/s"});
    const double attempted = static_cast<double>(std::max<std::uint64_t>(
        1, w.attempted));
    if (spec.sloMs > 0.0) {
        const auto over = std::count_if(
            latency_ms.begin(), latency_ms.end(),
            [&](double ms) { return ms > spec.sloMs; });
        r.detail.push_back(
            {"slo_miss_frac",
             (static_cast<double>(over) + static_cast<double>(w.failed)) /
                 attempted,
             "frac"});
    }
    r.detail.push_back(
        {"fail_frac", static_cast<double>(w.failed) / attempted, "frac"});
    if (spec.drive == Drive::OpenLoop)
        addLoadgenValidity(r, w);

    if (options.trace) {
        addWindowLayers(r, spec, w, delta);

        // One probe design per distinct spec; the wire probe encodes the
        // first requests of the traffic pool with their answers.
        std::vector<ProbeDesign> probe_designs;
        std::vector<std::tuple<std::size_t, core::SignMode, double>> seen;
        for (const Design &d : designs) {
            const auto key =
                std::make_tuple(d.spec.dim, d.spec.sign, d.spec.sparsity);
            if (std::find(seen.begin(), seen.end(), key) != seen.end())
                continue;
            seen.push_back(key);
            probe_designs.push_back({&d.weights, d.compile, d.reference.get()});
        }
        std::vector<WireSample> wire;
        for (std::size_t i = 0; i < std::min<std::size_t>(128, pool.size());
             ++i)
            wire.push_back({static_cast<std::uint32_t>(pool[i].design),
                            &pool[i].request,
                            designs[pool[i].design].reference->answer(
                                pool[i].request)});
        fs::create_directories(options.scratchDir);
        ProbeReport probes = probeLayers(probe_designs, wire, options.seed,
                                         options.scratchDir, tracer);
        r.perLayer.insert(r.perLayer.end(), probes.metrics.begin(),
                          probes.metrics.end());
        r.correct = r.correct && probes.correct;
        r.notes.insert(r.notes.end(), probes.notes.begin(),
                       probes.notes.end());

        fs::create_directories(options.traceDir);
        const std::string path =
            (fs::path(options.traceDir) /
             (spec.name + "-seed" + std::to_string(options.seed) +
              ".trace.json"))
                .string();
        if (!tracer.writeChromeJson(path))
            SPATIAL_FATAL("cannot write the span file ", path);
        r.notes.push_back("spans written to " + path);
        r.selfTimes = selfTimes(tracer.spans());
    }

    r.endToEnd.push_back({"peak_rss_mb", peakRssMb(), "MiB"});
    return r;
}

RunResult
setUpOnce(const WorkloadSpec &spec, const RunOptions &options)
{
    const Inputs in(spec, options.seed);
    const std::string spill = freshSpillDir(spec, options.scratchDir);
    Deployment deployment = setUp(spec, in.designs, in.warm, spill);
    deployment.front.reset();
    std::filesystem::remove_all(spill);
    const std::vector<std::uint64_t> &warm_fps = deployment.warmFps;
    RunResult r;
    r.endToEnd.push_back({"setup_s", deployment.seconds(), "s"});

    const std::size_t bad =
        checkOutputs(in.designs, in.pool, {}, in.warm, warm_fps);
    r.correct = bad == 0;
    r.attempted = in.warm.size();
    r.failed = static_cast<std::uint64_t>(
        std::count(warm_fps.begin(), warm_fps.end(), std::uint64_t{0}));
    r.notes.push_back("checked " + std::to_string(in.warm.size()) +
                      " warm-up responses against the int64 reference: " +
                      std::to_string(bad) + " mismatches");
    return r;
}

} // namespace spatial::perf

