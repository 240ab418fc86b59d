// Tests of the online serving layer: batcher flush-policy boundaries,
// work-conserving idle cuts and coalescing behind a busy worker,
// bit-exactness of scattered outputs against direct engine calls,
// scheduler fairness across designs, the DesignStore LRU, the
// DesignCache atomic stats snapshot, and the --seed threading through
// the sweep engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/fault.h"
#include "core/batch_engine.h"
#include "core/compiler.h"
#include "experiments/sweep.h"
#include "matrix/bits.h"
#include "matrix/generate.h"
#include "serve/batcher.h"
#include "serve/design_store.h"
#include "serve/loadgen.h"
#include "serve/server.h"

namespace
{

using namespace spatial;
using namespace spatial::serve;

core::CompileOptions
testCompileOptions(int bits = 8)
{
    core::CompileOptions options;
    options.inputBits = bits;
    options.inputsSigned = true;
    options.signMode = core::SignMode::Csd;
    return options;
}

IntMatrix
testWeights(std::size_t dim, std::uint64_t seed, int bits = 8,
            double sparsity = 0.85)
{
    Rng rng(seed);
    return makeSignedElementSparseMatrix(dim, dim, bits, sparsity, rng);
}

PendingRequest
pendingGemv(std::size_t dim, Rng &rng,
            std::chrono::time_point<Clock> at)
{
    PendingRequest pending;
    pending.request = Request::gemv(makeSignedVector(dim, 8, rng));
    pending.submitAt = at;
    return pending;
}

/**
 * Holds the only worker of a 1-worker server: submits one plug Gemv
 * to `design` and returns once the worker has taken it and entered an
 * injected serve.worker:stall.  Requests submitted while the hold
 * lasts coalesce in their design's open group.  Only the plug stalls;
 * every later group runs at once.  The plug itself comes back as a
 * 1-lane idle-cut group.
 */
class WorkerHold
{
  public:
    static constexpr std::uint64_t kStallMs = 250;

    WorkerHold(Server &server, DesignId design, std::size_t dim)
    {
        auto &plan = fault::FaultPlan::instance();
        plan.clear();
        plan.configure(fault::Site::ServeWorkerStall,
                       fault::Rule{1.0, 1, kStallMs});
        Rng rng(5);
        plug_ = server.submit(design,
                              Request::gemv(makeSignedVector(dim, 8, rng)));
        while (plan.injected(fault::Site::ServeWorkerStall) == 0)
            std::this_thread::yield();
        plan.clear();
    }

    ~WorkerHold() { fault::FaultPlan::instance().clear(); }

    /** The plug's response (blocks until the stall has ended). */
    Response plug() { return plug_.get(); }

  private:
    std::future<Response> plug_;
};

// ---------------------------------------------------------------------
// Batcher policy boundaries (driven directly, virtual clock)
// ---------------------------------------------------------------------

TEST(Batcher, ExactFillFlushesImmediately)
{
    Batcher batcher(0, 64);
    Rng rng(1);
    const auto t0 = Clock::now();
    for (int i = 0; i < 63; ++i)
        EXPECT_TRUE(batcher.enqueue(pendingGemv(8, rng, t0), t0).empty());
    EXPECT_EQ(batcher.pendingLanes(), 63u);

    auto flushed = batcher.enqueue(pendingGemv(8, rng, t0), t0);
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].lanes, 64u);
    EXPECT_EQ(flushed[0].requests.size(), 64u);
    EXPECT_EQ(flushed[0].reason, FlushReason::Full);
    EXPECT_EQ(batcher.pendingLanes(), 0u);
    EXPECT_FALSE(batcher.oldestSubmit().has_value());
}

TEST(Batcher, OverflowShipsOpenGroupFirst)
{
    Batcher batcher(0, 64);
    Rng rng(2);
    const auto t0 = Clock::now();
    for (int i = 0; i < 60; ++i)
        batcher.enqueue(pendingGemv(8, rng, t0), t0);

    // A 10-lane block does not fit the 60/64 open group: that group
    // ships, the block starts a fresh one.
    PendingRequest block;
    block.request = Request::gemvBatch(makeSignedBatch(10, 8, 8, rng));
    block.submitAt = t0;
    auto flushed = batcher.enqueue(std::move(block), t0);
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].lanes, 60u);
    EXPECT_EQ(flushed[0].reason, FlushReason::Full);
    EXPECT_EQ(batcher.pendingLanes(), 10u);
    EXPECT_EQ(batcher.pendingRequests(), 1u);
}

TEST(Batcher, OpenGroupWaitsForItsCutWhateverItsAge)
{
    // No clock cuts a group: stale requests keep coalescing until the
    // lane budget fills or the owner cuts the group as it stands.
    Batcher batcher(0, 64);
    Rng rng(3);
    const auto now = Clock::now();
    const auto stale = now - std::chrono::seconds(10);
    for (int i = 0; i < 8; ++i) {
        const auto at = stale + std::chrono::milliseconds(i);
        EXPECT_TRUE(batcher
                        .enqueue(pendingGemv(8, rng, at),
                                 now + std::chrono::hours(1))
                        .empty());
    }
    ASSERT_TRUE(batcher.oldestSubmit().has_value());
    EXPECT_EQ(*batcher.oldestSubmit(), stale);

    auto group = batcher.flush(FlushReason::Idle, now);
    ASSERT_TRUE(group.has_value());
    EXPECT_EQ(group->reason, FlushReason::Idle);
    EXPECT_EQ(group->lanes, 8u);
    EXPECT_EQ(group->requests.size(), 8u);
    EXPECT_EQ(group->flushAt, now);
    EXPECT_EQ(batcher.pendingRequests(), 0u);
    EXPECT_FALSE(batcher.flush(FlushReason::Idle, now).has_value());
}

TEST(LatencySummary, NearestRankPercentilesOnSmallSamples)
{
    // Regression: the index used to be floor(q*N), one rank too high —
    // p50 of a 2-sample set returned the max.
    std::vector<double> two{7.0, 1.0};
    const auto s2 = summarize(two);
    EXPECT_DOUBLE_EQ(s2.p50, 1.0);
    EXPECT_DOUBLE_EQ(s2.p95, 7.0);
    EXPECT_DOUBLE_EQ(s2.p99, 7.0);
    EXPECT_DOUBLE_EQ(s2.mean, 4.0);
    EXPECT_DOUBLE_EQ(s2.max, 7.0);

    std::vector<double> one{3.5};
    const auto s1 = summarize(one);
    EXPECT_DOUBLE_EQ(s1.p50, 3.5);
    EXPECT_DOUBLE_EQ(s1.p95, 3.5);
    EXPECT_DOUBLE_EQ(s1.p99, 3.5);

    // 1..20 (submitted shuffled): nearest-rank p50 = ceil(10) -> 10,
    // p95 = ceil(19) -> 19, p99 = ceil(19.8) -> 20.
    std::vector<double> twenty;
    for (int i = 20; i >= 1; --i)
        twenty.push_back(static_cast<double>(i));
    const auto s20 = summarize(twenty);
    EXPECT_DOUBLE_EQ(s20.p50, 10.0);
    EXPECT_DOUBLE_EQ(s20.p95, 19.0);
    EXPECT_DOUBLE_EQ(s20.p99, 20.0);

    // 1..100: the ranks land exactly on 50 / 95 / 99.
    std::vector<double> hundred;
    for (int i = 100; i >= 1; --i)
        hundred.push_back(static_cast<double>(i));
    const auto s100 = summarize(hundred);
    EXPECT_DOUBLE_EQ(s100.p50, 50.0);
    EXPECT_DOUBLE_EQ(s100.p95, 95.0);
    EXPECT_DOUBLE_EQ(s100.p99, 99.0);

    std::vector<double> none;
    const auto s0 = summarize(none);
    EXPECT_DOUBLE_EQ(s0.p50, 0.0);
    EXPECT_DOUBLE_EQ(s0.max, 0.0);
}

TEST(Batcher, OversizedBatchFlushesAlone)
{
    Batcher batcher(0, 64);
    Rng rng(4);
    PendingRequest block;
    block.request = Request::gemvBatch(makeSignedBatch(100, 8, 8, rng));
    block.submitAt = Clock::now();
    auto flushed = batcher.enqueue(std::move(block), block.submitAt);
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].lanes, 100u);
    EXPECT_EQ(flushed[0].requests.size(), 1u);
}

// ---------------------------------------------------------------------
// Server: bit-exactness of scattered outputs vs direct engine calls
// ---------------------------------------------------------------------

TEST(Server, ScatteredOutputsBitExactWithDirectEngine)
{
    const std::size_t dim = 32;
    const auto weights = testWeights(dim, 11);
    const auto compile = testCompileOptions();

    ServeOptions options;
    options.maxBatch = 64;
    options.workers = 2;
    Server server(options);
    const DesignId id = server.registerDesign(weights, compile);

    // Direct reference on the identical vectors.
    const std::size_t singles = 37;
    IntMatrix all(singles + 8, dim);
    Rng fill(12);
    for (std::size_t b = 0; b < all.rows(); ++b) {
        const auto v = makeSignedVector(dim, 8, fill);
        for (std::size_t r = 0; r < dim; ++r)
            all.at(b, r) = v[r];
    }
    const IntMatrix expected =
        server.design(id)->multiplyBatchWide(all);

    // Submit the same rows as 37 singles plus one 8-row block.
    std::vector<std::future<Response>> futures;
    for (std::size_t b = 0; b < singles; ++b) {
        std::vector<std::int64_t> x(dim);
        for (std::size_t r = 0; r < dim; ++r)
            x[r] = all.at(b, r);
        futures.push_back(server.submit(id, Request::gemv(std::move(x))));
    }
    IntMatrix block(8, dim);
    for (std::size_t b = 0; b < 8; ++b)
        for (std::size_t r = 0; r < dim; ++r)
            block.at(b, r) = all.at(singles + b, r);
    auto blockFuture =
        server.submit(id, Request::gemvBatch(std::move(block)));
    server.drain();

    for (std::size_t b = 0; b < singles; ++b) {
        const auto resp = futures[b].get();
        ASSERT_EQ(resp.output.rows(), 1u);
        for (std::size_t c = 0; c < dim; ++c)
            EXPECT_EQ(resp.output.at(0, c), expected.at(b, c))
                << "request " << b << " col " << c;
    }
    const auto blockResp = blockFuture.get();
    ASSERT_EQ(blockResp.output.rows(), 8u);
    for (std::size_t b = 0; b < 8; ++b)
        for (std::size_t c = 0; c < dim; ++c)
            EXPECT_EQ(blockResp.output.at(b, c),
                      expected.at(singles + b, c));
}

TEST(Server, ExactSixtyFourLaneFillFlushesFullWithoutPadding)
{
    const std::size_t dim = 16;
    ServeOptions options;
    options.maxBatch = 64;
    options.workers = 1;
    Server server(options);
    const DesignId id =
        server.registerDesign(testWeights(dim, 21), testCompileOptions());

    WorkerHold hold(server, id, dim);
    Rng rng(22);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(server.submit(
            id, Request::gemv(makeSignedVector(dim, 8, rng))));
    for (auto &future : futures) {
        const auto resp = future.get();
        EXPECT_EQ(resp.flushReason, FlushReason::Full);
        EXPECT_EQ(resp.groupLanes, 64u);
    }
    EXPECT_EQ(hold.plug().groupLanes, 1u);
    const auto stats = server.stats();
    EXPECT_EQ(stats.groups, 2u);
    EXPECT_EQ(stats.lanes, 65u);
    // The plug pads 1 -> 64; the exact fill adds no padding.
    EXPECT_EQ(stats.paddedLanes, 128u);
    EXPECT_EQ(stats.flushFull, 1u);
    EXPECT_EQ(stats.flushDeadline, 1u); // the plug
}

TEST(Server, IdleServerCutsLoneRequestAtOnce)
{
    const std::size_t dim = 16;
    ServeOptions options;
    options.maxBatch = 64;
    options.workers = 1;
    Server server(options);
    const DesignId id =
        server.registerDesign(testWeights(dim, 31), testCompileOptions());

    Rng rng(32);
    const auto x = makeSignedVector(dim, 8, rng);
    // No drain: only an idle worker can cut this request's group.
    const auto resp = server.submit(id, Request::gemv(x)).get();
    EXPECT_EQ(resp.flushReason, FlushReason::Idle);
    EXPECT_EQ(resp.groupLanes, 1u);
    EXPECT_EQ(resp.vector(), core::TiledGemv(*server.design(id)).multiply(x));
    const auto stats = server.stats();
    EXPECT_EQ(stats.flushDeadline, 1u);
    EXPECT_EQ(stats.lanes, 1u);
    EXPECT_EQ(stats.paddedLanes, 64u); // padded up to the lane boundary
}

TEST(Server, BusyWorkerCoalescesQueuedRequestsIntoOneGroup)
{
    const std::size_t dim = 16;
    const std::size_t n = 24;
    ServeOptions options;
    options.maxBatch = 64;
    options.workers = 1;
    Server server(options);
    const DesignId id =
        server.registerDesign(testWeights(dim, 33), testCompileOptions());

    WorkerHold hold(server, id, dim);
    Rng rng(34);
    IntMatrix direct(n, dim);
    std::vector<std::future<Response>> futures;
    for (std::size_t b = 0; b < n; ++b) {
        const auto x = makeSignedVector(dim, 8, rng);
        for (std::size_t r = 0; r < dim; ++r)
            direct.at(b, r) = x[r];
        futures.push_back(server.submit(id, Request::gemv(x)));
    }

    // The worker comes back from the plug and cuts everything that
    // queued behind it as one group.
    const IntMatrix expected =
        server.design(id)->multiplyBatchWide(direct);
    for (std::size_t b = 0; b < n; ++b) {
        const auto resp = futures[b].get();
        EXPECT_EQ(resp.flushReason, FlushReason::Idle);
        EXPECT_EQ(resp.groupLanes, n);
        for (std::size_t c = 0; c < dim; ++c)
            EXPECT_EQ(resp.output.at(0, c), expected.at(b, c));
    }
    EXPECT_EQ(hold.plug().groupLanes, 1u);
    const auto stats = server.stats();
    EXPECT_EQ(stats.groups, 2u);
    EXPECT_EQ(stats.lanes, n + 1);
    EXPECT_EQ(stats.flushDeadline, 2u);
}

TEST(Server, WatchdogShedsOpenGroupBehindStalledWorker)
{
    // With every worker stalled nothing cuts the open group, so the
    // queue-age watchdog must age it out directly.
    const std::size_t dim = 16;
    ServeOptions options;
    options.workers = 1;
    options.maxQueueAge = std::chrono::milliseconds(20);
    Server server(options);
    const DesignId id =
        server.registerDesign(testWeights(dim, 35), testCompileOptions());

    WorkerHold hold(server, id, dim);
    Rng rng(36);
    std::vector<std::future<Response>> futures;
    for (int i = 0; i < 5; ++i)
        futures.push_back(server.submit(
            id, Request::gemv(makeSignedVector(dim, 8, rng))));
    for (auto &future : futures)
        EXPECT_TRUE(future.get().shed);
    EXPECT_FALSE(hold.plug().shed);
    EXPECT_EQ(server.stats().watchdogShed, 5u);
}

TEST(Server, PartialGroupPadsToLaneBoundaryBitExactly)
{
    const std::size_t dim = 24;
    const auto weights = testWeights(dim, 41);
    ServeOptions options;
    options.maxBatch = 256;
    options.workers = 1;
    Server server(options);
    const DesignId id =
        server.registerDesign(weights, testCompileOptions());

    WorkerHold hold(server, id, dim);
    Rng rng(42);
    IntMatrix direct(3, dim);
    std::vector<std::future<Response>> futures;
    for (std::size_t b = 0; b < 3; ++b) {
        const auto x = makeSignedVector(dim, 8, rng);
        for (std::size_t r = 0; r < dim; ++r)
            direct.at(b, r) = x[r];
        futures.push_back(server.submit(id, Request::gemv(x)));
    }
    server.drain(); // cuts the open group while the worker is held

    const IntMatrix expected =
        server.design(id)->multiplyBatchWide(direct);
    for (std::size_t b = 0; b < 3; ++b) {
        const auto resp = futures[b].get();
        EXPECT_EQ(resp.flushReason, FlushReason::Drain);
        EXPECT_EQ(resp.groupLanes, 3u);
        for (std::size_t c = 0; c < dim; ++c)
            EXPECT_EQ(resp.output.at(0, c), expected.at(b, c));
    }
    const auto stats = server.stats();
    EXPECT_EQ(stats.lanes, 4u);          // 3 + the plug
    EXPECT_EQ(stats.paddedLanes, 128u); // each group pads to 64
    EXPECT_EQ(stats.flushDrain, 1u);
}

TEST(Server, TiledDesignServesBitExactly)
{
    // A tiny tile budget forces the registered design to compile as
    // several column strips; every request kind must still come back
    // bit-identical to the untiled reference compile.
    const std::size_t dim = 48;
    const auto weights = testWeights(dim, 45, 8, 0.5);
    const auto compile = testCompileOptions();

    ServeOptions options;
    options.maxBatch = 64;
    options.workers = 2;
    options.tile.onesBudget = 200; // far below the design's ones-cost
    Server server(options);
    const DesignId id = server.registerDesign(weights, compile);
    const auto design = server.design(id);
    ASSERT_TRUE(design->tiled());
    ASSERT_GT(design->tileCount(), 2u);

    const auto untiled = core::TiledDesign::compile(weights, compile);
    ASSERT_FALSE(untiled.tiled());

    Rng rng(46);
    IntMatrix all(20, dim);
    std::vector<std::future<Response>> futures;
    for (std::size_t b = 0; b < all.rows(); ++b) {
        const auto x = makeSignedVector(dim, 8, rng);
        for (std::size_t r = 0; r < dim; ++r)
            all.at(b, r) = x[r];
        futures.push_back(server.submit(id, Request::gemv(x)));
    }
    auto esn = server.submit(
        id, Request::esnStep(makeSignedVector(dim, 8, rng),
                             makeSignedVector(dim, 8, rng), 2, 8));
    server.drain();

    const IntMatrix expected = untiled.multiplyBatchWide(all);
    for (std::size_t b = 0; b < all.rows(); ++b) {
        const auto resp = futures[b].get();
        for (std::size_t c = 0; c < dim; ++c)
            ASSERT_EQ(resp.output.at(0, c), expected.at(b, c))
                << "request " << b << " col " << c;
    }
    esn.get(); // fulfilled; value checked by EsnStepMatchesManualUpdate
}

// ---------------------------------------------------------------------
// ESN request kinds
// ---------------------------------------------------------------------

TEST(Server, EsnStepMatchesManualUpdate)
{
    const std::size_t dim = 24;
    const auto weights = testWeights(dim, 51);
    ServeOptions options;
    options.workers = 1;
    Server server(options);
    const DesignId id =
        server.registerDesign(weights, testCompileOptions());

    Rng rng(52);
    const auto state = makeSignedVector(dim, 8, rng);
    const auto inject = makeSignedVector(dim, 8, rng);
    const int postShift = 2;
    const int stateBits = 8;

    auto future = server.submit(
        id, Request::esnStep(state, inject, postShift, stateBits));
    server.drain();
    const auto resp = future.get();

    const auto design = server.design(id);
    core::TiledGemv gemv(*design);
    const auto product = gemv.multiply(state);
    const std::int64_t lo = minSigned(stateBits);
    const std::int64_t hi = maxSigned(stateBits);
    ASSERT_EQ(resp.output.rows(), 1u);
    for (std::size_t c = 0; c < dim; ++c) {
        const std::int64_t want = std::clamp(
            (product[c] + inject[c]) >> postShift, lo, hi);
        EXPECT_EQ(resp.output.at(0, c), want) << "col " << c;
    }
}

TEST(Server, EsnSequenceMatchesSequentialReference)
{
    const std::size_t dim = 24;
    const auto weights = testWeights(dim, 61);
    ServeOptions options;
    options.workers = 2;
    Server server(options);
    const DesignId id =
        server.registerDesign(weights, testCompileOptions());

    Rng rng(62);
    const std::size_t steps = 5;
    const auto state0 = makeSignedVector(dim, 8, rng);
    const IntMatrix injectSeq = makeSignedBatch(steps, dim, 8, rng);
    const int postShift = 3;
    const int stateBits = 8;

    auto future = server.submit(
        id,
        Request::esnSequence(state0, injectSeq, postShift, stateBits));
    const auto resp = future.get();
    ASSERT_EQ(resp.output.rows(), steps);
    EXPECT_EQ(resp.flushReason, FlushReason::Direct);

    // Reference: the same recurrence on a persistent tape executor.
    const auto design = server.design(id);
    core::TiledGemv gemv(*design);
    auto state = state0;
    const std::int64_t lo = minSigned(stateBits);
    const std::int64_t hi = maxSigned(stateBits);
    for (std::size_t t = 0; t < steps; ++t) {
        const auto product = gemv.multiply(state);
        for (std::size_t c = 0; c < dim; ++c) {
            state[c] = std::clamp(
                (product[c] + injectSeq.at(t, c)) >> postShift, lo, hi);
            EXPECT_EQ(resp.output.at(t, c), state[c])
                << "step " << t << " col " << c;
        }
    }
}

// ---------------------------------------------------------------------
// Scheduler fairness across designs
// ---------------------------------------------------------------------

TEST(Server, RoundRobinKeepsColdDesignAheadOfHotBacklog)
{
    const std::size_t dim = 96;
    ServeOptions options;
    options.maxBatch = 256;
    options.workers = 1; // serialize execution so ordering is observable
    Server server(options);
    const DesignId hot =
        server.registerDesign(testWeights(dim, 71), testCompileOptions());
    const DesignId cold =
        server.registerDesign(testWeights(dim, 72), testCompileOptions());

    // Six full groups for the hot design (each flushes instantly),
    // then a single full group for the cold one.
    Rng rng(73);
    std::vector<std::future<Response>> hotFutures;
    for (int g = 0; g < 6; ++g)
        hotFutures.push_back(server.submit(
            hot,
            Request::gemvBatch(makeSignedBatch(256, dim, 8, rng))));
    auto coldFuture = server.submit(
        cold, Request::gemvBatch(makeSignedBatch(256, dim, 8, rng)));
    server.drain();

    const auto coldDone = coldFuture.get().doneAt;
    std::chrono::time_point<Clock> lastHot{};
    for (auto &future : hotFutures)
        lastHot = std::max(lastHot, future.get().doneAt);
    // Round-robin must schedule the cold group before the hot
    // backlog finishes; FIFO across one queue would run it last.
    EXPECT_LT(coldDone, lastHot);
}

TEST(Server, RoundRobinCutsLoneColdRequestAheadOfHotBacklog)
{
    // A lone request never fills its group, so only a worker's idle cut
    // moves it.  That cut must take its round-robin turn even while the
    // hot design keeps full groups ready.
    const std::size_t dim = 96;
    ServeOptions options;
    options.maxBatch = 256;
    options.workers = 1;
    Server server(options);
    const DesignId hot =
        server.registerDesign(testWeights(dim, 74), testCompileOptions());
    const DesignId cold =
        server.registerDesign(testWeights(dim, 75), testCompileOptions());

    WorkerHold hold(server, hot, dim);
    Rng rng(76);
    std::vector<std::future<Response>> hotFutures;
    for (int g = 0; g < 6; ++g)
        hotFutures.push_back(server.submit(
            hot,
            Request::gemvBatch(makeSignedBatch(256, dim, 8, rng))));
    auto coldFuture =
        server.submit(cold, Request::gemv(makeSignedVector(dim, 8, rng)));

    // No drain: a drain would cut the cold group and hide the idle cut.
    const auto cold_resp = coldFuture.get();
    EXPECT_EQ(cold_resp.flushReason, FlushReason::Idle);
    EXPECT_EQ(cold_resp.groupLanes, 1u);
    std::chrono::time_point<Clock> lastHot{};
    for (auto &future : hotFutures)
        lastHot = std::max(lastHot, future.get().doneAt);
    EXPECT_LT(cold_resp.doneAt, lastHot);
    hold.plug();
}

// ---------------------------------------------------------------------
// DesignStore: LRU + in-flight dedup + shared stats struct
// ---------------------------------------------------------------------

TEST(DesignStore, HitsAndLruEviction)
{
    DesignStore store(2);
    const auto compile = testCompileOptions();
    const auto a = testWeights(12, 81);
    const auto b = testWeights(12, 82);
    const auto c = testWeights(12, 83);

    const auto first = store.get(a, compile);
    EXPECT_EQ(store.get(a, compile).get(), first.get()); // hit
    store.get(b, compile);
    // a was touched more recently than b? No: order is a, a(hit), b —
    // LRU order is now [b, a]; c evicts a.
    store.get(c, compile);
    auto stats = store.stats();
    EXPECT_EQ(stats.cache.hits, 1u);
    EXPECT_EQ(stats.cache.misses, 3u);
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.resident, 2u);

    // The evicted design recompiles on next request.
    store.get(a, compile);
    stats = store.stats();
    EXPECT_EQ(stats.cache.misses, 4u);
}

TEST(DesignStore, LruTouchOnHitProtectsHotEntry)
{
    DesignStore store(2);
    const auto compile = testCompileOptions();
    const auto a = testWeights(12, 84);
    const auto b = testWeights(12, 85);
    const auto c = testWeights(12, 86);

    store.get(a, compile);
    store.get(b, compile);
    store.get(a, compile); // touch: LRU order [a, b]
    store.get(c, compile); // evicts b, not a
    const auto stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    store.get(a, compile); // still resident
    EXPECT_EQ(store.stats().cache.misses, 3u);
    EXPECT_EQ(store.stats().cache.hits, 2u);
}

TEST(DesignStore, ConcurrentRequestsCompileOnce)
{
    DesignStore store(8);
    const auto compile = testCompileOptions();
    const auto weights = testWeights(16, 91);

    std::vector<std::shared_ptr<const core::TiledDesign>> results(8);
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&, t] {
            results[t] = store.get(weights, compile);
        });
    for (auto &thread : threads)
        thread.join();

    const auto stats = store.stats();
    EXPECT_EQ(stats.cache.misses, 1u);
    EXPECT_EQ(stats.cache.hits, 7u);
    for (int t = 1; t < 8; ++t)
        EXPECT_EQ(results[t].get(), results[0].get());
}

// ---------------------------------------------------------------------
// DesignCache: atomic counters under concurrent readers
// ---------------------------------------------------------------------

TEST(DesignCache, StatsSnapshotConsistentUnderConcurrency)
{
    experiments::DesignCache cache;
    const auto compile = testCompileOptions();
    const auto weights = testWeights(12, 95);

    std::atomic<bool> stop{false};
    std::atomic<std::size_t> snapshots{0};
    std::thread reader([&] {
        while (!stop.load()) {
            const auto stats = cache.stats();
            // Counters only grow; hits+misses never exceeds issued gets.
            EXPECT_LE(stats.hits + stats.misses, 64u);
            snapshots.fetch_add(1);
        }
    });
    std::vector<std::thread> getters;
    for (int t = 0; t < 4; ++t)
        getters.emplace_back([&] {
            for (int i = 0; i < 16; ++i)
                cache.get(weights, compile);
        });
    for (auto &thread : getters)
        thread.join();
    stop.store(true);
    reader.join();

    const auto stats = cache.stats();
    EXPECT_EQ(stats.hits + stats.misses, 64u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_GT(snapshots.load(), 0u);
}

// ---------------------------------------------------------------------
// Server registration and the serving key scheme
// ---------------------------------------------------------------------

TEST(Server, ReregisteringIdenticalDesignReturnsSameId)
{
    Server server(ServeOptions{});
    const auto weights = testWeights(12, 96);
    const auto compile = testCompileOptions();
    const DesignId a = server.registerDesign(weights, compile);
    const DesignId b = server.registerDesign(weights, compile);
    EXPECT_EQ(a, b);
    EXPECT_EQ(server.designCount(), 1u);

    // Different options = different design.
    auto other = compile;
    other.signMode = core::SignMode::PnSplit;
    const DesignId c = server.registerDesign(weights, other);
    EXPECT_NE(a, c);
    EXPECT_EQ(server.designCount(), 2u);
}

// ---------------------------------------------------------------------
// --seed threading through the sweep engine
// ---------------------------------------------------------------------

TEST(SweepSeed, OverrideVariesPrepareStreamReproducibly)
{
    experiments::Experiment exp;
    exp.name = "seed_probe";
    exp.title = "seed probe";
    exp.columns = {"draw", "ctx_seed"};
    exp.grid = experiments::Grid::single({});
    exp.prepareSeed = 7;
    exp.prepare = [](const experiments::ParamPoint &,
                     experiments::PrepareContext &ctx) {
        return std::make_shared<const std::uint64_t>(ctx.rng.next());
    };
    exp.evaluate = [](const experiments::ParamPoint &, const void *input,
                      experiments::EvalContext &ctx) {
        const auto draw = *static_cast<const std::uint64_t *>(input);
        return std::vector<experiments::Row>{
            {experiments::cell(static_cast<std::int64_t>(draw >> 1)),
             experiments::cell(static_cast<std::int64_t>(ctx.seed))}};
    };

    const auto run = [&](std::uint64_t seed) {
        experiments::SweepOptions options;
        options.threads = 1;
        options.seed = seed;
        experiments::SweepEngine engine(options);
        const auto result = engine.run(exp);
        return std::pair{experiments::asInt(result.rows[0][0].value),
                         experiments::asInt(result.rows[0][1].value)};
    };

    const auto base1 = run(0);
    const auto base2 = run(0);
    EXPECT_EQ(base1.first, base2.first); // default stream is stable
    EXPECT_EQ(base1.second, 0);

    const auto seeded1 = run(123);
    const auto seeded2 = run(123);
    EXPECT_EQ(seeded1.first, seeded2.first); // seeded runs repeat
    EXPECT_EQ(seeded1.second, 123);          // and see the seed
    EXPECT_NE(seeded1.first, base1.first);   // but draw a new stream

    const auto other = run(124);
    EXPECT_NE(other.first, seeded1.first);
}

// ---------------------------------------------------------------------
// Load generator: drain mode is bit-exact and reproducible per seed
// ---------------------------------------------------------------------

TEST(LoadGen, DrainModeBitExactAgainstNaivePath)
{
    LoadGenOptions options;
    options.mode = LoadGenOptions::Mode::Drain;
    options.requests = 96;
    options.designs = 2;
    options.dim = 24;
    options.batchFraction = 0.2;
    options.batchSize = 4;
    options.esnFraction = 0.2;
    options.compareNaive = true;
    options.serve.maxBatch = 64;
    options.serve.workers = 2;

    const auto result = runLoadGen(options);
    EXPECT_EQ(result.completed, 96u);
    EXPECT_TRUE(result.bitExact);
    EXPECT_GT(result.throughput, 0.0);
    EXPECT_GT(result.naiveThroughput, 0.0);
    EXPECT_EQ(result.stats.store.cache.misses, 2u);
}

} // namespace
