// Loopback integration tests of the TCP serving front end: remote
// results bit-identical to an in-process Server on the same designs,
// BUSY shedding under a flooded admission queue (every future still
// resolves — no stall, no deadlock), slow readers forcing buffered
// partial writes, abrupt mid-request disconnects leaving the server
// serving other clients, graceful drain completing in-flight work, and
// chaos framing (garbage bytes answered with BadFrame, not a crash).
//
// Every server binds port 0 (ephemeral, SO_REUSEADDR) so any number of
// these tests can run concurrently under ctest -j.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <limits>
#include <thread>

#include "common/fault.h"
#include "common/rng.h"
#include "matrix/generate.h"
#include "serve/net_client.h"
#include "serve/net_server.h"

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
testWeights(std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    return makeSignedElementSparseMatrix(dim, dim, 8, 0.85, rng);
}

NetServerOptions
quickServer(std::size_t shards = 1)
{
    NetServerOptions net;
    net.port = 0; // ephemeral: parallel-safe under ctest -j
    net.shards = shards;
    net.serve.maxBatch = 64;
    net.serve.workers = 2;
    return net;
}

/** Installs fault rules for a scope; clears the plan on exit. */
struct FaultGuard
{
    explicit FaultGuard(
        std::initializer_list<std::pair<fault::Site, fault::Rule>>
            rules)
    {
        auto &plan = fault::FaultPlan::instance();
        plan.clear();
        for (const auto &[site, rule] : rules)
            plan.configure(site, rule);
    }

    ~FaultGuard() { fault::FaultPlan::instance().clear(); }
};

/** A raw blocking TCP connection for byte-level chaos tests. */
class RawConn
{
  public:
    explicit RawConn(std::uint16_t port)
    {
        fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        EXPECT_GE(fd_, 0);
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(port);
        ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
        EXPECT_EQ(::connect(fd_, reinterpret_cast<sockaddr *>(&addr),
                            sizeof(addr)),
                  0);
    }

    ~RawConn()
    {
        if (fd_ >= 0)
            ::close(fd_);
    }

    void
    sendAll(const std::uint8_t *data, std::size_t size)
    {
        std::size_t sent = 0;
        while (sent < size) {
            const ssize_t n = ::send(fd_, data + sent, size - sent,
                                     MSG_NOSIGNAL);
            if (n < 0 && errno == EINTR)
                continue;
            ASSERT_GT(n, 0);
            sent += static_cast<std::size_t>(n);
        }
    }

    void
    sendAll(const std::vector<std::uint8_t> &bytes)
    {
        sendAll(bytes.data(), bytes.size());
    }

    /** Read until `want` bytes arrive or the peer closes. */
    std::vector<std::uint8_t>
    recvUpTo(std::size_t want)
    {
        std::vector<std::uint8_t> got;
        std::uint8_t chunk[64 * 1024];
        while (got.size() < want) {
            const ssize_t n = ::read(
                fd_, chunk,
                std::min(sizeof(chunk), want - got.size()));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                break;
            got.insert(got.end(), chunk, chunk + n);
        }
        return got;
    }

    /** Read exactly one response frame off the stream. */
    bool
    recvResponse(wire::ResponseFrame *out)
    {
        std::vector<std::uint8_t> buffer;
        std::uint8_t chunk[64 * 1024];
        for (;;) {
            std::size_t off = 0, size = 0, total = 0;
            const wire::FrameResult r = wire::peekFrame(
                buffer.data(), buffer.size(), &off, &size, &total);
            if (r == wire::FrameResult::Ok)
                return wire::decodeResponse(buffer.data() + off, size,
                                            out) == wire::Status::Ok;
            if (r == wire::FrameResult::Malformed)
                return false;
            const ssize_t n = ::read(fd_, chunk, sizeof(chunk));
            if (n < 0 && errno == EINTR)
                continue;
            if (n <= 0)
                return false;
            buffer.insert(buffer.end(), chunk, chunk + n);
        }
    }

    /** Half-close the send side (the NetClient::close() handshake). */
    void
    shutdownWrite()
    {
        ::shutdown(fd_, SHUT_WR);
    }

    /** Abrupt close (no half-close handshake). */
    void
    drop()
    {
        ::close(fd_);
        fd_ = -1;
    }

    int fd() const { return fd_; }

  private:
    int fd_ = -1;
};

// ---------------------------------------------------------------------
// Lifecycle and control plane
// ---------------------------------------------------------------------

TEST(NetServe, BindsEphemeralPortAndAnswersPing)
{
    NetServer server(quickServer());
    EXPECT_NE(server.port(), 0);

    NetClient client("127.0.0.1", server.port());
    ASSERT_TRUE(client.connected());
    EXPECT_EQ(client.ping(), wire::Status::Ok);

    IntMatrix stats;
    ASSERT_EQ(client.fetchStats(&stats), wire::Status::Ok);
    EXPECT_EQ(stats.rows(), 1u);
    EXPECT_EQ(stats.cols(), wire::kShardStatsCols);
}

TEST(NetServe, RegisterAssignsShardsAndDedupes)
{
    NetServer server(quickServer(3));
    NetClient client("127.0.0.1", server.port());

    std::uint32_t first = 0, shard0 = 0;
    ASSERT_EQ(client.registerDesign(testWeights(24, 1),
                                    testCompileOptions(), &first,
                                    &shard0),
              wire::Status::Ok);
    std::uint32_t second = 0, shard1 = 0;
    ASSERT_EQ(client.registerDesign(testWeights(24, 2),
                                    testCompileOptions(), &second,
                                    &shard1),
              wire::Status::Ok);
    EXPECT_NE(first, second);
    EXPECT_EQ(shard0, first % 3);
    EXPECT_EQ(shard1, second % 3);

    // Identical weights + options: same id, no recompile.
    std::uint32_t again = 0;
    ASSERT_EQ(client.registerDesign(testWeights(24, 1),
                                    testCompileOptions(), &again),
              wire::Status::Ok);
    EXPECT_EQ(again, first);

    const NetServerStats stats = server.stats();
    EXPECT_EQ(stats.registered, 2u);
}

TEST(NetServe, UnknownDesignAndBadShapesAreStatusesNotCrashes)
{
    NetServer server(quickServer());
    NetClient client("127.0.0.1", server.port());

    Rng rng(3);
    auto r = client.submit(
        99, Request::gemv(makeSignedVector(8, 8, rng)));
    EXPECT_EQ(r.get().status, wire::Status::UnknownDesign);

    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(16, 4),
                                    testCompileOptions(), &id),
              wire::Status::Ok);
    // Wrong vector length: BadRequest over the wire, where the
    // in-process API would SPATIAL_FATAL.
    auto bad = client.submit(
        id, Request::gemv(makeSignedVector(17, 8, rng)));
    EXPECT_EQ(bad.get().status, wire::Status::BadRequest);
    // The connection survives an invalid request.
    auto good = client.submit(
        id, Request::gemv(makeSignedVector(16, 8, rng)));
    EXPECT_EQ(good.get().status, wire::Status::Ok);
}

TEST(NetServe, HostileRegistrationsRejectedServerSurvives)
{
    NetServer server(quickServer());
    NetClient client("127.0.0.1", server.port());
    Rng rng(24);

    // Registrar-level rejections: frames that decode cleanly but whose
    // compile would SPATIAL_FATAL locally.  Each must come back
    // BadRequest with the process intact.
    {
        // Output width past the 62-bit capture bound.
        core::CompileOptions opt = testCompileOptions();
        opt.extraOutputBits = 50;
        std::uint32_t id = 0;
        EXPECT_EQ(client.registerDesign(testWeights(16, 25), opt, &id),
                  wire::Status::BadRequest);
    }
    {
        // INT64_MIN weight: no int64 negation exists for the splits.
        IntMatrix evil(4, 4);
        evil.at(1, 2) = std::numeric_limits<std::int64_t>::min();
        std::uint32_t id = 0;
        EXPECT_EQ(client.registerDesign(evil, testCompileOptions(),
                                        &id),
                  wire::Status::BadRequest);
    }
    {
        // Decode-level rejection: inputBits the engine cannot encode.
        core::CompileOptions opt = testCompileOptions();
        opt.inputBits = 40;
        std::uint32_t id = 0;
        EXPECT_EQ(client.registerDesign(testWeights(8, 26), opt, &id),
                  wire::Status::BadRequest);
    }

    // The failed registrations' table slots never become routable.
    auto orphan = client.submit(
        0, Request::gemv(makeSignedVector(16, 8, rng)));
    EXPECT_EQ(orphan.get().status, wire::Status::UnknownDesign);

    // And the server still compiles and serves honest designs.
    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(16, 27),
                                    testCompileOptions(), &id),
              wire::Status::Ok);
    auto good = client.submit(
        id, Request::gemv(makeSignedVector(16, 8, rng)));
    EXPECT_EQ(good.get().status, wire::Status::Ok);
}

TEST(NetServe, RegisterDimBudgetAnswersBadRequest)
{
    NetServerOptions net = quickServer();
    net.maxRegisterDim = 24;
    NetServer server(net);
    NetClient client("127.0.0.1", server.port());

    // Exactly at the bound: accepted and served.
    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(24, 30),
                                    testCompileOptions(), &id),
              wire::Status::Ok);
    Rng rng(31);
    auto ok = client.submit(
        id, Request::gemv(makeSignedVector(24, 8, rng)));
    EXPECT_EQ(ok.get().status, wire::Status::Ok);

    // One past the bound: a clean BadRequest before the registrar
    // ever sees it, with the connection intact afterwards.
    EXPECT_EQ(client.registerDesign(testWeights(25, 32),
                                    testCompileOptions(), &id),
              wire::Status::BadRequest);
    EXPECT_EQ(client.ping(), wire::Status::Ok);
}

// ---------------------------------------------------------------------
// Bit-exactness against the in-process Server
// ---------------------------------------------------------------------

TEST(NetServe, RemoteMatchesInProcessBitForBit)
{
    const std::size_t dim = 48;
    const IntMatrix weights = testWeights(dim, 7);
    const core::CompileOptions compile = testCompileOptions();

    NetServerOptions net = quickServer(2);
    NetServer remote(net);
    NetClient client("127.0.0.1", remote.port());
    std::uint32_t remoteId = 0;
    ASSERT_EQ(client.registerDesign(weights, compile, &remoteId),
              wire::Status::Ok);

    Server local(net.serve);
    const DesignId localId = local.registerDesign(weights, compile);

    Rng rng(8);
    std::vector<Request> requests;
    requests.push_back(
        Request::gemv(makeSignedVector(dim, 8, rng)));
    requests.push_back(
        Request::gemvBatch(makeSignedBatch(65, dim, 8, rng)));
    requests.push_back(Request::esnStep(
        makeSignedVector(dim, 8, rng), makeSignedVector(dim, 8, rng),
        2, 8));
    requests.push_back(Request::esnSequence(
        makeSignedVector(dim, 8, rng), makeSignedBatch(9, dim, 8, rng),
        2, 8));

    for (const Request &request : requests) {
        RemoteResult over_wire =
            client.submit(remoteId, Request(request)).get();
        ASSERT_EQ(over_wire.status, wire::Status::Ok);
        Response in_process =
            local.submit(localId, Request(request)).get();
        EXPECT_TRUE(over_wire.output == in_process.output);
    }
}

// ---------------------------------------------------------------------
// Backpressure
// ---------------------------------------------------------------------

TEST(NetServe, FloodedQueueShedsBusyWithoutStalling)
{
    NetServerOptions net = quickServer();
    net.maxQueue = 1;
    NetServer server(net);
    NetClient client("127.0.0.1", server.port());

    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(32, 9),
                                    testCompileOptions(), &id),
              wire::Status::Ok);

    // The one admitted request stalls its worker for 50ms, so the rest
    // of the burst must shed.
    const FaultGuard faults({{fault::Site::ServeWorkerStall,
                              fault::Rule{1.0, 11, 50}}});
    Rng rng(10);
    std::vector<std::future<RemoteResult>> futures;
    for (int i = 0; i < 64; ++i)
        futures.push_back(client.submit(
            id, Request::gemv(makeSignedVector(32, 8, rng))));

    std::size_t ok = 0, busy = 0;
    for (auto &future : futures) {
        const wire::Status status = future.get().status;
        if (status == wire::Status::Ok)
            ++ok;
        else if (status == wire::Status::Busy)
            ++busy;
        else
            FAIL() << "unexpected status "
                   << wire::statusName(status);
    }
    // Every future resolved (no deadlock); admission let at least one
    // through and shed at least one.
    EXPECT_EQ(ok + busy, 64u);
    EXPECT_GE(ok, 1u);
    EXPECT_GE(busy, 1u);

    const NetServerStats stats = server.stats();
    EXPECT_EQ(stats.shards[0].shed, busy);
    EXPECT_EQ(stats.shards[0].inFlight, 0u);

    // The shed connection is still healthy for new work.
    auto after = client.submit(
        id, Request::gemv(makeSignedVector(32, 8, rng)));
    EXPECT_EQ(after.get().status, wire::Status::Ok);
}

// ---------------------------------------------------------------------
// Slow readers and partial writes
// ---------------------------------------------------------------------

TEST(NetServe, SlowReaderGetsEveryResponseBuffered)
{
    NetServer server(quickServer());
    NetClient control("127.0.0.1", server.port());
    std::uint32_t id = 0;
    ASSERT_EQ(control.registerDesign(testWeights(64, 11),
                                     testCompileOptions(), &id),
              wire::Status::Ok);

    // Pump ~8 MiB of responses through a connection that reads
    // nothing until every request is sent: the kernel buffers fill and
    // the server must hold the rest in per-connection write buffers,
    // flushing as POLLOUT allows.
    RawConn slow(server.port());
    Rng rng(12);
    const int kRequests = 64;
    for (int i = 0; i < kRequests; ++i) {
        wire::RequestFrame frame;
        frame.kind = wire::MessageKind::GemvBatch;
        frame.requestId = static_cast<std::uint64_t>(i) + 1;
        frame.designId = id;
        frame.request =
            Request::gemvBatch(makeSignedBatch(256, 64, 8, rng));
        std::vector<std::uint8_t> bytes;
        wire::appendRequestFrame(bytes, frame);
        slow.sendAll(bytes);
    }
    // Let responses pile up server-side before reading a byte.
    std::this_thread::sleep_for(std::chrono::milliseconds(200));

    std::vector<bool> seen(kRequests, false);
    std::vector<std::uint8_t> buffer;
    std::uint8_t chunk[64 * 1024];
    int got = 0;
    while (got < kRequests) {
        std::size_t off = 0, size = 0, total = 0;
        const wire::FrameResult r = wire::peekFrame(
            buffer.data(), buffer.size(), &off, &size, &total);
        if (r == wire::FrameResult::Ok) {
            wire::ResponseFrame response;
            ASSERT_EQ(wire::decodeResponse(buffer.data() + off, size,
                                           &response),
                      wire::Status::Ok);
            ASSERT_EQ(response.status, wire::Status::Ok);
            ASSERT_EQ(response.output.rows(), 256u);
            ASSERT_GE(response.requestId, 1u);
            ASSERT_LE(response.requestId,
                      static_cast<std::uint64_t>(kRequests));
            seen[response.requestId - 1] = true;
            buffer.erase(buffer.begin(),
                         buffer.begin() +
                             static_cast<std::ptrdiff_t>(total));
            ++got;
            continue;
        }
        ASSERT_EQ(r, wire::FrameResult::NeedMore);
        const ssize_t n = ::read(slow.fd(), chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        ASSERT_GT(n, 0) << "server closed before all responses";
        buffer.insert(buffer.end(), chunk, chunk + n);
    }
    for (int i = 0; i < kRequests; ++i)
        EXPECT_TRUE(seen[i]) << "missing response " << i + 1;
}

TEST(NetServe, HalfCloseStillDeliversOwedResponses)
{
    NetServer server(quickServer());

    NetClient control("127.0.0.1", server.port());
    std::uint32_t id = 0;
    ASSERT_EQ(control.registerDesign(testWeights(32, 22),
                                     testCompileOptions(), &id),
              wire::Status::Ok);

    // Stalled workers keep the burst unanswered until well after the
    // EOF lands, so delivery depends on the half-close drain contract,
    // not on the replies racing the shutdown.
    const FaultGuard faults({{fault::Site::ServeWorkerStall,
                              fault::Rule{1.0, 24, 50}}});
    RawConn conn(server.port());
    Rng rng(23);
    const int kRequests = 8;
    for (int i = 0; i < kRequests; ++i) {
        wire::RequestFrame frame;
        frame.kind = wire::MessageKind::Gemv;
        frame.requestId = static_cast<std::uint64_t>(i) + 1;
        frame.designId = id;
        frame.request = Request::gemv(makeSignedVector(32, 8, rng));
        std::vector<std::uint8_t> bytes;
        wire::appendRequestFrame(bytes, frame);
        conn.sendAll(bytes);
    }
    conn.shutdownWrite(); // half-close with the whole burst in flight

    // The server owes kRequests responses and must deliver every one
    // before closing its side (NetClient::close() relies on this).
    std::vector<bool> seen(kRequests, false);
    std::vector<std::uint8_t> buffer;
    std::uint8_t chunk[64 * 1024];
    int got = 0;
    while (got < kRequests) {
        std::size_t off = 0, size = 0, total = 0;
        const wire::FrameResult r = wire::peekFrame(
            buffer.data(), buffer.size(), &off, &size, &total);
        if (r == wire::FrameResult::Ok) {
            wire::ResponseFrame response;
            ASSERT_EQ(wire::decodeResponse(buffer.data() + off, size,
                                           &response),
                      wire::Status::Ok);
            EXPECT_EQ(response.status, wire::Status::Ok);
            ASSERT_GE(response.requestId, 1u);
            ASSERT_LE(response.requestId,
                      static_cast<std::uint64_t>(kRequests));
            seen[response.requestId - 1] = true;
            buffer.erase(buffer.begin(),
                         buffer.begin() +
                             static_cast<std::ptrdiff_t>(total));
            ++got;
            continue;
        }
        ASSERT_EQ(r, wire::FrameResult::NeedMore);
        const ssize_t n = ::read(conn.fd(), chunk, sizeof(chunk));
        if (n < 0 && errno == EINTR)
            continue;
        ASSERT_GT(n, 0) << "server closed with " << got << "/"
                        << kRequests << " owed responses delivered";
        buffer.insert(buffer.end(), chunk, chunk + n);
    }
    for (int i = 0; i < kRequests; ++i)
        EXPECT_TRUE(seen[i]) << "missing response " << i + 1;
    // ... and only then closes its side: clean EOF, no stray bytes.
    EXPECT_TRUE(conn.recvUpTo(1).empty());
}

// ---------------------------------------------------------------------
// Chaos: disconnects and garbage
// ---------------------------------------------------------------------

TEST(NetServe, MidRequestDisconnectLeavesOthersServed)
{
    NetServer server(quickServer());
    NetClient steady("127.0.0.1", server.port());
    std::uint32_t id = 0;
    ASSERT_EQ(steady.registerDesign(testWeights(32, 13),
                                    testCompileOptions(), &id),
              wire::Status::Ok);

    Rng rng(14);
    {
        // Full request, then vanish before the response: the server
        // computes, fails the write, and drops the connection.
        RawConn ghost(server.port());
        wire::RequestFrame frame;
        frame.kind = wire::MessageKind::Gemv;
        frame.requestId = 1;
        frame.designId = id;
        frame.request = Request::gemv(makeSignedVector(32, 8, rng));
        std::vector<std::uint8_t> bytes;
        wire::appendRequestFrame(bytes, frame);
        ghost.sendAll(bytes);
        ghost.drop();
    }
    {
        // Half a frame, then vanish: EOF mid-frame.
        RawConn torn(server.port());
        wire::RequestFrame frame;
        frame.kind = wire::MessageKind::Gemv;
        frame.requestId = 2;
        frame.designId = id;
        frame.request = Request::gemv(makeSignedVector(32, 8, rng));
        std::vector<std::uint8_t> bytes;
        wire::appendRequestFrame(bytes, frame);
        torn.sendAll(bytes.data(), bytes.size() / 2);
        torn.drop();
    }

    // The steady client keeps getting served throughout.
    for (int i = 0; i < 8; ++i) {
        auto r = steady.submit(
            id, Request::gemv(makeSignedVector(32, 8, rng)));
        EXPECT_EQ(r.get().status, wire::Status::Ok);
    }
}

TEST(NetServe, GarbageBytesGetBadFrameAndOthersSurvive)
{
    NetServer server(quickServer());
    NetClient steady("127.0.0.1", server.port());
    std::uint32_t id = 0;
    ASSERT_EQ(steady.registerDesign(testWeights(24, 15),
                                    testCompileOptions(), &id),
              wire::Status::Ok);

    {
        RawConn evil(server.port());
        // A length prefix promising more than kMaxFrameBytes: framing
        // is unrecoverable, the server answers BadFrame and closes.
        std::vector<std::uint8_t> bytes(64, 0xa5);
        const std::uint32_t huge = wire::kMaxFrameBytes + 7;
        std::memcpy(bytes.data(), &huge, 4);
        evil.sendAll(bytes);
        wire::ResponseFrame response;
        ASSERT_TRUE(evil.recvResponse(&response));
        EXPECT_EQ(response.status, wire::Status::BadFrame);
        // ... and then EOF.
        EXPECT_TRUE(evil.recvUpTo(1).empty());
    }
    {
        RawConn evil(server.port());
        // A well-framed payload with a corrupt magic.
        const auto length =
            static_cast<std::uint32_t>(wire::kHeaderBytes);
        std::vector<std::uint8_t> bytes;
        for (int i = 0; i < 4; ++i)
            bytes.push_back(
                static_cast<std::uint8_t>(length >> (8 * i)));
        bytes.insert(bytes.end(), wire::kHeaderBytes, 0x5a);
        evil.sendAll(bytes);
        wire::ResponseFrame response;
        ASSERT_TRUE(evil.recvResponse(&response));
        EXPECT_EQ(response.status, wire::Status::BadFrame);
    }

    EXPECT_GE(server.stats().badFrames, 2u);
    Rng rng(16);
    auto r = steady.submit(
        id, Request::gemv(makeSignedVector(24, 8, rng)));
    EXPECT_EQ(r.get().status, wire::Status::Ok);
}

// ---------------------------------------------------------------------
// Graceful drain
// ---------------------------------------------------------------------

TEST(NetServe, GracefulDrainCompletesInFlightWork)
{
    NetServer server(quickServer(2));
    NetClient client("127.0.0.1", server.port());

    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(32, 17),
                                    testCompileOptions(), &id),
              wire::Status::Ok);

    // 40ms worker stalls keep the burst in flight when shutdown lands.
    const FaultGuard faults({{fault::Site::ServeWorkerStall,
                              fault::Rule{1.0, 25, 40}}});
    Rng rng(18);
    std::vector<std::future<RemoteResult>> futures;
    for (int i = 0; i < 32; ++i)
        futures.push_back(client.submit(
            id, Request::gemv(makeSignedVector(32, 8, rng))));
    // Let the event loop admit the whole burst, then drain under it.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.shutdown();

    // Every admitted request completed with a real answer.
    for (auto &future : futures)
        EXPECT_EQ(future.get().status, wire::Status::Ok);

    // The socket is gone; later work fails client-side, not by hang.
    auto after = client.submit(
        id, Request::gemv(makeSignedVector(32, 8, rng)));
    const wire::Status status = after.get().status;
    EXPECT_NE(status, wire::Status::Ok);
}

TEST(NetServe, RequestShutdownFromBackgroundThreadStops)
{
    NetServer server(quickServer());
    std::thread trigger([&server] {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        server.requestShutdown(); // the SIGTERM handler's call
    });
    server.waitUntilStopped(); // must return, not hang
    trigger.join();
}

TEST(NetServe, ShutdownAnswersNewWorkShuttingDown)
{
    NetServer server(quickServer());
    NetClient client("127.0.0.1", server.port());
    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(24, 19),
                                    testCompileOptions(), &id),
              wire::Status::Ok);

    // Hold one request in flight (a 60ms worker stall) so the drain
    // has work to finish.
    const FaultGuard faults({{fault::Site::ServeWorkerStall,
                              fault::Rule{1.0, 26, 60}}});
    Rng rng(20);
    auto held = client.submit(
        id, Request::gemv(makeSignedVector(24, 8, rng)));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    std::thread drain([&server] { server.shutdown(); });
    // While draining, new requests are refused with ShuttingDown (or
    // the connection is already torn down — never silently dropped).
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    auto refused = client.submit(
        id, Request::gemv(makeSignedVector(24, 8, rng)));
    const wire::Status status = refused.get().status;
    EXPECT_TRUE(status == wire::Status::ShuttingDown ||
                status == wire::Status::Disconnected)
        << wire::statusName(status);
    EXPECT_EQ(held.get().status, wire::Status::Ok);
    drain.join();
}

// ---------------------------------------------------------------------
// Injected faults: watchdog shedding, timeouts, reconnect-and-replay,
// partial writes, bounded drain
// ---------------------------------------------------------------------

TEST(NetServeChaos, WatchdogShedsExpiredWorkInsteadOfStalling)
{
    NetServerOptions net = quickServer();
    net.maxQueue = 64;
    // One request per group so the backlog is many small groups the
    // watchdog can age out individually.
    net.serve.maxBatch = 1;
    net.serve.maxQueueAge = std::chrono::milliseconds(20);
    net.serve.slowWorkerAfter = std::chrono::milliseconds(10);
    NetServer server(net);
    NetClient client("127.0.0.1", server.port());
    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(24, 501),
                                    testCompileOptions(), &id),
              wire::Status::Ok);

    Rng rng(502);
    std::size_t ok = 0, busy = 0;
    {
        // Every group stalls its worker 60ms: with a 20ms queue-age
        // cutoff the backlog must shed, not wait its turn.
        const FaultGuard faults({{fault::Site::ServeWorkerStall,
                                  fault::Rule{1.0, 503, 60}}});
        std::vector<std::future<RemoteResult>> futures;
        for (int i = 0; i < 24; ++i)
            futures.push_back(client.submit(
                id, Request::gemv(makeSignedVector(24, 8, rng))));
        for (auto &future : futures) {
            const wire::Status status = future.get().status;
            if (status == wire::Status::Ok)
                ++ok;
            else if (status == wire::Status::Busy)
                ++busy;
            else
                FAIL() << "unexpected status "
                       << wire::statusName(status);
        }
    }
    // Every future resolved; work the workers reached completed, the
    // aged-out remainder was shed by the watchdog.
    EXPECT_EQ(ok + busy, 24u);
    EXPECT_GE(ok, 1u);
    EXPECT_GE(busy, 1u);

    IntMatrix stats;
    ASSERT_EQ(client.fetchStats(&stats), wire::Status::Ok);
    ASSERT_EQ(stats.cols(), wire::kShardStatsCols);
    EXPECT_GE(stats.at(0, wire::kStatWatchdogShed), 1);
    EXPECT_GE(stats.at(0, wire::kStatFaultsInjected), 1);
}

TEST(NetServeChaos, RequestTimeoutResolvesPromptlyAndConnectionLives)
{
    NetServer server(quickServer());
    NetClientOptions copts;
    copts.requestTimeout = std::chrono::milliseconds(40);
    NetClient client("127.0.0.1", server.port(), copts);
    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(24, 511),
                                    testCompileOptions(), &id),
              wire::Status::Ok);

    Rng rng(512);
    const auto start = std::chrono::steady_clock::now();
    {
        // The worker sleeps 500ms on the one group; the 40ms client
        // timeout must resolve the future long before the server
        // answers.
        const FaultGuard faults({{fault::Site::ServeWorkerStall,
                                  fault::Rule{1.0, 513, 500}}});
        auto slow = client.submit(
            id, Request::gemv(makeSignedVector(24, 8, rng)));
        ASSERT_EQ(slow.wait_for(std::chrono::seconds(5)),
                  std::future_status::ready);
        EXPECT_EQ(slow.get().status, wire::Status::TimedOut);
    }
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    EXPECT_LT(elapsed.count(), 450) << "timeout did not fire early";
    EXPECT_GE(client.stats().timeouts, 1u);
    // Control traffic is exempt and the connection stays healthy; the
    // late server answer for the timed-out id is discarded silently.
    EXPECT_EQ(client.ping(), wire::Status::Ok);
    // Let the stalled worker finish its 500ms sleep, then verify the
    // same connection still serves fresh work within the timeout.
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    auto after = client.submit(
        id, Request::gemv(makeSignedVector(24, 8, rng)));
    EXPECT_EQ(after.get().status, wire::Status::Ok);
}

TEST(NetServeChaos, ReconnectReplayCompletesBitExact)
{
    const std::size_t dim = 32;
    const IntMatrix weights = testWeights(dim, 521);
    const core::CompileOptions compile = testCompileOptions();

    NetServerOptions net = quickServer();
    NetServer server(net);
    NetClientOptions copts;
    copts.maxReconnects = 100;
    copts.backoffBase = std::chrono::milliseconds(1);
    copts.backoffCap = std::chrono::milliseconds(20);
    NetClient client("127.0.0.1", server.port(), copts);
    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(weights, compile, &id),
              wire::Status::Ok);

    Server local(net.serve);
    const DesignId localId = local.registerDesign(weights, compile);

    Rng rng(522);
    {
        // Roughly every third dispatched frame tears the connection
        // down server-side; reconnect-and-replay must land every
        // request anyway, bit-exactly.
        const FaultGuard faults(
            {{fault::Site::NetConnDrop, fault::Rule{0.3, 523, 0}}});
        for (int i = 0; i < 16; ++i) {
            const Request request =
                Request::gemv(makeSignedVector(dim, 8, rng));
            RemoteResult over_wire =
                client.submitRetry(id, Request(request));
            ASSERT_EQ(over_wire.status, wire::Status::Ok) << i;
            Response in_process =
                local.submit(localId, Request(request)).get();
            EXPECT_TRUE(over_wire.output == in_process.output) << i;
        }
    }
    EXPECT_GE(client.stats().reconnects, 1u);
    EXPECT_GE(client.stats().replays, 1u);
}

TEST(NetServeChaos, PartialWritesStillDeliverBitExact)
{
    const std::size_t dim = 48;
    const IntMatrix weights = testWeights(dim, 531);
    const core::CompileOptions compile = testCompileOptions();

    NetServerOptions net = quickServer();
    NetServer server(net);
    NetClient client("127.0.0.1", server.port());
    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(weights, compile, &id),
              wire::Status::Ok);

    Server local(net.serve);
    const DesignId localId = local.registerDesign(weights, compile);

    Rng rng(532);
    // Every outbound pass is clamped to 64 bytes, so each multi-KiB
    // batch response crosses the wire in hundreds of fragments.
    const FaultGuard faults({{fault::Site::NetWritePartial,
                              fault::Rule{1.0, 533, 64}}});
    for (int i = 0; i < 4; ++i) {
        const Request request =
            Request::gemvBatch(makeSignedBatch(64, dim, 8, rng));
        RemoteResult over_wire =
            client.submit(id, Request(request)).get();
        ASSERT_EQ(over_wire.status, wire::Status::Ok) << i;
        Response in_process =
            local.submit(localId, Request(request)).get();
        EXPECT_TRUE(over_wire.output == in_process.output) << i;
    }
}

TEST(NetServeChaos, DrainTimeoutBoundsShutdownUnderStalledWorkers)
{
    NetServerOptions net = quickServer();
    net.serve.maxBatch = 1;
    net.drainTimeout = std::chrono::milliseconds(200);
    NetServer server(net);
    NetClient client("127.0.0.1", server.port());
    std::uint32_t id = 0;
    ASSERT_EQ(client.registerDesign(testWeights(24, 541),
                                    testCompileOptions(), &id),
              wire::Status::Ok);

    Rng rng(542);
    // Workers stall 1.5s per group — far past the 200ms drain
    // deadline — with several groups queued behind them.
    const FaultGuard faults(
        {{fault::Site::ServeWorkerStall, fault::Rule{1.0, 543, 1500}}});
    std::vector<std::future<RemoteResult>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(client.submit(
            id, Request::gemv(makeSignedVector(24, 8, rng))));
    std::this_thread::sleep_for(std::chrono::milliseconds(30));

    const auto start = std::chrono::steady_clock::now();
    server.shutdown();
    const auto elapsed =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - start);
    // Unbounded drain would sit through ~3 rounds of 1.5s stalls;
    // the deadline must cut that to the 200ms budget plus the
    // reaper's 50ms wait slices and teardown overhead.
    EXPECT_LT(elapsed.count(), 1200)
        << "drain deadline did not bound shutdown";

    // Every future resolves: completed work Ok, abandoned in-flight
    // work ShuttingDown, shed backlog Busy — never a hang.
    for (auto &future : futures) {
        ASSERT_EQ(future.wait_for(std::chrono::seconds(5)),
                  std::future_status::ready);
        const wire::Status status = future.get().status;
        EXPECT_TRUE(status == wire::Status::Ok ||
                    status == wire::Status::Busy ||
                    status == wire::Status::ShuttingDown ||
                    status == wire::Status::Disconnected)
            << wire::statusName(status);
    }
}

// ---------------------------------------------------------------------
// Shard isolation
// ---------------------------------------------------------------------

TEST(NetServe, ShardsServeIndependentDesigns)
{
    NetServer server(quickServer(2));
    NetClient client("127.0.0.1", server.port());

    const std::size_t dim = 24;
    std::vector<std::uint32_t> ids(4);
    std::vector<IntMatrix> weights;
    for (std::size_t d = 0; d < ids.size(); ++d) {
        weights.push_back(testWeights(dim, 100 + d));
        std::uint32_t shard = 0;
        ASSERT_EQ(client.registerDesign(weights.back(),
                                        testCompileOptions(), &ids[d],
                                        &shard),
                  wire::Status::Ok);
        EXPECT_EQ(shard, ids[d] % 2);
    }

    Rng rng(21);
    std::vector<std::pair<std::size_t, std::future<RemoteResult>>>
        futures;
    for (int i = 0; i < 64; ++i) {
        const std::size_t d = static_cast<std::size_t>(i) % ids.size();
        futures.emplace_back(
            d, client.submit(ids[d], Request::gemv(makeSignedVector(
                                         dim, 8, rng))));
    }
    for (auto &[d, future] : futures)
        EXPECT_EQ(future.get().status, wire::Status::Ok) << d;

    IntMatrix stats;
    ASSERT_EQ(client.fetchStats(&stats), wire::Status::Ok);
    ASSERT_EQ(stats.rows(), 2u);
    // Both shards saw traffic, and every admitted request is answered.
    EXPECT_EQ(stats.at(0, wire::kStatSubmitted) +
                  stats.at(1, wire::kStatSubmitted),
              64);
    EXPECT_GT(stats.at(0, wire::kStatSubmitted), 0);
    EXPECT_GT(stats.at(1, wire::kStatSubmitted), 0);
    EXPECT_EQ(stats.at(0, wire::kStatInFlight), 0);
    EXPECT_EQ(stats.at(1, wire::kStatInFlight), 0);
}

} // namespace
