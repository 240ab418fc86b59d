/**
 * @file
 * TCP front end of the serving layer: a poll()-driven accept+dispatch
 * loop feeding per-design shard routing across N engine pools.
 *
 * Architecture (one NetServer):
 *
 *  - **event loop** (one thread): accepts connections, reads bytes,
 *    extracts wire frames, validates them against the design table,
 *    applies admission control, and submits compute requests straight
 *    into the owning shard's in-process Server (submit is cheap — it
 *    only enqueues on a batcher).  Writes are buffered per connection
 *    and flushed as POLLOUT allows, so a slow reader never blocks the
 *    loop or other clients; a reader whose backlog crosses the buffer
 *    cap is dropped outright.  A peer that half-closes (shutdown(WR))
 *    keeps its connection until every reply it is owed has been
 *    delivered and flushed — the NetClient::close() drain contract.
 *  - **N shards**: each shard is a full serve::Server — its own
 *    DesignStore, Batcher set, and work-conserving worker pool.
 *    Designs are routed to shard `globalId % shards` at registration,
 *    so one hot design's queue cannot starve another shard's pool.
 *  - **per-shard reaper** (one thread each): waits on submitted
 *    futures in FIFO order, encodes responses, and hands them back to
 *    the event loop through the connection write buffers.
 *  - **registrar** (one thread): runs RegisterDesign compiles off the
 *    event loop, so admission of a new design never stalls traffic.
 *    Every compile precondition is re-checked non-fatally first
 *    (core::MatrixCompiler::checkCompile), so a registration that
 *    would trip a compiler SPATIAL_FATAL is answered BadRequest
 *    instead — a network peer cannot terminate the process.
 *
 * Admission control: each shard counts admitted-but-unanswered
 * requests; once the count crosses NetServerOptions::maxQueue the
 * event loop sheds new work for that shard with Status::Busy instead
 * of queueing it — overload degrades to fast BUSY responses, not
 * latency collapse.  Graceful drain: shutdown() (or requestShutdown()
 * from a signal handler) stops accepting, answers new work with
 * ShuttingDown, completes everything already admitted, flushes the
 * write buffers, and joins every thread.
 */

#ifndef SPATIAL_SERVE_NET_SERVER_H
#define SPATIAL_SERVE_NET_SERVER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "serve/server.h"
#include "serve/wire.h"

namespace spatial::serve
{

/** Configuration of one TCP serving front end. */
struct NetServerOptions
{
    /** Listen address (loopback by default; "0.0.0.0" for all). */
    std::string host = "127.0.0.1";

    /** Listen port; 0 binds an ephemeral port (see NetServer::port). */
    std::uint16_t port = 0;

    /** Engine-pool shards; designs route to shard `id % shards`. */
    std::size_t shards = 1;

    /**
     * Per-shard admission watermark: once this many admitted requests
     * are unanswered, new work for the shard is shed with
     * Status::Busy.  0 means unbounded (never shed).
     */
    std::size_t maxQueue = 1024;

    /**
     * Largest design dimension (rows or cols) a RegisterDesign is
     * admitted with; anything larger is answered Status::BadRequest
     * before it reaches the registrar.  The default covers the
     * large-matrix envelope (dim 8192, a 512 MiB dense weight frame);
     * 0 means unbounded (the frame cap still applies).
     */
    std::size_t maxRegisterDim = 8192;

    /**
     * Largest inbound frame payload accepted on a connection (bytes);
     * a length prefix above this is Malformed and drops the
     * connection.  Clamped to wire::kMaxFrameBytes.  The default
     * admits a dense maxRegisterDim registration.
     */
    std::uint32_t maxFrameBytes = wire::kMaxFrameBytes;

    /**
     * Deadline for the graceful drain: once shutdown() has waited
     * this long for admitted work to finish, the remaining in-flight
     * requests are abandoned and answered Status::ShuttingDown so the
     * process can exit promptly even with a wedged worker.  0 means
     * wait forever (the legacy drain contract).
     */
    std::chrono::milliseconds drainTimeout{0};

    /** Per-shard in-process Server configuration. */
    ServeOptions serve;
};

/** Point-in-time counters of one shard's wire traffic. */
struct ShardStats
{
    std::size_t submitted = 0; //!< wire requests admitted
    std::size_t shed = 0;      //!< wire requests answered Busy
    std::size_t inFlight = 0;  //!< admitted but not yet answered
    ServerStats server;        //!< the shard Server's own counters
};

/** Point-in-time counters of the whole front end. */
struct NetServerStats
{
    std::size_t accepted = 0;     //!< connections accepted
    std::size_t active = 0;       //!< connections currently open
    std::size_t badFrames = 0;    //!< malformed frames (conn dropped)
    std::size_t registered = 0;   //!< designs in the routing table
    std::vector<ShardStats> shards; //!< one entry per shard
};

/**
 * Network-attached serving front end over N sharded Servers.
 *
 * The constructor binds, listens, and starts every thread; port()
 * reports the resolved port (essential with port 0).  Thread-safe:
 * stats(), shutdown(), and requestShutdown() may be called from any
 * thread; requestShutdown() additionally from a signal handler.
 */
class NetServer
{
  public:
    /** Bind + listen + start the loop, shards, reapers, registrar. */
    explicit NetServer(NetServerOptions options = {});

    /** Graceful shutdown (idempotent), then join everything. */
    ~NetServer();

    /** Non-copyable: owns sockets and threads. */
    NetServer(const NetServer &) = delete;
    /** Non-assignable (same reason). */
    NetServer &operator=(const NetServer &) = delete;

    /** The resolved listen port (after binding port 0). */
    std::uint16_t port() const { return port_; }

    /** The configured options (shards/maxQueue after clamping). */
    const NetServerOptions &options() const { return options_; }

    /**
     * Async-signal-safe shutdown trigger: flags the event loop through
     * the wake pipe.  The actual drain runs on the caller of
     * shutdown()/waitUntilStopped()/the destructor.
     */
    void requestShutdown();

    /**
     * Graceful drain: stop accepting, answer new work ShuttingDown,
     * finish everything admitted, flush responses, join all threads.
     * Idempotent; concurrent callers block until the drain completes.
     */
    void shutdown();

    /**
     * Block until requestShutdown() fires (e.g. from a SIGTERM
     * handler), then perform the graceful shutdown() and return.
     */
    void waitUntilStopped();

    /** Counters across the loop and every shard. */
    NetServerStats stats() const;

  private:
    /** One registered design's routing entry. */
    struct DesignRoute
    {
        std::size_t shard = 0;   //!< owning shard
        DesignId localId = 0;    //!< id inside the shard's Server
        std::size_t rows = 0;    //!< design rows (request validation)
        std::size_t cols = 0;    //!< design cols
        bool ready = false;      //!< registrar finished compiling
        bool failed = false;     //!< registrar rejected the compile
    };

    /** A submitted request awaiting its future, FIFO per shard. */
    struct PendingReply
    {
        std::uint64_t conn = 0;
        std::uint64_t requestId = 0;
        std::uint32_t designId = 0;
        wire::MessageKind kind = wire::MessageKind::Ping;
        std::future<Response> future;
    };

    /** One shard: a Server plus its completion plumbing. */
    struct Shard
    {
        std::unique_ptr<Server> server;
        Mutex mutex;
        CondVar cv;
        std::deque<PendingReply> completions SPATIAL_GUARDED_BY(mutex);
        bool stop SPATIAL_GUARDED_BY(mutex) = false;
        /** Drain deadline expired: the reaper stops waiting on
         * futures and answers everything left ShuttingDown. */
        std::atomic<bool> abandon{false};
        std::atomic<std::size_t> inFlight{0};
        std::atomic<std::size_t> submitted{0};
        std::atomic<std::size_t> shed{0};
        std::thread reaper;
    };

    /** A RegisterDesign job for the registrar thread. */
    struct RegisterJob
    {
        std::uint64_t conn = 0;
        std::uint64_t requestId = 0;
        std::uint32_t designId = 0; //!< pre-assigned global id
        IntMatrix weights;
        core::CompileOptions compile;
    };

    /**
     * Per-connection buffers; owned by the connection table.  `fd` and
     * `in` are touched by the event loop alone; `out`, `outSent`,
     * `closing`, `peerEof`, and `pendingReplies` are shared with the
     * reaper/registrar reply paths and guarded by connMutex_.
     */
    struct Connection
    {
        int fd = -1;
        std::vector<std::uint8_t> in;   //!< unparsed inbound bytes
        std::vector<std::uint8_t> out;  //!< unsent outbound bytes
        std::size_t outSent = 0;        //!< bytes of `out` written
        /** Protocol lost or unrecoverable slow reader: stop reading,
         * drop late replies, close as soon as `out` drains. */
        bool closing = false;
        /** Peer half-closed its send side: stop reading, but keep the
         * connection until every owed reply (pendingReplies) has been
         * queued and `out` has flushed — the NetClient::close()
         * contract. */
        bool peerEof = false;
        /** Admitted requests whose replies are still owed (shard
         * futures in flight plus queued RegisterDesign compiles). */
        std::size_t pendingReplies = 0;
    };

    void eventLoop();
    void reaperLoop(std::size_t shard);
    void registrarLoop();

    /** Parse and dispatch every complete frame in `conn`'s buffer. */
    void processInbound(std::uint64_t id, Connection &conn)
        SPATIAL_EXCLUDES(connMutex_);

    /** Route one decoded request frame (event-loop thread). */
    void dispatch(std::uint64_t conn, wire::RequestFrame frame)
        SPATIAL_EXCLUDES(designMutex_, registrarMutex_, connMutex_);

    /** Queue an error/headers-only response to a connection. */
    void replyStatus(std::uint64_t conn, wire::Status status,
                     wire::MessageKind kind, std::uint64_t request_id,
                     std::uint32_t design_id)
        SPATIAL_EXCLUDES(connMutex_);

    /** Queue a full response frame to a connection (any thread). */
    void replyFrame(std::uint64_t conn, const wire::ResponseFrame &f)
        SPATIAL_EXCLUDES(connMutex_);

    /** Record that `conn` is owed one more async reply (event loop). */
    void asyncBegin(std::uint64_t conn) SPATIAL_EXCLUDES(connMutex_);

    /** Record that one owed async reply was delivered (any thread). */
    void asyncDone(std::uint64_t conn) SPATIAL_EXCLUDES(connMutex_);

    /** Wake the poll loop (writable buffers or shutdown changed). */
    void wake();

    /** The per-shard stats matrix a Stats request returns. */
    IntMatrix statsMatrix() const;

    NetServerOptions options_;
    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::uint16_t port_ = 0;

    std::vector<std::unique_ptr<Shard>> shards_;

    /** Routing table; guarded by designMutex_. */
    mutable Mutex designMutex_;
    std::vector<DesignRoute> designs_ SPATIAL_GUARDED_BY(designMutex_);
    std::unordered_map<experiments::DesignKey, std::uint32_t,
                       experiments::DesignKeyHash>
        designIds_ SPATIAL_GUARDED_BY(designMutex_);

    /** Registrar queue; guarded by registrarMutex_. */
    Mutex registrarMutex_;
    CondVar registrarCv_;
    std::deque<RegisterJob> registerQueue_
        SPATIAL_GUARDED_BY(registrarMutex_);
    bool registrarStop_ SPATIAL_GUARDED_BY(registrarMutex_) = false;

    /** Connection table and write buffers; guarded by connMutex_. */
    mutable Mutex connMutex_;
    std::unordered_map<std::uint64_t, Connection> conns_
        SPATIAL_GUARDED_BY(connMutex_);
    std::uint64_t nextConn_ SPATIAL_GUARDED_BY(connMutex_) = 1;

    std::atomic<std::size_t> accepted_{0};
    std::atomic<std::size_t> badFrames_{0};

    std::atomic<bool> shutdownRequested_{false};
    std::atomic<bool> rejecting_{false}; //!< answer new work ShuttingDown
    std::atomic<bool> loopExit_{false};  //!< event loop may drain+exit
    Mutex shutdownMutex_;
    CondVar shutdownCv_;
    bool shutdownDone_ SPATIAL_GUARDED_BY(shutdownMutex_) = false;
    bool shutdownRunning_ SPATIAL_GUARDED_BY(shutdownMutex_) = false;

    std::thread registrar_;
    std::thread loop_;
};

} // namespace spatial::serve

#endif // SPATIAL_SERVE_NET_SERVER_H
