/**
 * @file
 * The in-process serving subsystem: multi-design request scheduling
 * with work-conserving lane batching on the wide tape engine.
 *
 * Request lifecycle:
 *
 *  1. registerDesign() compiles (or LRU-fetches) the model through the
 *     DesignStore and creates its Batcher;
 *  2. submit() queues a Request on the design's Batcher and returns a
 *     future; a request that opens a group wakes one idle worker.  A
 *     group is cut when it reaches max_batch lanes, on drain, or when
 *     a worker with nothing ready takes it as it stands (idle cut) —
 *     so a lone request on an idle server runs at once, and requests
 *     coalesce only while every worker is busy, which grows batches
 *     with load;
 *  3. full and drained groups enter per-design ready queues; a
 *     persistent worker pool serves designs round-robin, taking a
 *     design's oldest ready group or else idle-cutting its open group
 *     (one hot model cannot starve the rest, and a lone request waits
 *     at most one turn), pads each group to the 64-lane engine
 *     boundary, runs it through core::runBatchWide, and scatters the
 *     decoded rows back to the member futures.  EsnSequence requests
 *     are inherently sequential and run on a per-job core::TapeGemv
 *     instead, scheduled through the same fair queues.
 *
 * All synchronization lives here: Batcher and the ready queues are
 * driven under one scheduling mutex; group execution (the expensive
 * part) runs outside it.
 */

#ifndef SPATIAL_SERVE_SERVER_H
#define SPATIAL_SERVE_SERVER_H

#include <atomic>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "core/options.h"
#include "core/tiled_design.h"
#include "serve/batcher.h"
#include "serve/design_store.h"
#include "serve/request.h"

namespace spatial::serve
{

/** Server-wide configuration. */
struct ServeOptions
{
    /** Lane budget per flushed group (Batcher full trigger). */
    std::size_t maxBatch = 256;

    /** Execution workers; 0 = one per hardware context. */
    unsigned workers = 0;

    /** DesignStore hot-tier capacity (resident compiled designs). */
    std::size_t storeCapacity = 64;

    /**
     * Cold-tier spill directory for the DesignStore; empty disables
     * tiering.  With a cold tier, designs evicted from the hot tier
     * are serialized to disk and rematerialized (loaded, not
     * recompiled) on their next request — see docs/store.md.
     */
    std::string storeSpillDir;

    /**
     * Column-tiling budget for registered designs: matrices whose
     * compiled ones-cost exceeds TileOptions::onesBudget are compiled
     * and executed as column-strip tiles (core::TiledDesign), so
     * dim 1024-8192 designs serve through the same paths as small
     * ones.
     */
    core::TileOptions tile;

    /**
     * Engine knobs for group execution.  `threads` is ignored: each
     * group runs single-threaded inside one worker — parallelism comes
     * from the pool running independent groups.
     */
    core::SimOptions sim;

    /**
     * Queue-age watchdog: a group, open or ready, whose oldest request
     * has been queued longer than this is shed — its futures resolve
     * immediately with Response::shed set (the wire front end maps
     * that to Status::Busy) instead of waiting behind a stalled
     * worker.  0 disables the watchdog (no thread is started).
     */
    std::chrono::milliseconds maxQueueAge{0};

    /**
     * Slow-worker detection: a worker busy on one group longer than
     * this is flagged (counted in ServerStats::slowWorkerFlags and
     * warned once per episode).  0 disables.  Only meaningful when
     * the watchdog is running, i.e. maxQueueAge or this is non-zero.
     */
    std::chrono::milliseconds slowWorkerAfter{0};
};

/** Cumulative server counters (point-in-time snapshot). */
struct ServerStats
{
    std::size_t requests = 0;      //!< submits accepted
    std::size_t lanes = 0;         //!< engine lanes of real work
    std::size_t groups = 0;        //!< batched groups executed
    std::size_t paddedLanes = 0;   //!< lanes after 64-lane padding
    std::size_t flushFull = 0;     //!< groups cut by the lane budget
    std::size_t flushDeadline = 0; //!< groups an idle worker cut
                                   //!< before they filled
    std::size_t flushDrain = 0;    //!< groups cut by drain()
    std::size_t enginePasses = 0;  //!< netlist passes across all groups
                                   //!< (group lanes / adaptive 64*W)
    std::uint64_t segmentsExecuted = 0; //!< activity-gated tape segments run
    std::uint64_t segmentsSkipped = 0;  //!< segments skipped as quiescent
    std::size_t sequences = 0;     //!< EsnSequence jobs executed
    std::size_t sequenceSteps = 0; //!< total sequential ESN steps
    std::size_t watchdogShed = 0;  //!< requests shed by the watchdog
    std::size_t slowWorkerFlags = 0; //!< slow-worker episodes flagged
    /** Injected faults observed by this server and its store (worker
     * stalls plus admission compile faults; see common/fault.h). */
    std::uint64_t faultsInjected = 0;
    DesignStore::Stats store;      //!< compile cache accounting

    /** Fraction of padded engine lanes carrying real work. */
    double occupancy() const
    {
        return paddedLanes == 0
                   ? 0.0
                   : static_cast<double>(lanes) /
                         static_cast<double>(paddedLanes);
    }
};

/**
 * Asynchronous multi-design server over the wide tape engine.
 *
 * Thread-safe: submit() may be called from any number of client
 * threads.  The destructor drains outstanding work before joining the
 * pool, so every returned future is fulfilled.
 */
class Server
{
  public:
    /** Start the worker pool. */
    explicit Server(ServeOptions options = {});

    /** Drain outstanding work and join the pool. */
    ~Server();

    /** Non-copyable: owns worker threads and pending promises. */
    Server(const Server &) = delete;
    /** Non-assignable (same reason). */
    Server &operator=(const Server &) = delete;

    /**
     * Register (weights, options) for serving, compiling through the
     * tiered store on first sight.  Re-registering an identical
     * design returns the existing id (requests then share its
     * batcher).  A registration is permanent but its compiled design
     * is not pinned: the store's LRU may demote it (to the cold tier
     * when one is configured), and the next request rematerializes
     * it.
     */
    DesignId registerDesign(const IntMatrix &weights,
                            const core::CompileOptions &options);

    /**
     * Queue one request against a registered design.  Shape errors are
     * fatal (the caller holds the design's dimensions).  The future is
     * fulfilled when the request's group has executed.
     */
    std::future<Response> submit(DesignId id, Request request);

    /** Flush every open group and wait until all work has executed. */
    void drain();

    /**
     * Bounded drain: flush every open group and wait at most
     * `timeout` for outstanding work to finish.  Returns true when
     * the server went idle, false on timeout — queued and in-flight
     * work then remains pending (the destructor still waits for it;
     * a net front end abandons its replies instead, see
     * NetServerOptions::drainTimeout).
     */
    bool drainFor(std::chrono::milliseconds timeout);

    /** Current counters. */
    ServerStats stats() const;

    /**
     * The compiled design behind an id (for reference checks).
     * Materializes through the store — a demoted design is reloaded
     * from the cold tier (or recompiled) on the spot, so the returned
     * pointer is always live, but the call may block on that load.
     */
    std::shared_ptr<const core::TiledDesign> design(DesignId id);

    /** Number of registered designs. */
    std::size_t designCount() const;

    /** The server's configuration (after clamping). */
    const ServeOptions &options() const { return options_; }

  private:
    /**
     * One registered design's scheduling state.  The entry does NOT
     * pin the compiled design: workers materialize it through the
     * store per group, so the hot tier's LRU can really demote a cold
     * design to disk and promote it back on its next request.  The
     * identity (key), the weights, and the compile options are kept
     * so a promotion that finds a corrupt spill file can recompile.
     *
     * key/weights/compile are const — workers read them after
     * dropping the scheduling lock (see workerLoop), which is safe
     * exactly because nothing can write them after construction.
     * batcher and ready are mutable scheduling state and only ever
     * touched under the Server's mutex_.
     */
    struct DesignEntry
    {
        const experiments::DesignKey key;
        const IntMatrix weights;
        const core::CompileOptions compile;
        Batcher batcher;
        std::deque<Group> ready;

        DesignEntry(DesignId id, experiments::DesignKey k,
                    IntMatrix w, const core::CompileOptions &c,
                    std::size_t max_batch)
            : key(std::move(k)), weights(std::move(w)), compile(c),
              batcher(id, max_batch)
        {}
    };

    void workerLoop(unsigned index) SPATIAL_EXCLUDES(mutex_);
    void watchdogLoop() SPATIAL_EXCLUDES(mutex_);

    /** Flush every batcher (Drain reason) and enqueue the groups. */
    void flushAllLocked() SPATIAL_REQUIRES(mutex_);

    /** Resolve every request in `shed` with Response::shed set. */
    static void fulfillShed(std::vector<Group> shed);

    /**
     * The next group for an idle worker: round-robin across designs
     * from the cursor, the first design's oldest ready group, or its
     * open group cut with FlushReason::Idle when none is ready;
     * nullopt when every queue is empty.
     */
    std::optional<Group> nextGroupLocked() SPATIAL_REQUIRES(mutex_);

    /** Enqueue flushed groups and account their flush reason. */
    void pushGroupsLocked(std::vector<Group> groups)
        SPATIAL_REQUIRES(mutex_);

    /** Execute one group outside the lock and fulfill its futures. */
    void executeGroup(const core::TiledDesign &design, Group group)
        SPATIAL_EXCLUDES(mutex_);

    /** Run one EsnSequence request on a persistent tape executor. */
    void executeSequence(const core::TiledDesign &design, Group group)
        SPATIAL_EXCLUDES(mutex_);

    ServeOptions options_;
    DesignStore store_;

    mutable Mutex mutex_;
    CondVar workCv_;  //!< workers: work queued or stopping
    CondVar idleCv_;  //!< drain(): all work finished
    CondVar watchdogCv_; //!< watchdog: stop requested

    /**
     * Registered designs; the vector (and each entry's batcher/ready
     * queue) is guarded, but the heap DesignEntry objects themselves
     * outlive any reallocation, so a worker may hold a reference to
     * one across an unlock and keep reading its const identity
     * fields.
     */
    std::vector<std::unique_ptr<DesignEntry>> designs_
        SPATIAL_GUARDED_BY(mutex_);
    std::unordered_map<experiments::DesignKey, DesignId,
                       experiments::DesignKeyHash>
        designIds_ SPATIAL_GUARDED_BY(mutex_);
    /** Round-robin design cursor. */
    std::size_t rrCursor_ SPATIAL_GUARDED_BY(mutex_) = 0;
    std::size_t readyGroups_ SPATIAL_GUARDED_BY(mutex_) = 0;
    std::size_t inFlight_ SPATIAL_GUARDED_BY(mutex_) = 0;
    /** Workers asleep on workCv_ with every queue empty. */
    std::size_t idleWorkers_ SPATIAL_GUARDED_BY(mutex_) = 0;
    bool stopping_ SPATIAL_GUARDED_BY(mutex_) = false;

    ServerStats stats_ SPATIAL_GUARDED_BY(mutex_);

    /** Worker-stall faults injected (see common/fault.h); kept
     * outside stats_ so the hot path books it without the lock. */
    std::atomic<std::uint64_t> workerFaults_{0};

    /**
     * Per-worker busy-since timestamps (microseconds since the steady
     * epoch; 0 = idle), written by the owning worker around group
     * execution and read by the watchdog for slow-worker flags.
     */
    std::unique_ptr<std::atomic<std::int64_t>[]> workerBusyUs_;

    std::vector<std::thread> workers_;
    std::thread watchdog_; //!< started only when the watchdog is on
};

} // namespace spatial::serve

#endif // SPATIAL_SERVE_SERVER_H
