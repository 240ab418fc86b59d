/**
 * @file
 * Lane batching for one design.
 *
 * The wide engine wants 64*W-lane planes; clients send one-or-few-lane
 * requests.  The Batcher accumulates lane-shaped requests for a single
 * design in one open group and cuts it on three triggers:
 *
 *  - **full**: pending lanes reached maxBatch (or an incoming request
 *    would overflow the open group);
 *  - **idle**: a Server worker with nothing else to run takes the open
 *    group as it stands (work-conserving batching: requests coalesce
 *    only while every worker is busy);
 *  - **drain**: the owner flushes explicitly (shutdown, drain()).
 *
 * The class is deliberately not synchronized: the Server drives every
 * batcher under its scheduling lock, and the unit tests drive one
 * directly to pin the policy boundaries.  Timestamps are passed in so
 * tests can step a virtual clock.
 */

#ifndef SPATIAL_SERVE_BATCHER_H
#define SPATIAL_SERVE_BATCHER_H

#include <chrono>
#include <future>
#include <optional>
#include <vector>

#include "serve/request.h"

namespace spatial::serve
{

/** One queued request awaiting execution. */
struct PendingRequest
{
    Request request;                        //!< the client's work
    std::promise<Response> promise;         //!< fulfilled at scatter
    std::chrono::time_point<Clock> submitAt{}; //!< enqueue timestamp
};

/** A flushed set of requests, ready for the scheduler. */
struct Group
{
    DesignId design = 0;                  //!< owning design
    std::vector<PendingRequest> requests; //!< members, submit order
    std::size_t lanes = 0;                //!< total engine lanes
    FlushReason reason = FlushReason::Drain; //!< why it flushed
    std::chrono::time_point<Clock> flushAt{}; //!< flush timestamp
};

/** Per-design accumulator cutting groups at the lane budget. */
class Batcher
{
  public:
    /** Batcher for `design` with a `max_batch` lane budget (>= 1). */
    Batcher(DesignId design, std::size_t max_batch);

    /**
     * Queue one lane-shaped request (not EsnSequence).  Returns the
     * groups this enqueue completed: the previously open group when the
     * request would have overflowed it, and/or the now-full group.
     */
    std::vector<Group> enqueue(PendingRequest pending,
                               std::chrono::time_point<Clock> now);

    /** Cut the open group unconditionally (empty => nullopt). */
    std::optional<Group> flush(FlushReason reason,
                               std::chrono::time_point<Clock> now);

    /** submitAt of the oldest queued request; nullopt when empty. */
    std::optional<std::chrono::time_point<Clock>> oldestSubmit() const;

    /** Lanes currently queued. */
    std::size_t pendingLanes() const { return pendingLanes_; }

    /** Requests currently queued. */
    std::size_t pendingRequests() const { return pending_.size(); }

  private:
    Group cut(FlushReason reason, std::chrono::time_point<Clock> now);

    DesignId design_;
    std::size_t maxBatch_;
    std::vector<PendingRequest> pending_;
    std::size_t pendingLanes_ = 0;
};

} // namespace spatial::serve

#endif // SPATIAL_SERVE_BATCHER_H
