/**
 * @file
 * Request and response types of the online serving layer.
 *
 * A Request is one unit of client work against one registered design:
 * a single GEMV, a pre-batched block of GEMVs, one integer-ESN state
 * update, or a whole sequential ESN trajectory.  The first three are
 * *lane-shaped* — each contributes one or more independent vectors that
 * the Batcher packs into a wide engine group — while EsnSequence is
 * inherently sequential (each step feeds the next) and runs on a
 * persistent TapeGemv instead.
 *
 * Responses carry the decoded outputs plus the timing breadcrumbs the
 * load generator turns into latency percentiles, so open-loop clients
 * never have to block per-request just to timestamp completion.
 */

#ifndef SPATIAL_SERVE_REQUEST_H
#define SPATIAL_SERVE_REQUEST_H

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <vector>

#include "matrix/bits.h"
#include "matrix/dense.h"

/**
 * @namespace spatial::serve
 * The online serving layer: DesignStore (LRU of hot compiled designs),
 * Batcher (work-conserving lane batching), Server (persistent worker
 * pool with per-design fairness), and the load generator behind the
 * spatial-serve CLI and the serving_throughput experiment.
 */
namespace spatial::serve
{

/** Handle to a design registered with a Server. */
using DesignId = std::size_t;

/** Monotonic clock all serve-layer timestamps use. */
using Clock = std::chrono::steady_clock;

/** What one request asks the design to compute. */
enum class RequestKind : std::uint8_t
{
    /** o = x^T V for one vector (one lane). */
    Gemv,
    /** One o = x^T V per row of a client-provided block (B lanes). */
    GemvBatch,
    /**
     * One integer-ESN update, clip((x^T W + inject) >> postShift):
     * the gemv rides a lane; shift/clip/inject happen at scatter time.
     */
    EsnStep,
    /**
     * A T-step recurrent trajectory of EsnStep updates.  Sequential by
     * construction (state t feeds step t+1), so it bypasses the lane
     * batcher and runs on a persistent single-vector tape executor.
     */
    EsnSequence,
};

/** Printable kind name for stats and errors. */
const char *requestKindName(RequestKind kind);

/**
 * The integer-ESN activation the ESN request kinds apply to a
 * pre-activation sum: saturating clip of the right-shifted value to
 * the signed stateBits range — the same update
 * esn::IntReservoir::step performs.  One definition for every serve
 * execution path (batched scatter, sequential jobs, the load
 * generator's naive reference).
 */
inline std::int64_t
esnClipUpdate(std::int64_t pre, int post_shift, int state_bits)
{
    return std::clamp(pre >> post_shift, minSigned(state_bits),
                      maxSigned(state_bits));
}

/** One unit of client work; build with the factory helpers. */
struct Request
{
    /** Which computation this request asks for. */
    RequestKind kind = RequestKind::Gemv;

    /**
     * Gemv/EsnStep: the input vector (length rows).
     * EsnSequence: the initial state x(0).
     * Unused by GemvBatch.
     */
    std::vector<std::int64_t> vec;

    /** GemvBatch: the B x rows input block.  Unused otherwise. */
    IntMatrix batch;

    /**
     * EsnStep: additive pre-activation contribution (length cols),
     * already aligned to the recurrent term's 2^postShift scale — the
     * W_in u(n) term of the reservoir update.  Empty means zero.
     */
    std::vector<std::int64_t> inject;

    /** EsnSequence: per-step inject rows (T x cols). */
    IntMatrix injectSeq;

    /** ESN kinds: right-shift applied to the pre-activation. */
    int postShift = 0;

    /** ESN kinds: saturating clip width (signed stateBits range). */
    int stateBits = 8;

    /** A single-vector GEMV request. */
    static Request gemv(std::vector<std::int64_t> x);

    /** A pre-batched GEMV request (one lane per row of xs). */
    static Request gemvBatch(IntMatrix xs);

    /** One integer-ESN state update from `state`. */
    static Request esnStep(std::vector<std::int64_t> state,
                           std::vector<std::int64_t> inject,
                           int post_shift, int state_bits);

    /** A T-step ESN trajectory from `state0` (T = injectSeq rows). */
    static Request esnSequence(std::vector<std::int64_t> state0,
                               IntMatrix inject_seq, int post_shift,
                               int state_bits);

    /** Engine lanes this request occupies in a batched group. */
    std::size_t lanes() const
    {
        return kind == RequestKind::GemvBatch ? batch.rows() : 1;
    }
};

/** Why a group left the batcher. */
enum class FlushReason : std::uint8_t
{
    Full,     //!< the group reached max_batch lanes
    Idle,     //!< an idle worker took the open group before it filled
    Drain,    //!< an explicit drain() / shutdown flush
    Direct,   //!< bypassed batching (sequential EsnSequence jobs)
};

/** Printable reason name for stats and the bench JSON. */
const char *flushReasonName(FlushReason reason);

/** The outcome of one request. */
struct Response
{
    /**
     * Decoded outputs: 1 x cols for Gemv/EsnStep, B x cols for
     * GemvBatch, and the T x cols state trajectory for EsnSequence.
     */
    IntMatrix output;

    /** Row 0 of `output` as a vector (single-vector kinds). */
    std::vector<std::int64_t> vector() const;

    std::chrono::time_point<Clock> submitAt{}; //!< enqueue timestamp
    std::chrono::time_point<Clock> flushAt{};  //!< left the batcher
    std::chrono::time_point<Clock> doneAt{};   //!< outputs scattered

    /** Lanes in the executed group, before 64-lane padding. */
    std::uint32_t groupLanes = 0;

    /** Why the group this request rode in was flushed. */
    FlushReason flushReason = FlushReason::Direct;

    /**
     * Activity-gated tape segments the executing engine ran for this
     * request's group (or EsnSequence job); 0 when gating is disabled.
     */
    std::uint64_t segmentsExecuted = 0;

    /** Segments the engine skipped as provably quiescent. */
    std::uint64_t segmentsSkipped = 0;

    /**
     * True when the queue-age watchdog shed this request instead of
     * executing it: `output` is empty and the wire front end answers
     * Status::Busy.  See ServeOptions::maxQueueAge.
     */
    bool shed = false;

    /** End-to-end latency in seconds (submit to scatter). */
    double latencySeconds() const
    {
        return std::chrono::duration<double>(doneAt - submitAt).count();
    }
};

} // namespace spatial::serve

#endif // SPATIAL_SERVE_REQUEST_H
