/**
 * @file
 * In-memory span recorder of the traced spatial-perf run.
 *
 * Spans are recorded by the benchmark's own code around its calls into
 * each layer (nothing inside the library is instrumented), kept in
 * memory, and written out once at exit as Chrome trace-event JSON
 * (load it in chrome://tracing or Perfetto).  A span may name a parent;
 * a layer's self time is its spans' duration minus the part of each
 * covered by their children.
 */

#ifndef SPATIAL_BENCH_PERF_TRACER_H
#define SPATIAL_BENCH_PERF_TRACER_H

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace spatial::perf
{

/** Monotonic clock of every benchmark timestamp. */
using Clock = std::chrono::steady_clock;

/** Milliseconds from `a` to `b`. */
inline double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** One recorded interval. */
struct Span
{
    const char *name = "";   //!< layer.phase name (static storage)
    std::int64_t startNs = 0; //!< since the tracer's epoch
    std::int64_t endNs = 0;   //!< since the tracer's epoch
    std::int64_t parent = -1; //!< index of the parent span, -1 for roots
    std::uint64_t id = 0;     //!< request id shared by a request's spans
    std::uint32_t tid = 0;    //!< recording thread (small integer)
};

/** Per-name totals over a span set. */
struct LayerTime
{
    std::string name;     //!< span name
    std::size_t count = 0; //!< spans with this name
    double totalMs = 0.0; //!< summed durations
    double selfMs = 0.0;  //!< summed durations minus child coverage
};

/**
 * Self time per span name: each span's duration minus the union of its
 * children's intervals clipped to it.  Sorted by descending self time.
 */
std::vector<LayerTime> selfTimes(const std::vector<Span> &spans);

/** Thread-safe span recorder; a disabled tracer records nothing. */
class Tracer
{
  public:
    /** `enabled` false turns record() into a no-op returning -1. */
    explicit Tracer(bool enabled);

    /** True when spans are being kept. */
    bool enabled() const { return enabled_; }

    /**
     * Keep [start, end) under `name` (a string literal); returns the
     * span's index for use as a child's parent, or -1 when disabled.
     */
    std::int64_t record(const char *name, Clock::time_point start,
                        Clock::time_point end, std::int64_t parent = -1,
                        std::uint64_t id = 0);

    /** A copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write the spans as Chrome trace-event JSON; false on I/O error. */
    bool writeChromeJson(const std::string &path) const;

  private:
    const bool enabled_;
    const Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_; //!< guarded by mutex_
};

} // namespace spatial::perf

#endif // SPATIAL_BENCH_PERF_TRACER_H
