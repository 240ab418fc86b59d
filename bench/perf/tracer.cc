#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <map>

#include "experiments/json.h"

namespace spatial::perf
{

namespace
{

/** Small stable per-thread number for the trace's tid column. */
std::uint32_t
threadNumber()
{
    static std::atomic<std::uint32_t> next{1};
    thread_local const std::uint32_t mine = next.fetch_add(1);
    return mine;
}

} // namespace

std::vector<LayerTime>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::size_t>> children(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const std::int64_t p = spans[i].parent;
        if (p >= 0 && static_cast<std::size_t>(p) < spans.size())
            children[static_cast<std::size_t>(p)].push_back(i);
    }

    std::map<std::string, LayerTime> by_name;
    std::vector<std::pair<std::int64_t, std::int64_t>> cover;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const std::int64_t dur = std::max<std::int64_t>(0, s.endNs - s.startNs);

        cover.clear();
        for (const std::size_t c : children[i]) {
            const std::int64_t a = std::max(spans[c].startNs, s.startNs);
            const std::int64_t b = std::min(spans[c].endNs, s.endNs);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (const auto &[a, b] : cover) {
            const std::int64_t from = std::max(a, reach);
            if (b > from)
                covered += b - from;
            reach = std::max(reach, b);
        }

        LayerTime &t = by_name[s.name];
        t.name = s.name;
        ++t.count;
        t.totalMs += static_cast<double>(dur) * 1e-6;
        t.selfMs += static_cast<double>(dur - covered) * 1e-6;
    }

    std::vector<LayerTime> out;
    for (auto &[name, t] : by_name)
        out.push_back(std::move(t));
    std::sort(out.begin(), out.end(),
              [](const LayerTime &a, const LayerTime &b) {
                  return a.selfMs > b.selfMs;
              });
    return out;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::int64_t
Tracer::record(const char *name, Clock::time_point start,
               Clock::time_point end, std::int64_t parent, std::uint64_t id)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.startNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                    start - epoch_)
                    .count();
    s.endNs =
        std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
            .count();
    s.parent = parent;
    s.id = id;
    s.tid = threadNumber();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(s);
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    const std::vector<Span> all = spans();
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        out << (i == 0 ? "\n" : ",\n") << "{\"name\":"
            << experiments::jsonQuote(s.name)
            << ",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
            << ",\"ts\":" << experiments::jsonReal(s.startNs * 1e-3)
            << ",\"dur\":"
            << experiments::jsonReal((s.endNs - s.startNs) * 1e-3)
            << ",\"args\":{\"id\":" << s.id << ",\"span\":" << i
            << ",\"parent\":" << s.parent << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace spatial::perf
