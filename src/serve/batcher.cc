#include "serve/batcher.h"

#include <algorithm>

#include "common/logging.h"

namespace spatial::serve
{

Batcher::Batcher(DesignId design, std::size_t max_batch)
    : design_(design), maxBatch_(std::max<std::size_t>(1, max_batch))
{}

Group
Batcher::cut(FlushReason reason, std::chrono::time_point<Clock> now)
{
    Group group;
    group.design = design_;
    group.requests = std::move(pending_);
    group.lanes = pendingLanes_;
    group.reason = reason;
    group.flushAt = now;
    pending_.clear();
    pendingLanes_ = 0;
    return group;
}

std::vector<Group>
Batcher::enqueue(PendingRequest pending, std::chrono::time_point<Clock> now)
{
    SPATIAL_ASSERT(pending.request.kind != RequestKind::EsnSequence,
                   "sequences bypass the batcher");
    std::vector<Group> flushed;
    const std::size_t lanes = pending.request.lanes();

    // An incoming request never splits across groups: if it would
    // overflow the open group, that group ships first.
    if (pendingLanes_ > 0 && pendingLanes_ + lanes > maxBatch_)
        flushed.push_back(cut(FlushReason::Full, now));

    pendingLanes_ += lanes;
    pending_.push_back(std::move(pending));

    if (pendingLanes_ >= maxBatch_)
        flushed.push_back(cut(FlushReason::Full, now));
    return flushed;
}

std::optional<Group>
Batcher::flush(FlushReason reason, std::chrono::time_point<Clock> now)
{
    if (pending_.empty())
        return std::nullopt;
    return cut(reason, now);
}

std::optional<std::chrono::time_point<Clock>>
Batcher::oldestSubmit() const
{
    if (pending_.empty())
        return std::nullopt;
    return pending_.front().submitAt;
}

} // namespace spatial::serve
