#include "serve/design_store.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "analysis/verifier.h"
#include "common/fault.h"
#include "common/logging.h"

namespace spatial::serve
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

} // namespace

DesignStore::DesignStore(std::size_t capacity)
    : DesignStore(StoreOptions{capacity, {}, {}})
{}

DesignStore::DesignStore(StoreOptions options)
    : options_(std::move(options))
{
    options_.capacity = std::max<std::size_t>(1, options_.capacity);
    if (!options_.spillDir.empty())
        cold_ = std::make_unique<store::ColdTier>(options_.spillDir);
}

void
DesignStore::evictLocked(std::vector<Demotion> *demote)
{
    // Evict least-recently-used first, but never an entry whose
    // materialization is still in flight: evicting it would let a
    // concurrent request start a duplicate compile, and would leave
    // the owner's error-cleanup erasing someone else's entry.  If
    // everything over budget is in flight, capacity is exceeded
    // transiently and the next get() retries.
    auto it = lru_.end();
    while (entries_.size() > options_.capacity && it != lru_.begin()) {
        --it;
        const auto entry = entries_.find(*it);
        if (entry->second.future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready)
            continue;
        if (cold_ != nullptr)
            demote->emplace_back(entry->first,
                                 entry->second.future.get());
        entries_.erase(entry);
        it = lru_.erase(it);
        evictions_.fetch_add(1, std::memory_order_relaxed);
    }
}

void
DesignStore::demote(std::vector<Demotion> demotions)
{
    // Serialization is file I/O over potentially tens of megabytes;
    // it must not run under the store mutex.  Spill files are
    // write-once, so a design demoted before costs only a stat, and
    // only files actually written count as demotions.
    for (const auto &[key, design] : demotions) {
        bool written = false;
        if (cold_->put(key, *design, &written) && written)
            demotions_.fetch_add(1, std::memory_order_relaxed);
    }
}

std::shared_ptr<const core::TiledDesign>
DesignStore::get(const IntMatrix &weights,
                 const core::CompileOptions &options)
{
    return get(experiments::makeDesignKey(weights, options), weights,
               options);
}

std::shared_ptr<const core::TiledDesign>
DesignStore::get(const experiments::DesignKey &key,
                 const IntMatrix &weights,
                 const core::CompileOptions &options)
{
    Future future;
    std::promise<std::shared_ptr<const core::TiledDesign>> promise;
    bool owner = false;
    std::vector<Demotion> pending_demotions;
    {
        MutexLock lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            hits_.fetch_add(1, std::memory_order_relaxed);
            lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            future = it->second.future;
        } else {
            misses_.fetch_add(1, std::memory_order_relaxed);
            owner = true;
            future = promise.get_future().share();
            lru_.push_front(key);
            entries_.emplace(key, Entry{future, lru_.begin()});
            evictLocked(&pending_demotions);
        }
    }
    if (!pending_demotions.empty())
        demote(std::move(pending_demotions));
    if (owner) {
        try {
            std::shared_ptr<const core::TiledDesign> design;

            // Cold tier first: a demoted design rematerializes from
            // its spill file — netlist replay plus plan rebuild, not
            // a recompile.  Any validation failure falls back, and
            // the unusable file is erased so the next demotion writes
            // a fresh one (spill files are otherwise write-once).
            if (cold_ != nullptr) {
                const auto start = std::chrono::steady_clock::now();
                const auto status = cold_->get(key, &design);
                std::string unusable;
                if (status != store::LoadStatus::Ok &&
                    status != store::LoadStatus::NotFound)
                    unusable = store::loadStatusName(status);
#ifndef NDEBUG
                // Debug builds statically verify every rematerialized
                // design; a checksum-valid file whose artifacts break
                // an invariant falls back exactly like a Corrupt load.
                if (design != nullptr) {
                    const analysis::Report report =
                        analysis::verifyDesign(*design);
                    if (!report.ok()) {
                        design = nullptr;
                        unusable = "failed verification: " +
                                   report.diagnostics.front().rule;
                    }
                }
#endif
                if (design != nullptr) {
                    promotions_.fetch_add(1,
                                          std::memory_order_relaxed);
                    loadMicros_.fetch_add(
                        static_cast<std::uint64_t>(
                            secondsSince(start) * 1e6),
                        std::memory_order_relaxed);
                } else if (!unusable.empty()) {
                    coldFallbacks_.fetch_add(
                        1, std::memory_order_relaxed);
                    SPATIAL_WARN("store: cold design ",
                                 cold_->pathFor(key), " unusable (",
                                 unusable, "); recompiling");
                    cold_->erase(key);
                }
            }
            if (design == nullptr) {
                // Injection sites: an admission latency spike, and a
                // transient compile failure.  Real compile errors
                // propagate to every waiter as an exception; an
                // injected failure models a transient toolchain
                // hiccup on a compilable design, which admission
                // rides out with a bounded backoff-retry loop — the
                // request is delayed, never failed, and never
                // escapes as an exception into the worker pool.
                if (const std::uint64_t spike_ms =
                        fault::injectFaultParam(
                            fault::Site::StoreCompileDelay)) {
                    faultsInjected_.fetch_add(
                        1, std::memory_order_relaxed);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(spike_ms));
                }
                for (int attempt = 0;
                     attempt < 4 &&
                     fault::injectFault(
                         fault::Site::StoreCompileFail);
                     ++attempt) {
                    faultsInjected_.fetch_add(
                        1, std::memory_order_relaxed);
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(1LL << attempt));
                }
                const auto start = std::chrono::steady_clock::now();
                design = std::make_shared<const core::TiledDesign>(
                    core::TiledDesign::compile(weights, options,
                                               options_.tile));
                compileMicros_.fetch_add(
                    static_cast<std::uint64_t>(secondsSince(start) *
                                               1e6),
                    std::memory_order_relaxed);
#ifndef NDEBUG
                // A freshly compiled design failing static
                // verification is a compiler bug, not bad input —
                // surface it at the source instead of as a downstream
                // miscompare.
                if (const analysis::Report report =
                        analysis::verifyDesign(*design);
                    !report.ok())
                    SPATIAL_PANIC(
                        "store: compiled design failed verification: ",
                        report.diagnostics.front().str());
#endif
            }
            promise.set_value(std::move(design));
        } catch (...) {
            promise.set_exception(std::current_exception());
            MutexLock lock(mutex_);
            const auto it = entries_.find(key);
            if (it != entries_.end()) {
                lru_.erase(it->second.lruIt);
                entries_.erase(it);
            }
            throw;
        }
    }
    return future.get();
}

DesignStore::Stats
DesignStore::stats() const
{
    Stats stats;
    stats.cache.hits = hits_.load(std::memory_order_relaxed);
    stats.cache.misses = misses_.load(std::memory_order_relaxed);
    stats.evictions = evictions_.load(std::memory_order_relaxed);
    stats.demotions = demotions_.load(std::memory_order_relaxed);
    stats.promotions = promotions_.load(std::memory_order_relaxed);
    stats.coldFallbacks =
        coldFallbacks_.load(std::memory_order_relaxed);
    stats.compileSeconds =
        static_cast<double>(
            compileMicros_.load(std::memory_order_relaxed)) /
        1e6;
    stats.loadSeconds =
        static_cast<double>(
            loadMicros_.load(std::memory_order_relaxed)) /
        1e6;
    stats.faultsInjected =
        faultsInjected_.load(std::memory_order_relaxed);
    {
        MutexLock lock(mutex_);
        stats.resident = entries_.size();
    }
    return stats;
}

store::ColdTierStats
DesignStore::coldStats() const
{
    return cold_ != nullptr ? cold_->stats() : store::ColdTierStats{};
}

} // namespace spatial::serve
