/**
 * @file
 * The memory-tiered design store for the serving layer: an LRU hot
 * tier of live TiledDesigns over an optional on-disk cold tier.
 *
 * Serving traffic references a working set of models that changes over
 * time; unlike an offline sweep (experiments::DesignCache, which only
 * ever grows), the serving store must be bounded.  The store keys on
 * the exact same identity as the sweep cache — experiments::DesignKey,
 * the matrix FNV content hash plus CompileOptions — so "same design"
 * means the same thing online and offline, and reuses
 * DesignCache::Stats as its hit/miss snapshot.
 *
 * Tiering (FlashX-style in-memory vs. external backends): when a
 * spill directory is configured, LRU eviction *demotes* the design —
 * it is serialized to the cold tier (store::ColdTier) before the hot
 * entry drops — and a later request for the key *promotes* it back by
 * loading the file instead of recompiling, several times faster at
 * the dims where compiles take seconds.  Spill files are write-once:
 * a design's key is its content hash plus CompileOptions, so its
 * bytes never change, and demoting a design whose file is already on
 * disk writes nothing.  A cold file that fails validation (truncated,
 * checksum mismatch, wrong version) falls back to a recompile with a
 * logged warning and is erased, so the next demotion writes it fresh;
 * tiering is an optimization, never a correctness dependency.
 * Without a spill directory, eviction drops the entry outright (the
 * pre-tiering behavior).
 *
 * Designs are compiled as column-strip tiles under StoreOptions::tile
 * (core::TiledDesign), so a dim-8192 registration works exactly like
 * a dim-64 one — it just produces more tiles.
 *
 * Thread-safe.  Concurrent get()s for one key materialize once: the
 * first requester owns the load-or-compile and everyone else blocks
 * on its shared future (in-flight dedup).  Eviction is strict LRU
 * over completed entries; evicted designs stay alive for holders of
 * the returned shared_ptr.  Demotion serialization runs outside the
 * store mutex.
 */

#ifndef SPATIAL_SERVE_DESIGN_STORE_H
#define SPATIAL_SERVE_DESIGN_STORE_H

#include <atomic>
#include <cstdint>
#include <future>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sync.h"
#include "core/tiled_design.h"
#include "experiments/design_cache.h"
#include "matrix/dense.h"
#include "store/cold_tier.h"

namespace spatial::serve
{

/** Configuration of one DesignStore. */
struct StoreOptions
{
    /** Hot-tier capacity: resident designs (min 1). */
    std::size_t capacity = 64;

    /**
     * Cold-tier directory; empty disables tiering (eviction then
     * drops designs outright instead of demoting them).
     */
    std::string spillDir;

    /** Column-tiling budget every design is compiled under. */
    core::TileOptions tile;
};

/** Memory-tiered LRU of compiled designs with in-flight dedup. */
class DesignStore
{
  public:
    /** Snapshot of the store's accounting. */
    struct Stats
    {
        /**
         * Hot-tier hit/miss counters (same struct the sweep cache
         * exposes).  A miss that promotes from the cold tier still
         * counts as a miss — `promotions` splits the misses into
         * loaded-vs-compiled.
         */
        experiments::DesignCache::Stats cache;

        std::size_t evictions = 0; //!< hot entries dropped by the LRU
        std::size_t resident = 0;  //!< hot entries currently held

        /**
         * Evictions that wrote a cold-tier file.  An eviction whose
         * file is already on disk writes nothing (spill files are
         * write-once) and counts in `evictions` only.
         */
        std::size_t demotions = 0;

        /** Misses served by loading a cold-tier file. */
        std::size_t promotions = 0;

        /**
         * Cold files rejected (checksum/corruption/version) and
         * recompiled instead; each leaves a logged warning and erases
         * the file, so the next demotion rewrites it.
         */
        std::size_t coldFallbacks = 0;

        /** Wall-clock seconds spent compiling on misses. */
        double compileSeconds = 0.0;

        /** Wall-clock seconds spent loading cold designs. */
        double loadSeconds = 0.0;

        /**
         * Injected admission faults absorbed (compile failures ridden
         * out by the bounded retry, plus injected latency spikes);
         * always 0 outside chaos runs.  See common/fault.h.
         */
        std::uint64_t faultsInjected = 0;
    };

    /** Hot-only store holding at most `capacity` designs (min 1). */
    explicit DesignStore(std::size_t capacity = 64);

    /** Fully configured store (capacity, cold tier, tiling). */
    explicit DesignStore(StoreOptions options);

    /**
     * The design for (weights, options), materializing on first
     * request: cold-tier load when a valid spill file exists,
     * compile otherwise.  Never returns null; rethrows the owner's
     * error to every waiter and evicts the entry so later calls
     * retry.
     */
    std::shared_ptr<const core::TiledDesign>
    get(const IntMatrix &weights, const core::CompileOptions &options);

    /**
     * As get(), for callers that already computed the key (avoids
     * re-hashing the matrix); `key` must equal
     * makeDesignKey(weights, options).
     */
    std::shared_ptr<const core::TiledDesign>
    get(const experiments::DesignKey &key, const IntMatrix &weights,
        const core::CompileOptions &options);

    /** Current accounting (counters are lock-free reads). */
    Stats stats() const;

    /** Cold-tier traffic counters; zeros when tiering is disabled. */
    store::ColdTierStats coldStats() const;

    /** The configured capacity. */
    std::size_t capacity() const { return options_.capacity; }

    /** The full configuration. */
    const StoreOptions &options() const { return options_; }

  private:
    using Future =
        std::shared_future<std::shared_ptr<const core::TiledDesign>>;

    struct Entry
    {
        Future future;
        std::list<experiments::DesignKey>::iterator lruIt;
    };

    /** A ready design extracted by eviction for cold-tier demotion. */
    using Demotion =
        std::pair<experiments::DesignKey,
                  std::shared_ptr<const core::TiledDesign>>;

    /**
     * Drop least-recently-used entries beyond capacity (lock held).
     * Ready victims are appended to `demote` for the caller to spill
     * outside the lock when a cold tier is configured.
     */
    void evictLocked(std::vector<Demotion> *demote)
        SPATIAL_REQUIRES(mutex_);

    /** Spill demotion victims to the cold tier (outside the lock). */
    void demote(std::vector<Demotion> demotions)
        SPATIAL_EXCLUDES(mutex_);

    StoreOptions options_;
    std::unique_ptr<store::ColdTier> cold_; //!< null when disabled
    mutable Mutex mutex_;
    std::unordered_map<experiments::DesignKey, Entry,
                       experiments::DesignKeyHash>
        entries_ SPATIAL_GUARDED_BY(mutex_);
    /** Keys in recency order, most recent first. */
    std::list<experiments::DesignKey> lru_ SPATIAL_GUARDED_BY(mutex_);
    std::atomic<std::size_t> hits_{0};
    std::atomic<std::size_t> misses_{0};
    std::atomic<std::size_t> evictions_{0};
    std::atomic<std::size_t> demotions_{0};
    std::atomic<std::size_t> promotions_{0};
    std::atomic<std::size_t> coldFallbacks_{0};
    /** Microseconds, so the counters stay lock-free integers. */
    std::atomic<std::uint64_t> compileMicros_{0};
    std::atomic<std::uint64_t> loadMicros_{0};
    std::atomic<std::uint64_t> faultsInjected_{0};
};

} // namespace spatial::serve

#endif // SPATIAL_SERVE_DESIGN_STORE_H
