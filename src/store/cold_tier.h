/**
 * @file
 * The on-disk cold tier of the design store: a directory of
 * serialized designs keyed by design identity.
 *
 * FlashX-style tiering for the design catalog: the hot tier
 * (serve::DesignStore's LRU map) holds live TiledDesigns; when a
 * design is demoted it is serialized into this directory, and a later
 * request rematerializes it by loading the file — a linear netlist
 * replay plus ExecPlan rebuild, several times cheaper than
 * recompiling.  Filenames are derived from the DesignKey hash; the
 * stored identity block is verified on load, so a hash collision (or
 * a stale file from an incompatible revision) degrades to a miss,
 * never to serving the wrong design.
 *
 * Spill files are write-once.  A design's name is its content hash
 * plus CompileOptions, so the bytes for a key never change: put() on
 * a key that already has a file writes nothing, and a re-demoted
 * design costs a stat, not a re-serialization and an fsync.  A file
 * that fails to load is erased by the caller, so the next spill
 * replaces it.
 *
 * Thread-safe: writes go through an atomic temp-file + rename, reads
 * open whichever complete file is current, and the counters are
 * atomics.  Durability is best-effort by design — a lost or corrupt
 * file only costs a recompile (see docs/store.md).
 */

#ifndef SPATIAL_STORE_COLD_TIER_H
#define SPATIAL_STORE_COLD_TIER_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "store/format.h"

namespace spatial::store
{

/** Counters of one cold tier's traffic (point-in-time snapshot). */
struct ColdTierStats
{
    std::size_t writes = 0;        //!< designs spilled successfully
    std::size_t writeFailures = 0; //!< spills that failed (I/O)
    std::size_t loads = 0;         //!< designs rematerialized
    std::size_t loadFailures = 0;  //!< load attempts that failed
    std::uint64_t bytesWritten = 0; //!< serialized bytes spilled
    std::size_t syncs = 0;         //!< spills fsync'd before rename
    /** Orphaned `*.tmp` files (a crash mid-spill) swept at startup. */
    std::size_t orphansRemoved = 0;
};

/** Directory-backed cold tier of serialized designs. */
class ColdTier
{
  public:
    /**
     * Bind to `dir`, creating it (and parents) if needed; fatal only
     * when the path exists and is not a directory.  Sweeps orphaned
     * `*.tmp` files a killed process may have left mid-spill — they
     * are unreferenced by construction (a completed spill renames its
     * temp file away) and would otherwise accumulate forever.
     */
    explicit ColdTier(std::string dir);

    /** The backing directory. */
    const std::string &dir() const { return dir_; }

    /** The file path a key's design is stored under. */
    std::string pathFor(const experiments::DesignKey &key) const;

    /**
     * Spill a design, once: when a file for the key already exists
     * this writes nothing and returns true — the file name is
     * content-addressed and only complete files are published, so it
     * already holds these bytes.  A caller that finds a file unusable
     * erase()s it so the next put writes a fresh one.  Returns false
     * (counted, warned) on I/O failure.  `*written` (when non-null)
     * reports whether this call wrote a file.
     */
    bool put(const experiments::DesignKey &key,
             const core::TiledDesign &design, bool *written = nullptr);

    /**
     * Rematerialize the design for `key`.  NotFound when the key was
     * never spilled; any other non-Ok status means the file exists but
     * could not be used (and the caller should recompile).  A stored
     * identity that does not match `key` is reported as Corrupt.
     */
    LoadStatus get(const experiments::DesignKey &key,
                   std::shared_ptr<const core::TiledDesign> *design);

    /** True when a file exists for the key (no validation). */
    bool contains(const experiments::DesignKey &key) const;

    /** Remove the key's file, if any. */
    void erase(const experiments::DesignKey &key);

    /** Current counters. */
    ColdTierStats stats() const;

  private:
    std::string dir_;
    std::atomic<std::size_t> writes_{0};
    std::atomic<std::size_t> writeFailures_{0};
    std::atomic<std::size_t> loads_{0};
    std::atomic<std::size_t> loadFailures_{0};
    std::atomic<std::uint64_t> bytesWritten_{0};
    std::atomic<std::size_t> syncs_{0};
    std::atomic<std::size_t> orphansRemoved_{0};
};

} // namespace spatial::store

#endif // SPATIAL_STORE_COLD_TIER_H
