#include "store/cold_tier.h"

#include <cstdio>
#include <filesystem>

#include "common/fault.h"
#include "common/logging.h"

namespace spatial::store
{

namespace fs = std::filesystem;

ColdTier::ColdTier(std::string dir) : dir_(std::move(dir))
{
    std::error_code ec;
    fs::create_directories(dir_, ec);
    if (ec || !fs::is_directory(dir_))
        SPATIAL_FATAL("cold tier path ", dir_,
                      " is not a usable directory",
                      ec ? ": " : "", ec ? ec.message().c_str() : "");

    // Crash cleanup: a process killed mid-spill leaves a `*.tmp`
    // behind.  The rename that would have published it never ran, so
    // nothing references the file — sweep it.
    std::size_t orphans = 0;
    for (const auto &entry : fs::directory_iterator(dir_, ec)) {
        if (!entry.is_regular_file(ec) ||
            entry.path().extension() != ".tmp")
            continue;
        std::error_code remove_ec;
        if (fs::remove(entry.path(), remove_ec))
            ++orphans;
    }
    if (orphans != 0) {
        orphansRemoved_.store(orphans, std::memory_order_relaxed);
        SPATIAL_INFORM("cold tier: removed ", orphans,
                       " orphaned temp file(s) from ", dir_);
    }
}

std::string
ColdTier::pathFor(const experiments::DesignKey &key) const
{
    // Filename from the key hash plus the raw content hash: two
    // distinct designs land on one file only if both 64-bit values
    // collide, and even then the stored identity check catches it.
    char name[48];
    std::snprintf(name, sizeof name, "%016zx-%016llx.sptd",
                  experiments::DesignKeyHash{}(key),
                  static_cast<unsigned long long>(key.contentHash));
    return (fs::path(dir_) / name).string();
}

bool
ColdTier::put(const experiments::DesignKey &key,
              const core::TiledDesign &design, bool *written)
{
    if (written != nullptr)
        *written = false;
    const std::string path = pathFor(key);
    // Write-once: the name is content-addressed and a file is only
    // ever published complete (fsync, then rename), so an existing
    // file already holds these bytes.  A file a load found unusable is
    // erased by the caller, so the next spill writes a fresh one.
    std::error_code ec;
    if (fs::exists(path, ec))
        return true;
    // Injection site: the spill device is full / erroring (ENOSPC
    // model).  The design simply is not demoted; its next request
    // recompiles — the same contract as any real write failure.
    if (fault::injectFault(fault::Site::ColdWriteFail)) {
        SPATIAL_WARN("cold tier: injected write failure for ", path);
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    bool synced = false;
    if (!saveDesignFile(path, key, design, &synced)) {
        writeFailures_.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    if (synced)
        syncs_.fetch_add(1, std::memory_order_relaxed);
    if (written != nullptr)
        *written = true;
    const auto size = fs::file_size(path, ec);
    // Injection site: a torn write that survived a crash — the
    // published file is truncated, so the next load reports
    // Truncated and the store falls back to a recompile.
    if (fault::injectFault(fault::Site::ColdWriteShort) && !ec &&
        size > kHeaderBytes) {
        std::error_code resize_ec;
        fs::resize_file(path, size / 2, resize_ec);
        SPATIAL_WARN("cold tier: injected short write for ", path);
    }
    writes_.fetch_add(1, std::memory_order_relaxed);
    if (!ec)
        bytesWritten_.fetch_add(size, std::memory_order_relaxed);
    return true;
}

LoadStatus
ColdTier::get(const experiments::DesignKey &key,
              std::shared_ptr<const core::TiledDesign> *design)
{
    experiments::DesignKey stored;
    const LoadStatus status =
        loadDesignFile(pathFor(key), design, &stored);
    if (status == LoadStatus::NotFound)
        return status;
    if (status != LoadStatus::Ok) {
        loadFailures_.fetch_add(1, std::memory_order_relaxed);
        return status;
    }
    if (!(stored == key)) {
        loadFailures_.fetch_add(1, std::memory_order_relaxed);
        design->reset();
        return LoadStatus::Corrupt;
    }
    // Injection sites, applied only to loads that really succeeded
    // (a fault on a never-spilled key would just shadow NotFound):
    // a read I/O error, and post-load corruption — artifacts damaged
    // in a way the checksum did not catch.  Both degrade to the
    // caller's recompile fallback.
    if (fault::injectFault(fault::Site::ColdReadFail)) {
        loadFailures_.fetch_add(1, std::memory_order_relaxed);
        design->reset();
        return LoadStatus::Truncated;
    }
    if (fault::injectFault(fault::Site::ColdReadCorrupt)) {
        loadFailures_.fetch_add(1, std::memory_order_relaxed);
        design->reset();
        return LoadStatus::Corrupt;
    }
    loads_.fetch_add(1, std::memory_order_relaxed);
    return LoadStatus::Ok;
}

bool
ColdTier::contains(const experiments::DesignKey &key) const
{
    std::error_code ec;
    return fs::exists(pathFor(key), ec);
}

void
ColdTier::erase(const experiments::DesignKey &key)
{
    std::error_code ec;
    fs::remove(pathFor(key), ec);
}

ColdTierStats
ColdTier::stats() const
{
    ColdTierStats stats;
    stats.writes = writes_.load(std::memory_order_relaxed);
    stats.writeFailures =
        writeFailures_.load(std::memory_order_relaxed);
    stats.loads = loads_.load(std::memory_order_relaxed);
    stats.loadFailures = loadFailures_.load(std::memory_order_relaxed);
    stats.bytesWritten = bytesWritten_.load(std::memory_order_relaxed);
    stats.syncs = syncs_.load(std::memory_order_relaxed);
    stats.orphansRemoved =
        orphansRemoved_.load(std::memory_order_relaxed);
    return stats;
}

} // namespace spatial::store
