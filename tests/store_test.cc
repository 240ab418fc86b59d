/**
 * @file
 * Tests of the memory-tiered design store: serialized-format
 * round-trips, defensive loading of damaged files (truncation, bit
 * flips, wrong magic/version, checksum mismatch), the cold tier's
 * identity verification, hot-tier demotion/promotion through
 * serve::DesignStore, and the end-to-end large-matrix acceptance path
 * (register, spill, rematerialize from disk, serve bit-exactly).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>
#include <sys/stat.h>
#include <unistd.h>

#include "common/fault.h"
#include "common/rng.h"
#include "core/tiled_design.h"
#include "matrix/bits.h"
#include "matrix/generate.h"
#include "serve/design_store.h"
#include "serve/server.h"
#include "store/cold_tier.h"
#include "store/format.h"

namespace
{

using namespace spatial;
namespace fs = std::filesystem;

core::CompileOptions
testCompileOptions(int bits = 8)
{
    core::CompileOptions options;
    options.inputBits = bits;
    options.inputsSigned = true;
    options.signMode = core::SignMode::Csd;
    return options;
}

IntMatrix
testWeights(std::size_t dim, std::uint64_t seed, double sparsity = 0.6)
{
    Rng rng(seed);
    return makeSignedElementSparseMatrix(dim, dim, 8, sparsity, rng);
}

/** Installs fault rules for a scope; clears the plan on exit. */
struct FaultGuard
{
    explicit FaultGuard(
        std::initializer_list<std::pair<fault::Site, fault::Rule>>
            rules)
    {
        auto &plan = fault::FaultPlan::instance();
        plan.clear();
        for (const auto &[site, rule] : rules)
            plan.configure(site, rule);
    }

    ~FaultGuard() { fault::FaultPlan::instance().clear(); }
};

/** A per-test scratch directory, removed on destruction. */
struct TempDir
{
    fs::path path;

    explicit TempDir(const std::string &tag)
        : path(fs::path(::testing::TempDir()) /
               ("spatial-store-" + tag + "-" +
                std::to_string(::getpid())))
    {
        fs::remove_all(path);
        fs::create_directories(path);
    }

    ~TempDir() { fs::remove_all(path); }
};

std::vector<std::uint8_t>
serialized(const IntMatrix &weights, const core::CompileOptions &options,
           const core::TileOptions &tile = {})
{
    const auto design = core::TiledDesign::compile(weights, options, tile);
    const auto key = experiments::makeDesignKey(weights, options);
    return store::serializeDesign(key, design);
}

/** Plain integer GEMV of the raw weights: the untiled reference. */
std::vector<std::int64_t>
referenceMultiply(const IntMatrix &weights,
                  const std::vector<std::int64_t> &x)
{
    std::vector<std::int64_t> out(weights.cols(), 0);
    for (std::size_t r = 0; r < weights.rows(); ++r) {
        if (x[r] == 0)
            continue;
        for (std::size_t c = 0; c < weights.cols(); ++c)
            out[c] += x[r] * weights.at(r, c);
    }
    return out;
}

// ---------------------------------------------------------------------
// Serialized format: round-trips
// ---------------------------------------------------------------------

TEST(StoreFormat, RoundTripSingleTile)
{
    const auto weights = testWeights(16, 301);
    const auto options = testCompileOptions();
    const auto design = core::TiledDesign::compile(weights, options);
    ASSERT_FALSE(design.tiled());
    const auto key = experiments::makeDesignKey(weights, options);
    const auto bytes = store::serializeDesign(key, design);

    std::shared_ptr<const core::TiledDesign> loaded;
    experiments::DesignKey stored;
    ASSERT_EQ(store::deserializeDesign(bytes.data(), bytes.size(),
                                       &loaded, &stored),
              store::LoadStatus::Ok);
    EXPECT_TRUE(stored == key);
    EXPECT_EQ(loaded->rows(), design.rows());
    EXPECT_EQ(loaded->cols(), design.cols());
    EXPECT_EQ(loaded->tileCount(), design.tileCount());
    EXPECT_EQ(loaded->weightOnes(), design.weightOnes());
    EXPECT_EQ(loaded->drainCycles(), design.drainCycles());
    EXPECT_TRUE(loaded->options() == design.options());

    Rng rng(302);
    for (int i = 0; i < 4; ++i) {
        const auto x = makeSignedVector(weights.rows(), 8, rng);
        EXPECT_EQ(loaded->multiply(x), referenceMultiply(weights, x));
    }
}

TEST(StoreFormat, RoundTripTiledDesign)
{
    const auto weights = testWeights(40, 311, 0.4);
    const auto options = testCompileOptions();
    core::TileOptions tile;
    tile.onesBudget = 300; // forces several column strips
    const auto design =
        core::TiledDesign::compile(weights, options, tile);
    ASSERT_GT(design.tileCount(), 2u);
    const auto key = experiments::makeDesignKey(weights, options);
    const auto bytes = store::serializeDesign(key, design);

    std::shared_ptr<const core::TiledDesign> loaded;
    ASSERT_EQ(store::deserializeDesign(bytes.data(), bytes.size(),
                                       &loaded),
              store::LoadStatus::Ok);
    EXPECT_EQ(loaded->tileCount(), design.tileCount());
    EXPECT_TRUE(loaded->tileOptions() == tile);
    ASSERT_EQ(loaded->plan().tiles.size(), design.plan().tiles.size());
    for (std::size_t i = 0; i < loaded->plan().tiles.size(); ++i) {
        EXPECT_EQ(loaded->plan().tiles[i].colBegin,
                  design.plan().tiles[i].colBegin);
        EXPECT_EQ(loaded->plan().tiles[i].colEnd,
                  design.plan().tiles[i].colEnd);
    }

    Rng rng(312);
    const IntMatrix batch = makeSignedBatch(9, weights.rows(), 8, rng);
    EXPECT_TRUE(loaded->multiplyBatchWide(batch) ==
                design.multiplyBatchWide(batch));
}

// ---------------------------------------------------------------------
// Damaged files fail cleanly (the ASan fuzz surface)
// ---------------------------------------------------------------------

TEST(StoreFormat, EveryTruncationFailsCleanly)
{
    const auto bytes = serialized(testWeights(12, 321), testCompileOptions());
    ASSERT_GT(bytes.size(), store::kHeaderBytes);

    // Every header-sized prefix, then a sweep over payload prefixes.
    for (std::size_t n = 0; n <= store::kHeaderBytes; ++n) {
        std::shared_ptr<const core::TiledDesign> design;
        EXPECT_NE(store::deserializeDesign(bytes.data(), n, &design),
                  store::LoadStatus::Ok)
            << "prefix " << n;
        EXPECT_EQ(design, nullptr);
    }
    for (std::size_t n = store::kHeaderBytes + 1; n < bytes.size();
         n += 7) {
        std::shared_ptr<const core::TiledDesign> design;
        EXPECT_EQ(store::deserializeDesign(bytes.data(), n, &design),
                  store::LoadStatus::Truncated)
            << "prefix " << n;
        EXPECT_EQ(design, nullptr);
    }
}

TEST(StoreFormat, EveryBitFlipFailsCleanly)
{
    const auto pristine =
        serialized(testWeights(12, 331), testCompileOptions());
    for (std::size_t byte = 0; byte < pristine.size(); byte += 13) {
        for (int bit = 0; bit < 8; bit += 3) {
            auto bytes = pristine;
            bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
            std::shared_ptr<const core::TiledDesign> design;
            EXPECT_NE(store::deserializeDesign(bytes.data(),
                                               bytes.size(), &design),
                      store::LoadStatus::Ok)
                << "byte " << byte << " bit " << bit;
            EXPECT_EQ(design, nullptr);
        }
    }
}

TEST(StoreFormat, WrongMagicAndVersionAreDistinguished)
{
    const auto pristine =
        serialized(testWeights(12, 341), testCompileOptions());
    std::shared_ptr<const core::TiledDesign> design;

    auto bytes = pristine;
    bytes[0] ^= 0xff; // magic
    EXPECT_EQ(store::deserializeDesign(bytes.data(), bytes.size(),
                                       &design),
              store::LoadStatus::BadMagic);

    bytes = pristine;
    bytes[4] ^= 0xff; // version (checked before the checksum)
    EXPECT_EQ(store::deserializeDesign(bytes.data(), bytes.size(),
                                       &design),
              store::LoadStatus::BadVersion);

    bytes = pristine;
    bytes[store::kHeaderBytes] ^= 0x01; // first payload byte
    EXPECT_EQ(store::deserializeDesign(bytes.data(), bytes.size(),
                                       &design),
              store::LoadStatus::ChecksumMismatch);
    EXPECT_EQ(design, nullptr);
}

TEST(StoreFormat, LoadFileReportsNotFound)
{
    std::shared_ptr<const core::TiledDesign> design;
    EXPECT_EQ(store::loadDesignFile("/nonexistent/spatial/design.sptd",
                                    &design),
              store::LoadStatus::NotFound);
}

// ---------------------------------------------------------------------
// Cold tier: identity verification and traffic counters
// ---------------------------------------------------------------------

TEST(ColdTier, PutGetRoundTripAndCounters)
{
    TempDir dir("coldtier");
    store::ColdTier tier(dir.path.string());
    const auto weights = testWeights(16, 351);
    const auto options = testCompileOptions();
    const auto design = core::TiledDesign::compile(weights, options);
    const auto key = experiments::makeDesignKey(weights, options);

    EXPECT_FALSE(tier.contains(key));
    std::shared_ptr<const core::TiledDesign> missing;
    EXPECT_EQ(tier.get(key, &missing), store::LoadStatus::NotFound);

    ASSERT_TRUE(tier.put(key, design));
    EXPECT_TRUE(tier.contains(key));
    std::shared_ptr<const core::TiledDesign> loaded;
    ASSERT_EQ(tier.get(key, &loaded), store::LoadStatus::Ok);
    Rng rng(352);
    const auto x = makeSignedVector(16, 8, rng);
    EXPECT_EQ(loaded->multiply(x), referenceMultiply(weights, x));

    const auto stats = tier.stats();
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.loads, 1u);
    EXPECT_EQ(stats.loadFailures, 0u);
    EXPECT_GT(stats.bytesWritten, store::kHeaderBytes);

    tier.erase(key);
    EXPECT_FALSE(tier.contains(key));
}

TEST(ColdTier, StoredIdentityMismatchIsCorrupt)
{
    TempDir dir("coldtier-id");
    store::ColdTier tier(dir.path.string());
    const auto options = testCompileOptions();
    const auto a = testWeights(16, 361);
    const auto b = testWeights(16, 362);
    const auto keyA = experiments::makeDesignKey(a, options);
    const auto keyB = experiments::makeDesignKey(b, options);

    // Plant design A's bytes at key B's path (a hash collision or a
    // tampered directory): the stored identity check must refuse it.
    const auto designA = core::TiledDesign::compile(a, options);
    ASSERT_TRUE(
        store::saveDesignFile(tier.pathFor(keyB), keyA, designA));
    std::shared_ptr<const core::TiledDesign> loaded;
    EXPECT_EQ(tier.get(keyB, &loaded), store::LoadStatus::Corrupt);
    EXPECT_EQ(loaded, nullptr);
    EXPECT_EQ(tier.stats().loadFailures, 1u);
}

// ---------------------------------------------------------------------
// DesignStore tiering: demote on evict, promote on miss, fall back
// on damage
// ---------------------------------------------------------------------

TEST(TieredStore, DemotesOnEvictionAndPromotesOnMiss)
{
    TempDir dir("tier");
    serve::StoreOptions options;
    options.capacity = 1;
    options.spillDir = dir.path.string();
    serve::DesignStore store(options);
    const auto compile = testCompileOptions();
    const auto a = testWeights(16, 371);
    const auto b = testWeights(16, 372);

    const auto first = store.get(a, compile);
    store.get(b, compile); // evicts + demotes a
    auto stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.demotions, 1u);
    EXPECT_EQ(stats.promotions, 0u);
    EXPECT_GT(stats.compileSeconds, 0.0);

    // The next request for a loads the spill file instead of
    // recompiling, and the loaded design is a distinct, equivalent
    // object.
    const auto promoted = store.get(a, compile);
    stats = store.stats();
    EXPECT_EQ(stats.promotions, 1u);
    EXPECT_EQ(stats.coldFallbacks, 0u);
    EXPECT_EQ(stats.cache.misses, 3u);
    EXPECT_GT(stats.loadSeconds, 0.0);
    EXPECT_NE(promoted.get(), first.get());
    Rng rng(373);
    const auto x = makeSignedVector(16, 8, rng);
    EXPECT_EQ(promoted->multiply(x), first->multiply(x));

    // Promoting a back evicted b, which demoted in turn: two spills.
    const auto cold = store.coldStats();
    EXPECT_EQ(cold.writes, 2u);
    EXPECT_EQ(cold.loads, 1u);
}

TEST(TieredStore, DamagedSpillFileFallsBackToRecompile)
{
    TempDir dir("tier-damage");
    serve::StoreOptions options;
    options.capacity = 1;
    options.spillDir = dir.path.string();
    serve::DesignStore store(options);
    const auto compile = testCompileOptions();
    const auto a = testWeights(16, 381);
    const auto b = testWeights(16, 382);

    store.get(a, compile);
    store.get(b, compile); // demotes a

    // Flip one payload byte of a's spill file.
    const store::ColdTier tier(dir.path.string());
    const auto path =
        tier.pathFor(experiments::makeDesignKey(a, compile));
    std::fstream file(path,
                      std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(file.is_open());
    file.seekg(static_cast<std::streamoff>(store::kHeaderBytes + 3));
    char byte = 0;
    file.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    file.seekp(static_cast<std::streamoff>(store::kHeaderBytes + 3));
    file.write(&byte, 1);
    file.close();

    // The promotion attempt rejects the file and recompiles; the
    // design still serves correctly.
    const auto design = store.get(a, compile);
    auto stats = store.stats();
    EXPECT_EQ(stats.promotions, 0u);
    EXPECT_EQ(stats.coldFallbacks, 1u);
    Rng rng(383);
    const auto x = makeSignedVector(16, 8, rng);
    EXPECT_EQ(design->multiply(x), referenceMultiply(a, x));

    // The damaged file is gone, so a's next demotion writes a fresh,
    // loadable one instead of keeping the bad bytes forever.
    EXPECT_FALSE(fs::exists(path));
    const auto writes = store.coldStats().writes;
    store.get(b, compile); // demotes a again
    EXPECT_EQ(store.coldStats().writes, writes + 1);
    stats = store.stats();
    EXPECT_EQ(stats.demotions, 3u); // a, b, then a's fresh file
    std::shared_ptr<const core::TiledDesign> reloaded;
    ASSERT_EQ(store::loadDesignFile(path, &reloaded),
              store::LoadStatus::Ok);
    EXPECT_EQ(reloaded->multiply(x), referenceMultiply(a, x));
}

/** The whole contents of a file. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** A file's inode number; a rename over the path changes it. */
ino_t
inodeOf(const std::string &path)
{
    struct stat st{};
    EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
    return st.st_ino;
}

TEST(TieredStore, RedemotionKeepsTheWriteOnceSpillFile)
{
    TempDir dir("tier-once");
    serve::StoreOptions options;
    options.capacity = 1;
    options.spillDir = dir.path.string();
    serve::DesignStore store(options);
    const auto compile = testCompileOptions();
    const auto a = testWeights(16, 395);
    const auto b = testWeights(16, 396);
    const store::ColdTier tier(dir.path.string());
    const auto path =
        tier.pathFor(experiments::makeDesignKey(a, compile));

    store.get(a, compile);
    store.get(b, compile); // a's first spill
    ASSERT_EQ(store.coldStats().writes, 1u);
    const std::string first = fileBytes(path);
    ASSERT_GT(first.size(), store::kHeaderBytes);
    const ino_t inode = inodeOf(path);

    // Cycle a through promote -> evict twice.  b spills once, on its
    // own first eviction; a's file is never written again.
    for (int cycle = 0; cycle < 2; ++cycle) {
        store.get(a, compile); // promotes a
        EXPECT_EQ(store.coldStats().writes, 2u) << "cycle " << cycle;
        store.get(b, compile); // evicts a: its file already exists
        EXPECT_EQ(store.coldStats().writes, 2u) << "cycle " << cycle;
        EXPECT_EQ(fileBytes(path), first) << "cycle " << cycle;
        EXPECT_EQ(inodeOf(path), inode) << "cycle " << cycle;
    }

    const auto stats = store.stats();
    EXPECT_EQ(stats.evictions, 5u);
    EXPECT_EQ(stats.demotions, 2u); // real writes only
    EXPECT_EQ(stats.promotions, 4u);
    EXPECT_EQ(stats.coldFallbacks, 0u);
    EXPECT_EQ(store.coldStats().loads, 4u);
}

TEST(TieredStore, NoSpillDirEvictsOutright)
{
    serve::DesignStore store(1);
    const auto compile = testCompileOptions();
    store.get(testWeights(12, 391), compile);
    store.get(testWeights(12, 392), compile);
    const auto stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.demotions, 0u);
    EXPECT_EQ(stats.promotions, 0u);
    const auto cold = store.coldStats();
    EXPECT_EQ(cold.writes, 0u);
    EXPECT_EQ(cold.loads, 0u);
}

// ---------------------------------------------------------------------
// Crash safety and injected cold-tier faults
// ---------------------------------------------------------------------

TEST(ColdTier, SpillsAreFsyncedBeforeRename)
{
    TempDir dir("coldtier-sync");
    store::ColdTier tier(dir.path.string());
    const auto weights = testWeights(16, 411);
    const auto options = testCompileOptions();
    const auto key = experiments::makeDesignKey(weights, options);
    ASSERT_TRUE(
        tier.put(key, core::TiledDesign::compile(weights, options)));
    const auto stats = tier.stats();
    EXPECT_EQ(stats.writes, 1u);
    EXPECT_EQ(stats.syncs, 1u);
    EXPECT_EQ(stats.orphansRemoved, 0u);
}

TEST(ColdTier, OrphanTempFilesSweptAtStartup)
{
    TempDir dir("coldtier-orphan");
    // A crash mid-spill leaves *.tmp files behind; a completed spill
    // renames its temp away, so anything still named .tmp is garbage.
    const fs::path orphan = dir.path / "deadbeef.sptd.tmp";
    const fs::path keeper = dir.path / "cafef00d.sptd";
    std::ofstream(orphan) << "torn write";
    std::ofstream(keeper) << "not a temp file";
    store::ColdTier tier(dir.path.string());
    EXPECT_EQ(tier.stats().orphansRemoved, 1u);
    EXPECT_FALSE(fs::exists(orphan));
    EXPECT_TRUE(fs::exists(keeper));
}

TEST(ColdTier, InjectedWriteFailureIsCounted)
{
    TempDir dir("coldtier-wfail");
    store::ColdTier tier(dir.path.string());
    const auto weights = testWeights(16, 421);
    const auto options = testCompileOptions();
    const auto key = experiments::makeDesignKey(weights, options);
    const FaultGuard faults(
        {{fault::Site::ColdWriteFail, fault::Rule{1.0, 1, 0}}});
    EXPECT_FALSE(
        tier.put(key, core::TiledDesign::compile(weights, options)));
    EXPECT_FALSE(tier.contains(key));
    EXPECT_EQ(tier.stats().writeFailures, 1u);
    EXPECT_EQ(fault::FaultPlan::instance().injected(
                  fault::Site::ColdWriteFail),
              1u);
}

TEST(ColdTier, InjectedShortWriteLoadsAsTruncated)
{
    TempDir dir("coldtier-short");
    store::ColdTier tier(dir.path.string());
    const auto weights = testWeights(16, 431);
    const auto options = testCompileOptions();
    const auto key = experiments::makeDesignKey(weights, options);
    {
        const FaultGuard faults(
            {{fault::Site::ColdWriteShort, fault::Rule{1.0, 1, 0}}});
        // The torn write still "succeeds" — the damage is only
        // discovered at load time, like a real crash mid-flush.
        ASSERT_TRUE(tier.put(
            key, core::TiledDesign::compile(weights, options)));
    }
    EXPECT_TRUE(tier.contains(key));
    std::shared_ptr<const core::TiledDesign> loaded;
    EXPECT_EQ(tier.get(key, &loaded), store::LoadStatus::Truncated);
    EXPECT_EQ(loaded, nullptr);
    EXPECT_EQ(tier.stats().loadFailures, 1u);
}

TEST(ColdTier, InjectedReadFaultsDegradeToLoadFailures)
{
    TempDir dir("coldtier-rfault");
    store::ColdTier tier(dir.path.string());
    const auto weights = testWeights(16, 441);
    const auto options = testCompileOptions();
    const auto key = experiments::makeDesignKey(weights, options);
    ASSERT_TRUE(
        tier.put(key, core::TiledDesign::compile(weights, options)));

    std::shared_ptr<const core::TiledDesign> loaded;
    {
        const FaultGuard faults(
            {{fault::Site::ColdReadFail, fault::Rule{1.0, 1, 0}}});
        EXPECT_EQ(tier.get(key, &loaded),
                  store::LoadStatus::Truncated);
        EXPECT_EQ(loaded, nullptr);
    }
    {
        const FaultGuard faults(
            {{fault::Site::ColdReadCorrupt, fault::Rule{1.0, 1, 0}}});
        EXPECT_EQ(tier.get(key, &loaded), store::LoadStatus::Corrupt);
        EXPECT_EQ(loaded, nullptr);
    }
    EXPECT_EQ(tier.stats().loadFailures, 2u);
    // With the plan cleared the very same file loads fine: the file
    // was never the problem.
    ASSERT_EQ(tier.get(key, &loaded), store::LoadStatus::Ok);
    Rng rng(442);
    const auto x = makeSignedVector(16, 8, rng);
    EXPECT_EQ(loaded->multiply(x), referenceMultiply(weights, x));
}

TEST(TieredStore, InjectedColdCorruptionFallsBackToRecompile)
{
    TempDir dir("tier-chaos");
    serve::StoreOptions options;
    options.capacity = 1;
    options.spillDir = dir.path.string();
    serve::DesignStore store(options);
    const auto compile = testCompileOptions();
    const auto a = testWeights(16, 451);
    const auto b = testWeights(16, 452);

    store.get(a, compile);
    store.get(b, compile); // demotes a to a valid spill file

    // Every promotion attempt sees corrupted artifacts: the store
    // must recompile and still serve bit-exactly.
    const FaultGuard faults(
        {{fault::Site::ColdReadCorrupt, fault::Rule{1.0, 1, 0}}});
    const auto design = store.get(a, compile);
    const auto stats = store.stats();
    EXPECT_EQ(stats.promotions, 0u);
    EXPECT_GE(stats.coldFallbacks, 1u);
    Rng rng(453);
    const auto x = makeSignedVector(16, 8, rng);
    EXPECT_EQ(design->multiply(x), referenceMultiply(a, x));
}

TEST(TieredStore, ConcurrentChurnWithBadLoadsStaysBitExact)
{
    // Four threads churn four designs through a capacity-1 store while
    // a third of the loads come back corrupt: write-once puts, loads
    // and the erase of each rejected file all race across threads.
    TempDir dir("tier-race");
    serve::StoreOptions options;
    options.capacity = 1;
    options.spillDir = dir.path.string();
    serve::DesignStore store(options);
    const auto compile = testCompileOptions();
    std::vector<IntMatrix> weights;
    for (std::uint64_t seed = 0; seed < 4; ++seed)
        weights.push_back(testWeights(12, 455 + seed));
    const FaultGuard faults(
        {{fault::Site::ColdReadCorrupt, fault::Rule{0.3, 459, 0}}});

    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t)
        threads.emplace_back([&, t] {
            Rng rng(460 + static_cast<std::uint64_t>(t));
            for (int i = 0; i < 16; ++i) {
                const auto &w = weights[(t + i) % weights.size()];
                const auto x = makeSignedVector(12, 8, rng);
                EXPECT_EQ(store.get(w, compile)->multiply(x),
                          referenceMultiply(w, x));
            }
        });
    for (auto &thread : threads)
        thread.join();

    const auto stats = store.stats();
    EXPECT_EQ(stats.cache.hits + stats.cache.misses, 64u);
    EXPECT_LE(stats.demotions, stats.evictions);
    EXPECT_EQ(store.coldStats().writes, stats.demotions);
}

TEST(TieredStore, InjectedCompileFaultsRetryTransparently)
{
    serve::DesignStore store(4);
    const auto compile = testCompileOptions();
    const auto a = testWeights(16, 461);
    // Half the compile attempts fail transiently and every admission
    // sleeps a bit; the bounded retry loop must still land the
    // design, and the injected count shows the site actually fired.
    const FaultGuard faults(
        {{fault::Site::StoreCompileFail, fault::Rule{0.5, 9, 0}},
         {fault::Site::StoreCompileDelay, fault::Rule{1.0, 9, 1}}});
    const auto design = store.get(a, compile);
    ASSERT_NE(design, nullptr);
    Rng rng(462);
    const auto x = makeSignedVector(16, 8, rng);
    EXPECT_EQ(design->multiply(x), referenceMultiply(a, x));
    EXPECT_GE(fault::FaultPlan::instance().injected(
                  fault::Site::StoreCompileDelay),
              1u);
    EXPECT_EQ(store.stats().faultsInjected,
              fault::FaultPlan::instance().injectedTotal());
}

// ---------------------------------------------------------------------
// Acceptance: a large design registers, spills, rematerializes from
// disk, and serves bit-exactly
// ---------------------------------------------------------------------

TEST(TieredServing, LargeDesignSpillsAndServesFromDisk)
{
    // dim 4096 with ~32 nonzeros per column: large enough to need
    // several column tiles under the default budget, sparse enough to
    // compile in seconds.
    const std::size_t dim = 4096;
    Rng gen(401);
    const IntMatrix weights = makeSignedElementSparseMatrix(
        dim, dim, 8, 1.0 - 32.0 / static_cast<double>(dim), gen);
    const auto compile = testCompileOptions();

    TempDir dir("acceptance");
    serve::ServeOptions options;
    options.workers = 2;
    options.storeCapacity = 1;
    options.storeSpillDir = dir.path.string();
    serve::Server server(options);

    const serve::DesignId big = server.registerDesign(weights, compile);
    {
        const auto design = server.design(big);
        EXPECT_TRUE(design->tiled());
        EXPECT_EQ(design->cols(), dim);
    }

    // A second registration evicts the big design from the hot tier;
    // with a spill directory that demotes it to disk.
    server.registerDesign(testWeights(16, 402), compile);
    {
        const auto stats = server.stats();
        ASSERT_GE(stats.store.demotions, 1u);
    }

    // Serving the big design now rematerializes it from the cold
    // tier.  Gemv first...
    Rng rng(403);
    const auto x = makeSignedVector(dim, 8, rng);
    auto gemv = server.submit(big, serve::Request::gemv(x));
    server.drain();
    const auto gemvResp = gemv.get();
    {
        const auto stats = server.stats();
        EXPECT_GE(stats.store.promotions, 1u);
        EXPECT_EQ(stats.store.coldFallbacks, 0u);
    }
    const auto expected = referenceMultiply(weights, x);
    ASSERT_EQ(gemvResp.output.cols(), dim);
    for (std::size_t c = 0; c < dim; ++c)
        ASSERT_EQ(gemvResp.output.at(0, c), expected[c]) << "col " << c;

    // ...then an EsnSequence, checked against the plain-integer
    // recurrence on the raw weights.
    const int postShift = 2;
    const int stateBits = 8;
    const std::size_t steps = 2;
    const auto state0 = makeSignedVector(dim, 8, rng);
    const IntMatrix injectSeq = makeSignedBatch(steps, dim, 8, rng);
    auto esn = server.submit(
        big, serve::Request::esnSequence(state0, injectSeq, postShift,
                                         stateBits));
    const auto esnResp = esn.get();
    ASSERT_EQ(esnResp.output.rows(), steps);

    auto state = state0;
    for (std::size_t t = 0; t < steps; ++t) {
        const auto product = referenceMultiply(weights, state);
        for (std::size_t c = 0; c < dim; ++c) {
            state[c] = serve::esnClipUpdate(
                product[c] + injectSeq.at(t, c), postShift, stateBits);
            ASSERT_EQ(esnResp.output.at(t, c), state[c])
                << "step " << t << " col " << c;
        }
    }
}

} // namespace
