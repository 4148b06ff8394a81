// Tests for the durable cache tier: PersistentCache's write/validate/recover
// ladder in isolation, CacheManager's spill/reload tiering on top of it, and
// the Database-level contract the issue demands — under every injected
// persistence fault a reopened database answers byte-identically to a cold
// open, corrupt entries are quarantined (never served, never a crash), and
// recovery replays bit-identically at any worker count.

#include "core/persistent_cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cache_manager.h"
#include "core/database.h"
#include "io/file_io.h"
#include "io/sim_disk.h"
#include "storage/schema.h"
#include "storage/table.h"
#include "test_util.h"

namespace dex {
namespace {

using dex::testing::CanonicalRows;
using dex::testing::ScopedRepo;
using dex::testing::TinyRepoOptions;

// -- Shared helpers ---------------------------------------------------------

TablePtr MakeTable(size_t rows, int64_t salt = 0) {
  auto schema = std::make_shared<Schema>();
  schema->AddField({"record_id", DataType::kInt64, "D"});
  schema->AddField({"sample_value", DataType::kDouble, "D"});
  auto table = std::make_shared<Table>("D", schema);
  for (size_t i = 0; i < rows; ++i) {
    table->mutable_column(0)->AppendInt64(static_cast<int64_t>(i) + salt);
    table->mutable_column(1)->AppendDouble(static_cast<double>(i) * 0.5);
  }
  EXPECT_TRUE(table->CommitAppendedRows(rows).ok());
  return table;
}

ColumnarFileMeta MetaForFakeSource(const std::string& uri) {
  ColumnarFileMeta meta;
  meta.source_uri = uri;
  meta.source_size_bytes = 4096;
  meta.source_mtime_ms = 1723180800000;
  return meta;
}

// Writes a real source file and returns meta matching its current stat, so
// recovery's staleness check passes.
ColumnarFileMeta MetaForRealSource(const std::string& path,
                                   const std::string& contents) {
  EXPECT_TRUE(WriteStringToFile(path, contents).ok());
  ColumnarFileMeta meta;
  meta.source_uri = path;
  auto size = FileSize(path);
  auto mtime = FileMtimeMillis(path);
  EXPECT_TRUE(size.ok() && mtime.ok());
  meta.source_size_bytes = size.ok() ? *size : 0;
  meta.source_mtime_ms = mtime.ok() ? *mtime : 0;
  return meta;
}

// -- PersistentCache unit tests ---------------------------------------------

class PersistentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = tmp_.path();
    (void)RemoveDirRecursive(dir_);
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  std::string cache_dir() const { return dir_ + "/cache"; }
  std::string source_path(const std::string& name) const {
    return dir_ + "/" + name;
  }

  dex::testing::ScopedTempDir tmp_;
  std::string dir_;
};

TEST_F(PersistentCacheTest, PersistThenLoadRoundtrips) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});

  TablePtr table = MakeTable(200);
  ASSERT_TRUE(pc.Persist("/repo/a.mseed", *table,
                         MetaForFakeSource("/repo/a.mseed")));
  EXPECT_EQ(pc.num_entries(), 1u);
  EXPECT_EQ(pc.stats().persisted, 1u);
  EXPECT_GT(pc.stats().persisted_bytes, 0u);

  ColumnarFileMeta meta;
  auto loaded = pc.Load("/repo/a.mseed", &meta);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(CanonicalRows(**loaded), CanonicalRows(*table));
  EXPECT_EQ(meta.source_uri, "/repo/a.mseed");
  EXPECT_EQ(pc.stats().loads, 1u);
  EXPECT_EQ(pc.stats().load_failures, 0u);
}

TEST_F(PersistentCacheTest, LoadOfUnknownUriIsNotFound) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
  auto loaded = pc.Load("/repo/none.mseed", nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsNotFound());
}

TEST_F(PersistentCacheTest, RecoverReturnsValidatedEntriesSortedByUri) {
  {
    SimDisk disk{SimDisk::Options{}};
    PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
    for (const char* name : {"b.mseed", "a.mseed", "c.mseed"}) {
      const std::string src = source_path(name);
      ASSERT_TRUE(pc.Persist(src, *MakeTable(64, name[0]),
                             MetaForRealSource(src, std::string(100, name[0]))));
    }
  }
  // A fresh instance on the same directory — a process restart.
  SimDisk disk2{SimDisk::Options{}};
  PersistentCache pc2(&disk2, {cache_dir(), PersistentCache::kGeneration});
  auto entries = pc2.Recover();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].uri, source_path("a.mseed"));
  EXPECT_EQ(entries[1].uri, source_path("b.mseed"));
  EXPECT_EQ(entries[2].uri, source_path("c.mseed"));
  for (const auto& e : entries) {
    ASSERT_NE(e.table, nullptr);
    EXPECT_EQ(e.table->num_rows(), 64u);
    EXPECT_EQ(e.meta.source_uri, e.uri);
  }
  EXPECT_EQ(pc2.stats().recovered, 3u);
  EXPECT_EQ(pc2.stats().quarantined, 0u);
  EXPECT_EQ(pc2.stats().stale_dropped, 0u);
}

TEST_F(PersistentCacheTest, TornWriteIsQuarantinedOnRecovery) {
  const std::string src = source_path("a.mseed");
  {
    SimDisk::Options dopts;
    dopts.faults.seed = 7;
    dopts.faults.torn_write_rate = 1.0;
    SimDisk disk(dopts);
    PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
    // Persist "succeeds" — the damage is silent, like a real torn write.
    ASSERT_TRUE(
        pc.Persist(src, *MakeTable(128), MetaForRealSource(src, "payload")));
    EXPECT_GT(disk.fault_injector()->stats().torn_writes, 0u);
  }
  SimDisk disk2{SimDisk::Options{}};
  PersistentCache pc2(&disk2, {cache_dir(), PersistentCache::kGeneration});
  auto entries = pc2.Recover();
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(pc2.stats().quarantined, 1u);
  EXPECT_EQ(pc2.stats().recovered, 0u);
  EXPECT_EQ(pc2.num_entries(), 0u);
  // The quarantined entry file is gone from disk too.
  auto files = ListFiles(cache_dir(), ".dxcol");
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files->empty());
}

TEST_F(PersistentCacheTest, BitFlipIsQuarantinedOnRecovery) {
  const std::string src = source_path("a.mseed");
  {
    SimDisk::Options dopts;
    dopts.faults.seed = 9;
    dopts.faults.bit_flip_rate = 1.0;
    SimDisk disk(dopts);
    PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
    ASSERT_TRUE(
        pc.Persist(src, *MakeTable(128), MetaForRealSource(src, "payload")));
    EXPECT_GT(disk.fault_injector()->stats().bit_flips, 0u);
  }
  SimDisk disk2{SimDisk::Options{}};
  PersistentCache pc2(&disk2, {cache_dir(), PersistentCache::kGeneration});
  EXPECT_TRUE(pc2.Recover().empty());
  EXPECT_EQ(pc2.stats().quarantined, 1u);
}

TEST_F(PersistentCacheTest, ShortReadIsQuarantinedOnRecovery) {
  const std::string src = source_path("a.mseed");
  {
    SimDisk disk{SimDisk::Options{}};
    PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
    ASSERT_TRUE(
        pc.Persist(src, *MakeTable(128), MetaForRealSource(src, "payload")));
  }
  SimDisk::Options dopts;
  dopts.faults.seed = 3;
  dopts.faults.short_read_rate = 1.0;
  SimDisk disk2(dopts);
  PersistentCache pc2(&disk2, {cache_dir(), PersistentCache::kGeneration});
  EXPECT_TRUE(pc2.Recover().empty());
  EXPECT_EQ(pc2.stats().quarantined, 1u);
  EXPECT_GT(disk2.fault_injector()->stats().short_reads, 0u);
}

TEST_F(PersistentCacheTest, StaleSourceIsDroppedOnRecovery) {
  const std::string src = source_path("a.mseed");
  {
    SimDisk disk{SimDisk::Options{}};
    PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
    ASSERT_TRUE(
        pc.Persist(src, *MakeTable(64), MetaForRealSource(src, "original")));
  }
  // The source grows after the entry was persisted — the cached rows no
  // longer describe it.
  ASSERT_TRUE(WriteStringToFile(src, "original plus new data").ok());
  SimDisk disk2{SimDisk::Options{}};
  PersistentCache pc2(&disk2, {cache_dir(), PersistentCache::kGeneration});
  EXPECT_TRUE(pc2.Recover().empty());
  EXPECT_EQ(pc2.stats().stale_dropped, 1u);
  EXPECT_EQ(pc2.stats().quarantined, 0u);
  EXPECT_EQ(pc2.num_entries(), 0u);
}

TEST_F(PersistentCacheTest, TamperedEntryFileQuarantinesOnLoad) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
  ASSERT_TRUE(pc.Persist("/repo/a.mseed", *MakeTable(64),
                         MetaForFakeSource("/repo/a.mseed")));

  auto files = ListFiles(cache_dir(), ".dxcol");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 1u);
  std::string bytes;
  ASSERT_TRUE(ReadFileToString((*files)[0], &bytes).ok());
  bytes[bytes.size() / 2] ^= 0x20;  // silent bit rot in the middle
  ASSERT_TRUE(WriteStringToFile((*files)[0], bytes).ok());

  auto loaded = pc.Load("/repo/a.mseed", nullptr);
  ASSERT_FALSE(loaded.ok());
  EXPECT_TRUE(loaded.status().IsCorruption());
  EXPECT_EQ(pc.stats().quarantined, 1u);
  EXPECT_EQ(pc.stats().load_failures, 1u);
  EXPECT_EQ(pc.num_entries(), 0u);
  // Quarantine deleted the file and dropped the manifest entry: a second
  // load is a clean NotFound, not a repeat failure.
  EXPECT_TRUE(pc.Load("/repo/a.mseed", nullptr).status().IsNotFound());
}

TEST_F(PersistentCacheTest, CorruptManifestWipesTheDirectory) {
  {
    SimDisk disk{SimDisk::Options{}};
    PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
    for (int i = 0; i < 3; ++i) {
      const std::string uri = "/repo/" + std::to_string(i) + ".mseed";
      ASSERT_TRUE(pc.Persist(uri, *MakeTable(32, i), MetaForFakeSource(uri)));
    }
  }
  ASSERT_TRUE(
      WriteStringToFile(cache_dir() + "/MANIFEST", "not a manifest").ok());
  SimDisk disk2{SimDisk::Options{}};
  PersistentCache pc2(&disk2, {cache_dir(), PersistentCache::kGeneration});
  EXPECT_TRUE(pc2.Recover().empty());
  EXPECT_GE(pc2.stats().quarantined, 1u);
  auto files = ListFiles(cache_dir(), ".dxcol");
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files->empty()) << "wipe must remove orphaned entry files";
}

TEST_F(PersistentCacheTest, GenerationMismatchWipesTheDirectory) {
  {
    SimDisk disk{SimDisk::Options{}};
    PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
    ASSERT_TRUE(pc.Persist("/repo/a.mseed", *MakeTable(32),
                           MetaForFakeSource("/repo/a.mseed")));
  }
  SimDisk disk2{SimDisk::Options{}};
  PersistentCache::Options opts{cache_dir(), PersistentCache::kGeneration + 1};
  PersistentCache pc2(&disk2, opts);
  EXPECT_TRUE(pc2.Recover().empty());
  auto files = ListFiles(cache_dir(), ".dxcol");
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files->empty());
}

TEST_F(PersistentCacheTest, RemoveAndRemoveAllDeleteDurableState) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
  ASSERT_TRUE(pc.Persist("/repo/a.mseed", *MakeTable(16),
                         MetaForFakeSource("/repo/a.mseed")));
  ASSERT_TRUE(pc.Persist("/repo/b.mseed", *MakeTable(16),
                         MetaForFakeSource("/repo/b.mseed")));
  pc.Remove("/repo/a.mseed");
  EXPECT_EQ(pc.num_entries(), 1u);
  EXPECT_TRUE(pc.Load("/repo/a.mseed", nullptr).status().IsNotFound());
  pc.RemoveAll();
  EXPECT_EQ(pc.num_entries(), 0u);
  auto files = ListFiles(cache_dir(), ".dxcol");
  ASSERT_TRUE(files.ok());
  EXPECT_TRUE(files->empty());
}

TEST_F(PersistentCacheTest, FaultDrawsAndChargesAreSeedDeterministic) {
  // Two identical runs (same seed, same uris, same order) must draw the same
  // fault schedule and charge the same simulated time — the replayability
  // contract that makes persistence faults debuggable.
  auto run = [&](const std::string& tag) {
    const std::string dir = dir_ + "/" + tag;
    SimDisk::Options dopts;
    dopts.faults.seed = 42;
    dopts.faults.torn_write_rate = 0.5;
    dopts.faults.bit_flip_rate = 0.3;
    SimDisk disk(dopts);
    PersistentCache pc(&disk, {dir, PersistentCache::kGeneration});
    for (int i = 0; i < 8; ++i) {
      const std::string uri = "/repo/" + std::to_string(i) + ".mseed";
      pc.Persist(uri, *MakeTable(64, i), MetaForFakeSource(uri));
    }
    return std::make_pair(disk.fault_injector()->stats(),
                          disk.stats().sim_nanos);
  };
  auto a = run("run_a");
  auto b = run("run_b");
  EXPECT_EQ(a.first.torn_writes, b.first.torn_writes);
  EXPECT_EQ(a.first.bit_flips, b.first.bit_flips);
  EXPECT_EQ(a.first.cache_writes_seen, b.first.cache_writes_seen);
  EXPECT_EQ(a.second, b.second) << "sim-time charges must replay";
}

// -- CacheManager tiering (spill / reload / write-through) ------------------

class CacheTierTest : public PersistentCacheTest {};

TEST_F(CacheTierTest, CapacityEvictionSpillsAndProbeReloads) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});

  TablePtr t1 = MakeTable(1000, 1);
  TablePtr t2 = MakeTable(1000, 2);
  CacheManager::Options copts;
  copts.policy = CachePolicy::kLru;
  // Room for one table but not two: the second insert must evict the first.
  copts.capacity_bytes = t1->ByteSize() + t1->ByteSize() / 2;
  CacheManager cache(copts);
  cache.AttachPersistent(&pc);

  cache.Insert("/repo/u1", "", 123, t1);
  cache.Insert("/repo/u2", "", 123, t2);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.persisted, 2u) << "insertions write through to the durable tier";
  EXPECT_EQ(s.spills, 1u) << "capacity pressure demotes, not discards";
  EXPECT_EQ(s.evictions, 0u);
  EXPECT_EQ(cache.num_entries(), 2u) << "the spilled entry remains as a stub";
  EXPECT_EQ(pc.num_entries(), 2u);

  // Touching the stub promotes it back through the validation ladder.
  EXPECT_TRUE(cache.Probe("/repo/u1", "", 123));
  EXPECT_EQ(cache.stats().reloads, 1u);
  auto back = cache.Lookup("/repo/u1");
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(CanonicalRows(**back), CanonicalRows(*t1));
}

TEST_F(CacheTierTest, BudgetRejectionLeavesAReloadableStub) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});

  TablePtr big = MakeTable(2000);
  MemoryBudget budget(big->ByteSize() / 2);  // can never hold the table
  CacheManager::Options copts;
  copts.policy = CachePolicy::kLru;
  CacheManager cache(copts);
  cache.AttachBudget(&budget);
  cache.AttachPersistent(&pc);

  cache.Insert("/repo/u1", "", 5, big);
  CacheStats s = cache.stats();
  EXPECT_EQ(s.budget_rejections, 1u);
  EXPECT_EQ(s.spills, 1u) << "budget-refused insert still lands durably";
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(pc.num_entries(), 1u);
  EXPECT_EQ(budget.used(), 0u) << "a stub holds no reservation";

  // The budget still refuses the reload: the probe degrades to a miss and
  // the stub survives for when memory frees up.
  EXPECT_FALSE(cache.Probe("/repo/u1", "", 5));
  EXPECT_EQ(cache.num_entries(), 1u);

  // Memory frees up (limit lifted): the same probe now hits via reload.
  budget.set_limit(0);
  EXPECT_TRUE(cache.Probe("/repo/u1", "", 5));
  EXPECT_EQ(cache.stats().reloads, 1u);
  EXPECT_EQ(budget.used(), big->ByteSize());
}

TEST_F(CacheTierTest, CorruptSpilledEntryDegradesToAMiss) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});

  TablePtr t1 = MakeTable(1000, 1);
  TablePtr t2 = MakeTable(1000, 2);
  CacheManager::Options copts;
  copts.policy = CachePolicy::kLru;
  copts.capacity_bytes = t1->ByteSize() + t1->ByteSize() / 2;
  CacheManager cache(copts);
  cache.AttachPersistent(&pc);
  cache.Insert("/repo/u1", "", 123, t1);
  cache.Insert("/repo/u2", "", 123, t2);  // spills u1

  // Bit rot hits every entry file while spilled.
  auto files = ListFiles(cache_dir(), ".dxcol");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), 2u);
  for (const auto& f : *files) {
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(f, &bytes).ok());
    bytes[bytes.size() / 3] ^= 0x08;
    ASSERT_TRUE(WriteStringToFile(f, bytes).ok());
  }

  // The resident entry is untouched by disk rot; the spilled one degrades to
  // a miss (quarantined, stub erased) — never an error, never wrong rows.
  EXPECT_TRUE(cache.Probe("/repo/u2", "", 123));
  EXPECT_FALSE(cache.Probe("/repo/u1", "", 123));
  EXPECT_EQ(cache.stats().reload_failures, 1u);
  EXPECT_EQ(cache.num_entries(), 1u);
  EXPECT_EQ(pc.stats().quarantined, 1u);
  EXPECT_EQ(pc.num_entries(), 1u);
}

TEST_F(CacheTierTest, ClearDropsDurableStateToo) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
  CacheManager::Options copts;
  copts.policy = CachePolicy::kLru;
  CacheManager cache(copts);
  cache.AttachPersistent(&pc);
  cache.Insert("/repo/u1", "", 1, MakeTable(100));
  ASSERT_EQ(pc.num_entries(), 1u);
  cache.Clear();
  EXPECT_EQ(cache.num_entries(), 0u);
  EXPECT_EQ(pc.num_entries(), 0u);
}

TEST_F(CacheTierTest, AdoptRecoveredAsStubReloadsOnFirstTouch) {
  SimDisk disk{SimDisk::Options{}};
  PersistentCache pc(&disk, {cache_dir(), PersistentCache::kGeneration});
  TablePtr t = MakeTable(500);
  ColumnarFileMeta meta = MetaForFakeSource("/repo/u1");
  meta.table_byte_size = t->ByteSize();
  ASSERT_TRUE(pc.Persist("/repo/u1", *t, meta));

  CacheManager::Options copts;
  copts.policy = CachePolicy::kLru;
  CacheManager cache(copts);
  cache.AttachPersistent(&pc);
  // Adopt with a null table — as Open() does when the budget refuses
  // residency at recovery time.
  cache.AdoptRecovered("/repo/u1", meta, nullptr);
  EXPECT_EQ(cache.num_entries(), 1u);

  EXPECT_TRUE(cache.Probe("/repo/u1", "", meta.source_mtime_ms));
  EXPECT_EQ(cache.stats().reloads, 1u);
  auto back = cache.Lookup("/repo/u1");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(CanonicalRows(**back), CanonicalRows(*t));
}

// -- Database-level integration ---------------------------------------------

constexpr char kBroadQuery[] =
    "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";
constexpr char kFilteredQuery[] =
    "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
    "WHERE F.station = 'ISK' AND F.channel = 'BHE'";

class DbPersistentCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cache_dir_ = tmp_.path();
    (void)RemoveDirRecursive(cache_dir_);
  }
  void TearDown() override { (void)RemoveDirRecursive(cache_dir_); }

  DatabaseOptions CacheOpts() const {
    DatabaseOptions o;
    o.mode = IngestionMode::kLazy;
    o.cache.policy = CachePolicy::kLru;
    o.cache_dir = cache_dir_;
    return o;
  }

  // Reference answers from a database with no cache at all.
  std::vector<std::string> ColdRows(const std::string& root,
                                    const std::string& sql) {
    DatabaseOptions o;
    o.mode = IngestionMode::kLazy;
    auto db = Database::Open(root, o);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    auto res = (*db)->Query(sql);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    return res.ok() ? CanonicalRows(*res->table) : std::vector<std::string>{};
  }

  dex::testing::ScopedTempDir tmp_;
  std::string cache_dir_;
};

TEST_F(DbPersistentCacheTest, WarmRestartAnswersWithoutAnyMounts) {
  ScopedRepo repo("pcache_warm", TinyRepoOptions());
  const auto cold = ColdRows(repo.root(), kBroadQuery);

  size_t num_files = 0;
  {
    auto db = Database::Open(repo.root(), CacheOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    num_files = (*db)->open_stats().num_files;
    ASSERT_GT(num_files, 0u);
    auto res = (*db)->Query(kBroadQuery);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    EXPECT_EQ(res->stats.mount.mounts, num_files) << "first run mounts all";
    EXPECT_EQ(CanonicalRows(*res->table), cold);
    EXPECT_EQ((*db)->persistent_cache()->num_entries(), num_files);
  }

  // Restart: everything comes back from the durable tier, zero mounts.
  auto db2 = Database::Open(repo.root(), CacheOpts());
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_EQ((*db2)->open_stats().cache_entries_recovered, num_files);
  EXPECT_EQ((*db2)->open_stats().cache_entries_quarantined, 0u);
  EXPECT_EQ((*db2)->open_stats().cache_entries_stale, 0u);
  auto warm = (*db2)->Query(kBroadQuery);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stats.mount.mounts, 0u) << "warm restart must not re-mount";
  EXPECT_EQ(CanonicalRows(*warm->table), cold)
      << "reopened answers must be byte-identical to a cold open";
}

TEST_F(DbPersistentCacheTest, CorruptionFuzzSeededSweepNeverServesWrongRows) {
  ScopedRepo repo("pcache_fuzz", TinyRepoOptions());
  const auto cold_broad = ColdRows(repo.root(), kBroadQuery);
  const auto cold_filtered = ColdRows(repo.root(), kFilteredQuery);

  for (uint64_t seed : {11u, 22u, 33u}) {
    (void)RemoveDirRecursive(cache_dir_);
    DatabaseOptions opts = CacheOpts();
    opts.disk.faults.seed = seed;
    opts.disk.faults.torn_write_rate = 0.4;
    opts.disk.faults.bit_flip_rate = 0.3;
    opts.disk.faults.short_read_rate = 0.3;

    size_t persisted_entries = 0;
    {
      auto db = Database::Open(repo.root(), opts);
      ASSERT_TRUE(db.ok()) << db.status().ToString();
      auto res = (*db)->Query(kBroadQuery);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      // Write faults are silent: the live query serves from memory and is
      // never affected.
      EXPECT_EQ(CanonicalRows(*res->table), cold_broad) << "seed " << seed;
      persisted_entries = (*db)->persistent_cache()->num_entries();
      ASSERT_GT(persisted_entries, 0u);
    }

    auto db2 = Database::Open(repo.root(), opts);
    ASSERT_TRUE(db2.ok()) << db2.status().ToString();
    const OpenStats& os = (*db2)->open_stats();
    // Conservation: every persisted entry either survived the ladder, was
    // quarantined as corrupt, or was dropped as stale — none vanish, none
    // are served unvalidated.
    EXPECT_EQ(os.cache_entries_recovered + os.cache_entries_quarantined +
                  os.cache_entries_stale,
              persisted_entries)
        << "seed " << seed;
    EXPECT_EQ(os.cache_entries_stale, 0u) << "sources did not change";

    auto broad = (*db2)->Query(kBroadQuery);
    ASSERT_TRUE(broad.ok()) << broad.status().ToString();
    EXPECT_EQ(CanonicalRows(*broad->table), cold_broad)
        << "seed " << seed << ": reopen under faults must match cold open";
    // Quarantined entries degrade to re-mounts, recovered ones serve cached.
    EXPECT_EQ(broad->stats.mount.mounts,
              persisted_entries - os.cache_entries_recovered)
        << "seed " << seed;

    auto filtered = (*db2)->Query(kFilteredQuery);
    ASSERT_TRUE(filtered.ok()) << filtered.status().ToString();
    EXPECT_EQ(CanonicalRows(*filtered->table), cold_filtered)
        << "seed " << seed;
  }
}

TEST_F(DbPersistentCacheTest, RecoveryReplaysBitIdenticallyAcrossWorkerCounts) {
  ScopedRepo repo("pcache_workers", TinyRepoOptions());
  const auto cold = ColdRows(repo.root(), kBroadQuery);

  struct RunResult {
    std::vector<std::string> rows;
    uint64_t recovered, quarantined, stale;
    uint64_t open_sim_nanos;
    uint64_t warm_mounts;
  };
  auto run = [&](size_t workers) {
    (void)RemoveDirRecursive(cache_dir_);
    DatabaseOptions opts = CacheOpts();
    opts.disk.faults.seed = 99;
    opts.disk.faults.torn_write_rate = 0.4;
    opts.disk.faults.bit_flip_rate = 0.3;
    opts.disk.faults.short_read_rate = 0.3;
    opts.stage1_threads = workers;
    QueryOptions qopts;
    qopts.num_threads = workers;
    {
      auto db = Database::Open(repo.root(), opts);
      EXPECT_TRUE(db.ok()) << db.status().ToString();
      auto res = (*db)->Query(kBroadQuery, qopts);
      EXPECT_TRUE(res.ok()) << res.status().ToString();
    }
    auto db2 = Database::Open(repo.root(), opts);
    EXPECT_TRUE(db2.ok()) << db2.status().ToString();
    RunResult r;
    const OpenStats& os = (*db2)->open_stats();
    r.recovered = os.cache_entries_recovered;
    r.quarantined = os.cache_entries_quarantined;
    r.stale = os.cache_entries_stale;
    r.open_sim_nanos = os.sim_io_nanos;
    auto res = (*db2)->Query(kBroadQuery, qopts);
    EXPECT_TRUE(res.ok()) << res.status().ToString();
    r.rows = res.ok() ? CanonicalRows(*res->table) : std::vector<std::string>{};
    r.warm_mounts = res.ok() ? res->stats.mount.mounts : 0;
    return r;
  };

  const RunResult base = run(1);
  EXPECT_EQ(base.rows, cold);
  for (size_t workers : {4u, 8u}) {
    const RunResult r = run(workers);
    EXPECT_EQ(r.rows, base.rows) << workers << " workers";
    EXPECT_EQ(r.recovered, base.recovered) << workers << " workers";
    EXPECT_EQ(r.quarantined, base.quarantined) << workers << " workers";
    EXPECT_EQ(r.stale, base.stale) << workers << " workers";
    EXPECT_EQ(r.open_sim_nanos, base.open_sim_nanos)
        << workers << " workers: recovery sim-time must replay bit-identically";
    EXPECT_EQ(r.warm_mounts, base.warm_mounts) << workers << " workers";
  }
}

TEST_F(DbPersistentCacheTest, ChangedSourceFileIsDroppedAsStaleOnReopen) {
  ScopedRepo repo("pcache_stale", TinyRepoOptions());
  const auto cold = ColdRows(repo.root(), kBroadQuery);

  size_t num_files = 0;
  {
    auto db = Database::Open(repo.root(), CacheOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    num_files = (*db)->open_stats().num_files;
    auto res = (*db)->Query(kBroadQuery);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }

  // Rewrite one repository file with identical contents: same bytes, new
  // mtime — the conservative staleness check must drop its cache entry.
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  ASSERT_FALSE(files->empty());
  std::string contents;
  ASSERT_TRUE(ReadFileToString((*files)[0], &contents).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  ASSERT_TRUE(WriteStringToFile((*files)[0], contents).ok());

  auto db2 = Database::Open(repo.root(), CacheOpts());
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_EQ((*db2)->open_stats().cache_entries_stale, 1u);
  EXPECT_EQ((*db2)->open_stats().cache_entries_recovered, num_files - 1);
  auto warm = (*db2)->Query(kBroadQuery);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(warm->stats.mount.mounts, 1u) << "only the changed file re-mounts";
  EXPECT_EQ(CanonicalRows(*warm->table), cold);
}

TEST_F(DbPersistentCacheTest, ManifestCorruptionFallsBackToACleanColdOpen) {
  ScopedRepo repo("pcache_manifest", TinyRepoOptions());
  const auto cold = ColdRows(repo.root(), kBroadQuery);

  size_t num_files = 0;
  {
    auto db = Database::Open(repo.root(), CacheOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    num_files = (*db)->open_stats().num_files;
    auto res = (*db)->Query(kBroadQuery);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }
  ASSERT_TRUE(
      WriteStringToFile(cache_dir_ + "/MANIFEST", "truncated garbage").ok());

  auto db2 = Database::Open(repo.root(), CacheOpts());
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_EQ((*db2)->open_stats().cache_entries_recovered, 0u);
  EXPECT_GE((*db2)->open_stats().cache_entries_quarantined, 1u);
  auto res = (*db2)->Query(kBroadQuery);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(res->stats.mount.mounts, num_files) << "clean cold behavior";
  EXPECT_EQ(CanonicalRows(*res->table), cold);
  // And the cache repopulates durably for the *next* restart.
  EXPECT_EQ((*db2)->persistent_cache()->num_entries(), num_files);
}

TEST_F(DbPersistentCacheTest, EveryEntryFileBitFlippedStillAnswersCorrectly) {
  ScopedRepo repo("pcache_rot", TinyRepoOptions());
  const auto cold = ColdRows(repo.root(), kBroadQuery);

  size_t num_files = 0;
  {
    auto db = Database::Open(repo.root(), CacheOpts());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    num_files = (*db)->open_stats().num_files;
    auto res = (*db)->Query(kBroadQuery);
    ASSERT_TRUE(res.ok()) << res.status().ToString();
  }
  auto files = ListFiles(cache_dir_, ".dxcol");
  ASSERT_TRUE(files.ok());
  ASSERT_EQ(files->size(), num_files);
  for (const auto& f : *files) {
    std::string bytes;
    ASSERT_TRUE(ReadFileToString(f, &bytes).ok());
    bytes[bytes.size() / 2] ^= 0x01;
    ASSERT_TRUE(WriteStringToFile(f, bytes).ok());
  }

  auto db2 = Database::Open(repo.root(), CacheOpts());
  ASSERT_TRUE(db2.ok()) << db2.status().ToString();
  EXPECT_EQ((*db2)->open_stats().cache_entries_quarantined, num_files);
  EXPECT_EQ((*db2)->open_stats().cache_entries_recovered, 0u);
  auto res = (*db2)->Query(kBroadQuery);
  ASSERT_TRUE(res.ok()) << res.status().ToString();
  EXPECT_EQ(CanonicalRows(*res->table), cold)
      << "total bit rot must degrade to a cold open, never wrong rows";
}

}  // namespace
}  // namespace dex
