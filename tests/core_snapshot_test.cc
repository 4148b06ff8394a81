// Tests for the "instant-on" metadata snapshot: serialization roundtrip,
// corruption detection, and the Database-level integration (reconciliation
// against a changed repository runs through Database::Open).

#include "core/metadata_snapshot.h"

#include <gtest/gtest.h>

#include "common/fnv.h"
#include "core/database.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::ScopedRepo;
using ::dex::testing::TinyRepoOptions;

mseed::ScanResult ScanOf(const std::string& root) {
  auto scan = MseedAdapter().ScanRepository(root);
  EXPECT_TRUE(scan.ok());
  return scan.ValueOr({});
}

TEST(SnapshotTest, SaveLoadRoundtrip) {
  ScopedRepo repo("snapshot_roundtrip", TinyRepoOptions());
  const mseed::ScanResult scan = ScanOf(repo.root());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(scan, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->files.size(), scan.files.size());
  ASSERT_EQ(loaded->records.size(), scan.records.size());
  EXPECT_EQ(loaded->total_bytes, scan.total_bytes);
  for (size_t i = 0; i < scan.files.size(); ++i) {
    EXPECT_EQ(loaded->files[i].uri, scan.files[i].uri);
    EXPECT_EQ(loaded->files[i].station, scan.files[i].station);
    EXPECT_EQ(loaded->files[i].mtime_ms, scan.files[i].mtime_ms);
    EXPECT_EQ(loaded->files[i].size_bytes, scan.files[i].size_bytes);
  }
  for (size_t i = 0; i < scan.records.size(); ++i) {
    EXPECT_EQ(loaded->records[i].uri, scan.records[i].uri);
    EXPECT_EQ(loaded->records[i].start_time_ms, scan.records[i].start_time_ms);
    EXPECT_EQ(loaded->records[i].num_samples, scan.records[i].num_samples);
  }
}

TEST(SnapshotTest, EmptyScanRoundtrips) {
  const testing::ScopedTempDir tmp;
  const std::string path = tmp.path() + "/dex_snapshot_empty.snap";
  ASSERT_TRUE(SaveSnapshot(mseed::ScanResult{}, path).ok());
  auto loaded = LoadSnapshot(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->files.empty());
  EXPECT_TRUE(loaded->records.empty());
  (void)RemoveDirRecursive(path);
}

TEST(SnapshotTest, CorruptionDetected) {
  ScopedRepo repo("snapshot_corrupt", TinyRepoOptions());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(ScanOf(repo.root()), path).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  // Bad magic.
  std::string bad = data;
  bad[0] = 'X';
  ASSERT_TRUE(WriteStringToFile(path, bad).ok());
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());
  // Truncation.
  ASSERT_TRUE(WriteStringToFile(path, data.substr(0, data.size() / 2)).ok());
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());
  // Trailing garbage.
  ASSERT_TRUE(WriteStringToFile(path, data + "zzz").ok());
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());
}

TEST(SnapshotTest, BitFlipAnywhereIsDetected) {
  ScopedRepo repo("snapshot_bitflip", TinyRepoOptions());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(ScanOf(repo.root()), path).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  ASSERT_TRUE(LoadSnapshot(path).ok());
  // Flip one bit at every offset, checksums included. Every single flip
  // must be rejected — this is exactly what per-field length checks alone
  // could NOT guarantee.
  for (size_t off = 0; off < data.size(); ++off) {
    std::string bad = data;
    bad[off] = static_cast<char>(bad[off] ^ 0x10);
    ASSERT_TRUE(WriteStringToFile(path, bad).ok());
    EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption())
        << "bit flip at offset " << off << " was not detected";
  }
}

TEST(SnapshotTest, TruncationAtEveryLengthIsDetected) {
  ScopedRepo repo("snapshot_trunc", TinyRepoOptions());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(SaveSnapshot(ScanOf(repo.root()), path).ok());
  std::string data;
  ASSERT_TRUE(ReadFileToString(path, &data).ok());
  for (size_t len = 0; len < data.size(); ++len) {
    ASSERT_TRUE(WriteStringToFile(path, data.substr(0, len)).ok());
    EXPECT_FALSE(LoadSnapshot(path).ok())
        << "truncation to " << len << " bytes was not detected";
  }
}

/// Encodes `scan` in the retired pre-columnar snapshot format: magic
/// "DXSNAP02", counts, length-prefixed fields, FNV-1a footer.
std::string EncodeDxsnap02(const mseed::ScanResult& scan) {
  std::string out = "DXSNAP02";
  const auto u64 = [&](uint64_t v) {
    out.append(reinterpret_cast<const char*>(&v), sizeof(v));
  };
  const auto str = [&](const std::string& v) {
    u64(v.size());
    out += v;
  };
  u64(scan.files.size());
  u64(scan.records.size());
  u64(scan.total_bytes);
  for (const mseed::FileMeta& f : scan.files) {
    for (const std::string* v :
         {&f.uri, &f.network, &f.station, &f.channel, &f.location}) {
      str(*v);
    }
    u64(f.size_bytes);
    u64(static_cast<uint64_t>(f.mtime_ms));
    u64(f.num_records);
  }
  for (const mseed::RecordMeta& r : scan.records) {
    str(r.uri);
    u64(static_cast<uint64_t>(r.record_id));
    u64(static_cast<uint64_t>(r.start_time_ms));
    u64(static_cast<uint64_t>(r.end_time_ms));
    double rate = r.sample_rate_hz;
    out.append(reinterpret_cast<const char*>(&rate), sizeof(rate));
    u64(r.num_samples);
    u64(0);  // data_offset
    u64(0);  // data_bytes
  }
  u64(Fnv1a(out.data(), out.size()));
  return out;
}

TEST(SnapshotTest, V1SnapshotRejectedAsStale) {
  // A snapshot in the retired DXSNAP02 format must be rejected — never
  // misparsed — and Database::Open then falls back to a clean full rescan
  // and rewrites the snapshot in the current format.
  ScopedRepo repo("snapshot_v1", TinyRepoOptions());
  const std::string path = repo.root() + "/meta.snap";
  ASSERT_TRUE(WriteStringToFile(path, EncodeDxsnap02(ScanOf(repo.root()))).ok());
  EXPECT_TRUE(LoadSnapshot(path).status().IsCorruption());

  DatabaseOptions opts;
  opts.metadata_snapshot_path = path;
  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->open_stats().snapshot_files_reused, 0u);  // full rescan
  auto reloaded = LoadSnapshot(path);  // rewritten in the current format
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_EQ(reloaded->files.size(), (*db)->open_stats().num_files);
}

TEST(SnapshotTest, DatabaseInstantOnReusesSnapshot) {
  ScopedRepo repo("snapshot_db", TinyRepoOptions());
  DatabaseOptions opts;
  opts.metadata_snapshot_path = repo.root() + "/.dex_meta.snap";

  // First open: full scan, snapshot written.
  auto first = Database::Open(repo.root(), opts);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ((*first)->open_stats().snapshot_files_reused, 0u);
  EXPECT_TRUE(FileExists(opts.metadata_snapshot_path));
  const auto count1 = (*first)->Query("SELECT COUNT(*) FROM R");
  ASSERT_TRUE(count1.ok());

  // Second open: everything reused, identical metadata.
  auto second = Database::Open(repo.root(), opts);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ((*second)->open_stats().snapshot_files_reused,
            (*second)->open_stats().num_files);
  const auto count2 = (*second)->Query("SELECT COUNT(*) FROM R");
  ASSERT_TRUE(count2.ok());
  EXPECT_EQ(count1->table->GetValue(0, 0).int64(),
            count2->table->GetValue(0, 0).int64());
  // Actual data still mounts correctly from reused metadata.
  auto data = (*second)->Query(
      "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
      "WHERE F.station = 'ISK' AND F.channel = 'BHE'");
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  EXPECT_GT(data->table->GetValue(0, 0).int64(), 0);
}

TEST(SnapshotTest, DatabaseFallsBackOnCorruptSnapshot) {
  ScopedRepo repo("snapshot_db_corrupt", TinyRepoOptions());
  DatabaseOptions opts;
  opts.metadata_snapshot_path = repo.root() + "/.dex_meta.snap";
  ASSERT_TRUE(WriteStringToFile(opts.metadata_snapshot_path, "garbage").ok());
  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->open_stats().snapshot_files_reused, 0u);
  EXPECT_EQ((*db)->open_stats().num_files, 8u);
  // The bad snapshot was replaced with a valid one.
  EXPECT_TRUE(LoadSnapshot(opts.metadata_snapshot_path).ok());
}

TEST(SnapshotTest, DatabaseSnapshotSeesChangedFile) {
  ScopedRepo repo("snapshot_db_changed", TinyRepoOptions());
  DatabaseOptions opts;
  opts.metadata_snapshot_path = repo.root() + "/.dex_meta.snap";
  {
    auto warm = Database::Open(repo.root(), opts);
    ASSERT_TRUE(warm.ok());
  }
  // Rewrite one file with a single 5-sample record.
  auto files = ListFiles(repo.root(), ".mseed");
  ASSERT_TRUE(files.ok());
  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = "ISK";
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = 0;
  rec.sample_rate_hz = 1.0;
  rec.samples = {1, 2, 3, 4, 5};
  ASSERT_TRUE(mseed::WriteFile((*files)[0], {rec}).ok());

  auto db = Database::Open(repo.root(), opts);
  ASSERT_TRUE(db.ok());
  EXPECT_EQ((*db)->open_stats().snapshot_files_reused,
            (*db)->open_stats().num_files - 1);
  auto r = (*db)->Query(
      "SELECT COUNT(*) FROM R WHERE R.n_samples = 5");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->table->GetValue(0, 0).int64(), 1);
}

}  // namespace
}  // namespace dex
