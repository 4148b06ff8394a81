#include "core/mounter.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/seismic_schema.h"
#include "mseed/reader.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex {
namespace {

class MounterTest : public ::testing::Test {
 protected:
  MounterTest()
      : disk_(),
        catalog_(&disk_),
        registry_(&disk_),
        cache_(CacheManager::Options{CachePolicy::kAll,
                                     CacheGranularity::kFile, 1 << 30}) {
    dir_ = tmp_.path();
    (void)RemoveDirRecursive(dir_);
    // One file with two records of known content.
    mseed::RecordData r0;
    r0.network = "OR";
    r0.station = "ISK";
    r0.channel = "BHE";
    r0.location = "00";
    r0.start_time_ms = 0;
    r0.sample_rate_hz = 1.0;  // 1000 ms spacing
    r0.samples = {10, 20, 30};
    mseed::RecordData r1 = r0;
    r1.start_time_ms = 100000;
    r1.samples = {-5, 0, 5, 10};
    uri_ = dir_ + "/test.mseed";
    EXPECT_TRUE(mseed::WriteFile(uri_, {r0, r1}).ok());
    EXPECT_TRUE(catalog_
                    .AddTable(std::make_shared<Table>(kDataTableName,
                                                      MakeDataSchema()),
                              TableKind::kActual)
                    .ok());
    auto size = FileSize(uri_);
    auto mtime = FileMtimeMillis(uri_);
    EXPECT_TRUE(size.ok());
    EXPECT_TRUE(mtime.ok());
    EXPECT_TRUE(registry_.Add(uri_, *size, *mtime).ok());
  }
  ~MounterTest() override { (void)RemoveDirRecursive(dir_); }

  SimDisk disk_;
  Catalog catalog_;
  FileRegistry registry_;
  CacheManager cache_;
  MseedAdapter format_;
  testing::ScopedTempDir tmp_;
  std::string dir_;
  std::string uri_;
};

TEST_F(MounterTest, MountExtractsAllSamples) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  Mounter::MountOutcome outcome;
  auto t = mounter.Mount(kDataTableName, uri_, nullptr, &outcome);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  ASSERT_EQ((*t)->num_rows(), 7u);
  // Schema: uri, record_id, sample_time, sample_value.
  EXPECT_EQ((*t)->GetValue(0, 0).str(), uri_);
  EXPECT_EQ((*t)->GetValue(0, 1).int64(), 0);
  EXPECT_EQ((*t)->GetValue(0, 2).int64(), 0);
  EXPECT_DOUBLE_EQ((*t)->GetValue(0, 3).dbl(), 10.0);
  // Second record starts at record_id 1, t=100000, 1000ms spacing.
  EXPECT_EQ((*t)->GetValue(3, 1).int64(), 1);
  EXPECT_EQ((*t)->GetValue(4, 2).int64(), 101000);
  EXPECT_DOUBLE_EQ((*t)->GetValue(6, 3).dbl(), 10.0);
  EXPECT_EQ(outcome.counters.mounts, 1u);
  EXPECT_EQ(outcome.counters.records_decoded, 2u);
  EXPECT_EQ(outcome.counters.samples_decoded, 7u);
}

TEST_F(MounterTest, MountChargesSimulatedRead) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  const uint64_t t0 = disk_.stats().sim_nanos;
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, nullptr).ok());
  EXPECT_GT(disk_.stats().sim_nanos, t0);
}

TEST_F(MounterTest, FusedPredicateFilters) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::ColumnRef("sample_value"),
      Expr::Lit(Value::Int64(5)));
  auto t = mounter.Mount(kDataTableName, uri_, pred);
  ASSERT_TRUE(t.ok()) << t.status().ToString();
  EXPECT_EQ((*t)->num_rows(), 4u);  // 10, 20, 30, 10
}

TEST_F(MounterTest, FileGranularCacheStoresWholeFileDespiteFusedPredicate) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::ColumnRef("sample_value"),
      Expr::Lit(Value::Int64(5)));
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, pred).ok());
  auto mtime = FileMtimeMillis(uri_);
  ASSERT_TRUE(mtime.ok());
  ASSERT_TRUE(cache_.Probe(uri_, "", *mtime));
  auto cached = mounter.CacheLookup(kDataTableName, uri_);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ((*cached)->num_rows(), 7u) << "whole file cached, not the filtered";
}

TEST_F(MounterTest, TupleGranularCacheStoresFilteredTuples) {
  CacheManager tuple_cache(CacheManager::Options{
      CachePolicy::kAll, CacheGranularity::kTuple, 1 << 30});
  Mounter mounter(&registry_, &tuple_cache, StatsCollectorSet{}, nullptr, &format_);
  const ExprPtr pred = Expr::Compare(
      CompareOp::kGt, Expr::ColumnRef("sample_value"),
      Expr::Lit(Value::Int64(5)));
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, pred).ok());
  auto mtime = FileMtimeMillis(uri_);
  ASSERT_TRUE(mtime.ok());
  ASSERT_TRUE(tuple_cache.Probe(uri_, pred->ToString(), *mtime));
  auto cached = mounter.CacheLookup(kDataTableName, uri_);
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ((*cached)->num_rows(), 4u);
}

TEST_F(MounterTest, UnknownUriFails) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  EXPECT_TRUE(mounter.Mount(kDataTableName, "/nope.mseed", nullptr)
                  .status()
                  .IsNotFound());
}

TEST_F(MounterTest, UnknownTableFails) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_);
  EXPECT_TRUE(
      mounter.Mount("X", uri_, nullptr).status().IsNotImplemented());
  EXPECT_TRUE(mounter.CacheLookup("X", uri_).status().IsNotImplemented());
}

TEST_F(MounterTest, VanishedFileSurfacesAsError) {
  // Under the strict policy errors propagate instead of degrading.
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_,
                  OnMountError::kFail);
  // Registered (stage 1 saw it) but deleted before stage 2 mounts it.
  ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  auto t = mounter.Mount(kDataTableName, uri_, nullptr);
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsIOError()) << t.status().ToString();
}

TEST_F(MounterTest, CorruptFileSurfacesAsCorruption) {
  Mounter mounter(&registry_, &cache_, StatsCollectorSet{}, nullptr, &format_,
                  OnMountError::kFail);
  std::string image;
  ASSERT_TRUE(ReadFileToString(uri_, &image).ok());
  image[70] = static_cast<char>(image[70] ^ 0x7f);  // damage first payload
  ASSERT_TRUE(WriteStringToFile(uri_, image).ok());
  auto t = mounter.Mount(kDataTableName, uri_, nullptr);
  ASSERT_FALSE(t.ok());
  EXPECT_TRUE(t.status().IsCorruption()) << t.status().ToString();
}

TEST_F(MounterTest, DerivedMetadataCollectedAsSideEffect) {
  auto derived = DerivedMetadata::Create(&catalog_);
  ASSERT_TRUE(derived.ok());
  StatsCollectorSet collectors;
  collectors.Register(derived->get());
  Mounter mounter(&registry_, &cache_, collectors, nullptr, &format_);
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, nullptr).ok());
  EXPECT_EQ((*derived)->num_records_covered(), 2u);
  EXPECT_TRUE((*derived)->HasCompleteFile(uri_));
  // Record 0 has samples 10..30; record 1 has -5..10. File range: [-5, 30].
  EXPECT_TRUE((*derived)->MayMatchValueRange(uri_, 0, 100));
  EXPECT_FALSE((*derived)->MayMatchValueRange(uri_, 31, 100));
  EXPECT_FALSE((*derived)->MayMatchValueRange(uri_, -100, -6));
  // The DM table is queryable with per-record stats.
  const TablePtr dm = (*derived)->table();
  ASSERT_EQ(dm->num_rows(), 2u);
  EXPECT_DOUBLE_EQ(dm->GetValue(0, 2).dbl(), 10.0);  // min of record 0
  EXPECT_DOUBLE_EQ(dm->GetValue(0, 3).dbl(), 30.0);  // max
  EXPECT_DOUBLE_EQ(dm->GetValue(0, 4).dbl(), 20.0);  // mean
}

TEST_F(MounterTest, DerivedMetadataIdempotentPerRecord) {
  auto derived = DerivedMetadata::Create(&catalog_);
  ASSERT_TRUE(derived.ok());
  StatsCollectorSet collectors;
  collectors.Register(derived->get());
  Mounter mounter(&registry_, &cache_, collectors, nullptr, &format_);
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, nullptr).ok());
  ASSERT_TRUE(mounter.Mount(kDataTableName, uri_, nullptr).ok());
  EXPECT_EQ((*derived)->num_records_covered(), 2u);
  EXPECT_EQ((*derived)->table()->num_rows(), 2u);
}

TEST_F(MounterTest, UnknownValueRangeFileMustMount) {
  auto derived = DerivedMetadata::Create(&catalog_);
  ASSERT_TRUE(derived.ok());
  EXPECT_TRUE((*derived)->MayMatchValueRange("/never/seen", 0, 1));
  EXPECT_FALSE((*derived)->HasCompleteFile("/never/seen"));
}

// ---------------------------------------------------------------------------
// The bulk D transform against the per-sample transform it replaced
// ---------------------------------------------------------------------------

/// The per-sample D transform: the uri interned up front (as Mounter::Mount
/// does), then one append per cell.
void PerSampleTransform(const std::string& uri,
                        const std::vector<mseed::DecodedRecord>& records,
                        Table* t) {
  t->mutable_column(0)->dict()->Intern(uri);
  size_t total = 0;
  for (size_t r = 0; r < records.size(); ++r) {
    const mseed::DecodedRecord& rec = records[r];
    for (size_t i = 0; i < rec.samples.size(); ++i) {
      const size_t idx = rec.sparse ? rec.sample_index[i] : i;
      t->mutable_column(0)->AppendString(uri);
      t->mutable_column(1)->AppendInt64(static_cast<int64_t>(r));
      t->mutable_column(2)->AppendInt64(
          rec.header.start_time_ms +
          static_cast<int64_t>(static_cast<double>(idx) * 1000.0 /
                               rec.header.sample_rate_hz));
      t->mutable_column(3)->AppendDouble(static_cast<double>(rec.samples[i]));
    }
    total += rec.samples.size();
  }
  EXPECT_TRUE(t->CommitAppendedRows(total).ok());
}

/// Rows of `t` whose sample_value exceeds `above`, gathered the way a fused
/// selection gathers them.
TablePtr SelectAbove(const Table& t, double above) {
  std::vector<uint32_t> selected;
  for (size_t i = 0; i < t.num_rows(); ++i) {
    if (t.column(3)->GetDouble(i) > above) {
      selected.push_back(static_cast<uint32_t>(i));
    }
  }
  auto out = std::make_shared<Table>(t.name(), t.schema());
  for (size_t c = 0; c < t.num_columns(); ++c) {
    out->mutable_column(c)->AppendGather(*t.column(c), selected);
  }
  EXPECT_TRUE(out->CommitAppendedRows(selected.size()).ok());
  return out;
}

void ExpectSameTable(const Table& actual, const Table& expected) {
  ASSERT_EQ(actual.num_rows(), expected.num_rows());
  for (size_t r = 0; r < actual.num_rows(); ++r) {
    for (size_t c = 0; c < actual.num_columns(); ++c) {
      ASSERT_EQ(actual.GetValue(r, c), expected.GetValue(r, c))
          << "row " << r << " column " << c;
    }
  }
  EXPECT_EQ(actual.ByteSize(), expected.ByteSize());
}

mseed::DecodedRecord MakeDecoded(int64_t t0, double rate,
                                 std::vector<int32_t> samples) {
  mseed::DecodedRecord rec;
  rec.header.start_time_ms = t0;
  rec.header.sample_rate_hz = rate;
  rec.samples = std::move(samples);
  return rec;
}

TEST(DataTransformTest, BulkTransformMatchesPerSampleTransform) {
  std::vector<mseed::DecodedRecord> records;
  records.push_back(MakeDecoded(0, 1.0, {10, 20, 30}));
  // Frame-skipped: only some samples, each with its original index; a rate
  // whose spacing (333.3 ms) truncates.
  mseed::DecodedRecord sparse = MakeDecoded(5000, 3.0, {7, -8, 9});
  sparse.sparse = true;
  sparse.sample_index = {2, 5, 61};
  records.push_back(sparse);
  // Zone-skipped: keeps its slot (record id) with no samples.
  mseed::DecodedRecord skipped = MakeDecoded(9000, 3.0, {});
  skipped.sparse = true;
  records.push_back(skipped);
  records.push_back(MakeDecoded(20000, 0.5, {-1, 0, 1, 2}));

  Table bulk(kDataTableName, MakeDataSchema());
  Table per_sample(kDataTableName, MakeDataSchema());
  bulk.mutable_column(0)->dict()->Intern("/a.mseed");
  ASSERT_TRUE(AppendSamplesToDataTable("/a.mseed", records, &bulk).ok());
  PerSampleTransform("/a.mseed", records, &per_sample);
  ExpectSameTable(bulk, per_sample);
  EXPECT_EQ(bulk.GetValue(4, 2).int64(), 5000 + 1666);  // index 5 at 3 Hz

  // A second file appended to a table that already holds rows (the eager
  // load's shape) grows it the same way.
  ASSERT_TRUE(AppendSamplesToDataTable("/b.mseed", records, &bulk).ok());
  PerSampleTransform("/b.mseed", records, &per_sample);
  ExpectSameTable(bulk, per_sample);
}

TEST_F(MounterTest, MountedTableMatchesPerSampleTransformUnderFrameSkips) {
  // Record 0 is quiet noise around a short burst, so only the frames
  // holding the burst can pass `sample_value > 500`; record 1 is quiet
  // throughout, so its zone skips it whole.
  mseed::RecordData r0;
  r0.network = "OR";
  r0.station = "ISK";
  r0.channel = "BHZ";
  r0.start_time_ms = 1000;
  r0.sample_rate_hz = 3.0;
  for (int i = 0; i < 900; ++i) {
    r0.samples.push_back(i >= 400 && i < 420 ? 1000 + i : (i * 37) % 41 - 20);
  }
  mseed::RecordData r1 = r0;
  r1.start_time_ms = 400000;
  r1.samples.resize(300);
  for (int i = 0; i < 300; ++i) r1.samples[i] = (i * 13) % 29 - 14;
  const std::string uri = dir_ + "/burst.mseed";
  ASSERT_TRUE(mseed::WriteFile(uri, {r0, r1}).ok());
  ASSERT_TRUE(
      registry_.Add(uri, *FileSize(uri), *FileMtimeMillis(uri)).ok());

  CacheManager no_cache(
      CacheManager::Options{CachePolicy::kNone, CacheGranularity::kFile, 0});
  ZoneMapStore zone_maps;
  StatsCollectorSet collectors;
  collectors.Register(&zone_maps);
  Mounter mounter(&registry_, &no_cache, collectors, &zone_maps, &format_);

  auto decoded = format_.ReadAllRecords(uri);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto full = std::make_shared<Table>(kDataTableName, MakeDataSchema());
  PerSampleTransform(uri, *decoded, full.get());

  // Whole-file mount (it also harvests the zones the next mount prunes by).
  auto whole = mounter.Mount(kDataTableName, uri, nullptr);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  ExpectSameTable(**whole, *full);

  const TablePtr expected = SelectAbove(*full, 500.0);
  full.reset();  // the selection alone holds the uri dictionary now
  Mounter::MountOutcome outcome;
  PruningOptions pruning;
  auto pruned = mounter.Mount(
      kDataTableName, uri,
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("sample_value"),
                    Expr::Lit(Value::Int64(500))),
      &outcome, nullptr, &pruning);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_GT(outcome.counters.frames_skipped_zonemap, 0u);
  EXPECT_EQ(outcome.counters.records_skipped_zonemap, 1u);
  EXPECT_EQ((*pruned)->num_rows(), 20u);
  ExpectSameTable(**pruned, *expected);
}

}  // namespace
}  // namespace dex
