#include "csvf/csv_format.h"

#include <gtest/gtest.h>

#include "core/format_adapter.h"
#include "io/file_io.h"
#include "mseed/generator.h"
#include "test_util.h"

namespace dex::csvf {
namespace {

mseed::RecordData MakeRecord(int64_t start_ms, std::vector<int32_t> samples) {
  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = "ISK";
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = start_ms;
  rec.sample_rate_hz = 2.0;
  rec.samples = std::move(samples);
  return rec;
}

TEST(CsvFormatTest, SerializeParseRoundtrip) {
  const std::vector<mseed::RecordData> records = {
      MakeRecord(0, {1, -2, 3}), MakeRecord(5000, {100, 200})};
  const std::string image = SerializeCsvFile(records);
  auto parsed = ParseCsvFile(image);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->size(), 2u);
  EXPECT_EQ((*parsed)[0].header.station, "ISK");
  EXPECT_EQ((*parsed)[0].samples, (std::vector<int32_t>{1, -2, 3}));
  EXPECT_EQ((*parsed)[1].header.start_time_ms, 5000);
  EXPECT_EQ((*parsed)[1].samples, (std::vector<int32_t>{100, 200}));
  EXPECT_DOUBLE_EQ((*parsed)[1].header.sample_rate_hz, 2.0);
}

TEST(CsvFormatTest, HeaderLineIsHumanReadable) {
  const std::string image = SerializeCsvFile({MakeRecord(0, {7})});
  EXPECT_EQ(image.substr(0, 1), "#");
  EXPECT_NE(image.find("station=ISK"), std::string::npos);
  EXPECT_NE(image.find("start=1970-01-01T00:00:00.000"), std::string::npos);
  EXPECT_NE(image.find("samples=1"), std::string::npos);
}

TEST(CsvFormatTest, ScanExtractsMetadataWithoutSamples) {
  const testing::ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/dex_csvf_scan";
  (void)RemoveDirRecursive(dir);
  const std::string path = dir + "/a" + std::string(kCsvExtension);
  ASSERT_TRUE(WriteCsvFile(path, {MakeRecord(0, {1, 2, 3, 4})}).ok());
  auto scan = ScanCsvFile(path);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  ASSERT_EQ(scan->files.size(), 1u);
  ASSERT_EQ(scan->records.size(), 1u);
  EXPECT_EQ(scan->files[0].station, "ISK");
  EXPECT_EQ(scan->records[0].num_samples, 4u);
  EXPECT_EQ(scan->records[0].end_time_ms, 1500);  // 3 intervals at 2 Hz
  (void)RemoveDirRecursive(dir);
}

TEST(CsvFormatTest, CorruptionDetected) {
  EXPECT_TRUE(ParseCsvFile("42\n").status().IsCorruption());  // sample first
  const std::string good = SerializeCsvFile({MakeRecord(0, {1, 2, 3})});
  // Truncated: fewer samples than declared.
  EXPECT_TRUE(ParseCsvFile(good.substr(0, good.size() - 2)).status().IsCorruption());
  // Garbage sample line.
  std::string bad = good;
  bad.replace(bad.size() - 2, 1, "x");
  EXPECT_TRUE(ParseCsvFile(bad).status().IsCorruption());
  // Unknown metadata key.
  EXPECT_TRUE(
      ParseCsvFile("# bogus=1 start=1970-01-01 rate=1 samples=0\n").status()
          .IsCorruption());
  // Missing required keys.
  EXPECT_TRUE(ParseCsvFile("# station=X\n").status().IsCorruption());
  // Extra samples beyond the declared count.
  std::string extra = good;
  extra += "9\n";
  EXPECT_TRUE(ParseCsvFile(extra).status().IsCorruption());
}

TEST(CsvFormatTest, EmptyFileYieldsNothing) {
  auto parsed = ParseCsvFile("");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->empty());
}

TEST(CsvFormatTest, ConvertedRepositoryIsEquivalent) {
  const testing::ScopedTempDir tmp;
  const std::string mseed_dir = tmp.path() + "/dex_csvf_convert_src";
  const std::string csv_dir = tmp.path() + "/dex_csvf_convert_dst";
  (void)RemoveDirRecursive(mseed_dir);
  (void)RemoveDirRecursive(csv_dir);
  auto repo =
      mseed::GenerateRepository(mseed_dir, dex::testing::TinyRepoOptions());
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(ConvertMseedRepository(mseed_dir, csv_dir).ok());

  auto mseed_scan = MseedAdapter().ScanRepository(mseed_dir);
  auto csv_scan = CsvAdapter().ScanRepository(csv_dir);
  ASSERT_TRUE(mseed_scan.ok());
  ASSERT_TRUE(csv_scan.ok()) << csv_scan.status().ToString();
  EXPECT_EQ(csv_scan->files.size(), mseed_scan->files.size());
  EXPECT_EQ(csv_scan->records.size(), mseed_scan->records.size());

  // Sample-exact equivalence of one file.
  auto mseed_records = mseed::Reader::ReadAllRecords(mseed_scan->files[0].uri);
  auto csv_records = ReadCsvFile(csv_scan->files[0].uri);
  ASSERT_TRUE(mseed_records.ok());
  ASSERT_TRUE(csv_records.ok());
  ASSERT_EQ(csv_records->size(), mseed_records->size());
  for (size_t i = 0; i < csv_records->size(); ++i) {
    EXPECT_EQ((*csv_records)[i].samples, (*mseed_records)[i].samples);
    EXPECT_EQ((*csv_records)[i].header.start_time_ms,
              (*mseed_records)[i].header.start_time_ms);
  }
  (void)RemoveDirRecursive(mseed_dir);
  (void)RemoveDirRecursive(csv_dir);
}

}  // namespace
}  // namespace dex::csvf

namespace dex {
namespace {

TEST(FormatAdapterTest, DetectsMseed) {
  testing::ScopedRepo repo("adapter_detect", testing::TinyRepoOptions());
  auto format = DetectFormat(repo.root());
  ASSERT_TRUE(format.ok());
  EXPECT_EQ((*format)->name(), "mseed");
}

TEST(FormatAdapterTest, DetectsCsv) {
  const testing::ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/dex_adapter_detect_csv";
  (void)RemoveDirRecursive(dir);
  mseed::RecordData rec;
  rec.network = "OR";
  rec.station = "ISK";
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = 0;
  rec.sample_rate_hz = 1.0;
  rec.samples = {1, 2};
  ASSERT_TRUE(csvf::WriteCsvFile(
                  dir + "/x" + std::string(csvf::kCsvExtension), {rec})
                  .ok());
  auto format = DetectFormat(dir);
  ASSERT_TRUE(format.ok()) << format.status().ToString();
  EXPECT_EQ((*format)->name(), "tscsv");
  (void)RemoveDirRecursive(dir);
}

TEST(FormatAdapterTest, NoFormatIsNotFound) {
  const testing::ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/dex_adapter_detect_none";
  (void)RemoveDirRecursive(dir);
  ASSERT_TRUE(WriteStringToFile(dir + "/readme.txt", "nothing here").ok());
  EXPECT_TRUE(DetectFormat(dir).status().IsNotFound());
  (void)RemoveDirRecursive(dir);
}

/// The generalization property: the same exploration gives identical answers
/// over the same data in either format, lazily or eagerly.
TEST(FormatAdapterTest, CrossFormatQueryEquivalence) {
  const testing::ScopedTempDir tmp;
  const std::string mseed_dir = tmp.path() + "/dex_adapter_equiv_mseed";
  const std::string csv_dir = tmp.path() + "/dex_adapter_equiv_csv";
  (void)RemoveDirRecursive(mseed_dir);
  (void)RemoveDirRecursive(csv_dir);
  auto repo =
      mseed::GenerateRepository(mseed_dir, testing::TinyRepoOptions());
  ASSERT_TRUE(repo.ok());
  ASSERT_TRUE(csvf::ConvertMseedRepository(mseed_dir, csv_dir).ok());

  auto mseed_db = Database::Open(mseed_dir, {});
  auto csv_db = Database::Open(csv_dir, {});
  ASSERT_TRUE(mseed_db.ok());
  ASSERT_TRUE(csv_db.ok()) << csv_db.status().ToString();

  const char* queries[] = {
      "SELECT COUNT(*) FROM F",
      "SELECT COUNT(*) FROM R WHERE R.record_id = 1",
      "SELECT COUNT(*) AS n, AVG(D.sample_value) AS mean FROM F "
      "JOIN D ON F.uri = D.uri WHERE F.station = 'ISK'",
      "SELECT F.channel, MAX(D.sample_value) AS peak FROM F "
      "JOIN D ON F.uri = D.uri GROUP BY F.channel ORDER BY F.channel",
  };
  for (const char* sql : queries) {
    auto a = (*mseed_db)->Query(sql);
    auto b = (*csv_db)->Query(sql);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString() << "\n" << sql;
    // URIs differ between the repositories; compare only URI-free outputs.
    EXPECT_EQ(testing::CanonicalRows(*a->table),
              testing::CanonicalRows(*b->table))
        << sql;
  }
  (void)RemoveDirRecursive(mseed_dir);
  (void)RemoveDirRecursive(csv_dir);
}

}  // namespace
}  // namespace dex
