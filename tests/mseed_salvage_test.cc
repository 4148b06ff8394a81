// Record-level salvage: resynchronization past corrupt headers and payloads.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "io/file_io.h"
#include "mseed/reader.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex::mseed {
namespace {

RecordData MakeRecord(int64_t start_ms, int n, uint8_t encoding = 1) {
  RecordData rec;
  rec.network = "OR";
  rec.station = "ISK";
  rec.channel = "BHZ";
  rec.location = "00";
  rec.start_time_ms = start_ms;
  rec.sample_rate_hz = 10.0;
  rec.encoding = encoding;
  for (int i = 0; i < n; ++i) rec.samples.push_back(i * 3 - n);
  return rec;
}

std::string FiveRecordImage(uint8_t encoding = 1) {
  return SerializeFile({MakeRecord(0, 100, encoding),
                        MakeRecord(10000, 120, encoding),
                        MakeRecord(20000, 140, encoding),
                        MakeRecord(30000, 160, encoding),
                        MakeRecord(40000, 180, encoding)});
}

/// Header offsets of every record in a well-formed image.
std::vector<uint64_t> HeaderOffsets(const std::string& image) {
  auto infos = Reader::ScanHeadersInMemory(image);
  EXPECT_TRUE(infos.ok()) << infos.status().ToString();
  std::vector<uint64_t> offsets;
  for (const auto& info : *infos) offsets.push_back(info.header_offset);
  return offsets;
}

TEST(SalvageTest, CleanFileSalvagesEverythingWithEmptyReport) {
  const std::string image = FiveRecordImage();
  SalvageReport report;
  const auto records = Reader::SalvageInMemory(image, "mem:a", &report);
  EXPECT_EQ(records.size(), 5u);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.records_ok, 5u);
  EXPECT_EQ(report.records_salvaged, 0u);
  EXPECT_TRUE(report.warnings.empty());
}

TEST(SalvageTest, CorruptPayloadSkipsOneRecordAndSalvagesTheRest) {
  std::string image = FiveRecordImage();
  const std::vector<uint64_t> offsets = HeaderOffsets(image);
  ASSERT_EQ(offsets.size(), 5u);
  // Mangle the third record's first Steim frame.
  image[offsets[2] + RecordHeader::kSerializedBytes + 3] ^= 0x7f;

  SalvageReport report;
  const auto records = Reader::SalvageInMemory(image, "mem:b", &report);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(report.records_ok, 2u);        // before the corruption
  EXPECT_EQ(report.records_skipped, 1u);   // the mangled record
  EXPECT_EQ(report.records_salvaged, 2u);  // recovered past it
  EXPECT_EQ(records[2].header.start_time_ms, 30000);
  EXPECT_EQ(records[3].header.start_time_ms, 40000);
  ASSERT_FALSE(report.warnings.empty());
  EXPECT_NE(report.warnings[0].find("mem:b"), std::string::npos)
      << "warning names the source";
}

TEST(SalvageTest, CorruptHeaderMagicResynchronizesToNextRecord) {
  std::string image = FiveRecordImage();
  const std::vector<uint64_t> offsets = HeaderOffsets(image);
  // Destroy the second record's magic: the reader loses the boundary chain
  // and must scan forward for the third record's header.
  image[offsets[1]] = 'X';

  SalvageReport report;
  const auto records = Reader::SalvageInMemory(image, "mem:c", &report);
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].header.start_time_ms, 0);
  EXPECT_EQ(records[1].header.start_time_ms, 20000);
  EXPECT_EQ(report.records_skipped, 1u);
  EXPECT_GT(report.bytes_skipped, 0u);
  EXPECT_EQ(report.records_salvaged, 3u);
}

TEST(SalvageTest, TruncatedTailIsDroppedNotFatal) {
  std::string image = FiveRecordImage();
  const std::vector<uint64_t> offsets = HeaderOffsets(image);
  // Cut the file mid-way through the last record's payload.
  image.resize(offsets[4] + RecordHeader::kSerializedBytes + 7);

  SalvageReport report;
  const auto records = Reader::SalvageInMemory(image, "mem:d", &report);
  EXPECT_EQ(records.size(), 4u);
  EXPECT_EQ(report.records_skipped, 1u);
  EXPECT_GT(report.bytes_skipped, 0u);
}

TEST(SalvageTest, GarbageFileYieldsNothingButDoesNotError) {
  std::string garbage(4096, '\xab');
  SalvageReport report;
  const auto records = Reader::SalvageInMemory(garbage, "mem:e", &report);
  EXPECT_TRUE(records.empty());
  EXPECT_EQ(report.records_ok, 0u);
  EXPECT_GT(report.bytes_skipped, 0u);
}

TEST(SalvageTest, MultipleCorruptionEventsAllRecovered) {
  std::string image = FiveRecordImage(/*encoding=*/2);  // Steim2 payloads
  const std::vector<uint64_t> offsets = HeaderOffsets(image);
  image[offsets[0] + RecordHeader::kSerializedBytes + 5] ^= 0x55;
  image[offsets[3] + RecordHeader::kSerializedBytes + 5] ^= 0x55;

  SalvageReport report;
  const auto records = Reader::SalvageInMemory(image, "mem:f", &report);
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(report.records_skipped, 2u);
  EXPECT_EQ(records[0].header.start_time_ms, 10000);
  EXPECT_EQ(records[1].header.start_time_ms, 20000);
  EXPECT_EQ(records[2].header.start_time_ms, 40000);
  EXPECT_GE(report.warnings.size(), 2u);
}

TEST(SalvageTest, SalvagedSamplesMatchTheOriginalEncoding) {
  const RecordData target = MakeRecord(30000, 160);
  std::string image = FiveRecordImage();
  const std::vector<uint64_t> offsets = HeaderOffsets(image);
  image[offsets[1] + RecordHeader::kSerializedBytes + 3] ^= 0x7f;

  SalvageReport report;
  const auto records = Reader::SalvageInMemory(image, "mem:g", &report);
  ASSERT_EQ(records.size(), 4u);
  // Record 3 (start 30000) survived untouched; its samples must round-trip
  // exactly despite sitting beyond a corruption event.
  EXPECT_EQ(records[2].samples, target.samples);
}

TEST(SalvageTest, FileVariantReadsFromDisk) {
  const testing::ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/dex_salvage_test";
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
  const std::string path = dir + "/damaged.mseed";
  std::string image = FiveRecordImage();
  const std::vector<uint64_t> offsets = HeaderOffsets(image);
  image[offsets[2] + RecordHeader::kSerializedBytes + 3] ^= 0x7f;
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  SalvageReport report;
  auto records = Reader::ReadAllRecordsSalvage(path, &report);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  EXPECT_EQ(records->size(), 4u);
  EXPECT_EQ(report.records_skipped, 1u);

  // A missing file is still an error — there are no bytes to salvage.
  SalvageReport missing_report;
  auto missing = Reader::ReadAllRecordsSalvage(dir + "/nope.mseed",
                                               &missing_report);
  EXPECT_FALSE(missing.ok());
  (void)RemoveDirRecursive(dir);
}

TEST(SalvageTest, StrictReaderNamesUriAndOffsetOnCorruption) {
  const testing::ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/dex_salvage_strict_test";
  ASSERT_TRUE(RemoveDirRecursive(dir).ok());
  const std::string path = dir + "/corrupt.mseed";
  std::string image = FiveRecordImage();
  const std::vector<uint64_t> offsets = HeaderOffsets(image);
  image[offsets[2] + RecordHeader::kSerializedBytes + 3] ^= 0x7f;
  ASSERT_TRUE(WriteStringToFile(path, image).ok());

  auto records = Reader::ReadAllRecords(path);
  ASSERT_FALSE(records.ok());
  const std::string msg = records.status().ToString();
  EXPECT_NE(msg.find(path), std::string::npos) << msg;
  EXPECT_NE(msg.find("offset " + std::to_string(offsets[2])), std::string::npos)
      << msg;
  (void)RemoveDirRecursive(dir);
}

}  // namespace
}  // namespace dex::mseed
