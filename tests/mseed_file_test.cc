#include <gtest/gtest.h>

#include "io/file_io.h"
#include "mseed/reader.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex::mseed {
namespace {

class MseedFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = tmp_.path();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  static RecordData MakeRecord(const std::string& channel, int64_t start_ms,
                               int n) {
    RecordData rec;
    rec.network = "OR";
    rec.station = "ISK";
    rec.channel = channel;
    rec.location = "00";
    rec.start_time_ms = start_ms;
    rec.sample_rate_hz = 10.0;
    for (int i = 0; i < n; ++i) rec.samples.push_back(i * 2 - n);
    return rec;
  }

  testing::ScopedTempDir tmp_;
  std::string dir_;
};

TEST_F(MseedFileTest, WriteThenScanHeaders) {
  const std::string path = dir_ + "/a.mseed";
  ASSERT_TRUE(WriteFile(path, {MakeRecord("BHE", 0, 100),
                               MakeRecord("BHE", 10000, 250)})
                  .ok());
  auto infos = Reader::ScanHeaders(path);
  ASSERT_TRUE(infos.ok()) << infos.status().ToString();
  ASSERT_EQ(infos->size(), 2u);
  EXPECT_EQ((*infos)[0].header.num_samples, 100u);
  EXPECT_EQ((*infos)[1].header.num_samples, 250u);
  EXPECT_EQ((*infos)[1].header.start_time_ms, 10000);
  EXPECT_EQ((*infos)[0].header_offset, 0u);
  EXPECT_EQ((*infos)[0].data_offset, RecordHeader::kSerializedBytes);
  EXPECT_GT((*infos)[1].header_offset, (*infos)[0].data_offset);
}

TEST_F(MseedFileTest, ReadAllRecordsDecodesSamples) {
  const std::string path = dir_ + "/b.mseed";
  const RecordData rec = MakeRecord("BHZ", 500, 333);
  ASSERT_TRUE(WriteFile(path, {rec}).ok());
  auto records = Reader::ReadAllRecords(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 1u);
  EXPECT_EQ((*records)[0].samples, rec.samples);
  EXPECT_EQ((*records)[0].header.channel, "BHZ");
}

TEST_F(MseedFileTest, ReadSingleRecordViaInfo) {
  const std::string path = dir_ + "/c.mseed";
  const RecordData r0 = MakeRecord("BHE", 0, 64);
  const RecordData r1 = MakeRecord("BHE", 6400, 128);
  ASSERT_TRUE(WriteFile(path, {r0, r1}).ok());
  auto infos = Reader::ScanHeaders(path);
  ASSERT_TRUE(infos.ok());
  auto rec = Reader::ReadRecord(path, (*infos)[1]);
  ASSERT_TRUE(rec.ok()) << rec.status().ToString();
  EXPECT_EQ(rec->samples, r1.samples);
}

TEST_F(MseedFileTest, EmptyFileYieldsNoRecords) {
  const std::string path = dir_ + "/empty.mseed";
  ASSERT_TRUE(WriteStringToFile(path, "").ok());
  auto infos = Reader::ScanHeaders(path);
  ASSERT_TRUE(infos.ok());
  EXPECT_TRUE(infos->empty());
}

TEST_F(MseedFileTest, GarbageFileIsCorruption) {
  const std::string path = dir_ + "/garbage.mseed";
  ASSERT_TRUE(WriteStringToFile(path, std::string(200, 'z')).ok());
  EXPECT_TRUE(Reader::ScanHeaders(path).status().IsCorruption());
}

TEST_F(MseedFileTest, TruncatedPayloadIsCorruption) {
  const std::string path = dir_ + "/trunc.mseed";
  ASSERT_TRUE(WriteFile(path, {MakeRecord("BHE", 0, 1000)}).ok());
  std::string image;
  ASSERT_TRUE(ReadFileToString(path, &image).ok());
  image.resize(image.size() - 10);
  ASSERT_TRUE(WriteStringToFile(path, image).ok());
  EXPECT_TRUE(Reader::ScanHeaders(path).status().IsCorruption());
}

TEST_F(MseedFileTest, MissingFileIsIOError) {
  EXPECT_TRUE(Reader::ScanHeaders(dir_ + "/nope.mseed").status().IsIOError());
  EXPECT_TRUE(Reader::ReadAllRecords(dir_ + "/nope.mseed").status().IsIOError());
}

TEST_F(MseedFileTest, SerializeFileMatchesWrittenBytes) {
  const std::vector<RecordData> records = {MakeRecord("BHE", 0, 50)};
  const std::string image = SerializeFile(records);
  const std::string path = dir_ + "/img.mseed";
  ASSERT_TRUE(WriteFile(path, records).ok());
  std::string disk_image;
  ASSERT_TRUE(ReadFileToString(path, &disk_image).ok());
  EXPECT_EQ(image, disk_image);
  // In-memory scan agrees with on-disk scan.
  auto mem = Reader::ScanHeadersInMemory(image);
  auto file = Reader::ScanHeaders(path);
  ASSERT_TRUE(mem.ok());
  ASSERT_TRUE(file.ok());
  EXPECT_EQ(mem->size(), file->size());
}

TEST_F(MseedFileTest, EmptyRecordListMakesEmptyFile) {
  const std::string path = dir_ + "/none.mseed";
  ASSERT_TRUE(WriteFile(path, {}).ok());
  ASSERT_TRUE(FileSize(path).ok());
  EXPECT_EQ(*FileSize(path), 0u);
}

}  // namespace
}  // namespace dex::mseed
