#include "mseed/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "common/time_utils.h"
#include "core/format_adapter.h"
#include "io/file_io.h"
#include "mseed/scanner.h"
#include "test_util.h"

namespace dex::mseed {
namespace {

class GeneratorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = tmp_.path();
    ASSERT_TRUE(RemoveDirRecursive(dir_).ok());
  }
  void TearDown() override { (void)RemoveDirRecursive(dir_); }

  static GeneratorOptions SmallOptions() {
    GeneratorOptions gen;
    gen.seed = 5;
    gen.num_stations = 2;
    gen.channels_per_station = 2;
    gen.num_days = 2;
    gen.records_per_file = 3;
    gen.sample_rate_hz = 0.01;
    gen.gap_probability = 0.0;
    return gen;
  }

  testing::ScopedTempDir tmp_;
  std::string dir_;
};

TEST_F(GeneratorTest, ProducesExpectedFileCount) {
  auto repo = GenerateRepository(dir_, SmallOptions());
  ASSERT_TRUE(repo.ok()) << repo.status().ToString();
  EXPECT_EQ(repo->files.size(), 2u * 2u * 2u);
  EXPECT_GT(repo->total_bytes, 0u);
  EXPECT_EQ(repo->total_records, 8u * 3u);
}

TEST_F(GeneratorTest, StationAndChannelCodesIncludePaperValues) {
  const auto stations = GeneratorStationCodes(3);
  ASSERT_EQ(stations.size(), 3u);
  EXPECT_EQ(stations[0], "ISK");  // the paper's Query 1 station
  const auto channels = GeneratorChannelCodes(3);
  EXPECT_EQ(channels[0], "BHE");  // the paper's Query 1 channel
  // Codes beyond the builtin list are synthesized.
  EXPECT_EQ(GeneratorStationCodes(20)[17], "S017");
  EXPECT_EQ(GeneratorChannelCodes(15)[13], "C13Z");
}

TEST_F(GeneratorTest, DeterministicForSameSeed) {
  auto a = GenerateRepository(dir_ + "/a", SmallOptions());
  auto b = GenerateRepository(dir_ + "/b", SmallOptions());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->total_bytes, b->total_bytes);
  EXPECT_EQ(a->total_samples, b->total_samples);
  std::string img_a, img_b;
  ASSERT_TRUE(ReadFileToString(a->files[0], &img_a).ok());
  ASSERT_TRUE(ReadFileToString(b->files[0], &img_b).ok());
  EXPECT_EQ(img_a, img_b);
}

TEST_F(GeneratorTest, DifferentSeedsDiffer) {
  GeneratorOptions other = SmallOptions();
  other.seed = 6;
  auto a = GenerateRepository(dir_ + "/a", SmallOptions());
  auto b = GenerateRepository(dir_ + "/b", other);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  std::string img_a, img_b;
  ASSERT_TRUE(ReadFileToString(a->files[0], &img_a).ok());
  ASSERT_TRUE(ReadFileToString(b->files[0], &img_b).ok());
  EXPECT_NE(img_a, img_b);
}

TEST_F(GeneratorTest, RecordsPartitionTheDay) {
  auto repo = GenerateRepository(dir_, SmallOptions());
  ASSERT_TRUE(repo.ok());
  auto scan = MseedAdapter().ScanRepository(dir_);
  ASSERT_TRUE(scan.ok());
  // Every record starts at day_start + k * (day / records_per_file).
  const int64_t span = kMillisPerDay / 3;
  for (const RecordMeta& r : scan->records) {
    EXPECT_EQ((r.start_time_ms % kMillisPerDay) % span, 0)
        << "record at " << r.start_time_ms;
    EXPECT_GT(r.num_samples, 0u);
    EXPECT_GE(r.end_time_ms, r.start_time_ms);
  }
}

TEST_F(GeneratorTest, GapsReduceRecordCount) {
  GeneratorOptions gappy = SmallOptions();
  gappy.gap_probability = 0.5;
  gappy.num_days = 4;
  auto repo = GenerateRepository(dir_, gappy);
  ASSERT_TRUE(repo.ok());
  const uint64_t max_records = 2u * 2u * 4u * 3u;
  EXPECT_LT(repo->total_records, max_records);
  EXPECT_GT(repo->total_records, 0u);
}

TEST_F(GeneratorTest, ScannerAgreesWithGenerator) {
  auto repo = GenerateRepository(dir_, SmallOptions());
  ASSERT_TRUE(repo.ok());
  auto scan = MseedAdapter().ScanRepository(dir_);
  ASSERT_TRUE(scan.ok()) << scan.status().ToString();
  EXPECT_EQ(scan->files.size(), repo->files.size());
  EXPECT_EQ(scan->records.size(), repo->total_records);
  EXPECT_EQ(scan->total_bytes, repo->total_bytes);
  uint64_t samples = 0;
  for (const RecordMeta& r : scan->records) samples += r.num_samples;
  EXPECT_EQ(samples, repo->total_samples);
  // Station codes flow through to file-level metadata.
  std::set<std::string> stations;
  for (const FileMeta& f : scan->files) stations.insert(f.station);
  EXPECT_EQ(stations.size(), 2u);
  EXPECT_TRUE(stations.count("ISK"));
}

TEST_F(GeneratorTest, InvalidOptionsRejected) {
  GeneratorOptions bad = SmallOptions();
  bad.num_stations = 0;
  EXPECT_TRUE(GenerateRepository(dir_, bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.sample_rate_hz = 0.0;
  EXPECT_TRUE(GenerateRepository(dir_, bad).status().IsInvalidArgument());
  bad = SmallOptions();
  bad.sample_rate_hz = 1e-9;  // yields zero samples per record
  EXPECT_TRUE(GenerateRepository(dir_, bad).status().IsInvalidArgument());
}

TEST_F(GeneratorTest, WaveformSynthesisDeterministic) {
  const auto a = SynthesizeWaveform(9, 500, true);
  const auto b = SynthesizeWaveform(9, 500, true);
  EXPECT_EQ(a, b);
  const auto c = SynthesizeWaveform(10, 500, true);
  EXPECT_NE(a, c);
}

TEST_F(GeneratorTest, EventsRaiseAmplitude) {
  const auto calm = SynthesizeWaveform(11, 2000, false);
  const auto event = SynthesizeWaveform(11, 2000, true);
  auto peak = [](const std::vector<int32_t>& v) {
    int32_t m = 0;
    for (int32_t s : v) m = std::max(m, std::abs(s));
    return m;
  };
  EXPECT_GT(peak(event), peak(calm) * 5);
}

}  // namespace
}  // namespace dex::mseed
