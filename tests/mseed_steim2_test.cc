#include "mseed/steim2.h"

#include <gtest/gtest.h>

#include <limits>
#include <tuple>

#include "common/random.h"
#include "mseed/generator.h"
#include "mseed/reader.h"
#include "mseed/steim.h"
#include "io/file_io.h"
#include "mseed/writer.h"
#include "test_util.h"

namespace dex::mseed {
namespace {

void ExpectRoundtrip(const std::vector<int32_t>& samples) {
  auto encoded = Steim2::Encode(samples);
  ASSERT_TRUE(encoded.ok()) << encoded.status().ToString();
  if (samples.empty()) {
    EXPECT_TRUE(encoded->empty());
    return;
  }
  EXPECT_EQ(encoded->size() % Steim2::kFrameBytes, 0u);
  auto decoded = Steim2::Decode(*encoded, samples.size());
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, samples);
}

TEST(Steim2Test, EmptyAndSingle) {
  ExpectRoundtrip({});
  ExpectRoundtrip({42});
  ExpectRoundtrip({-42});
}

TEST(Steim2Test, ConstantSeries) {
  ExpectRoundtrip(std::vector<int32_t>(5000, -7));
}

TEST(Steim2Test, EveryPackingWidthExercised) {
  // Build runs of diffs sized for each packing: 4-bit, 5-bit, 6-bit, 8-bit,
  // 10-bit, 15-bit, 30-bit.
  std::vector<int32_t> samples{0};
  auto extend = [&](int64_t delta, int n) {
    for (int i = 0; i < n; ++i) {
      samples.push_back(static_cast<int32_t>(samples.back() + delta));
      delta = -delta;
    }
  };
  extend(7, 21);          // 4-bit (7 per word)
  extend(15, 12);         // 5-bit (6 per word)
  extend(31, 10);         // 6-bit (5 per word)
  extend(127, 8);         // 8-bit (4 per word)
  extend(511, 6);         // 10-bit (3 per word)
  extend(16000, 4);       // 15-bit (2 per word)
  extend(300000000, 3);   // 30-bit (1 per word)
  ExpectRoundtrip(samples);
}

TEST(Steim2Test, CompressesBetterThanSteim1OnSmoothData) {
  const auto samples = SynthesizeWaveform(5, 86400, false);
  auto s2 = Steim2::Encode(samples);
  ASSERT_TRUE(s2.ok());
  const std::string s1 = Steim1::Encode(samples);
  EXPECT_LT(s2->size(), s1.size())
      << "Steim2 should beat Steim1 on low-amplitude microseism data";
}

TEST(Steim2Test, RejectsOutOfRangeDifferences) {
  // A jump from min to max needs ~32 bits of difference.
  const std::vector<int32_t> samples = {std::numeric_limits<int32_t>::min(),
                                        std::numeric_limits<int32_t>::max()};
  EXPECT_TRUE(Steim2::Encode(samples).status().IsInvalidArgument());
}

TEST(Steim2Test, FirstDifferenceOutOfRangeIsFine) {
  // d[0] = x[0] is huge but never used by the decoder.
  ExpectRoundtrip({2000000000, 2000000001, 2000000000});
}

TEST(Steim2Test, DecodeRejectsTruncation) {
  std::vector<int32_t> samples;
  for (int i = 0; i < 500; ++i) samples.push_back(i * 3);
  auto encoded = Steim2::Encode(samples);
  ASSERT_TRUE(encoded.ok());
  std::string cut = encoded->substr(0, encoded->size() - Steim2::kFrameBytes);
  EXPECT_TRUE(Steim2::Decode(cut, samples.size()).status().IsCorruption());
  EXPECT_TRUE(Steim2::Decode("short", 3).status().IsCorruption());
}

TEST(Steim2Test, DecodeDetectsBitFlips) {
  std::vector<int32_t> samples;
  for (int i = 0; i < 300; ++i) samples.push_back(i % 97);
  auto encoded = Steim2::Encode(samples);
  ASSERT_TRUE(encoded.ok());
  std::string bad = *encoded;
  // Flip the lowest bit of a data word's last difference (byte 23 = least
  // significant byte of word 5; bits 28-29 of a 7x4 word are padding, so
  // flip where it provably lands inside a difference).
  bad[23] = static_cast<char>(bad[23] ^ 0x01);
  EXPECT_TRUE(Steim2::Decode(bad, samples.size()).status().IsCorruption());
}

class Steim2Roundtrip
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t, bool>> {};

TEST_P(Steim2Roundtrip, EncodeDecodeIsIdentity) {
  const auto [seed, n, with_event] = GetParam();
  ExpectRoundtrip(SynthesizeWaveform(seed, n, with_event));
}

INSTANTIATE_TEST_SUITE_P(
    WaveformFamilies, Steim2Roundtrip,
    ::testing::Combine(::testing::Values(2ull, 23ull, 555ull),
                       ::testing::Values(1u, 7u, 8u, 52u, 53u, 1000u, 4096u),
                       ::testing::Bool()));

TEST(Steim2Roundtrip, RandomMixedMagnitudes) {
  Random rng(77);
  std::vector<int32_t> samples{0};
  int64_t cur = 0;
  for (int i = 0; i < 5000; ++i) {
    const int choice = static_cast<int>(rng.Uniform(4));
    int64_t delta = 0;
    if (choice == 0) delta = rng.UniformRange(-7, 7);
    if (choice == 1) delta = rng.UniformRange(-500, 500);
    if (choice == 2) delta = rng.UniformRange(-16000, 16000);
    if (choice == 3) delta = rng.UniformRange(-200000000, 200000000);
    // Keep the walk bounded so consecutive differences never exceed
    // Steim2's 30-bit range through int32 wraparound.
    if (cur + delta > 1000000000 || cur + delta < -1000000000) delta = -delta;
    cur += delta;
    samples.push_back(static_cast<int32_t>(cur));
  }
  ExpectRoundtrip(samples);
}

// ---------- end-to-end through the file format ----------

TEST(Steim2FileTest, RecordsRoundtripThroughFiles) {
  RecordData rec;
  rec.network = "OR";
  rec.station = "ISK";
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = 1000;
  rec.sample_rate_hz = 10.0;
  rec.encoding = 2;
  rec.samples = SynthesizeWaveform(9, 2000, true);
  const std::string image = SerializeFile({rec});
  auto infos = Reader::ScanHeadersInMemory(image);
  ASSERT_TRUE(infos.ok());
  ASSERT_EQ(infos->size(), 1u);
  EXPECT_EQ((*infos)[0].header.encoding, 2);
}

TEST(Steim2FileTest, MixedEncodingFile) {
  RecordData steim1_rec;
  steim1_rec.network = "OR";
  steim1_rec.station = "ISK";
  steim1_rec.channel = "BHE";
  steim1_rec.location = "00";
  steim1_rec.start_time_ms = 0;
  steim1_rec.sample_rate_hz = 1.0;
  steim1_rec.encoding = 1;
  steim1_rec.samples = {1, 2, 3, 4};
  RecordData steim2_rec = steim1_rec;
  steim2_rec.start_time_ms = 10000;
  steim2_rec.encoding = 2;
  steim2_rec.samples = {9, 8, 7};

  const testing::ScopedTempDir tmp;
  const std::string path = tmp.path() + "/dex_steim2_mixed.mseed";
  ASSERT_TRUE(WriteFile(path, {steim1_rec, steim2_rec}).ok());
  auto records = Reader::ReadAllRecords(path);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  ASSERT_EQ(records->size(), 2u);
  EXPECT_EQ((*records)[0].samples, steim1_rec.samples);
  EXPECT_EQ((*records)[1].samples, steim2_rec.samples);
  EXPECT_EQ((*records)[0].header.encoding, 1);
  EXPECT_EQ((*records)[1].header.encoding, 2);
  (void)RemoveDirRecursive(path);
}

TEST(Steim2FileTest, WriterFallsBackWhenOutOfRange) {
  RecordData rec;
  rec.network = "OR";
  rec.station = "ISK";
  rec.channel = "BHE";
  rec.location = "00";
  rec.start_time_ms = 0;
  rec.sample_rate_hz = 1.0;
  rec.encoding = 2;
  rec.samples = {std::numeric_limits<int32_t>::min(),
                 std::numeric_limits<int32_t>::max()};
  const std::string image = SerializeFile({rec});
  auto infos = Reader::ScanHeadersInMemory(image);
  ASSERT_TRUE(infos.ok());
  EXPECT_EQ((*infos)[0].header.encoding, 1) << "must fall back to Steim1";
  auto parsed = Reader::ScanHeadersInMemory(image);
  ASSERT_TRUE(parsed.ok());
}

TEST(Steim2FileTest, UnknownEncodingRejected) {
  RecordHeader h;
  h.network = "OR";
  h.station = "ISK";
  h.channel = "BHE";
  h.location = "00";
  h.start_time_ms = 0;
  h.sample_rate_hz = 1.0;
  h.num_samples = 0;
  h.data_bytes = 0;
  h.encoding = 7;
  std::string buf;
  h.AppendTo(&buf);
  EXPECT_TRUE(RecordHeader::Parse(buf, 0).status().IsCorruption());
}

TEST(Steim2FileTest, GeneratorEncodingOption) {
  const testing::ScopedTempDir tmp;
  const std::string dir = tmp.path() + "/dex_steim2_repo";
  (void)RemoveDirRecursive(dir);
  GeneratorOptions gen;
  gen.num_stations = 1;
  gen.channels_per_station = 1;
  gen.num_days = 1;
  gen.records_per_file = 2;
  gen.sample_rate_hz = 0.05;
  gen.gap_probability = 0.0;
  gen.encoding = 2;
  auto repo = GenerateRepository(dir, gen);
  ASSERT_TRUE(repo.ok());
  auto records = Reader::ReadAllRecords(repo->files[0]);
  ASSERT_TRUE(records.ok()) << records.status().ToString();
  for (const DecodedRecord& rec : *records) {
    EXPECT_EQ(rec.header.encoding, 2);
  }
  // Steim2 repository is smaller than the same content in Steim1.
  GeneratorOptions gen1 = gen;
  gen1.encoding = 1;
  auto repo1 = GenerateRepository(dir + "_s1", gen1);
  ASSERT_TRUE(repo1.ok());
  EXPECT_LT(repo->total_bytes, repo1->total_bytes);
  (void)RemoveDirRecursive(dir);
  (void)RemoveDirRecursive(dir + "_s1");
}

}  // namespace
}  // namespace dex::mseed
