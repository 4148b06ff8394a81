// Tests for the persistent cache's columnar file codec: lossless roundtrip
// across every column type and encoding, and — the robustness contract — a
// clean Corruption (never a crash, never wrong rows) for every way the bytes
// can be damaged: truncation at any length, a bit flip at any offset, bad
// magic, implausible structure.

#include "io/columnar_file.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "storage/schema.h"
#include "storage/table.h"
#include "test_util.h"

namespace dex {
namespace {

SchemaPtr MakeMixedSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddField({"uri", DataType::kString, "D"});
  schema->AddField({"record_id", DataType::kInt64, "D"});
  schema->AddField({"sample_time", DataType::kTimestamp, "D"});
  schema->AddField({"sample_value", DataType::kDouble, "D"});
  schema->AddField({"ok", DataType::kBool, "D"});
  return schema;
}

// Builds a table shaped like a real mounted partial table: constant uri
// column, strided time column, low-cardinality strings, plus irregular
// values that defeat the compact encodings.
TablePtr MakeMixedTable(size_t rows) {
  auto table = std::make_shared<Table>("D", MakeMixedSchema());
  for (size_t i = 0; i < rows; ++i) {
    table->mutable_column(0)->AppendString("/repo/OR/ISK/BHE.mseed");
    table->mutable_column(1)->AppendInt64(static_cast<int64_t>(i / 7));
    table->mutable_column(2)->AppendInt64(1000 + static_cast<int64_t>(i) * 250);
    table->mutable_column(3)->AppendDouble(std::sin(static_cast<double>(i)));
    table->mutable_column(4)->AppendInt64(i % 3 == 0 ? 1 : 0);
  }
  EXPECT_TRUE(table->CommitAppendedRows(rows).ok());
  return table;
}

ColumnarFileMeta MakeMeta() {
  ColumnarFileMeta meta;
  meta.source_uri = "/repo/OR/ISK/BHE.mseed";
  meta.predicate_repr = "(D.sample_time >= 1000)";
  meta.window_pure = true;
  meta.window_lo = 1000;
  meta.window_hi = 99999;
  meta.source_size_bytes = 4096;
  meta.source_mtime_ms = 1723180800000;
  return meta;
}

void ExpectTablesEqual(const Table& a, const Table& b) {
  EXPECT_EQ(dex::testing::CanonicalRows(a), dex::testing::CanonicalRows(b));
}

TEST(ColumnarFile, RoundtripsMixedTypesLosslessly) {
  TablePtr table = MakeMixedTable(123);
  const ColumnarFileMeta meta = MakeMeta();
  const std::string bytes = EncodeColumnarFile(*table, meta);

  ColumnarFileMeta got;
  auto decoded = DecodeColumnarFile(bytes, &got);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->num_rows(), table->num_rows());
  EXPECT_EQ((*decoded)->num_columns(), table->num_columns());
  ExpectTablesEqual(*table, **decoded);
  EXPECT_EQ(got.source_uri, meta.source_uri);
  EXPECT_EQ(got.predicate_repr, meta.predicate_repr);
  EXPECT_EQ(got.window_pure, meta.window_pure);
  EXPECT_EQ(got.window_lo, meta.window_lo);
  EXPECT_EQ(got.window_hi, meta.window_hi);
  EXPECT_EQ(got.source_size_bytes, meta.source_size_bytes);
  EXPECT_EQ(got.source_mtime_ms, meta.source_mtime_ms);
  EXPECT_EQ(got.table_byte_size, table->ByteSize());
}

TEST(ColumnarFile, CompactEncodingsBeatRawFootprint) {
  // Constant + strided + dictionary encodings should make the file markedly
  // smaller than the in-memory footprint for repetitive data.
  TablePtr table = MakeMixedTable(4096);
  const std::string bytes = EncodeColumnarFile(*table, MakeMeta());
  EXPECT_LT(bytes.size(), table->ByteSize());
}

TEST(ColumnarFile, RoundtripsEmptyTable) {
  auto table = std::make_shared<Table>("D", MakeMixedSchema());
  ASSERT_TRUE(table->CommitAppendedRows(0).ok());
  const std::string bytes = EncodeColumnarFile(*table, MakeMeta());
  auto decoded = DecodeColumnarFile(bytes, nullptr);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ((*decoded)->num_rows(), 0u);
  EXPECT_EQ((*decoded)->num_columns(), table->num_columns());
}

TEST(ColumnarFile, RoundtripsIrregularDoublesIncludingNaN) {
  auto schema = std::make_shared<Schema>();
  schema->AddField({"v", DataType::kDouble, "D"});
  auto table = std::make_shared<Table>("D", schema);
  const double values[] = {0.0, -0.0, 1e300, -1e-300,
                           std::numeric_limits<double>::infinity(),
                           std::nan("")};
  for (double v : values) table->mutable_column(0)->AppendDouble(v);
  ASSERT_TRUE(table->CommitAppendedRows(6).ok());
  auto decoded = DecodeColumnarFile(EncodeColumnarFile(*table, MakeMeta()),
                                    nullptr);
  ASSERT_TRUE(decoded.ok());
  const double* out = (*decoded)->column(0)->data_f64();
  const double* in = table->column(0)->data_f64();
  for (size_t i = 0; i < 6; ++i) {
    // Bit-exact, so NaN payloads and -0.0 survive.
    EXPECT_EQ(std::memcmp(&out[i], &in[i], sizeof(double)), 0) << i;
  }
}

TEST(ColumnarFile, ConstantNaNColumnRoundtrips) {
  // The const-detection must compare bits, not values (NaN != NaN).
  auto schema = std::make_shared<Schema>();
  schema->AddField({"v", DataType::kDouble, "D"});
  auto table = std::make_shared<Table>("D", schema);
  for (int i = 0; i < 10; ++i) table->mutable_column(0)->AppendDouble(std::nan(""));
  ASSERT_TRUE(table->CommitAppendedRows(10).ok());
  auto decoded = DecodeColumnarFile(EncodeColumnarFile(*table, MakeMeta()),
                                    nullptr);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(std::isnan((*decoded)->column(0)->data_f64()[9]));
}

TEST(ColumnarFile, TruncationAtEveryLengthIsCorruption) {
  TablePtr table = MakeMixedTable(40);
  const std::string bytes = EncodeColumnarFile(*table, MakeMeta());
  // Every strict prefix — header, mid-frame, mid-checksum, footer — must be
  // rejected as Corruption, never crash, never yield a table.
  for (size_t len = 0; len < bytes.size(); ++len) {
    auto decoded = DecodeColumnarFile(bytes.substr(0, len), nullptr);
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_TRUE(decoded.status().IsCorruption()) << len;
  }
}

TEST(ColumnarFile, BitFlipAtEveryOffsetIsCorruption) {
  TablePtr table = MakeMixedTable(24);
  const std::string bytes = EncodeColumnarFile(*table, MakeMeta());
  for (size_t off = 0; off < bytes.size(); ++off) {
    std::string bad = bytes;
    bad[off] = static_cast<char>(bad[off] ^ 0x04);
    auto decoded = DecodeColumnarFile(bad, nullptr);
    EXPECT_FALSE(decoded.ok()) << "bit flip at " << off << " decoded";
  }
}

TEST(ColumnarFile, TrailingGarbageAndBadMagicAreCorruption) {
  TablePtr table = MakeMixedTable(8);
  const std::string bytes = EncodeColumnarFile(*table, MakeMeta());
  EXPECT_TRUE(DecodeColumnarFile(bytes + "x", nullptr).status().IsCorruption());
  EXPECT_TRUE(DecodeColumnarFile("", nullptr).status().IsCorruption());
  EXPECT_TRUE(DecodeColumnarFile("DXCOL999", nullptr).status().IsCorruption());
  std::string wrong_version = bytes;
  wrong_version[7] = '9';  // future format generation
  EXPECT_TRUE(
      DecodeColumnarFile(wrong_version, nullptr).status().IsCorruption());
}

TEST(ColumnarFile, PeekReadsHeaderWithoutFrames) {
  TablePtr table = MakeMixedTable(16);
  const ColumnarFileMeta meta = MakeMeta();
  const std::string bytes = EncodeColumnarFile(*table, meta);
  ColumnarFileMeta got;
  ASSERT_TRUE(PeekColumnarMeta(bytes, &got).ok());
  EXPECT_EQ(got.source_uri, meta.source_uri);
  EXPECT_EQ(got.source_mtime_ms, meta.source_mtime_ms);
  // Peek validates the header checksum too.
  std::string bad = bytes;
  bad[10] = static_cast<char>(bad[10] ^ 0x01);
  EXPECT_FALSE(PeekColumnarMeta(bad, &got).ok());
}

// -- Multi-table files -------------------------------------------------------

// A two-table file whose second table is empty, plus the specs that decode it.
struct TwoTables {
  TablePtr full = MakeMixedTable(30);
  TablePtr empty = std::make_shared<Table>("E", MakeMixedSchema());
  std::vector<ColumnarTableSpec> specs = {{"D", MakeMixedSchema()},
                                          {"E", MakeMixedSchema()}};
  std::string bytes;

  TwoTables() {
    EXPECT_TRUE(empty->CommitAppendedRows(0).ok());
    bytes = EncodeColumnarTables({full.get(), empty.get()});
  }
};

TEST(ColumnarFile, MultiTableRoundtripsWithAnEmptyTable) {
  const TwoTables t;
  // Each table is encoded exactly as a single-table file with empty meta.
  EXPECT_EQ(t.bytes,
            EncodeColumnarFile(*t.full, {}) + EncodeColumnarFile(*t.empty, {}));
  auto decoded = DecodeColumnarTables(t.bytes, t.specs);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->size(), 2u);
  EXPECT_EQ((*decoded)[0]->name(), "D");
  ExpectTablesEqual(*t.full, *(*decoded)[0]);
  EXPECT_EQ((*decoded)[1]->name(), "E");
  EXPECT_EQ((*decoded)[1]->num_rows(), 0u);
  EXPECT_EQ((*decoded)[1]->num_columns(), t.empty->num_columns());
}

TEST(ColumnarFile, MultiTableTruncationAndBitFlipAreCorruption) {
  const TwoTables t;
  for (size_t len = 0; len < t.bytes.size(); ++len) {
    auto decoded = DecodeColumnarTables(t.bytes.substr(0, len), t.specs);
    ASSERT_FALSE(decoded.ok()) << "prefix of " << len << " bytes decoded";
    EXPECT_TRUE(decoded.status().IsCorruption()) << len;
  }
  for (size_t off = 0; off < t.bytes.size(); ++off) {
    std::string bad = t.bytes;
    bad[off] = static_cast<char>(bad[off] ^ 0x04);
    auto decoded = DecodeColumnarTables(bad, t.specs);
    EXPECT_TRUE(decoded.status().IsCorruption())
        << "bit flip at " << off << " decoded";
  }
}

TEST(ColumnarFile, MultiTableRejectsMissingExtraMismatchedAndTrailing) {
  const TwoTables t;
  const std::string first = EncodeColumnarFile(*t.full, {});
  const std::string second = EncodeColumnarFile(*t.empty, {});
  ASSERT_EQ(t.bytes, first + second);
  // Cut exactly at the table boundary: the first table is intact.
  EXPECT_TRUE(
      DecodeColumnarTables(first, t.specs).status().IsCorruption());
  // An extra complete table after the expected ones.
  EXPECT_TRUE(DecodeColumnarTables(t.bytes + second, t.specs)
                  .status()
                  .IsCorruption());
  // Trailing bytes after the last end marker.
  EXPECT_TRUE(
      DecodeColumnarTables(t.bytes + "x", t.specs).status().IsCorruption());
  // Tables in the wrong order, and a schema that differs in one qualifier.
  EXPECT_TRUE(DecodeColumnarTables(second + first, t.specs)
                  .status()
                  .IsCorruption());
  auto other_schema = MakeMixedSchema();
  std::vector<Field> fields = other_schema->fields();
  fields[0].qualifier = "E";
  EXPECT_TRUE(
      DecodeColumnarTables(t.bytes, {t.specs[0],
                                     {"E", std::make_shared<Schema>(fields)}})
          .status()
          .IsCorruption());
}

}  // namespace
}  // namespace dex
