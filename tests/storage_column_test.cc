#include "storage/column.h"

#include <gtest/gtest.h>

namespace dex {
namespace {

TEST(StringDictTest, InternDeduplicates) {
  StringDict dict;
  EXPECT_EQ(dict.Intern("a"), 0);
  EXPECT_EQ(dict.Intern("b"), 1);
  EXPECT_EQ(dict.Intern("a"), 0);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.At(1), "b");
  EXPECT_EQ(dict.Find("b"), 1);
  EXPECT_EQ(dict.Find("zzz"), -1);
}

TEST(ColumnTest, Int64Appends) {
  Column col(DataType::kInt64);
  col.AppendInt64(1);
  col.AppendInt64(-5);
  ASSERT_EQ(col.size(), 2u);
  EXPECT_EQ(col.GetInt64(0), 1);
  EXPECT_EQ(col.GetInt64(1), -5);
  EXPECT_EQ(col.GetValue(1).int64(), -5);
}

TEST(ColumnTest, TimestampSharesIntBuffer) {
  Column col(DataType::kTimestamp);
  col.AppendInt64(1000);
  EXPECT_EQ(col.GetValue(0).type(), DataType::kTimestamp);
  EXPECT_DOUBLE_EQ(col.GetNumeric(0), 1000.0);
}

TEST(ColumnTest, DoubleAppends) {
  Column col(DataType::kDouble);
  col.AppendDouble(2.5);
  EXPECT_DOUBLE_EQ(col.GetDouble(0), 2.5);
  EXPECT_DOUBLE_EQ(col.GetNumeric(0), 2.5);
}

TEST(ColumnTest, StringDictionaryEncoding) {
  Column col(DataType::kString);
  col.AppendString("ISK");
  col.AppendString("ANK");
  col.AppendString("ISK");
  ASSERT_EQ(col.size(), 3u);
  EXPECT_EQ(col.GetString(0), "ISK");
  EXPECT_EQ(col.GetString(2), "ISK");
  EXPECT_EQ(col.GetStringCode(0), col.GetStringCode(2));
  EXPECT_NE(col.GetStringCode(0), col.GetStringCode(1));
  EXPECT_EQ(col.dict()->size(), 2u);
}

TEST(ColumnTest, AppendValueChecksTypes) {
  Column col(DataType::kString);
  EXPECT_TRUE(col.AppendValue(Value::String("x")).ok());
  EXPECT_FALSE(col.AppendValue(Value::Int64(1)).ok());
  EXPECT_FALSE(col.AppendValue(Value::Null()).ok());

  Column ints(DataType::kInt64);
  EXPECT_TRUE(ints.AppendValue(Value::Int64(1)).ok());
  EXPECT_FALSE(ints.AppendValue(Value::Double(1.5)).ok());

  Column dbls(DataType::kDouble);
  EXPECT_TRUE(dbls.AppendValue(Value::Int64(2)).ok());  // widening ok
  EXPECT_DOUBLE_EQ(dbls.GetDouble(0), 2.0);
}

TEST(ColumnTest, AppendRangeSharesDictionary) {
  Column src(DataType::kString);
  for (int i = 0; i < 100; ++i) src.AppendString(i % 2 ? "a" : "b");
  Column dst(DataType::kString);
  dst.AppendRange(src, 10, 20);
  ASSERT_EQ(dst.size(), 20u);
  EXPECT_EQ(dst.GetString(0), "b");  // row 10
  EXPECT_EQ(dst.dict(), src.dict()) << "slice should share the dictionary";
}

TEST(ColumnTest, CopyOnWritePreservesSharedDict) {
  Column src(DataType::kString);
  src.AppendString("x");
  Column dst(DataType::kString);
  dst.AppendRange(src, 0, 1);
  ASSERT_EQ(dst.dict(), src.dict());
  // Appending to dst must not mutate the shared dictionary.
  dst.AppendString("fresh");
  EXPECT_NE(dst.dict(), src.dict());
  EXPECT_EQ(src.dict()->size(), 1u);
  EXPECT_EQ(dst.GetString(0), "x");
  EXPECT_EQ(dst.GetString(1), "fresh");
}

TEST(ColumnTest, AppendGather) {
  Column src(DataType::kInt64);
  for (int i = 0; i < 10; ++i) src.AppendInt64(i * 10);
  Column dst(DataType::kInt64);
  dst.AppendGather(src, {9, 0, 5});
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.GetInt64(0), 90);
  EXPECT_EQ(dst.GetInt64(1), 0);
  EXPECT_EQ(dst.GetInt64(2), 50);
}

TEST(ColumnTest, AppendGatherStringsAcrossDicts) {
  Column src(DataType::kString);
  src.AppendString("p");
  src.AppendString("q");
  Column dst(DataType::kString);
  dst.AppendString("r");  // dst now owns a different dict
  dst.AppendGather(src, {1, 0});
  ASSERT_EQ(dst.size(), 3u);
  EXPECT_EQ(dst.GetString(1), "q");
  EXPECT_EQ(dst.GetString(2), "p");
}

TEST(ColumnTest, AppendFromAdoptsDictWhenEmpty) {
  Column src(DataType::kString);
  src.AppendString("only");
  Column dst(DataType::kString);
  dst.AppendFrom(src, 0);
  EXPECT_EQ(dst.dict(), src.dict());
  EXPECT_EQ(dst.GetString(0), "only");
}

TEST(ColumnTest, ByteSizeScalesWithRows) {
  Column col(DataType::kInt64);
  const uint64_t empty = col.ByteSize();
  for (int i = 0; i < 1000; ++i) col.AppendInt64(i);
  EXPECT_EQ(col.ByteSize() - empty, 8000u);
}

TEST(ColumnTest, StringByteSizeCountsCodesAndDict) {
  Column col(DataType::kString);
  for (int i = 0; i < 100; ++i) col.AppendString("same");
  // 100 codes * 4B plus one dictionary entry.
  EXPECT_GE(col.ByteSize(), 400u);
  EXPECT_LT(col.ByteSize(), 600u);
}

TEST(ColumnTest, ClearResets) {
  Column col(DataType::kString);
  col.AppendString("a");
  col.Clear();
  EXPECT_EQ(col.size(), 0u);
  col.AppendString("b");
  EXPECT_EQ(col.GetString(0), "b");
}

void ExpectSameStrings(const Column& a, const Column& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.GetStringCode(i), b.GetStringCode(i)) << "row " << i;
  }
  ASSERT_EQ(a.dict()->size(), b.dict()->size());
  for (size_t c = 0; c < a.dict()->size(); ++c) {
    EXPECT_EQ(a.dict()->At(static_cast<int32_t>(c)),
              b.dict()->At(static_cast<int32_t>(c)));
  }
  EXPECT_EQ(a.ByteSize(), b.ByteSize());
}

TEST(ColumnTest, AppendRepeatedStringMatchesPerRowAppends) {
  for (size_t n : {size_t{0}, size_t{1}, size_t{5000}}) {
    Column bulk(DataType::kString);
    Column rows(DataType::kString);
    for (Column* c : {&bulk, &rows}) {
      c->AppendString("a");
      c->AppendString("b");
    }
    bulk.AppendRepeatedString("c", n);
    for (size_t i = 0; i < n; ++i) rows.AppendString("c");
    bulk.AppendRepeatedString("a", n);
    for (size_t i = 0; i < n; ++i) rows.AppendString("a");
    ExpectSameStrings(bulk, rows);
    // Zero copies intern nothing, like zero AppendString calls.
    EXPECT_EQ(bulk.dict()->size(), n == 0 ? 2u : 3u);
  }
}

TEST(ColumnTest, AppendRepeatedStringClonesASharedDictionary) {
  Column src(DataType::kString);
  src.AppendString("x");
  Column bulk(DataType::kString);
  Column rows(DataType::kString);
  bulk.AppendRange(src, 0, 1);
  rows.AppendRange(src, 0, 1);
  ASSERT_EQ(bulk.dict(), src.dict());
  bulk.AppendRepeatedString("y", 3);
  for (int i = 0; i < 3; ++i) rows.AppendString("y");
  EXPECT_NE(bulk.dict(), src.dict());  // copy-on-write, like AppendString
  EXPECT_EQ(src.dict()->size(), 1u);
  ExpectSameStrings(bulk, rows);
}

TEST(ColumnTest, BulkNumericAppendsMatchPerRowAppends) {
  Column ints(DataType::kInt64), int_rows(DataType::kInt64);
  ints.AppendInt64(-1);
  int_rows.AppendInt64(-1);
  int64_t* cells = ints.AppendInt64Cells(4);
  for (int i = 0; i < 4; ++i) {
    cells[i] = i * 10;
    int_rows.AppendInt64(i * 10);
  }
  Column dbls(DataType::kDouble), dbl_rows(DataType::kDouble);
  double* d = dbls.AppendDoubleCells(3);
  for (int i = 0; i < 3; ++i) {
    d[i] = i + 0.5;
    dbl_rows.AppendDouble(i + 0.5);
  }
  ASSERT_EQ(ints.size(), int_rows.size());
  for (size_t i = 0; i < ints.size(); ++i) {
    EXPECT_EQ(ints.GetInt64(i), int_rows.GetInt64(i));
  }
  ASSERT_EQ(dbls.size(), dbl_rows.size());
  for (size_t i = 0; i < dbls.size(); ++i) {
    EXPECT_EQ(dbls.GetDouble(i), dbl_rows.GetDouble(i));
  }
  EXPECT_EQ(ints.ByteSize(), int_rows.ByteSize());
  EXPECT_EQ(dbls.ByteSize(), dbl_rows.ByteSize());
  // Reserved capacity is not footprint: ByteSize counts rows only.
  Column reserved(DataType::kDouble);
  reserved.Reserve(1 << 16);
  EXPECT_EQ(reserved.ByteSize(), 0u);
}

}  // namespace
}  // namespace dex
