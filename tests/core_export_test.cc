#include "core/export.h"

#include <gtest/gtest.h>

#include "common/string_utils.h"
#include "core/database.h"
#include "io/file_io.h"
#include "test_util.h"

namespace dex {
namespace {

TablePtr MakeTable() {
  auto schema = std::make_shared<Schema>(
      Schema({{"station", DataType::kString, "F"},
              {"t", DataType::kTimestamp, "F"},
              {"n", DataType::kInt64, "F"},
              {"v", DataType::kDouble, "F"},
              {"flag", DataType::kBool, "F"}}));
  auto t = std::make_shared<Table>("F", schema);
  EXPECT_TRUE(t->AppendRow({Value::String("ISK"), Value::Timestamp(0),
                            Value::Int64(-3), Value::Double(2.5),
                            Value::Bool(true)})
                  .ok());
  EXPECT_TRUE(t->AppendRow({Value::String("A,\"B\""), Value::Timestamp(1000),
                            Value::Int64(7), Value::Double(0.125),
                            Value::Bool(false)})
                  .ok());
  return t;
}

TEST(ExportTest, HeaderAndRows) {
  const std::string csv = TableToCsv(*MakeTable());
  const auto lines = Split(csv, '\n');
  ASSERT_GE(lines.size(), 3u);
  EXPECT_EQ(lines[0], "F.station,F.t,F.n,F.v,F.flag");
  EXPECT_EQ(lines[1], "ISK,1970-01-01T00:00:00.000,-3,2.5,true");
  // Embedded comma and quotes: field quoted, quotes doubled.
  EXPECT_EQ(lines[2], "\"A,\"\"B\"\"\",1970-01-01T00:00:01.000,7,0.125,false");
}

TEST(ExportTest, EmptyTableHasHeaderOnly) {
  auto schema = std::make_shared<Schema>(
      Schema({{"x", DataType::kInt64, ""}}));
  Table t("T", schema);
  EXPECT_EQ(TableToCsv(t), "x\n");
}

TEST(ExportTest, DoublePrecisionRoundtrips) {
  auto schema = std::make_shared<Schema>(
      Schema({{"v", DataType::kDouble, ""}}));
  auto t = std::make_shared<Table>("T", schema);
  const double exact = 0.1 + 0.2;  // 0.30000000000000004
  ASSERT_TRUE(t->AppendRow({Value::Double(exact)}).ok());
  const std::string csv = TableToCsv(*t);
  const auto lines = Split(csv, '\n');
  EXPECT_EQ(std::stod(lines[1]), exact);
}

TEST(ExportTest, WritesFile) {
  const testing::ScopedTempDir tmp;
  const std::string path = tmp.path() + "/dex_export_test/out.csv";
  (void)RemoveDirRecursive(tmp.path() + "/dex_export_test");
  ASSERT_TRUE(ExportTableCsv(*MakeTable(), path).ok());
  std::string back;
  ASSERT_TRUE(ReadFileToString(path, &back).ok());
  EXPECT_EQ(back, TableToCsv(*MakeTable()));
  (void)RemoveDirRecursive(tmp.path() + "/dex_export_test");
}

TEST(ExportTest, QueryResultExportsEndToEnd) {
  testing::ScopedRepo repo("export_e2e", testing::TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  ASSERT_TRUE(db.ok());
  auto r = (*db)->Query(
      "SELECT F.station, COUNT(*) AS n FROM F GROUP BY F.station "
      "ORDER BY F.station");
  ASSERT_TRUE(r.ok());
  const std::string csv = TableToCsv(*r->table);
  const auto lines = Split(csv, '\n');
  ASSERT_EQ(lines.size(), 4u);  // header + 2 stations + trailing empty
  EXPECT_EQ(lines[0], "station,n");
  EXPECT_EQ(lines[1], "ANK,4");
  EXPECT_EQ(lines[2], "ISK,4");
}

}  // namespace
}  // namespace dex
