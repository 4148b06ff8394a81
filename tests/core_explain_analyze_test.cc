#include <gtest/gtest.h>

#include <string>

#include "test_util.h"

namespace dex {
namespace {

using dex::testing::ScopedRepo;
using dex::testing::TinyRepoOptions;

/// Joins the one-column QUERY PLAN table back into plan text.
std::string PlanText(const Table& table) {
  std::string text;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    text += table.column(0)->GetString(r);
    text += '\n';
  }
  return text;
}

TEST(ExplainAnalyzeTest, PlainExplainReturnsPlanTable) {
  ScopedRepo repo("explain_plain", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(db);

  auto result = (*db)->Query("EXPLAIN SELECT COUNT(*) FROM F");
  DEX_ASSERT_OK(result);
  ASSERT_EQ(result->table->num_columns(), 1u);
  EXPECT_NE(result->table->schema()->ToString().find("QUERY PLAN"),
            std::string::npos);
  EXPECT_GT(result->table->num_rows(), 0u);
  const std::string text = PlanText(*result->table);
  EXPECT_NE(text.find("Aggregate"), std::string::npos) << text;
  EXPECT_NE(text.find("Scan(F)"), std::string::npos) << text;
  EXPECT_EQ(result->stats.result_rows, result->table->num_rows());
}

TEST(ExplainAnalyzeTest, MetadataQueryReportsPerOperatorRowCounts) {
  // Tiny repo: 2 stations x 2 channels x 2 days = 8 files, so Scan(F) must
  // report exactly 8 rows and the aggregate exactly 1.
  ScopedRepo repo("explain_analyze_meta", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(db);

  auto result = (*db)->Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM F");
  DEX_ASSERT_OK(result);
  const std::string text = PlanText(*result->table);
  EXPECT_NE(text.find("stage 1 (metadata only):"), std::string::npos) << text;

  // Per-operator annotations: the scan's row count and the aggregate's.
  const size_t agg = text.find("Aggregate");
  ASSERT_NE(agg, std::string::npos) << text;
  EXPECT_NE(text.find("(rows=1 ", agg), std::string::npos) << text;
  const size_t scan = text.find("Scan(F)");
  ASSERT_NE(scan, std::string::npos) << text;
  EXPECT_NE(text.find("(rows=8 ", scan), std::string::npos) << text;

  EXPECT_NE(text.find("-- execution --"), std::string::npos) << text;
  EXPECT_NE(text.find("result rows: 1"), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, TwoStageQueryShowsBothStagesAndMounts) {
  ScopedRepo repo("explain_analyze_lazy", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(db);

  auto result = (*db)->Query(
      "EXPLAIN ANALYZE SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri");
  DEX_ASSERT_OK(result);
  const std::string text = PlanText(*result->table);
  EXPECT_NE(text.find("stage 1 (Q_f):"), std::string::npos) << text;
  EXPECT_NE(text.find("stage 2:"), std::string::npos) << text;
  EXPECT_NE(text.find("Mount("), std::string::npos) << text;
  EXPECT_NE(text.find("rows="), std::string::npos) << text;

  // The stage-2 aggregate's row count must match what the plain query
  // returns: one output row.
  const size_t stage2 = text.find("stage 2:");
  const size_t agg = text.find("Aggregate", stage2);
  ASSERT_NE(agg, std::string::npos) << text;
  EXPECT_NE(text.find("(rows=1 ", agg), std::string::npos) << text;

  // ANALYZE really executed: the mount decode counters moved.
  EXPECT_GT(result->stats.mount.mounts, 0u);
}

TEST(ExplainAnalyzeTest, MountNodesCarryTheirWaveTaskTime) {
  // Stage-2 mounts run as wave tasks before the plan opens its branches; the
  // Mount node serving each premounted table must still show the task's wall
  // time, at one lane and at several.
  ScopedRepo repo("explain_analyze_mount_time", TinyRepoOptions());
  for (size_t workers : {size_t{1}, size_t{4}}) {
    DatabaseOptions options;
    options.two_stage.num_threads = workers;
    auto db = Database::Open(repo.root(), options);
    DEX_ASSERT_OK(db);
    auto result = (*db)->Query(
        "EXPLAIN ANALYZE SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
        "WHERE F.station = 'ISK' AND F.channel = 'BHE'");
    DEX_ASSERT_OK(result);
    const std::string text = PlanText(*result->table);
    size_t mounts = 0;
    for (size_t pos = text.find("Mount("); pos != std::string::npos;
         pos = text.find("Mount(", pos + 1)) {
      const size_t open = text.find("open=", pos);
      ASSERT_NE(open, std::string::npos) << text;
      EXPECT_NE(text.compare(open, 13, "open=0.000ms "), 0)
          << "workers=" << workers << "\n" << text;
      ++mounts;
    }
    EXPECT_EQ(mounts, 2u) << text;
  }
}

TEST(ExplainAnalyzeTest, EagerModeProfilesTheSingleStagePlan) {
  ScopedRepo repo("explain_analyze_eager", TinyRepoOptions());
  DatabaseOptions options;
  options.mode = IngestionMode::kEager;
  auto db = Database::Open(repo.root(), options);
  DEX_ASSERT_OK(db);

  auto result = (*db)->Query("EXPLAIN ANALYZE SELECT COUNT(*) FROM F");
  DEX_ASSERT_OK(result);
  const std::string text = PlanText(*result->table);
  EXPECT_NE(text.find("plan:"), std::string::npos) << text;
  EXPECT_NE(text.find("(rows=1 "), std::string::npos) << text;
}

TEST(ExplainAnalyzeTest, AnalyzeMatchesPlainQueryRowCount) {
  ScopedRepo repo("explain_analyze_match", TinyRepoOptions());
  auto db = Database::Open(repo.root(), {});
  DEX_ASSERT_OK(db);

  const std::string sql =
      "SELECT F.station, COUNT(*) AS n FROM F GROUP BY F.station";
  auto plain = (*db)->Query(sql);
  DEX_ASSERT_OK(plain);

  auto analyzed = (*db)->Query("explain analyze " + sql);  // case-insensitive
  DEX_ASSERT_OK(analyzed);
  const std::string text = PlanText(*analyzed->table);
  EXPECT_NE(text.find("result rows: " +
                      std::to_string(plain->table->num_rows())),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace dex
