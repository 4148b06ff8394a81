// Grouping pushed into the union: stage 2 aggregates each mounted file inside
// its wave task and merges the per-file partials in branch order. The answer
// must be bit-identical, row for row, to aggregating the joined rows — the
// plan that runs with the vectorized kernels off, or when the pushdown falls
// back.

#include <cstring>

#include <gtest/gtest.h>

#include "core/database.h"
#include "core/seismic_schema.h"
#include "core/two_stage.h"
#include "test_util.h"

namespace dex {
namespace {

using ::dex::testing::ScopedRepo;
using ::dex::testing::SmallRepoOptions;

const char* kChannelAggregate =
    "SELECT F.channel, COUNT(*) AS n, AVG(D.sample_value) AS mean, "
    "MIN(D.sample_value) AS lo, MAX(D.sample_value) AS hi "
    "FROM F JOIN D ON F.uri = D.uri WHERE F.station IN ('ISK', 'ANK') "
    "GROUP BY F.channel ORDER BY F.channel";

const char* kHunt =
    "SELECT F.station, COUNT(*) AS n, AVG(D.sample_value) AS mean, "
    "MIN(D.sample_value) AS lo, MAX(D.sample_value) AS hi "
    "FROM F JOIN D ON F.uri = D.uri WHERE D.sample_value > 50 "
    "GROUP BY F.station ORDER BY F.station";

const char* kFullCount = "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri";

// No ORDER BY: the group emission order itself must match.
const char* kUnorderedSums =
    "SELECT F.station, SUM(D.sample_value) AS s, MIN(D.sample_time) AS t0, "
    "MAX(D.sample_time) AS t1 FROM F JOIN D ON F.uri = D.uri "
    "GROUP BY F.station";

const char* kQueries[] = {kChannelAggregate, kHunt, kFullCount, kUnorderedSums};

/// Cell-by-cell equality, doubles compared by their bits.
void ExpectBitIdentical(const Table& got, const Table& want,
                        const std::string& context) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << context;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << context;
  for (size_t c = 0; c < got.num_columns(); ++c) {
    ASSERT_EQ(got.column(c)->type(), want.column(c)->type()) << context;
    for (size_t r = 0; r < got.num_rows(); ++r) {
      const Value a = got.GetValue(r, c);
      const Value b = want.GetValue(r, c);
      if (a.type() == DataType::kDouble) {
        const double x = a.dbl(), y = b.dbl();
        EXPECT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
            << context << " row " << r << " col " << c << ": " << x << " vs " << y;
      } else {
        EXPECT_EQ(a.ToString(), b.ToString())
            << context << " row " << r << " col " << c;
      }
    }
  }
}

QueryOptions Unpushed() {
  QueryOptions q;
  PruningOptions p;
  p.use_simd_kernels = false;
  q.pruning = p;
  return q;
}

QueryResult MustQuery(Database* db, const std::string& sql,
                      const QueryOptions& q = QueryOptions{}) {
  auto r = db->Query(sql, q);
  EXPECT_TRUE(r.ok()) << r.status().ToString() << "\n" << sql;
  return r.ok() ? std::move(*r) : QueryResult{};
}

std::unique_ptr<Database> MustOpen(const std::string& root,
                                   DatabaseOptions options = {}) {
  auto db = Database::Open(root, options);
  EXPECT_TRUE(db.ok()) << db.status().ToString();
  return db.ok() ? std::move(*db) : nullptr;
}

class PartialAggTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { repo_ = new ScopedRepo("partial_agg", SmallRepoOptions()); }
  static void TearDownTestSuite() {
    delete repo_;
    repo_ = nullptr;
  }
  static ScopedRepo* repo_;
};

ScopedRepo* PartialAggTest::repo_ = nullptr;

TEST_F(PartialAggTest, PushedAnswerIsBitIdenticalAcrossWorkersShardsAndPruning) {
  for (size_t workers : {size_t{1}, size_t{4}, size_t{8}}) {
    for (int shards : {1, 3}) {
      DatabaseOptions options;
      options.two_stage.num_threads = workers;
      options.shard.num_shards = shards;
      auto db = MustOpen(repo_->root(), options);
      ASSERT_NE(db, nullptr);
      for (bool pruned : {true, false}) {
        for (const char* sql : kQueries) {
          const std::string context = std::string(sql) + " workers=" +
                                      std::to_string(workers) + " shards=" +
                                      std::to_string(shards) +
                                      (pruned ? " pruned" : " unpruned");
          QueryOptions pushed;
          PruningOptions p;
          p.file_level = pruned;
          p.record_level = pruned;
          p.frame_level = pruned;
          pushed.pruning = p;
          const QueryResult got = MustQuery(db.get(), sql, pushed);
          const QueryResult want = MustQuery(db.get(), sql, Unpushed());
          ASSERT_NE(got.table, nullptr);
          ASSERT_NE(want.table, nullptr);
          ExpectBitIdentical(*got.table, *want.table, context);
          const ExecStats& ex = got.stats.two_stage.exec;
          EXPECT_GT(ex.partial_agg_branches, 0u) << context;
          EXPECT_EQ(ex.partial_agg_branches, ex.files_mounted) << context;
          EXPECT_EQ(ex.partial_agg_fallbacks, 0u) << context;
          EXPECT_EQ(want.stats.two_stage.exec.partial_agg_branches, 0u);
          // The pushdown keeps the joined plan's mount counters.
          EXPECT_EQ(ex.files_mounted, want.stats.two_stage.exec.files_mounted)
              << context;
          EXPECT_EQ(ex.mounted_rows, want.stats.two_stage.exec.mounted_rows)
              << context;
        }
      }
    }
  }
}

TEST_F(PartialAggTest, ChargedSimTimeIsUnchanged) {
  for (const char* sql : kQueries) {
    auto pushed_db = MustOpen(repo_->root());
    auto joined_db = MustOpen(repo_->root());
    pushed_db->FlushBuffers();
    joined_db->FlushBuffers();
    const QueryResult got = MustQuery(pushed_db.get(), sql);
    const QueryResult want = MustQuery(joined_db.get(), sql, Unpushed());
    EXPECT_EQ(got.stats.sim_io_nanos, want.stats.sim_io_nanos) << sql;
    EXPECT_GT(got.stats.two_stage.exec.partial_agg_branches, 0u) << sql;
  }
}

/// Runs `sql` pushed and unpushed, each on a fresh database opened with
/// `options` (governance cutoffs depend on the clock a fresh database
/// starts from), and checks bit identity and the partial-result accounting.
void ExpectCutoffMatches(const std::string& root, const DatabaseOptions& options,
                         const std::string& sql) {
  auto pushed_db = MustOpen(root, options);
  auto joined_db = MustOpen(root, options);
  pushed_db->FlushBuffers();
  joined_db->FlushBuffers();
  const QueryResult got = MustQuery(pushed_db.get(), sql);
  const QueryResult want = MustQuery(joined_db.get(), sql, Unpushed());
  ASSERT_NE(got.table, nullptr);
  ASSERT_NE(want.table, nullptr);
  ExpectBitIdentical(*got.table, *want.table, sql);
  const TwoStageStats& g = got.stats.two_stage;
  const TwoStageStats& w = want.stats.two_stage;
  EXPECT_TRUE(g.is_partial) << sql;
  EXPECT_EQ(g.is_partial, w.is_partial);
  EXPECT_EQ(g.files_skipped_deadline, w.files_skipped_deadline);
  EXPECT_EQ(g.files_skipped_memory, w.files_skipped_memory);
  EXPECT_EQ(g.exec.files_mounted, w.exec.files_mounted);
  EXPECT_EQ(g.exec.mounted_rows, w.exec.mounted_rows);
  // Branches refused by admission contribute no partial.
  EXPECT_GT(g.exec.partial_agg_branches, 0u);
  EXPECT_EQ(g.exec.partial_agg_branches,
            g.exec.files_mounted - g.files_skipped_deadline - g.files_skipped_memory);
  EXPECT_EQ(got.stats.sim_io_nanos, want.stats.sim_io_nanos);
}

TEST_F(PartialAggTest, MemoryCutoffPartialResultMatches) {
  // What the full query reserves at its peak, halved.
  auto probe = MustOpen(repo_->root());
  const QueryResult full = MustQuery(probe.get(), kChannelAggregate);
  const uint64_t peak = full.stats.two_stage.mem_reserved_peak;
  ASSERT_GT(peak, 0u);
  DatabaseOptions options;
  options.two_stage.memory_budget_bytes = peak / 2;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    options.two_stage.num_threads = workers;
    ExpectCutoffMatches(repo_->root(), options, kChannelAggregate);
  }
}

TEST_F(PartialAggTest, DeadlineCutoffPartialResultMatches) {
  auto probe = MustOpen(repo_->root());
  probe->FlushBuffers();
  const QueryResult full = MustQuery(probe.get(), kChannelAggregate);
  ASSERT_GT(full.stats.sim_io_nanos, 0u);
  DatabaseOptions options;
  options.two_stage.sim_deadline_nanos = full.stats.sim_io_nanos / 2;
  for (size_t workers : {size_t{1}, size_t{4}}) {
    options.two_stage.num_threads = workers;
    ExpectCutoffMatches(repo_->root(), options, kChannelAggregate);
  }
}

TEST_F(PartialAggTest, QuarantinedFileContributesNothing) {
  // Two databases over the same repository; one file fails on both before
  // either query mounts it.
  auto pushed_db = MustOpen(repo_->root());
  auto joined_db = MustOpen(repo_->root());
  const std::string victim = pushed_db->registry()->AllUris().front();
  for (Database* db : {pushed_db.get(), joined_db.get()}) {
    auto entry = db->registry()->Get(victim);
    ASSERT_TRUE(entry.ok());
    db->disk()->fault_injector()->FailObject(entry->object);
    db->FlushBuffers();
  }
  const QueryResult got = MustQuery(pushed_db.get(), kHunt);
  const QueryResult want = MustQuery(joined_db.get(), kHunt, Unpushed());
  ASSERT_NE(got.table, nullptr);
  ExpectBitIdentical(*got.table, *want.table, kHunt);
  EXPECT_EQ(got.stats.files_failed, 1u);
  EXPECT_EQ(want.stats.files_failed, 1u);
  EXPECT_TRUE(pushed_db->registry()->IsQuarantined(victim));
  EXPECT_GT(got.stats.two_stage.exec.partial_agg_branches, 0u);
  EXPECT_EQ(got.stats.two_stage.exec.partial_agg_fallbacks, 0u);
}

/// Runs `sql` pushed (expecting a fallback for `reason`) and unpushed.
void ExpectFallback(Database* db, const std::string& sql,
                    const std::string& reason) {
  const QueryResult got = MustQuery(db, sql);
  const QueryResult want = MustQuery(db, sql, Unpushed());
  ASSERT_NE(got.table, nullptr);
  ASSERT_NE(want.table, nullptr);
  ExpectBitIdentical(*got.table, *want.table, sql);
  EXPECT_EQ(got.stats.two_stage.exec.partial_agg_fallbacks, 1u) << sql;
  EXPECT_EQ(got.stats.two_stage.exec.partial_agg_branches, 0u) << sql;
  EXPECT_EQ(got.stats.two_stage.partial_agg_fallback, reason) << sql;
}

TEST_F(PartialAggTest, SumOfMagnitudesAtOrAbove2To53FallsBack) {
  // Timestamps are ~1.26e12 ms: a few thousand of them exceed 2^53 in Σ|x|,
  // so the double running sum behind AVG may round differently per file.
  auto db = MustOpen(repo_->root());
  ExpectFallback(db.get(),
                 "SELECT AVG(D.sample_time) AS t FROM F JOIN D ON F.uri = D.uri",
                 "a group's sum of |x| reaches 2^53");
}

TEST_F(PartialAggTest, DuplicateKeysOnTheMetadataSideFallBack) {
  // Joining D on uri alone against F ⋈ R repeats each file once per record.
  auto db = MustOpen(repo_->root());
  ExpectFallback(db.get(),
                 "SELECT COUNT(*) AS n, MAX(D.sample_value) AS hi FROM F "
                 "JOIN R ON F.uri = R.uri JOIN D ON R.uri = D.uri "
                 "WHERE F.station = 'ISK'",
                 "duplicate join keys on the metadata side");
}

TEST_F(PartialAggTest, UnionMixingCacheScanBranchesFallsBack) {
  DatabaseOptions options;
  options.cache.policy = CachePolicy::kAll;
  auto db = MustOpen(repo_->root(), options);
  // The first query caches ISK's files; the second mixes them with mounts.
  (void)MustQuery(db.get(),
                  "SELECT COUNT(*) FROM F JOIN D ON F.uri = D.uri "
                  "WHERE F.station = 'ISK'");
  ExpectFallback(db.get(), kChannelAggregate, "a cache-scan branch");
}

TEST_F(PartialAggTest, BatchedIngestionFallsBack) {
  DatabaseOptions options;
  options.two_stage.mount_batch_size = 2;
  auto db = MustOpen(repo_->root(), options);
  ExpectFallback(db.get(), kChannelAggregate,
                 "batched ingestion (mount_batch_size)");
}

TEST_F(PartialAggTest, EmptyInputWithAndWithoutGroupBy) {
  // Every file is mounted (file-level pruning off) and every row filtered
  // out: each branch's partial is empty.
  auto db = MustOpen(repo_->root());
  QueryOptions pushed;
  PruningOptions p;
  p.file_level = false;
  pushed.pruning = p;
  for (const char* sql :
       {"SELECT COUNT(*) AS n, AVG(D.sample_value) AS m, MIN(D.sample_value) "
        "AS lo FROM F JOIN D ON F.uri = D.uri WHERE D.sample_value > 1000000000",
        "SELECT F.channel, COUNT(*) AS n, MAX(D.sample_value) AS hi FROM F "
        "JOIN D ON F.uri = D.uri WHERE D.sample_value > 1000000000 "
        "GROUP BY F.channel"}) {
    const QueryResult got = MustQuery(db.get(), sql, pushed);
    const QueryResult want = MustQuery(db.get(), sql, Unpushed());
    ASSERT_NE(got.table, nullptr);
    ExpectBitIdentical(*got.table, *want.table, sql);
    EXPECT_GT(got.stats.two_stage.exec.partial_agg_branches, 0u) << sql;
    EXPECT_EQ(got.stats.two_stage.exec.mounted_rows, 0u) << sql;
  }
}

TEST_F(PartialAggTest, ExplainAnalyzeShowsThePushdownAndKeepsTheMounts) {
  auto db = MustOpen(repo_->root());
  const QueryResult r =
      MustQuery(db.get(), std::string("EXPLAIN ANALYZE ") + kChannelAggregate);
  ASSERT_NE(r.table, nullptr);
  std::string text;
  for (size_t i = 0; i < r.table->num_rows(); ++i) {
    text += r.table->GetValue(i, 0).str() + "\n";
  }
  EXPECT_NE(text.find("grouping pushed into the union: 18 branch partials"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("Mount("), std::string::npos) << text;
  EXPECT_NE(text.find("18 partial-agg branches / 0 fallbacks"), std::string::npos)
      << text;

  const QueryResult fell = MustQuery(
      db.get(),
      "EXPLAIN ANALYZE SELECT AVG(D.sample_time) FROM F JOIN D ON F.uri = D.uri");
  ASSERT_NE(fell.table, nullptr);
  std::string fell_text;
  for (size_t i = 0; i < fell.table->num_rows(); ++i) {
    fell_text += fell.table->GetValue(i, 0).str() + "\n";
  }
  EXPECT_NE(fell_text.find("grouping pushdown fell back: a group's sum of |x|"),
            std::string::npos)
      << fell_text;
}

TEST(PartialAggPlanTest, UnionOnTheBuildSideIsNotEligible) {
  // Stage 2's shape after the rewrite: Aggregate(Join(Union(mounts), M)).
  SimDisk disk;
  Catalog catalog(&disk);
  ASSERT_TRUE(catalog.AddTable(std::make_shared<Table>("D", MakeDataSchema()),
                               TableKind::kActual)
                  .ok());
  auto build = [&](bool union_left) {
    PlanPtr branches = MakeUnion({MakeMount("D", "a"), MakeMount("D", "b")});
    PlanPtr m = MakeResultScan("__qf", MakeFileSchema());
    ExprPtr on = Expr::Compare(CompareOp::kEq, Expr::ColumnRef("F.uri"),
                               Expr::ColumnRef("D.uri"));
    PlanPtr join = union_left ? MakeJoin(on, branches, m) : MakeJoin(on, m, branches);
    PlanPtr agg = MakeAggregate(
        {Expr::ColumnRef("F.channel")},
        {AggSpec{AggFunc::kCount, nullptr, "n"},
         AggSpec{AggFunc::kMax, Expr::ColumnRef("D.sample_value"), "hi"}},
        join);
    EXPECT_TRUE(AnalyzePlan(agg, catalog).ok());
    return agg;
  };
  EXPECT_TRUE(TwoStageExecutor::CanPushGroupingIntoUnion(build(true)));
  EXPECT_FALSE(TwoStageExecutor::CanPushGroupingIntoUnion(build(false)));
}

}  // namespace
}  // namespace dex
