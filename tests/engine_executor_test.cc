#include "engine/executor.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/batch.h"
#include "engine/optimizer.h"
#include "io/sim_disk.h"

namespace dex {
namespace {

/// Fixture with two small joined tables and one "mountable" source.
class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : disk_(), catalog_(&disk_) {
    // F(uri, station): 3 files.
    auto f_schema = std::make_shared<Schema>(
        Schema({{"uri", DataType::kString, "F"},
                {"station", DataType::kString, "F"}}));
    auto f = std::make_shared<Table>("F", f_schema);
    EXPECT_TRUE(f->AppendRow({Value::String("u1"), Value::String("ISK")}).ok());
    EXPECT_TRUE(f->AppendRow({Value::String("u2"), Value::String("ANK")}).ok());
    EXPECT_TRUE(f->AppendRow({Value::String("u3"), Value::String("ISK")}).ok());
    EXPECT_TRUE(catalog_.AddTable(f, TableKind::kMetadata).ok());

    // D(uri, n, value): 9 rows, 3 per file.
    auto d_schema = std::make_shared<Schema>(
        Schema({{"uri", DataType::kString, "D"},
                {"n", DataType::kInt64, "D"},
                {"value", DataType::kDouble, "D"}}));
    auto d = std::make_shared<Table>("D", d_schema);
    for (int file = 1; file <= 3; ++file) {
      for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(d->AppendRow({Value::String("u" + std::to_string(file)),
                                  Value::Int64(i),
                                  Value::Double(file * 10.0 + i)})
                        .ok());
      }
    }
    EXPECT_TRUE(catalog_.AddTable(d, TableKind::kActual).ok());
    EXPECT_TRUE(catalog_.SyncStorageSize("D").ok());
    ctx_.catalog = &catalog_;
  }

  Result<TablePtr> Run(PlanPtr plan) {
    DEX_RETURN_NOT_OK(AnalyzePlan(plan, catalog_));
    return ExecutePlan(plan, &ctx_);
  }

  SimDisk disk_;
  Catalog catalog_;
  ExecContext ctx_;
};

TEST_F(ExecutorTest, ScanProducesAllRows) {
  auto r = Run(MakeScan("D"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 9u);
  EXPECT_EQ(ctx_.stats.rows_scanned, 9u);
}

TEST_F(ExecutorTest, FilterSelects) {
  auto r = Run(MakeFilter(
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("value"),
                    Expr::Lit(Value::Double(20.5))),
      MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 5u);  // 21, 22, 30, 31, 32
}

TEST_F(ExecutorTest, FilterAllPassZeroCopy) {
  auto r = Run(MakeFilter(Expr::Lit(Value::Bool(true)), MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 9u);
}

TEST_F(ExecutorTest, FilterNonePass) {
  auto r = Run(MakeFilter(Expr::Lit(Value::Bool(false)), MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 0u);
}

TEST_F(ExecutorTest, ProjectComputes) {
  auto r = Run(MakeProject(
      {Expr::ColumnRef("n"),
       Expr::Arith(ArithOp::kAdd, Expr::ColumnRef("value"),
                   Expr::Lit(Value::Int64(100)))},
      {"n", "shifted"}, MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_columns(), 2u);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 1).dbl(), 110.0);
}

TEST_F(ExecutorTest, HashJoinMatchesOnKey) {
  auto r = Run(MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.uri"),
                    Expr::ColumnRef("F.uri")),
      MakeScan("D"), MakeScan("F")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 9u);  // every D row joins exactly one F row
  EXPECT_EQ((*r)->num_columns(), 5u);
}

TEST_F(ExecutorTest, HashJoinWithResidual) {
  // Join condition carries a non-equi conjunct.
  auto cond = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.uri"),
                    Expr::ColumnRef("F.uri")),
      Expr::Compare(CompareOp::kGt, Expr::ColumnRef("D.n"),
                    Expr::Lit(Value::Int64(1))));
  auto r = Run(MakeJoin(cond, MakeScan("D"), MakeScan("F")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);  // n == 2 per file
}

TEST_F(ExecutorTest, CartesianProductWhenNoEquiKeys) {
  auto r = Run(MakeJoin(Expr::Lit(Value::Bool(true)), MakeScan("D"),
                        MakeScan("F")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 27u);
}

TEST_F(ExecutorTest, JoinSelectiveFilteredBuildSide) {
  auto r = Run(MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.uri"),
                    Expr::ColumnRef("F.uri")),
      MakeScan("D"),
      MakeFilter(Expr::Compare(CompareOp::kEq, Expr::ColumnRef("station"),
                               Expr::Lit(Value::String("ISK"))),
                 MakeScan("F"))));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 6u);  // u1 and u3
}

TEST_F(ExecutorTest, AggregateWithoutGroups) {
  auto r = Run(MakeAggregate(
      {},
      {{AggFunc::kCount, nullptr, "n"},
       {AggFunc::kSum, Expr::ColumnRef("value"), "s"},
       {AggFunc::kAvg, Expr::ColumnRef("value"), "a"},
       {AggFunc::kMin, Expr::ColumnRef("value"), "lo"},
       {AggFunc::kMax, Expr::ColumnRef("value"), "hi"}},
      MakeScan("D")));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ((*r)->GetValue(0, 0).int64(), 9);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 1).dbl(), 189.0);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 2).dbl(), 21.0);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 3).dbl(), 10.0);
  EXPECT_DOUBLE_EQ((*r)->GetValue(0, 4).dbl(), 32.0);
}

TEST_F(ExecutorTest, AggregateGroupBy) {
  auto r = Run(MakeAggregate(
      {Expr::ColumnRef("uri")}, {{AggFunc::kCount, nullptr, "n"}},
      MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ((*r)->GetValue(i, 1).int64(), 3);
  }
}

TEST_F(ExecutorTest, AggregateSumOfIntsIsInt) {
  auto r = Run(MakeAggregate(
      {}, {{AggFunc::kSum, Expr::ColumnRef("n"), "s"}}, MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).type(), DataType::kInt64);
  EXPECT_EQ((*r)->GetValue(0, 0).int64(), 9);  // (0+1+2)*3
}

TEST_F(ExecutorTest, AggregateEmptyInputNoGroups) {
  auto r = Run(MakeAggregate(
      {}, {{AggFunc::kCount, nullptr, "n"}},
      MakeFilter(Expr::Lit(Value::Bool(false)), MakeScan("D"))));
  ASSERT_TRUE(r.ok());
  ASSERT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ((*r)->GetValue(0, 0).int64(), 0);
}

TEST_F(ExecutorTest, AggregateEmptyInputWithGroupsYieldsNoRows) {
  auto r = Run(MakeAggregate(
      {Expr::ColumnRef("uri")}, {{AggFunc::kCount, nullptr, "n"}},
      MakeFilter(Expr::Lit(Value::Bool(false)), MakeScan("D"))));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 0u);
}

TEST_F(ExecutorTest, MinMaxOnStrings) {
  auto r = Run(MakeAggregate(
      {},
      {{AggFunc::kMin, Expr::ColumnRef("uri"), "lo"},
       {AggFunc::kMax, Expr::ColumnRef("uri"), "hi"}},
      MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).str(), "u1");
  EXPECT_EQ((*r)->GetValue(0, 1).str(), "u3");
}

TEST_F(ExecutorTest, SortAscendingDescending) {
  auto asc = Run(MakeSort({{Expr::ColumnRef("value"), true}}, MakeScan("D")));
  ASSERT_TRUE(asc.ok());
  EXPECT_DOUBLE_EQ((*asc)->GetValue(0, 2).dbl(), 10.0);
  EXPECT_DOUBLE_EQ((*asc)->GetValue(8, 2).dbl(), 32.0);
  auto desc = Run(MakeSort({{Expr::ColumnRef("value"), false}}, MakeScan("D")));
  ASSERT_TRUE(desc.ok());
  EXPECT_DOUBLE_EQ((*desc)->GetValue(0, 2).dbl(), 32.0);
}

TEST_F(ExecutorTest, SortMultiKey) {
  auto r = Run(MakeSort({{Expr::ColumnRef("uri"), false},
                         {Expr::ColumnRef("n"), true}},
                        MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->GetValue(0, 0).str(), "u3");
  EXPECT_EQ((*r)->GetValue(0, 1).int64(), 0);
  EXPECT_EQ((*r)->GetValue(2, 1).int64(), 2);
}

TEST_F(ExecutorTest, LimitTruncates) {
  auto r = Run(MakeLimit(4, MakeScan("D")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 4u);
  auto zero = Run(MakeLimit(0, MakeScan("D")));
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ((*zero)->num_rows(), 0u);
  auto big = Run(MakeLimit(1000, MakeScan("D")));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ((*big)->num_rows(), 9u);
}

TEST_F(ExecutorTest, UnionConcatenates) {
  auto r = Run(MakeUnion({MakeScan("D"), MakeScan("D")}));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 18u);
}

TEST_F(ExecutorTest, ResultScanReadsNamedResult) {
  auto first = Run(MakeScan("F"));
  ASSERT_TRUE(first.ok());
  ctx_.named_results["saved"] = *first;
  auto r = Run(MakeResultScan("saved", (*first)->schema()));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);
}

TEST_F(ExecutorTest, ResultScanMissingIdFails) {
  auto r = Run(MakeResultScan("ghost", std::make_shared<Schema>()));
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, MountCallsCallback) {
  int mounts = 0;
  ctx_.mount_fn = [&](const std::string& table, const std::string& uri,
                      const ExprPtr& pred) -> Result<TablePtr> {
    ++mounts;
    EXPECT_EQ(table, "D");
    EXPECT_EQ(uri, "u9");
    EXPECT_EQ(pred, nullptr);
    auto t = std::make_shared<Table>("D", (*catalog_.GetTable("D"))->schema());
    EXPECT_TRUE(
        t->AppendRow({Value::String("u9"), Value::Int64(0), Value::Double(1.0)})
            .ok());
    return TablePtr(t);
  };
  auto r = Run(MakeMount("D", "u9"));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ(mounts, 1);
  EXPECT_EQ(ctx_.stats.files_mounted, 1u);
  EXPECT_EQ(ctx_.stats.mounted_rows, 1u);
}

TEST_F(ExecutorTest, MountWithoutCallbackFails) {
  auto r = Run(MakeMount("D", "u9"));
  EXPECT_FALSE(r.ok());
}

TEST_F(ExecutorTest, MountErrorPropagates) {
  ctx_.mount_fn = [&](const std::string&, const std::string& uri,
                      const ExprPtr&) -> Result<TablePtr> {
    return Status::IOError("file vanished: " + uri);
  };
  auto r = Run(MakeMount("D", "gone"));
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIOError());
}

TEST_F(ExecutorTest, CacheScanUsesCacheCallback) {
  ctx_.cache_fn = [&](const std::string&,
                      const std::string&) -> Result<TablePtr> {
    auto t = std::make_shared<Table>("D", (*catalog_.GetTable("D"))->schema());
    EXPECT_TRUE(
        t->AppendRow({Value::String("uc"), Value::Int64(1), Value::Double(5.0)})
            .ok());
    return TablePtr(t);
  };
  auto r = Run(MakeCacheScan("D", "uc"));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 1u);
  EXPECT_EQ(ctx_.stats.cache_scans, 1u);
}

TEST_F(ExecutorTest, IndexJoinMatchesHashJoin) {
  ASSERT_TRUE(catalog_.BuildIndex("D", {"uri"}, "D_by_uri").ok());
  PlanPtr plan = MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("F.uri"),
                    Expr::ColumnRef("D.uri")),
      MakeScan("F"), MakeScan("D"));
  auto hash_result = Run(ClonePlan(plan));
  ASSERT_TRUE(hash_result.ok());
  ctx_.use_index_joins = true;
  auto index_result = Run(plan);
  ASSERT_TRUE(index_result.ok()) << index_result.status().ToString();
  EXPECT_EQ((*index_result)->num_rows(), (*hash_result)->num_rows());
  EXPECT_GT(ctx_.stats.index_probes, 0u);
}

TEST_F(ExecutorTest, IndexJoinHonorsRightFilter) {
  ASSERT_TRUE(catalog_.BuildIndex("D", {"uri"}, "D_by_uri").ok());
  ctx_.use_index_joins = true;
  PlanPtr plan = MakeJoin(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("F.uri"),
                    Expr::ColumnRef("D.uri")),
      MakeScan("F"),
      MakeFilter(Expr::Compare(CompareOp::kGt, Expr::ColumnRef("n"),
                               Expr::Lit(Value::Int64(0))),
                 MakeScan("D")));
  auto r = Run(plan);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 6u);  // n in {1, 2} per file
}

TEST_F(ExecutorTest, StageBreakIsTransparentInSingleStageExecution) {
  auto r = Run(MakeStageBreak(MakeScan("F")));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ((*r)->num_rows(), 3u);
}

TEST_F(ExecutorTest, ScanChargesSimIoOnlyWhenEnabled) {
  disk_.FlushAll();
  const uint64_t t0 = disk_.stats().sim_nanos;
  ctx_.charge_io = false;
  ASSERT_TRUE(Run(MakeScan("D")).ok());
  EXPECT_EQ(disk_.stats().sim_nanos, t0);
  ctx_.charge_io = true;
  ASSERT_TRUE(Run(MakeScan("D")).ok());
  EXPECT_GT(disk_.stats().sim_nanos, t0);
}

// ---------------------------------------------------------------------------
// Hash-join probe: per-dictionary key resolution vs. a nested-loop reference
// ---------------------------------------------------------------------------

using Rows = std::vector<std::vector<Value>>;

Rows RowsOf(const Table& t) {
  Rows rows;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < t.num_columns(); ++c) row.push_back(t.GetValue(r, c));
    rows.push_back(std::move(row));
  }
  return rows;
}

/// Every (probe, build) row pair whose key cells are all equal, probe-major
/// and in build-row order; each output row is the probe row then the build
/// row. `keys` pairs a probe column with a build column.
Rows NestedLoopJoin(const Rows& probe, const Rows& build,
                    const std::vector<std::pair<size_t, size_t>>& keys) {
  Rows out;
  for (const auto& p : probe) {
    for (const auto& b : build) {
      bool match = true;
      for (const auto& [pk, bk] : keys) match = match && p[pk] == b[bk];
      if (!match) continue;
      std::vector<Value> row = p;
      row.insert(row.end(), b.begin(), b.end());
      out.push_back(std::move(row));
    }
  }
  return out;
}

Rows Concat(Rows a, const Rows& b) {
  a.insert(a.end(), b.begin(), b.end());
  return a;
}

SchemaPtr ProbeSchema() {
  return std::make_shared<Schema>(Schema({{"uri", DataType::kString, "P"},
                                          {"n", DataType::kInt64, "P"}}));
}

/// A P(uri, n) table whose rows cycle through `uris`.
TablePtr MakeProbe(const std::string& name, const std::vector<std::string>& uris,
                   size_t rows) {
  auto t = std::make_shared<Table>(name, ProbeSchema());
  for (size_t i = 0; i < rows; ++i) {
    EXPECT_TRUE(t->AppendRow({Value::String(uris[i % uris.size()]),
                              Value::Int64(static_cast<int64_t>(i))})
                    .ok());
  }
  return t;
}

ExprPtr UriEquals(const std::string& build_qualifier) {
  return Expr::Compare(CompareOp::kEq, Expr::ColumnRef("P.uri"),
                       Expr::ColumnRef(build_qualifier + ".uri"));
}

TEST_F(ExecutorTest, DictionaryProbeAcrossDictionariesMatchesNestedLoop) {
  // Two probe tables, each with its own dictionary; the first spans several
  // batches. "zz" and "yy" are absent from F.
  const TablePtr p1 = MakeProbe("P1", {"u2", "zz", "u1"}, 2 * kBatchSize + 7);
  const TablePtr p2 = MakeProbe("P2", {"u3", "yy", "u3", "u1"}, 11);
  ASSERT_TRUE(catalog_.AddTable(p1, TableKind::kActual).ok());
  ASSERT_TRUE(catalog_.AddTable(p2, TableKind::kActual).ok());
  auto r = Run(MakeJoin(UriEquals("F"),
                        MakeUnion({MakeScan("P1"), MakeScan("P2")}),
                        MakeScan("F")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Rows f = RowsOf(**catalog_.GetTable("F"));
  const Rows expected = NestedLoopJoin(Concat(RowsOf(*p1), RowsOf(*p2)), f,
                                       {{0, 0}});
  EXPECT_EQ(RowsOf(**r), expected);
  // One lookup per distinct code per dictionary, not one per probe row.
  EXPECT_EQ(ctx_.stats.join_key_resolutions, 3u + 3u);
}

TEST_F(ExecutorTest, DictionaryProbeExtendsAGrowingSharedDictionary) {
  // Both union branches stream one table, and the second mount grows that
  // table's dictionary in place between them: the resolutions made for the
  // first branch's codes are reused, only the new codes are looked up.
  auto p = std::make_shared<Table>("P", ProbeSchema());
  ASSERT_TRUE(catalog_.AddTable(p, TableKind::kActual).ok());
  const TablePtr source = MakeProbe("P", {"u1", "zz", "u2"}, 9);
  Rows first_branch;
  ctx_.mount_fn = [&](const std::string&, const std::string& uri,
                      const ExprPtr&) -> Result<TablePtr> {
    if (uri == "first") {
      first_branch = RowsOf(*source);
      return source;
    }
    const StringDict* before = source->column(0)->dict().get();
    for (const char* s : {"u3", "u1", "yy", "u3"}) {
      EXPECT_TRUE(source->AppendRow({Value::String(s), Value::Int64(99)}).ok());
    }
    // The premise of this test: the dictionary grew, it was not cloned.
    EXPECT_EQ(source->column(0)->dict().get(), before);
    EXPECT_EQ(before->size(), 5u);
    return source;
  };
  // Project away the probe's uri so no result column keeps sharing the
  // dictionary (which would force clone-on-write in the second mount).
  PlanPtr join = MakeJoin(
      UriEquals("F"),
      MakeUnion({MakeMount("P", "first"), MakeMount("P", "second")}),
      MakeScan("F"));
  auto r = Run(MakeProject({Expr::ColumnRef("P.n"), Expr::ColumnRef("F.uri"),
                            Expr::ColumnRef("F.station")},
                           {"n", "uri", "station"}, join));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Rows f = RowsOf(**catalog_.GetTable("F"));
  Rows expected;
  for (const auto& row :
       NestedLoopJoin(Concat(first_branch, RowsOf(*source)), f, {{0, 0}})) {
    expected.push_back({row[1], row[2], row[3]});
  }
  EXPECT_EQ(RowsOf(**r), expected);
  EXPECT_EQ(ctx_.stats.join_key_resolutions, 3u + 2u);
}

TEST_F(ExecutorTest, DictionaryProbeWithNoBuildMatchesEmitsNothing) {
  const TablePtr p1 = MakeProbe("P1", {"zz", "yy"}, 10);
  ASSERT_TRUE(catalog_.AddTable(p1, TableKind::kActual).ok());
  auto r = Run(MakeJoin(UriEquals("F"), MakeScan("P1"), MakeScan("F")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ((*r)->num_rows(), 0u);
  EXPECT_EQ(ctx_.stats.join_key_resolutions, 2u);
}

TEST_F(ExecutorTest, DictionaryProbeEmitsDuplicateBuildKeysInBuildOrder) {
  // B holds every key several times, interleaved, and more rows than a
  // small-sort cutoff, so build-row order must survive the hash sort.
  auto b_schema = std::make_shared<Schema>(Schema(
      {{"uri", DataType::kString, "B"}, {"k", DataType::kInt64, "B"}}));
  auto b = std::make_shared<Table>("B", b_schema);
  const std::vector<std::string> keys = {"u1", "u2", "u3", "u4"};
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        b->AppendRow({Value::String(keys[(i * 7) % 4]), Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(catalog_.AddTable(b, TableKind::kActual).ok());
  const TablePtr p1 = MakeProbe("P1", {"u3", "zz", "u1", "u3"}, 13);
  ASSERT_TRUE(catalog_.AddTable(p1, TableKind::kActual).ok());
  auto r = Run(MakeJoin(UriEquals("B"), MakeScan("P1"), MakeScan("B")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Rows expected = NestedLoopJoin(RowsOf(*p1), RowsOf(*b), {{0, 0}});
  EXPECT_EQ(expected.size(), 10u * 10u);  // 10 "u1"/"u3" probes x 10 matches
  EXPECT_EQ(RowsOf(**r), expected);
  EXPECT_EQ(ctx_.stats.join_key_resolutions, 3u);
}

TEST_F(ExecutorTest, TwoKeyJoinStaysOnThePerRowProbe) {
  // D(uri, n, value) joined to itself on (uri, n): not a single string key,
  // so every probe row performs its own build-side lookup.
  auto e_schema = std::make_shared<Schema>(
      Schema({{"uri", DataType::kString, "E"}, {"n", DataType::kInt64, "E"}}));
  auto e = std::make_shared<Table>("E", e_schema);
  for (const auto& [uri, n] : std::vector<std::pair<std::string, int64_t>>{
           {"u1", 0}, {"u2", 2}, {"u1", 0}, {"u3", 5}, {"u2", 1}}) {
    ASSERT_TRUE(e->AppendRow({Value::String(uri), Value::Int64(n)}).ok());
  }
  ASSERT_TRUE(catalog_.AddTable(e, TableKind::kActual).ok());
  auto cond = Expr::And(
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.uri"),
                    Expr::ColumnRef("E.uri")),
      Expr::Compare(CompareOp::kEq, Expr::ColumnRef("D.n"),
                    Expr::ColumnRef("E.n")));
  auto r = Run(MakeJoin(cond, MakeScan("D"), MakeScan("E")));
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Rows expected = NestedLoopJoin(RowsOf(**catalog_.GetTable("D")),
                                       RowsOf(*e), {{0, 0}, {1, 1}});
  EXPECT_EQ(expected.size(), 4u);  // (u1,0) twice, (u2,1), (u2,2)
  EXPECT_EQ(RowsOf(**r), expected);
  EXPECT_EQ(ctx_.stats.join_key_resolutions, 9u);  // one per D row
}

}  // namespace
}  // namespace dex
