// GroupAggState: per-file partials merged in file order must emit the bits
// the row-order fold emits, and must say so whenever they might not.

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/group_agg.h"

namespace dex {
namespace {

SchemaPtr ValueSchema() {
  return std::make_shared<Schema>(std::vector<Field>{{"v", DataType::kDouble, ""}});
}

TablePtr MakeValues(const std::vector<double>& values) {
  auto t = std::make_shared<Table>("t", ValueSchema());
  for (double v : values) EXPECT_TRUE(t->AppendRow({Value::Double(v)}).ok());
  return t;
}

/// COUNT(*), SUM, AVG, MIN, MAX over column 0.
GroupAggState NewState() {
  return GroupAggState(
      {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg, AggFunc::kMin, AggFunc::kMax},
      {-1, 0, 0, 0, 0}, std::vector<DataType>(5, DataType::kDouble));
}

SchemaPtr OutputSchema() {
  return std::make_shared<Schema>(std::vector<Field>{
      {"n", DataType::kInt64, ""},
      {"s", DataType::kDouble, ""},
      {"m", DataType::kDouble, ""},
      {"lo", DataType::kDouble, ""},
      {"hi", DataType::kDouble, ""}});
}

/// The row-order fold over all files (HashAggOp's kernel path) and the
/// per-file partials merged in file order; returns the merge's verdict.
std::string FoldBothWays(const std::vector<std::vector<double>>& files,
                         Batch* row_order, Batch* merged) {
  GroupAggState whole = NewState();
  GroupAggState sum = NewState();
  for (const auto& f : files) {
    TablePtr t = MakeValues(f);
    std::vector<uint32_t> gid(f.size(), 0);
    whole.Resize(1);
    whole.Accumulate({t->column(0)}, nullptr, f.size(), gid.data());
    GroupAggState part = NewState();
    part.Resize(1);
    part.AccumulateAll(*t, 0);
    if (f.empty()) continue;
    sum.Resize(1);
    sum.MergeGroup(part, 0, 0);
  }
  EXPECT_TRUE(whole.Emit({}, false, OutputSchema(), row_order).ok());
  EXPECT_TRUE(sum.Emit({}, false, OutputSchema(), merged).ok());
  return sum.MergeInexactReason();
}

void ExpectSameBits(const Batch& a, const Batch& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    for (size_t r = 0; r < a.num_rows(); ++r) {
      const Value x = a.columns[c]->GetValue(r);
      const Value y = b.columns[c]->GetValue(r);
      if (x.type() == DataType::kDouble) {
        const double dx = x.dbl(), dy = y.dbl();
        EXPECT_EQ(std::memcmp(&dx, &dy, sizeof(dx)), 0)
            << "col " << c << ": " << dx << " vs " << dy;
      } else {
        EXPECT_EQ(x.ToString(), y.ToString()) << "col " << c;
      }
    }
  }
}

TEST(GroupAggStateTest, IntegralPartialsMergeToTheRowOrderBits) {
  Random rng(11);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::vector<double>> files(1 + rng.Uniform(6));
    for (auto& f : files) {
      f.resize(rng.Uniform(300));
      for (double& v : f) v = static_cast<double>(rng.UniformRange(-1 << 30, 1 << 30));
    }
    Batch row_order, merged;
    EXPECT_EQ(FoldBothWays(files, &row_order, &merged), "");
    ExpectSameBits(row_order, merged);
  }
}

TEST(GroupAggStateTest, SignedZerosKeepTheFirstOfEqualValues) {
  // MIN/MAX keep the first of -0.0 and 0.0, in the row-order fold and in the
  // merge alike; the sum of zeros starts from +0.0 both ways.
  for (const auto& files : std::vector<std::vector<std::vector<double>>>{
           {{0.0, -0.0}, {-0.0}},
           {{-0.0}, {0.0, -0.0}},
           {{-0.0, -0.0}, {}, {-0.0}},
           {{3.0, -0.0}, {0.0, 3.0}}}) {
    Batch row_order, merged;
    EXPECT_EQ(FoldBothWays(files, &row_order, &merged), "");
    ExpectSameBits(row_order, merged);
  }
}

TEST(GroupAggStateTest, FractionalValuesAreReported) {
  Batch row_order, merged;
  EXPECT_EQ(FoldBothWays({{0.1, 0.2}, {0.3}}, &row_order, &merged),
            "fractional or NaN values in a summed column");
}

TEST(GroupAggStateTest, NaNIsReported) {
  Batch row_order, merged;
  EXPECT_NE(FoldBothWays({{5.0}, {std::numeric_limits<double>::quiet_NaN(), 1.0}},
                         &row_order, &merged),
            "");
  // MIN/MAX alone (no double sum read): still reported, since a NaN seeding
  // a file's partial hides the rest of that file.
  GroupAggState minmax({AggFunc::kMin}, {0}, {DataType::kDouble});
  minmax.Resize(1);
  minmax.AccumulateAll(*MakeValues({std::numeric_limits<double>::quiet_NaN(), 1.0}), 0);
  EXPECT_EQ(minmax.MergeInexactReason(), "NaN in a MIN/MAX argument");
}

TEST(GroupAggStateTest, FractionalValuesUnderMinMaxAloneMergeExactly) {
  GroupAggState minmax({AggFunc::kMin, AggFunc::kMax}, {0, 0},
                       {DataType::kDouble, DataType::kDouble});
  minmax.Resize(1);
  minmax.AccumulateAll(*MakeValues({0.25, -1.5}), 0);
  EXPECT_EQ(minmax.MergeInexactReason(), "");
}

TEST(GroupAggStateTest, SumOfMagnitudesAt2To53IsReported) {
  const double big = 4503599627370496.0;  // 2^52
  Batch row_order, merged;
  EXPECT_EQ(FoldBothWays({{big - 1}, {1.0}}, &row_order, &merged), "");
  EXPECT_EQ(FoldBothWays({{big}, {big}}, &row_order, &merged),
            "a group's sum of |x| reaches 2^53");
  // Magnitudes count even when the signed sum cancels.
  EXPECT_EQ(FoldBothWays({{big}, {-big}}, &row_order, &merged),
            "a group's sum of |x| reaches 2^53");
}

TEST(GroupAggStateTest, EmptyInputEmitsTheEmptyRowOnlyWithoutGroupBy) {
  GroupAggState state = NewState();
  Batch out;
  auto grouped = state.Emit({}, true, OutputSchema(), &out);
  ASSERT_TRUE(grouped.ok());
  EXPECT_FALSE(*grouped);
  auto ungrouped = state.Emit({}, false, OutputSchema(), &out);
  ASSERT_TRUE(ungrouped.ok());
  ASSERT_TRUE(*ungrouped);
  ASSERT_EQ(out.num_rows(), 1u);
  EXPECT_EQ(out.columns[0]->GetValue(0).int64(), 0);
}

}  // namespace
}  // namespace dex
