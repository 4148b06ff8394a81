#include "engine/group_agg.h"

#include <algorithm>
#include <cmath>

#include "engine/kernel.h"

namespace dex {

namespace {

// Integers of magnitude up to 2^53 are exact doubles, so a double sum of
// integral values whose Σ|x| stays below it is exact in any association.
constexpr double kExactSumBound = 9007199254740992.0;  // 2^53
// At and above 2^52 every double is an integer.
constexpr double kAllIntegral = 4503599627370496.0;  // 2^52

}  // namespace

GroupAggState::GroupAggState(std::vector<AggFunc> fns,
                             std::vector<int> arg_columns,
                             std::vector<DataType> arg_types)
    : fns_(std::move(fns)), arg_types_(std::move(arg_types)) {
  acc_of_.assign(fns_.size(), -1);
  for (size_t a = 0; a < fns_.size(); ++a) {
    if (arg_columns[a] < 0) continue;
    auto it = std::find_if(accs_.begin(), accs_.end(), [&](const ColumnAcc& c) {
      return c.column == arg_columns[a];
    });
    if (it == accs_.end()) {
      ColumnAcc acc;
      acc.column = arg_columns[a];
      acc.is_f64 = arg_types_[a] == DataType::kDouble;
      it = accs_.insert(accs_.end(), std::move(acc));
    }
    acc_of_[a] = static_cast<int>(it - accs_.begin());
    switch (fns_[a]) {
      case AggFunc::kAvg:
        it->needs_sum = true;
        break;
      case AggFunc::kSum:
        it->needs_sum = it->needs_sum || it->is_f64;
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        it->needs_order = it->needs_order || it->is_f64;
        break;
      case AggFunc::kCount:
        break;
    }
  }
}

void GroupAggState::Resize(size_t num_groups) {
  if (num_groups <= rows_.size()) return;
  rows_.resize(num_groups, 0);
  for (ColumnAcc& c : accs_) {
    c.min.resize(num_groups, 0);
    c.max.resize(num_groups, 0);
    c.sum.resize(num_groups, 0);
    c.abs_sum.resize(num_groups, 0);
    c.imin.resize(num_groups, 0);
    c.imax.resize(num_groups, 0);
    c.isum.resize(num_groups, 0);
    c.count.resize(num_groups, 0);
    c.seen.resize(num_groups, 0);
    c.fractional.resize(num_groups, 0);
    c.nan.resize(num_groups, 0);
  }
}

void GroupAggState::Accumulate(const std::vector<ColumnPtr>& columns,
                               const uint32_t* sel, size_t rows,
                               const uint32_t* gid) {
  for (size_t r = 0; r < rows; ++r) ++rows_[gid[r]];
  for (ColumnAcc& c : accs_) {
    const Column& col = *columns[static_cast<size_t>(c.column)];
    if (c.is_f64) {
      kernel::GroupAccumF64(col.data_f64(), sel, rows, gid, c.min.data(),
                            c.max.data(), c.sum.data(), c.count.data(),
                            c.seen.data());
    } else {
      kernel::GroupAccumI64(col.data_i64(), sel, rows, gid, c.imin.data(),
                            c.imax.data(), c.sum.data(), c.isum.data(),
                            c.count.data(), c.seen.data());
    }
  }
}

void GroupAggState::AccumulateAll(const Table& table, size_t g) {
  const size_t n = table.num_rows();
  rows_[g] += n;
  if (n == 0) return;
  for (ColumnAcc& c : accs_) {
    const Column& col = *table.column(static_cast<size_t>(c.column));
    if (c.is_f64) {
      const double* v = col.data_f64();
      double mn = c.seen[g] ? c.min[g] : v[0];
      double mx = c.seen[g] ? c.max[g] : v[0];
      double sum = c.sum[g], abs_sum = c.abs_sum[g];
      bool fractional = false, nan = false;
      for (size_t i = 0; i < n; ++i) {
        const double x = v[i];
        mn = std::min(mn, x);
        mx = std::max(mx, x);
        sum += x;
        const double a = std::fabs(x);
        abs_sum += a;
        // (a + 2^52) - 2^52 rounds a to an integer below 2^52; NaN fails
        // both comparisons and counts as fractional too.
        fractional |= !(a >= kAllIntegral) && (a + kAllIntegral) - kAllIntegral != a;
        nan |= x != x;
      }
      c.min[g] = mn;
      c.max[g] = mx;
      c.sum[g] = sum;
      c.abs_sum[g] = abs_sum;
      c.fractional[g] |= fractional;
      c.nan[g] |= nan;
    } else {
      const int64_t* v = col.data_i64();
      int64_t mn = c.seen[g] ? c.imin[g] : v[0];
      int64_t mx = c.seen[g] ? c.imax[g] : v[0];
      double sum = c.sum[g], abs_sum = c.abs_sum[g];
      uint64_t isum = static_cast<uint64_t>(c.isum[g]);
      for (size_t i = 0; i < n; ++i) {
        const int64_t x = v[i];
        mn = std::min(mn, x);
        mx = std::max(mx, x);
        const double d = static_cast<double>(x);
        sum += d;
        abs_sum += std::fabs(d);
        isum += static_cast<uint64_t>(x);
      }
      c.imin[g] = mn;
      c.imax[g] = mx;
      c.sum[g] = sum;
      c.abs_sum[g] = abs_sum;
      c.isum[g] = static_cast<int64_t>(isum);
    }
    c.count[g] += n;
    c.seen[g] = 1;
  }
}

void GroupAggState::MergeGroup(const GroupAggState& src, size_t src_g,
                               size_t dst_g) {
  rows_[dst_g] += src.rows_[src_g];
  for (size_t i = 0; i < accs_.size(); ++i) {
    ColumnAcc& d = accs_[i];
    const ColumnAcc& s = src.accs_[i];
    if (!s.seen[src_g]) continue;
    if (!d.seen[dst_g]) {
      d.min[dst_g] = s.min[src_g];
      d.max[dst_g] = s.max[src_g];
      d.imin[dst_g] = s.imin[src_g];
      d.imax[dst_g] = s.imax[src_g];
      d.seen[dst_g] = 1;
    } else {
      d.min[dst_g] = std::min(d.min[dst_g], s.min[src_g]);
      d.max[dst_g] = std::max(d.max[dst_g], s.max[src_g]);
      d.imin[dst_g] = std::min(d.imin[dst_g], s.imin[src_g]);
      d.imax[dst_g] = std::max(d.imax[dst_g], s.imax[src_g]);
    }
    d.sum[dst_g] += s.sum[src_g];
    d.abs_sum[dst_g] += s.abs_sum[src_g];
    d.isum[dst_g] = static_cast<int64_t>(static_cast<uint64_t>(d.isum[dst_g]) +
                                         static_cast<uint64_t>(s.isum[src_g]));
    d.count[dst_g] += s.count[src_g];
    d.fractional[dst_g] |= s.fractional[src_g];
    d.nan[dst_g] |= s.nan[src_g];
  }
}

std::string GroupAggState::MergeInexactReason() const {
  for (const ColumnAcc& c : accs_) {
    for (size_t g = 0; g < rows_.size(); ++g) {
      if (c.needs_order && c.nan[g]) return "NaN in a MIN/MAX argument";
      if (!c.needs_sum) continue;
      if (c.fractional[g]) return "fractional or NaN values in a summed column";
      // Computed Σ|x| is monotone in the true one, so "< 2^53" is sound.
      if (!(c.abs_sum[g] < kExactSumBound)) return "a group's sum of |x| reaches 2^53";
    }
  }
  return "";
}

Value GroupAggState::Output(size_t a, size_t g, DataType out_type,
                            bool empty_input) const {
  const ColumnAcc* k =
      acc_of_[a] < 0 ? nullptr : &accs_[static_cast<size_t>(acc_of_[a])];
  const bool is_f64 = k != nullptr && k->is_f64;
  const uint64_t rows = rows_[g];
  switch (fns_[a]) {
    case AggFunc::kCount:
      return Value::Int64(empty_input ? 0 : static_cast<int64_t>(rows));
    case AggFunc::kSum:
      if (out_type == DataType::kInt64) return Value::Int64(k->isum[g]);
      return Value::Double(is_f64 ? k->sum[g] : static_cast<double>(k->isum[g]));
    case AggFunc::kAvg:
      return Value::Double(rows == 0 ? 0.0 : k->sum[g] / static_cast<double>(rows));
    case AggFunc::kMin:
    case AggFunc::kMax:
      break;
  }
  const bool want_min = fns_[a] == AggFunc::kMin;
  if (!k->seen[g]) {
    // Empty group: the scalar path emits a zero of the output type.
    if (out_type == DataType::kTimestamp) return Value::Timestamp(0);
    return out_type == DataType::kDouble ? Value::Double(0.0) : Value::Int64(0);
  }
  if (is_f64) return Value::Double(want_min ? k->min[g] : k->max[g]);
  const int64_t iv = want_min ? k->imin[g] : k->imax[g];
  return out_type == DataType::kTimestamp ? Value::Timestamp(iv) : Value::Int64(iv);
}

Result<bool> GroupAggState::Emit(const std::vector<Value>& keys, bool grouped,
                                 const SchemaPtr& schema, Batch* out) {
  if (rows_.empty() && grouped) return false;
  bool empty_input = false;
  if (rows_.empty()) {
    Resize(1);
    empty_input = true;
  }
  *out = Batch::Empty(schema);
  for (size_t g = 0; g < rows_.size(); ++g) {
    size_t c = 0;
    if (grouped) DEX_RETURN_NOT_OK(out->columns[c++]->AppendValue(keys[g]));
    for (size_t a = 0; a < fns_.size(); ++a, ++c) {
      DEX_RETURN_NOT_OK(out->columns[c]->AppendValue(
          Output(a, g, schema->field(c).type, empty_input)));
    }
  }
  return true;
}

}  // namespace dex
