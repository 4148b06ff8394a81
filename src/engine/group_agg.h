#ifndef DEX_ENGINE_GROUP_AGG_H_
#define DEX_ENGINE_GROUP_AGG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/batch.h"
#include "engine/logical_plan.h"
#include "storage/table.h"

namespace dex {

/// \brief Kernel-path grouped aggregation: per-group accumulators for
/// COUNT(*) and COUNT/SUM/AVG/MIN/MAX over plain numeric columns.
///
/// Accumulators are kept once per *distinct* argument column, so
/// `AVG(x), MIN(x), MAX(x)` costs one pass over `x`, not three. HashAggOp's
/// kernel path and the two-stage executor's per-branch partial aggregates
/// (grouping pushed into the union, see DESIGN.md) both accumulate and emit
/// through this class, so both produce the same bits.
///
/// Merging partials is exact for COUNT, MIN, MAX (std::min/std::max in merge
/// order keep the first of equal values, as the row-order fold does) and for
/// int64 sums. A double running sum merges to the row-order bits only when
/// every summed value is integral and the group's Σ|x| stays below 2^53;
/// AccumulateAll records what MergeInexactReason needs to check that.
class GroupAggState {
 public:
  /// `arg_columns[a]`: the input column of aggregate a, -1 for COUNT(*);
  /// `arg_types[a]`: that column's type (kDouble, kInt64 or kTimestamp).
  GroupAggState(std::vector<AggFunc> fns, std::vector<int> arg_columns,
                std::vector<DataType> arg_types);

  size_t num_groups() const { return rows_.size(); }
  /// Grows (never shrinks) the accumulators to `num_groups` groups.
  void Resize(size_t num_groups);

  /// Folds processed row r (physical row `sel[r]`, or r when `sel` is null)
  /// into group `gid[r]`, for r in [0, rows): one kernel pass per distinct
  /// argument column.
  void Accumulate(const std::vector<ColumnPtr>& columns, const uint32_t* sel,
                  size_t rows, const uint32_t* gid);

  /// Folds every row of `table` into group `g` in row order, and records per
  /// column whether a value was fractional or NaN and the sum of |x|.
  void AccumulateAll(const Table& table, size_t g);

  /// Folds group `src_g` of `src` (same aggregates) into group `dst_g`, as
  /// if src's rows came after the rows already in `dst_g`.
  void MergeGroup(const GroupAggState& src, size_t src_g, size_t dst_g);

  /// Empty when every group's merged double sums and MIN/MAX equal their
  /// row-order folds bit for bit; otherwise the first reason they may not.
  std::string MergeInexactReason() const;

  /// Emits one row per group into a fresh batch of `schema`: the group's
  /// key first when `grouped` (keys[g]), then the aggregates. With no
  /// groups, a grouped aggregate emits nothing (returns false) and an
  /// ungrouped one emits its one empty-input row.
  Result<bool> Emit(const std::vector<Value>& keys, bool grouped,
                    const SchemaPtr& schema, Batch* out);

 private:
  /// Accumulators of one distinct argument column, parallel over groups.
  struct ColumnAcc {
    int column = -1;
    bool is_f64 = false;
    bool needs_sum = false;     // a SUM/AVG reads the double running sum
    bool needs_order = false;   // a MIN/MAX reads min/max of a double column
    std::vector<double> min, max, sum, abs_sum;
    std::vector<int64_t> imin, imax, isum;
    std::vector<uint64_t> count;
    std::vector<uint8_t> seen, fractional, nan;
  };

  /// Aggregate a's value for group g, typed `out_type`.
  Value Output(size_t a, size_t g, DataType out_type, bool empty_input) const;

  std::vector<AggFunc> fns_;
  std::vector<DataType> arg_types_;
  std::vector<int> acc_of_;  // aggregate -> index into accs_, -1 = COUNT(*)
  std::vector<ColumnAcc> accs_;
  std::vector<uint64_t> rows_;  // rows folded into each group
};

}  // namespace dex

#endif  // DEX_ENGINE_GROUP_AGG_H_
