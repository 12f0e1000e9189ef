#ifndef R3DB_RDBMS_EXEC_AGG_STATE_H_
#define R3DB_RDBMS_EXEC_AGG_STATE_H_

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "rdbms/exec/executor.h"
#include "rdbms/expr/expr.h"
#include "rdbms/index/key_codec.h"
#include "rdbms/value.h"

namespace r3 {
namespace rdbms {

/// Accumulator for one aggregate call within one group. Shared by the serial
/// HashAggOp and the parallel partial-aggregation pipeline: workers each
/// Accumulate() into private states, which the gather barrier combines with
/// Merge() before Finalize().
struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min;
  Value max;
  std::set<std::string> distinct;  // encoded values, for DISTINCT aggs

  void Accumulate(const Expr& call, const Value& v) {
    if (call.agg_func == AggFunc::kCountStar) {
      ++count;
      return;
    }
    if (v.is_null()) return;  // SQL: aggregates ignore NULLs
    if (call.agg_distinct) {
      if (!distinct.insert(key_codec::Encode(v)).second) return;
    }
    ++count;
    switch (call.agg_func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == DataType::kInt64 && sum_is_int) {
          isum += v.int_value();
        } else {
          sum_is_int = false;
        }
        sum += v.AsDouble();
        break;
      case AggFunc::kMin:
        if (min.is_null() || v.Compare(min) < 0) min = v;
        break;
      case AggFunc::kMax:
        if (max.is_null() || v.Compare(max) > 0) max = v;
        break;
    }
  }

  /// Folds the partial state `o` (same call, same group, disjoint input
  /// rows) into *this. Not valid for DISTINCT aggregates — COUNT/SUM over
  /// merged `distinct` sets cannot be reconstructed from the partial counts,
  /// so the planner keeps DISTINCT aggregation serial.
  void Merge(const AggState& o) {
    count += o.count;
    if (!o.sum_is_int) sum_is_int = false;
    isum += o.isum;
    sum += o.sum;
    if (!o.min.is_null() && (min.is_null() || o.min.Compare(min) < 0)) {
      min = o.min;
    }
    if (!o.max.is_null() && (max.is_null() || o.max.Compare(max) > 0)) {
      max = o.max;
    }
  }

  Value Finalize(const Expr& call) const {
    switch (call.agg_func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) return Value::Null(DataType::kDouble);
        if (sum_is_int) return Value::Int(isum);
        return Value::Dbl(sum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null(DataType::kDouble);
        return Value::Dbl(sum / static_cast<double>(count));
      case AggFunc::kMin:
        return min;
      case AggFunc::kMax:
        return max;
    }
    return Value::Null();
  }
};

/// One hash-aggregation table: a group per encoded GROUP BY key, holding
/// the key values and one AggState per aggregate call. HashAggOp fills one;
/// GatherOp's partial aggregation fills one per lane and merges them in lane
/// order, so both emit the same groups in the same order.
class AggTable {
 public:
  AggTable(const std::vector<const Expr*>& group_exprs,
           const std::vector<const Expr*>& agg_calls, size_t reserve);

  /// Folds every row of `batch` into its group, charging one DBMS tuple per
  /// row (to the calling thread's lane inside a parallel region).
  Status Add(const RowBatch& batch, const ExecContext& ctx);

  /// Folds the groups of `other` (same calls, disjoint input rows) into
  /// this table.
  void Merge(AggTable&& other);

  /// Result rows, group keys then finalized aggregates, in encoded-key
  /// order; without GROUP BY, an empty input yields one row of empties.
  std::vector<Row> Finish();

 private:
  struct Group {
    Row keys;
    std::vector<AggState> states;
  };
  const std::vector<const Expr*>& group_exprs_;
  const std::vector<const Expr*>& agg_calls_;
  std::unordered_map<std::string, Group> groups_;
  std::string key_;  ///< per-row encode scratch
  Row keys_;         ///< per-row key values scratch
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_EXEC_AGG_STATE_H_
