#ifndef R3DB_RDBMS_EXEC_KEY_RANGE_H_
#define R3DB_RDBMS_EXEC_KEY_RANGE_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "rdbms/catalog.h"
#include "rdbms/expr/eval.h"
#include "rdbms/expr/expr.h"

namespace r3 {
namespace rdbms {

struct ExecContext;

/// One range on the index column after the equality prefix. A point range
/// (`a IN (…)` item, OR'd equality) sets `point`; otherwise lower/upper with
/// open/closed edges (either side may be absent).
struct IndexRange {
  const Expr* point = nullptr;
  const Expr* lower = nullptr;
  bool lower_inclusive = true;
  const Expr* upper = nullptr;
  bool upper_inclusive = true;
};

/// Bounds of an index access: leading index columns constrained by
/// equality (`eq_exprs`), then optionally one or more ranges on the next
/// column. A comparison or BETWEEN folds into one range; `a IN (…)` and
/// OR-of-ranges (optimizer v2) into several. Bound expressions are literals
/// or `?` parameters, or — for an index-nested-loops probe — expressions
/// over the outer row.
struct IndexBounds {
  std::vector<const Expr*> eq_exprs;
  std::vector<IndexRange> ranges;
};

/// The one key-range path over a B-tree index, shared by IndexScanOp,
/// IndexNLJoinOp's per-probe lookup and DML's index assist (DESIGN.md §6).
/// Compile turns IndexBounds into encoded [start, stop) key ranges; Seek
/// descends to the first; Next walks them in key order, descending once
/// per range, and fetches each entry's heap row.
class KeyRangeCursor {
 public:
  /// Evaluates every bound in `ec`, casts it to its index column's type and
  /// encodes the key ranges: sorted, overlaps merged, and provably empty
  /// ranges dropped without a descent. A NULL bound empties its range (a
  /// NULL equality value every range), as no comparison with NULL is true.
  /// Fails when a bound fails to evaluate or cast. Touches no page.
  Status Compile(const TableInfo& table, const IndexInfo& index,
                 const IndexBounds& bounds, const EvalContext& ec);

  /// Descends to the first compiled range (no descent when there is none).
  Status Seek();

  /// Advances to the next entry inside the ranges whose row is visible to
  /// `ctx`'s snapshot, charging one DBMS tuple per entry visited; fills its
  /// RID and heap record. False once the ranges are exhausted. A live entry
  /// whose heap row is gone is an error: deletes remove index entries
  /// eagerly, so index and heap disagree.
  Result<bool> Next(const ExecContext& ctx, Rid* rid, std::string* rec);

 private:
  /// Seeks the next compiled range; false when all are exhausted.
  Result<bool> SeekNextRange();

  const TableInfo* table_ = nullptr;
  BTree* btree_ = nullptr;
  std::vector<std::pair<std::string, std::string>> ranges_;  ///< "" stop = none
  size_t next_range_ = 0;
  bool active_ = false;  ///< `cursor_` is inside range `next_range_ - 1`
  BTree::Cursor cursor_;
  std::string key_;  ///< scratch for the entry key
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_EXEC_KEY_RANGE_H_
