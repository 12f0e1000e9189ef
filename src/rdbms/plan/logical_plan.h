#ifndef R3DB_RDBMS_PLAN_LOGICAL_PLAN_H_
#define R3DB_RDBMS_PLAN_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "rdbms/catalog.h"
#include "rdbms/expr/expr.h"
#include "rdbms/schema.h"

namespace r3 {
namespace rdbms {

/// One base table occurrence in a bound query. Wide-row model: every
/// intermediate row of a query has one contiguous column range per table
/// (`offset` .. `offset + schema width`), regardless of the join order the
/// optimizer later picks. Expressions are bound to these positions once.
struct BoundTableRef {
  const TableInfo* table = nullptr;
  std::string alias;   ///< resolution name (upper-cased)
  size_t offset = 0;   ///< first wide-row position of this table's columns
  /// True if this table is the right side of a LEFT OUTER JOIN; its
  /// `outer_join_conjuncts` are the ON predicates (evaluated by the join,
  /// with NULL fill on no match).
  bool left_outer = false;
  std::vector<ExprPtr> outer_join_conjuncts;
};

enum class SubqueryKind : uint8_t { kScalar, kExists, kIn };

struct BoundQuery;

/// A bound subquery attached to some predicate of the parent query.
struct BoundSubquery {
  SubqueryKind kind = SubqueryKind::kScalar;
  std::unique_ptr<BoundQuery> query;
  bool correlated = false;
};

/// Sort key over the query's *output* rows.
struct BoundOrderKey {
  size_t output_index = 0;
  bool asc = true;
};

/// A fully resolved SELECT, ready for the optimizer.
///
/// Layouts:
///  * "wide row": concat of all tables' columns (width `wide_width`);
///    `conjuncts`, `group_by`, aggregate arguments, and (when there is no
///    aggregation) `select_exprs` are bound to it. For a level without
///    subqueries the optimizer then remaps these references to its compact
///    row (DESIGN.md §6).
///  * "aggregate row": [group values..., aggregate results...]; with
///    aggregation, `select_exprs` and `having` are bound to it (kSlotRef /
///    kAggRef nodes).
///  * "output row": one value per select item; ORDER BY/DISTINCT/LIMIT
///    operate here.
struct BoundQuery {
  std::vector<BoundTableRef> tables;
  size_t wide_width = 0;

  /// WHERE plus inner-join ON predicates, split into conjuncts.
  std::vector<ExprPtr> conjuncts;

  bool has_aggregation = false;
  std::vector<ExprPtr> group_by;   ///< over the wide row
  std::vector<ExprPtr> agg_calls;  ///< kAggCall nodes; args over the wide row

  /// All projected expressions; entries at index >= num_visible are hidden
  /// sort columns (ORDER BY expressions not in the select list).
  std::vector<ExprPtr> select_exprs;
  size_t num_visible = 0;
  std::vector<std::string> column_names;  ///< visible columns only
  Schema output_schema;                   ///< visible columns only
  /// When hidden sort columns exist: slot refs 0..num_visible-1 used by a
  /// final projection that drops them after sorting.
  std::vector<ExprPtr> final_project;

  ExprPtr having;  ///< over the aggregate row (may be null)

  std::vector<BoundOrderKey> order_by;
  int64_t limit = -1;
  bool distinct = false;

  std::vector<BoundSubquery> subqueries;
  size_t num_params = 0;

  /// True if any expression anywhere in the query contains a `?` parameter
  /// (drives the optimizer's blind-plan path; see Table 6).
  bool has_params = false;

  /// True if this (sub)query references columns of an enclosing query.
  bool is_correlated = false;
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_PLAN_LOGICAL_PLAN_H_
