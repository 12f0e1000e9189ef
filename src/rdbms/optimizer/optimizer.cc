#include "rdbms/optimizer/optimizer.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>

#include "common/cost_model.h"
#include "common/str_util.h"
#include "rdbms/exec/parallel_ops.h"
#include "rdbms/expr/eval.h"
#include "rdbms/index/key_codec.h"
#include "rdbms/optimizer/optimizer_costs.h"

namespace r3 {
namespace rdbms {

namespace {

/// Everything the v2 estimation path needs, threaded through the free
/// helper functions. Default-constructed = the legacy (pre-v2) optimizer:
/// no histograms, no peeked parameters, single-range index access, raw
/// StorageCosts arithmetic — bit-identical plans.
struct EstimationContext {
  bool v2 = false;
  const std::vector<Value>* peeked = nullptr;
};

// ---------------------------------------------------------------------------
// Expression analysis helpers
// ---------------------------------------------------------------------------

/// Applies `fn` to every expression tree of a bound query (not descending
/// into its subqueries' own trees). `fn` takes `const Expr&` to read or
/// `Expr&` to rewrite (the optimizer's compact-row remap).
template <typename Fn>
void ForEachExprOfQuery(const BoundQuery& bq, Fn&& fn) {
  auto walk = [&](const ExprPtr& e) {
    if (e != nullptr) fn(*e);
  };
  for (const auto& c : bq.conjuncts) walk(c);
  for (const auto& g : bq.group_by) walk(g);
  for (const auto& a : bq.agg_calls) walk(a);
  for (const auto& s : bq.select_exprs) walk(s);
  if (bq.having != nullptr) fn(*bq.having);
  for (const auto& t : bq.tables) {
    for (const auto& c : t.outer_join_conjuncts) walk(c);
  }
}

/// Collects this-level wide-row positions referenced by `e`, including the
/// outer references made by directly nested subqueries (which refer to this
/// level's wide row).
void CollectPositions(const Expr& e, const BoundQuery& bq,
                      std::set<size_t>* positions) {
  if (e.kind == ExprKind::kColumnRef) {
    positions->insert(e.column_index);
  }
  if (e.subquery_index != kNoSubquery && e.subquery_index < bq.subqueries.size()) {
    const BoundQuery& sub = *bq.subqueries[e.subquery_index].query;
    std::function<void(const Expr&)> collect_outer = [&](const Expr& x) {
      if (x.kind == ExprKind::kOuterRef) positions->insert(x.column_index);
      for (const ExprPtr& c : x.children) {
        if (c != nullptr) collect_outer(*c);
      }
    };
    ForEachExprOfQuery(sub, collect_outer);
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr) CollectPositions(*c, bq, positions);
  }
}

size_t TableOfPosition(const BoundQuery& bq, size_t pos) {
  for (size_t i = 0; i < bq.tables.size(); ++i) {
    size_t w = bq.tables[i].table->schema.NumColumns();
    if (pos >= bq.tables[i].offset && pos < bq.tables[i].offset + w) return i;
  }
  return static_cast<size_t>(-1);
}

/// True if `e` is constant at execution time of the current query level:
/// literals, parameters, outer references, and functions thereof.
bool IsRuntimeConstant(const Expr& e) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
    case ExprKind::kSlotRef:
    case ExprKind::kAggRef:
    case ExprKind::kAggCall:
    case ExprKind::kScalarSubquery:
    case ExprKind::kExistsSubquery:
    case ExprKind::kInSubquery:
      return false;
    default:
      break;
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr && !IsRuntimeConstant(*c)) return false;
  }
  return true;
}

/// Evaluates a runtime-constant expression at *plan* time. Fails (kNotFound
/// used as the "unknown" signal) when the value depends on parameters or
/// outer rows, which are unavailable to the optimizer — the heart of the
/// paper's Table 6 observation. With bind peeking (`est.peeked`), parameter
/// references resolve against the peeked bind values and the optimizer is
/// no longer blind.
Result<Value> PlanTimeValue(const Expr& e, const EstimationContext& est) {
  if (ExprHasParams(e) && est.peeked == nullptr) {
    return Status::NotFound("value depends on a parameter");
  }
  if (ExprContains(e, [](const Expr& x) { return x.kind == ExprKind::kOuterRef; })) {
    return Status::NotFound("value depends on an outer row");
  }
  EvalContext ec;
  ec.params = est.peeked;
  Value v;
  Status st = EvalExpr(e, ec, &v);
  if (!st.ok()) return Status::NotFound("not plan-time evaluable");
  return v;
}

const ColumnStats* StatsFor(const TableInfo& t, size_t col) {
  if (!t.stats.valid || col >= t.stats.columns.size()) return nullptr;
  const ColumnStats& s = t.stats.columns[col];
  return s.valid ? &s : nullptr;
}

uint64_t RowCountOf(const TableInfo& t) {
  return t.stats.valid ? t.stats.row_count : t.row_count;
}

// A normalized single-column comparison: col <op> const-expr.
struct ColCompare {
  size_t column = 0;  ///< table-local column index
  CmpOp op = CmpOp::kEq;
  const Expr* value = nullptr;
  const Expr* value2 = nullptr;  ///< BETWEEN upper bound
  bool is_between = false;
};

/// Tries to view `e` as a comparison between a column of table `t` and a
/// runtime constant.
bool MatchColCompare(const Expr& e, const BoundTableRef& t, ColCompare* out) {
  size_t width = t.table->schema.NumColumns();
  auto local_col = [&](const Expr& x) -> int64_t {
    if (x.kind != ExprKind::kColumnRef) return -1;
    if (x.column_index < t.offset || x.column_index >= t.offset + width) return -1;
    return static_cast<int64_t>(x.column_index - t.offset);
  };
  if (e.kind == ExprKind::kCompare) {
    int64_t lc = local_col(*e.children[0]);
    int64_t rc = local_col(*e.children[1]);
    if (lc >= 0 && IsRuntimeConstant(*e.children[1])) {
      out->column = static_cast<size_t>(lc);
      out->op = e.cmp_op;
      out->value = e.children[1].get();
      return true;
    }
    if (rc >= 0 && IsRuntimeConstant(*e.children[0])) {
      out->column = static_cast<size_t>(rc);
      // Flip the operator.
      switch (e.cmp_op) {
        case CmpOp::kLt:
          out->op = CmpOp::kGt;
          break;
        case CmpOp::kLe:
          out->op = CmpOp::kGe;
          break;
        case CmpOp::kGt:
          out->op = CmpOp::kLt;
          break;
        case CmpOp::kGe:
          out->op = CmpOp::kLe;
          break;
        default:
          out->op = e.cmp_op;
          break;
      }
      out->value = e.children[0].get();
      return true;
    }
    return false;
  }
  if (e.kind == ExprKind::kBetween && !e.negated) {
    int64_t c = local_col(*e.children[0]);
    if (c >= 0 && IsRuntimeConstant(*e.children[1]) &&
        IsRuntimeConstant(*e.children[2])) {
      out->column = static_cast<size_t>(c);
      out->is_between = true;
      out->value = e.children[1].get();
      out->value2 = e.children[2].get();
      return true;
    }
  }
  return false;
}

/// Estimated selectivity of one conjunct against table `t`.
/// `*unknown` is set when the constant is invisible at plan time.
double EstimateConjunctSelectivity(const Expr& e, const BoundTableRef& t,
                                   bool* unknown,
                                   const EstimationContext& est) {
  *unknown = false;
  const bool hist = est.v2;
  ColCompare cc;
  if (MatchColCompare(e, t, &cc)) {
    const ColumnStats* s = StatsFor(*t.table, cc.column);
    if (cc.is_between) {
      auto lo = PlanTimeValue(*cc.value, est);
      auto hi = PlanTimeValue(*cc.value2, est);
      if (!lo.ok() || !hi.ok() || s == nullptr) {
        *unknown = !lo.ok() || !hi.ok();
        return selectivity::kDefaultRange / 2;
      }
      double below_hi = selectivity::LessThan(*s, hi.value(), hist);
      double below_lo = selectivity::LessThan(*s, lo.value(), hist);
      double eq_hi = hist ? selectivity::Equals(*s, hi.value(), hist) : 0.0;
      return std::max(0.0, below_hi + eq_hi - below_lo);
    }
    auto v = PlanTimeValue(*cc.value, est);
    if (!v.ok()) {
      *unknown = true;
      return cc.op == CmpOp::kEq ? selectivity::kDefaultEquals
                                 : selectivity::kDefaultRange;
    }
    if (s == nullptr) {
      return cc.op == CmpOp::kEq ? selectivity::kDefaultEquals
                                 : selectivity::kDefaultRange;
    }
    switch (cc.op) {
      case CmpOp::kEq:
        return selectivity::Equals(*s, v.value(), hist);
      case CmpOp::kLt:
      case CmpOp::kLe:
        return selectivity::LessThan(*s, v.value(), hist);
      case CmpOp::kGt:
      case CmpOp::kGe:
        return selectivity::GreaterThan(*s, v.value(), hist);
      case CmpOp::kNe:
        return 1.0 - selectivity::Equals(*s, v.value(), hist);
    }
  }
  if (e.kind == ExprKind::kLike) return 0.05;
  if (e.kind == ExprKind::kInList) {
    if (est.v2 && !e.negated && e.children.size() > 1) {
      // v2: sum the per-item equality estimates when the target is a local
      // column and every item's value is visible (literals or peeked).
      size_t width = t.table->schema.NumColumns();
      const Expr& target = *e.children[0];
      if (target.kind == ExprKind::kColumnRef &&
          target.column_index >= t.offset &&
          target.column_index < t.offset + width) {
        const ColumnStats* s =
            StatsFor(*t.table, target.column_index - t.offset);
        double sum = 0;
        bool all_known = true;
        for (size_t i = 1; i < e.children.size(); ++i) {
          auto v = PlanTimeValue(*e.children[i], est);
          if (!v.ok()) {
            all_known = false;
            break;
          }
          sum += s != nullptr ? selectivity::Equals(*s, v.value(), hist)
                              : selectivity::kDefaultEquals;
        }
        if (all_known) return std::min(1.0, sum);
      }
    }
    return std::min(1.0, selectivity::kDefaultEquals *
                             static_cast<double>(e.children.size() - 1) * 2.0);
  }
  return 0.25;  // generic predicate
}

// ---------------------------------------------------------------------------
// Access paths
// ---------------------------------------------------------------------------

struct AccessPath {
  const IndexInfo* index = nullptr;  ///< null: sequential scan
  IndexBounds bounds;
  std::set<const Expr*> consumed;  ///< conjuncts folded into the bounds
  double est_rows = 1;             ///< after all pushed single-table filters
  bool blind = false;              ///< chosen without selectivity knowledge
};

struct TableCandidate {
  std::vector<const Expr*> singles;  ///< pushed single-table conjuncts
  AccessPath path;
};

/// True when `op` constrains a range (not equality).
bool IsRangeOp(CmpOp op) {
  return op == CmpOp::kLt || op == CmpOp::kLe || op == CmpOp::kGt ||
         op == CmpOp::kGe;
}

/// Flattens an OR chain into index ranges on `col` of `t`; false when any
/// leaf is not an index-compatible comparison on that column.
bool FlattenOrRanges(const Expr& e, const BoundTableRef& t, size_t col,
                     std::vector<IndexRange>* out) {
  if (e.kind == ExprKind::kLogic && e.logic_op == LogicOp::kOr) {
    for (const ExprPtr& c : e.children) {
      if (c == nullptr || !FlattenOrRanges(*c, t, col, out)) return false;
    }
    return true;
  }
  ColCompare cc;
  if (!MatchColCompare(e, t, &cc) || cc.column != col) return false;
  IndexRange r;
  if (cc.is_between) {
    r.lower = cc.value;
    r.upper = cc.value2;
  } else {
    switch (cc.op) {
      case CmpOp::kEq:
        r.point = cc.value;
        break;
      case CmpOp::kLt:
        r.upper = cc.value;
        r.upper_inclusive = false;
        break;
      case CmpOp::kLe:
        r.upper = cc.value;
        break;
      case CmpOp::kGt:
        r.lower = cc.value;
        r.lower_inclusive = false;
        break;
      case CmpOp::kGe:
        r.lower = cc.value;
        break;
      default:
        return false;  // != is not indexable
    }
  }
  out->push_back(r);
  return true;
}

/// Estimated selectivity of one index range on a column with stats `s`.
double RangeSelectivity(const IndexRange& r, const ColumnStats* s,
                        const EstimationContext& est, bool* unknown) {
  *unknown = false;
  if (r.point != nullptr) {
    auto v = PlanTimeValue(*r.point, est);
    if (!v.ok()) {
      *unknown = true;
      return selectivity::kDefaultEquals;
    }
    return s != nullptr ? selectivity::Equals(*s, v.value(), est.v2)
                        : selectivity::kDefaultEquals;
  }
  double lo_frac = 0.0;
  double hi_frac = 1.0;
  if (r.lower != nullptr) {
    auto v = PlanTimeValue(*r.lower, est);
    if (!v.ok()) {
      *unknown = true;
      return selectivity::kDefaultRange;
    }
    if (s != nullptr) lo_frac = selectivity::LessThan(*s, v.value(), est.v2);
  }
  if (r.upper != nullptr) {
    auto v = PlanTimeValue(*r.upper, est);
    if (!v.ok()) {
      *unknown = true;
      return selectivity::kDefaultRange;
    }
    if (s != nullptr) {
      hi_frac = selectivity::LessThan(*s, v.value(), est.v2);
      if (r.upper_inclusive) {
        hi_frac += selectivity::Equals(*s, v.value(), est.v2);
      }
    }
  }
  if (s == nullptr && (r.lower != nullptr || r.upper != nullptr)) {
    return selectivity::kDefaultRange;
  }
  return std::max(0.0, std::min(1.0, hi_frac) - lo_frac);
}

/// Chooses the access path for one table given its pushed conjuncts.
AccessPath ChooseAccessPath(const BoundTableRef& t,
                            const std::vector<const Expr*>& singles,
                            const PlannerOptions& options,
                            const CostModel& cost,
                            const EstimationContext& est) {
  AccessPath seq;
  double sel_total = 1.0;
  // Per-conjunct estimates, with one correction: range conjuncts whose
  // bounds are invisible at plan time are combined *per column* before
  // multiplying. `x >= ? AND x <= ?` used to contribute kDefaultRange² —
  // double-counting the same column's range — where the equivalent
  // `x BETWEEN ? AND ?` contributed kDefaultRange/2.
  {
    std::vector<double> sels(singles.size(), 1.0);
    std::vector<int64_t> unk_range_col(singles.size(), -1);
    std::map<size_t, std::pair<bool, bool>> col_bounds;  // col -> (lo, hi)
    for (size_t i = 0; i < singles.size(); ++i) {
      bool unknown = false;
      sels[i] = EstimateConjunctSelectivity(*singles[i], t, &unknown, est);
      ColCompare cc;
      if (unknown && MatchColCompare(*singles[i], t, &cc) &&
          (cc.is_between || IsRangeOp(cc.op))) {
        unk_range_col[i] = static_cast<int64_t>(cc.column);
        auto& b = col_bounds[cc.column];
        if (cc.is_between) {
          b.first = b.second = true;
        } else if (cc.op == CmpOp::kGt || cc.op == CmpOp::kGe) {
          b.first = true;
        } else {
          b.second = true;
        }
      }
    }
    std::set<size_t> counted;
    for (size_t i = 0; i < singles.size(); ++i) {
      if (unk_range_col[i] >= 0) {
        size_t col = static_cast<size_t>(unk_range_col[i]);
        if (!counted.insert(col).second) continue;  // deduped
        const auto& b = col_bounds[col];
        sel_total *= b.first && b.second ? selectivity::kDefaultRange / 2
                                         : selectivity::kDefaultRange;
      } else {
        sel_total *= sels[i];
      }
    }
  }
  uint64_t rows = std::max<uint64_t>(1, RowCountOf(*t.table));
  seq.est_rows = std::max(1.0, sel_total * static_cast<double>(rows));

  AccessPath best = seq;
  double best_cost = -1.0;
  AccessPath best_blind;
  size_t best_blind_score = 0;
  uint32_t pages = 1;
  if (auto p = t.table->storage->NumPages(); p.ok()) {
    pages = std::max(1u, p.value());
  }
  // Per-engine costs (MariaDB OPTIMIZER_COSTS style): the row heap reports
  // the CostModel integers verbatim, so its plan arithmetic is bit-identical
  // to the pre-engine costing. The v2 path additionally consults the split
  // OptimizerCosts fields (descent vs entry CPU vs row fetch), which is
  // where the columnar engine's cheap in-memory row fetch finally shows up.
  const StorageCosts ecost = t.table->storage->ScanCosts(cost);
  const OptimizerCosts ocost = OptimizerCosts::ForTable(*t.table, cost);
  double seq_cost = static_cast<double>(pages) * ecost.seq_page_us +
                    static_cast<double>(rows) * ecost.tuple_cpu_us;

  for (const IndexInfo* idx : t.table->indexes) {
    IndexBounds bounds;
    std::set<const Expr*> consumed;
    double idx_sel = 1.0;
    bool any_unknown = false;
    size_t k = 0;
    // Equality prefix.
    for (; k < idx->column_indices.size(); ++k) {
      const Expr* eq_value = nullptr;
      for (const Expr* c : singles) {
        if (consumed.count(c) > 0) continue;
        ColCompare cc;
        if (MatchColCompare(*c, t, &cc) && !cc.is_between &&
            cc.op == CmpOp::kEq && cc.column == idx->column_indices[k]) {
          eq_value = cc.value;
          bool unknown = false;
          idx_sel *= EstimateConjunctSelectivity(*c, t, &unknown, est);
          any_unknown = any_unknown || unknown;
          consumed.insert(c);
          break;
        }
      }
      if (eq_value == nullptr) break;
      bounds.eq_exprs.push_back(eq_value);
    }
    // Optional range on the next column.
    if (k < idx->column_indices.size()) {
      IndexRange range;  // comparisons and BETWEEN fold into one range
      for (const Expr* c : singles) {
        if (consumed.count(c) > 0) continue;
        ColCompare cc;
        if (!MatchColCompare(*c, t, &cc) || cc.column != idx->column_indices[k]) {
          continue;
        }
        bool unknown = false;
        double s = EstimateConjunctSelectivity(*c, t, &unknown, est);
        if (cc.is_between) {
          if (range.lower != nullptr || range.upper != nullptr) continue;
          range.lower = cc.value;
          range.upper = cc.value2;
        } else if ((cc.op == CmpOp::kGt || cc.op == CmpOp::kGe) &&
                   range.lower == nullptr) {
          range.lower = cc.value;
          range.lower_inclusive = cc.op == CmpOp::kGe;
        } else if ((cc.op == CmpOp::kLt || cc.op == CmpOp::kLe) &&
                   range.upper == nullptr) {
          range.upper = cc.value;
          range.upper_inclusive = cc.op == CmpOp::kLe;
        } else {
          continue;
        }
        idx_sel *= s;
        any_unknown = any_unknown || unknown;
        consumed.insert(c);
      }
      if (range.lower != nullptr || range.upper != nullptr) {
        bounds.ranges.push_back(range);
      }
      // v2 multi-range: when no contiguous range folded in, try `a IN (…)`
      // or an OR-of-ranges on this column — each becomes one key range of
      // the same IndexScan (one descent per range).
      if (est.v2 && bounds.ranges.empty()) {
        const size_t range_col = idx->column_indices[k];
        for (const Expr* c : singles) {
          if (consumed.count(c) > 0) continue;
          std::vector<IndexRange> ranges;
          bool matched = false;
          if (c->kind == ExprKind::kInList && !c->negated &&
              c->children.size() > 1) {
            const Expr& target = *c->children[0];
            const size_t width = t.table->schema.NumColumns();
            if (target.kind == ExprKind::kColumnRef &&
                target.column_index >= t.offset &&
                target.column_index < t.offset + width &&
                target.column_index - t.offset == range_col) {
              matched = true;
              for (size_t i = 1; i < c->children.size(); ++i) {
                if (!IsRuntimeConstant(*c->children[i])) {
                  matched = false;
                  break;
                }
                IndexRange r;
                r.point = c->children[i].get();
                ranges.push_back(r);
              }
            }
          } else if (c->kind == ExprKind::kLogic &&
                     c->logic_op == LogicOp::kOr) {
            matched = FlattenOrRanges(*c, t, range_col, &ranges);
          }
          if (!matched || ranges.empty()) continue;
          const ColumnStats* s = StatsFor(*t.table, range_col);
          double sum = 0;
          bool unk = false;
          for (const IndexRange& r : ranges) {
            bool u = false;
            sum += RangeSelectivity(r, s, est, &u);
            unk = unk || u;
          }
          idx_sel *= std::min(1.0, sum);
          any_unknown = any_unknown || unk;
          bounds.ranges = std::move(ranges);
          consumed.insert(c);
          break;
        }
      }
    }
    if (consumed.empty()) continue;  // index not applicable

    bool full_unique_match = idx->unique &&
                             bounds.eq_exprs.size() == idx->column_indices.size();
    double est_match = std::max(1.0, idx_sel * static_cast<double>(rows));
    double idx_cost;
    if (est.v2) {
      const double nranges =
          bounds.ranges.empty() ? 1.0 : static_cast<double>(bounds.ranges.size());
      idx_cost = nranges * ocost.index_descent_us +
                 est_match * (ocost.index_entry_cpu_us + ocost.row_fetch_us);
    } else {
      idx_cost = est_match * (ecost.random_page_us + ecost.tuple_cpu_us);
    }
    AccessPath cand;
    cand.index = idx;
    cand.bounds = bounds;
    cand.consumed = consumed;
    cand.est_rows = std::max(1.0, sel_total * static_cast<double>(rows));
    if (full_unique_match) {
      // A covered unique point lookup always wins.
      best = cand;
      best.est_rows = 1.0;
      break;
    }
    if (any_unknown) {
      // The optimizer is blind (parameterized constants): it cannot cost
      // the index and — like the paper's RDBMS — just takes the most
      // specific one (most predicate columns covered).
      cand.blind = true;
      size_t score = consumed.size();
      if (options.blind_prefers_index && score > best_blind_score) {
        best_blind = cand;
        best_blind_score = score;
      }
      continue;
    }
    if (idx_cost < seq_cost && (best_cost < 0 || idx_cost < best_cost)) {
      best = cand;
      best_cost = idx_cost;
    }
  }
  if (best_blind_score > 0) return best_blind;
  return best;
}

/// The row layout of one query level: where each table's columns sit in
/// the rows its operators exchange.
struct RowLayout {
  std::vector<FilledRange> tables;  ///< per table, its contiguous positions
  size_t width = 0;
};

/// A level without subqueries packs each table's needed columns
/// contiguously in FROM order: table t's k-th needed column sits at
/// `tables[t].offset + k`. A level with subqueries (no `needed` sets) keeps
/// the binder's full-width layout, which its subqueries' outer refs
/// address.
RowLayout LayoutFor(const BoundQuery& bq,
                    const std::vector<std::optional<std::vector<size_t>>>&
                        needed) {
  RowLayout out;
  for (size_t t = 0; t < bq.tables.size(); ++t) {
    const std::optional<std::vector<size_t>>& cols = needed[t];
    const size_t offset = cols.has_value() ? out.width : bq.tables[t].offset;
    const size_t width = cols.has_value()
                             ? cols->size()
                             : bq.tables[t].table->schema.NumColumns();
    out.tables.push_back(FilledRange{offset, width});
    out.width = offset + width;
  }
  return out;
}

/// Moves every column reference of a compact level from its binder
/// position to its compact position, once, after every plan decision that
/// reads binder positions. `binder_index` keeps the old position for
/// EXPLAIN.
void RemapToLayout(const BoundQuery& bq,
                   const std::vector<std::optional<std::vector<size_t>>>&
                       needed,
                   const RowLayout& layout) {
  auto remap = [&](Expr* e) {
    if (e->kind != ExprKind::kColumnRef) return;
    const size_t t = TableOfPosition(bq, e->column_index);
    const std::vector<size_t>& cols = *needed[t];
    const size_t k = static_cast<size_t>(
        std::lower_bound(cols.begin(), cols.end(),
                         e->column_index - bq.tables[t].offset) -
        cols.begin());
    e->binder_index = e->column_index;
    e->column_index = layout.tables[t].offset + k;
  };
  ForEachExprOfQuery(bq, [&](Expr& root) { VisitExpr(&root, remap); });
}

}  // namespace

// ---------------------------------------------------------------------------
// SubqueryRunnerImpl
// ---------------------------------------------------------------------------

SubqueryRunnerImpl::~SubqueryRunnerImpl() = default;

void SubqueryRunnerImpl::Bind(const ExecContext& ctx) {
  ctx_ = ctx;
  for (auto& cs : subqueries) {
    cs->scalar_cached = false;
    cs->exists_cached = false;
    cs->in_set_cached = false;
    cs->in_set.clear();
    cs->in_set_has_null = false;
    if (cs->runner != nullptr) cs->runner->Bind(ctx);
  }
}

ExecContext SubqueryRunnerImpl::MakeContext(CompiledSubquery* cs,
                                            const Row* outer) const {
  ExecContext ctx = ctx_;
  ctx.subqueries = cs->runner.get();
  ctx.outer_row = outer;
  ctx.totals = nullptr;
  return ctx;
}

Status SubqueryRunnerImpl::RunScalar(size_t idx, const Row* outer, Value* out) {
  if (idx >= subqueries.size()) return Status::Internal("bad subquery index");
  CompiledSubquery* cs = subqueries[idx].get();
  if (!cs->correlated && cs->scalar_cached) {
    *out = cs->scalar_value;
    return Status::OK();
  }
  ExecContext ctx = MakeContext(cs, cs->correlated ? outer : nullptr);
  R3_RETURN_IF_ERROR(cs->root->Open(&ctx));
  // Single-row pulls reproduce the row-at-a-time engine's two Next calls
  // (value, then uniqueness check) charge for charge.
  cs->scratch.Reset(1);
  R3_ASSIGN_OR_RETURN(bool ok, cs->root->NextBatch(&cs->scratch));
  if (!ok) {
    *out = Value::Null();
  } else {
    *out = cs->scratch.row(0)[0];  // copy before the next pull clears it
    R3_ASSIGN_OR_RETURN(bool more, cs->root->NextBatch(&cs->scratch));
    if (more) {
      return Status::InvalidArgument("scalar subquery produced more than one row");
    }
  }
  R3_RETURN_IF_ERROR(cs->root->Close());
  if (!cs->correlated) {
    cs->scalar_cached = true;
    cs->scalar_value = *out;
  }
  return Status::OK();
}

Status SubqueryRunnerImpl::RunExists(size_t idx, const Row* outer, bool* out) {
  if (idx >= subqueries.size()) return Status::Internal("bad subquery index");
  CompiledSubquery* cs = subqueries[idx].get();
  if (!cs->correlated && cs->exists_cached) {
    *out = cs->exists_value;
    return Status::OK();
  }
  ExecContext ctx = MakeContext(cs, cs->correlated ? outer : nullptr);
  R3_RETURN_IF_ERROR(cs->root->Open(&ctx));
  cs->scratch.Reset(1);  // EXISTS needs one row: don't pull more
  R3_ASSIGN_OR_RETURN(bool ok, cs->root->NextBatch(&cs->scratch));
  *out = ok;
  R3_RETURN_IF_ERROR(cs->root->Close());
  if (!cs->correlated) {
    cs->exists_cached = true;
    cs->exists_value = *out;
  }
  return Status::OK();
}

Status SubqueryRunnerImpl::RunInProbe(size_t idx, const Row* outer,
                                      const Value& probe, Value* out) {
  if (idx >= subqueries.size()) return Status::Internal("bad subquery index");
  CompiledSubquery* cs = subqueries[idx].get();
  auto normalize = [](const Value& v) -> Value {
    if (IsNumeric(v.type()) && v.type() != DataType::kDouble && !v.is_null()) {
      return Value::Dbl(v.AsDouble());
    }
    return v;
  };
  if (!cs->correlated) {
    if (!cs->in_set_cached) {
      ExecContext ctx = MakeContext(cs, nullptr);
      R3_RETURN_IF_ERROR(cs->root->Open(&ctx));
      cs->scratch.Reset(ctx_.batch_size);  // full drain: batch freely
      while (true) {
        R3_ASSIGN_OR_RETURN(bool ok, cs->root->NextBatch(&cs->scratch));
        if (!ok) break;
        for (size_t i = 0; i < cs->scratch.size(); ++i) {
          const Value& v = cs->scratch.row(i)[0];
          if (v.is_null()) {
            cs->in_set_has_null = true;
          } else {
            cs->in_set.insert(key_codec::Encode(normalize(v)));
          }
        }
      }
      R3_RETURN_IF_ERROR(cs->root->Close());
      cs->in_set_cached = true;
    }
    if (probe.is_null()) {
      *out = Value::Null(DataType::kBool);
      return Status::OK();
    }
    if (cs->in_set.count(key_codec::Encode(normalize(probe))) > 0) {
      *out = Value::Bool(true);
    } else if (cs->in_set_has_null) {
      *out = Value::Null(DataType::kBool);
    } else {
      *out = Value::Bool(false);
    }
    return Status::OK();
  }
  // Correlated IN: naive re-execution (what the paper's RDBMS did, badly).
  if (probe.is_null()) {
    *out = Value::Null(DataType::kBool);
    return Status::OK();
  }
  ExecContext ctx = MakeContext(cs, outer);
  R3_RETURN_IF_ERROR(cs->root->Open(&ctx));
  // Single-row pulls so the early exit on a match stops the subquery at
  // exactly the row the row-at-a-time engine stopped at.
  cs->scratch.Reset(1);
  bool saw_null = false;
  bool matched = false;
  while (true) {
    R3_ASSIGN_OR_RETURN(bool ok, cs->root->NextBatch(&cs->scratch));
    if (!ok) break;
    const Value& v = cs->scratch.row(0)[0];
    if (v.is_null()) {
      saw_null = true;
      continue;
    }
    if (v.Compare(probe) == 0) {
      matched = true;
      break;
    }
  }
  R3_RETURN_IF_ERROR(cs->root->Close());
  if (matched) {
    *out = Value::Bool(true);
  } else if (saw_null) {
    *out = Value::Null(DataType::kBool);
  } else {
    *out = Value::Bool(false);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Optimizer
// ---------------------------------------------------------------------------

Result<Optimizer::PlanResult> Optimizer::PlanQueryTree(BoundQuery* bq) {
  const CostModel& cost = DefaultCostModel();
  EstimationContext est;
  est.v2 = options_.bind_peeking;
  est.peeked = options_.bind_peeking ? peeked_ : nullptr;

  // 0. Compile subqueries (recursively) into the runner.
  auto runner = std::make_unique<SubqueryRunnerImpl>();
  for (BoundSubquery& sub : bq->subqueries) {
    auto cs = std::make_unique<CompiledSubquery>();
    cs->kind = sub.kind;
    cs->correlated = sub.correlated;
    R3_ASSIGN_OR_RETURN(PlanResult child, PlanQueryTree(sub.query.get()));
    cs->root = std::move(child.root);
    cs->runner = std::move(child.runner);
    cs->query = sub.query.get();
    runner->subqueries.push_back(std::move(cs));
  }

  // 1. Classify conjuncts by required tables.
  struct ConjunctInfo {
    Expr* expr;
    std::set<size_t> tables;
    bool placed = false;
  };
  std::vector<ConjunctInfo> conjuncts;
  for (ExprPtr& c : bq->conjuncts) {
    ConjunctInfo info;
    info.expr = c.get();
    std::set<size_t> positions;
    CollectPositions(*c, *bq, &positions);
    for (size_t p : positions) {
      size_t t = TableOfPosition(*bq, p);
      if (t != static_cast<size_t>(-1)) info.tables.insert(t);
    }
    conjuncts.push_back(std::move(info));
  }

  // 2. Push single-table conjuncts; choose access paths.
  std::vector<TableCandidate> cands(bq->tables.size());
  for (size_t t = 0; t < bq->tables.size(); ++t) {
    if (bq->tables[t].left_outer) continue;  // filters ride on the join
    for (ConjunctInfo& c : conjuncts) {
      if (c.tables.size() == 1 && *c.tables.begin() == t) {
        cands[t].singles.push_back(c.expr);
        c.placed = true;
      }
    }
    cands[t].path =
        ChooseAccessPath(bq->tables[t], cands[t].singles, options_, cost, est);
  }
  // Zero-table conjuncts attach to the first scan.
  std::vector<const Expr*> zero_table;
  for (ConjunctInfo& c : conjuncts) {
    if (!c.placed && c.tables.empty()) {
      zero_table.push_back(c.expr);
      c.placed = true;
    }
  }

  // Parallel (Gather) eligibility: only sequential scans of large non-outer
  // tables in subquery-free query levels qualify. Subquery-free matters
  // because worker lanes must never re-enter the (serial, caching) subquery
  // machinery.
  auto parallel_eligible = [&](size_t t) -> bool {
    if (options_.dop <= 1) return false;
    if (!bq->subqueries.empty()) return false;
    const BoundTableRef& ref = bq->tables[t];
    // Only the row heap partitions by page range; other engines scan
    // serially (their chunk-granular cost accounting is DOP-invariant).
    if (ref.table->storage->kind() != EngineKind::kRowHeap) return false;
    if (ref.left_outer) return false;
    if (cands[t].path.index != nullptr) return false;
    return RowCountOf(*ref.table) >= options_.parallel_threshold_rows;
  };

  // Projection sets: per table, the local columns any expression of this
  // query level reads (ascending). Every scan decodes only these, into the
  // level's compact row layout. A level with subqueries decodes every
  // column into the full-width layout: a deeply nested correlation could
  // reference a position no top-level walk sees, and the columnar engine
  // charges per decoded column, so its simulated times depend on this set.
  std::vector<std::optional<std::vector<size_t>>> needed(bq->tables.size());
  if (bq->subqueries.empty()) {
    std::set<size_t> positions;
    ForEachExprOfQuery(
        *bq, [&](const Expr& e) { CollectPositions(e, *bq, &positions); });
    for (size_t t = 0; t < bq->tables.size(); ++t) {
      const size_t offset = bq->tables[t].offset;
      const size_t ncols = bq->tables[t].table->schema.NumColumns();
      std::vector<size_t>& local = needed[t].emplace();
      for (size_t p : positions) {
        if (p >= offset && p < offset + ncols) local.push_back(p - offset);
      }
    }
  }
  const RowLayout layout = LayoutFor(*bq, needed);

  auto make_scan = [&](size_t t) -> OperatorPtr {
    const TableCandidate& cand = cands[t];
    const BoundTableRef& ref = bq->tables[t];
    // Estimated post-filter cardinality, recorded on the scan node so
    // EXPLAIN ANALYZE can report est-vs-actual drift (stale-stats story).
    const uint64_t scan_est =
        static_cast<uint64_t>(std::max(0.0, cand.path.est_rows));
    std::vector<const Expr*> residual;
    for (const Expr* s : cand.singles) {
      if (cand.path.consumed.count(s) == 0) residual.push_back(s);
    }
    const size_t offset = layout.tables[t].offset;
    if (cand.path.index != nullptr) {
      auto op = std::make_unique<IndexScanOp>(ref.table, cand.path.index,
                                              offset, layout.width,
                                              cand.path.bounds, residual,
                                              needed[t]);
      op->set_est_rows(scan_est);
      return op;
    }
    if (parallel_eligible(t)) {
      auto op = std::make_unique<GatherOp>(ref.table, offset, layout.width,
                                           residual, needed[t], options_.dop,
                                           scan_est);
      op->set_est_rows(scan_est);
      return op;
    }
    auto op = std::make_unique<SeqScanOp>(ref.table, offset, layout.width,
                                          residual, needed[t]);
    op->set_est_rows(scan_est);
    return op;
  };

  // 3. Greedy join ordering.
  std::set<size_t> remaining;
  for (size_t t = 0; t < bq->tables.size(); ++t) remaining.insert(t);

  // Outer-joined tables depend on the tables their ON clause references.
  std::vector<std::set<size_t>> outer_deps(bq->tables.size());
  for (size_t t = 0; t < bq->tables.size(); ++t) {
    if (!bq->tables[t].left_outer) continue;
    std::set<size_t> positions;
    for (const ExprPtr& c : bq->tables[t].outer_join_conjuncts) {
      CollectPositions(*c, *bq, &positions);
    }
    for (size_t p : positions) {
      size_t owner = TableOfPosition(*bq, p);
      if (owner != static_cast<size_t>(-1) && owner != t) {
        outer_deps[t].insert(owner);
      }
    }
  }

  // First table: cheapest non-outer candidate.
  size_t first = static_cast<size_t>(-1);
  double first_rows = 0;
  for (size_t t : remaining) {
    if (bq->tables[t].left_outer) continue;
    double est = cands[t].path.est_rows;
    if (first == static_cast<size_t>(-1) || est < first_rows) {
      first = t;
      first_rows = est;
    }
  }
  if (first == static_cast<size_t>(-1)) {
    return Status::Unsupported("query consists only of outer-joined tables");
  }

  OperatorPtr tree = make_scan(first);
  if (!zero_table.empty()) {
    tree = std::make_unique<FilterOp>(std::move(tree), zero_table);
  }
  std::set<size_t> joined{first};
  remaining.erase(first);
  double current_rows = first_rows;

  // Estimated rows of a candidate table under its pushed filters.
  auto table_rows = [&](size_t t) -> double {
    if (bq->tables[t].left_outer) {
      return static_cast<double>(std::max<uint64_t>(1, RowCountOf(*bq->tables[t].table)));
    }
    return cands[t].path.est_rows;
  };

  while (!remaining.empty()) {
    // Candidate choice: prefer connected tables with the smallest estimated
    // join result.
    size_t best_t = static_cast<size_t>(-1);
    bool best_connected = false;
    double best_result = 0;
    for (size_t t : remaining) {
      if (bq->tables[t].left_outer) {
        bool deps_ok = true;
        for (size_t d : outer_deps[t]) {
          if (joined.count(d) == 0) deps_ok = false;
        }
        if (!deps_ok) continue;
      }
      // Is t connected by an equi conjunct to the joined set?
      bool connected = false;
      double join_sel = 1.0;
      auto consider = [&](const Expr& c) {
        if (c.kind != ExprKind::kCompare || c.cmp_op != CmpOp::kEq) return;
        std::set<size_t> lpos, rpos;
        CollectPositions(*c.children[0], *bq, &lpos);
        CollectPositions(*c.children[1], *bq, &rpos);
        auto owner_set = [&](const std::set<size_t>& pos, std::set<size_t>* ts) {
          for (size_t p : pos) {
            size_t o = TableOfPosition(*bq, p);
            if (o != static_cast<size_t>(-1)) ts->insert(o);
          }
        };
        std::set<size_t> lt, rt;
        owner_set(lpos, &lt);
        owner_set(rpos, &rt);
        auto subset_of_joined = [&](const std::set<size_t>& s) {
          for (size_t x : s) {
            if (joined.count(x) == 0) return false;
          }
          return !s.empty();
        };
        auto is_t = [&](const std::set<size_t>& s) {
          return s.size() == 1 && *s.begin() == t;
        };
        if ((subset_of_joined(lt) && is_t(rt)) ||
            (subset_of_joined(rt) && is_t(lt))) {
          connected = true;
          // ndv-based selectivity when both sides are plain columns.
          double ndv = std::max(
              10.0, static_cast<double>(std::max<uint64_t>(
                        1, RowCountOf(*bq->tables[t].table))));
          const Expr& tcol = is_t(rt) ? *c.children[1] : *c.children[0];
          if (tcol.kind == ExprKind::kColumnRef) {
            size_t local = tcol.column_index - bq->tables[t].offset;
            const ColumnStats* s = StatsFor(*bq->tables[t].table, local);
            if (s != nullptr && s->ndv > 0) {
              ndv = static_cast<double>(s->ndv);
            }
          }
          join_sel = std::min(join_sel, 1.0 / ndv);
        }
      };
      if (bq->tables[t].left_outer) {
        for (const ExprPtr& c : bq->tables[t].outer_join_conjuncts) consider(*c);
      } else {
        for (const ConjunctInfo& c : conjuncts) {
          if (!c.placed && c.tables.count(t) > 0) consider(*c.expr);
        }
      }
      double result = connected
                          ? std::max(1.0, current_rows * table_rows(t) * join_sel)
                          : current_rows * table_rows(t);
      if (best_t == static_cast<size_t>(-1) ||
          (connected && !best_connected) ||
          (connected == best_connected && result < best_result)) {
        best_t = t;
        best_connected = connected;
        best_result = result;
      }
    }
    if (best_t == static_cast<size_t>(-1)) {
      return Status::Internal("join ordering failed (outer-join cycle?)");
    }
    size_t t = best_t;
    remaining.erase(t);
    const BoundTableRef& ref = bq->tables[t];
    bool outer = ref.left_outer;

    // Collect the join predicates that become placeable with t.
    std::vector<Expr*> now_placeable;
    if (outer) {
      for (const ExprPtr& c : ref.outer_join_conjuncts) {
        now_placeable.push_back(c.get());
      }
    }
    for (ConjunctInfo& c : conjuncts) {
      if (c.placed) continue;
      bool ok = true;
      for (size_t x : c.tables) {
        if (x != t && joined.count(x) == 0) ok = false;
      }
      if (!ok) continue;
      if (outer && c.tables.count(t) > 0) {
        // A WHERE predicate on an outer-joined table would change semantics
        // if pulled into the outer join; apply it after (as a filter) —
        // which matches SQL (it then rejects NULL-extended rows).
        continue;
      }
      c.placed = true;
      now_placeable.push_back(c.expr);
    }

    // Split into equi keys (S-side, t-side) and residual.
    std::vector<const Expr*> s_keys, t_keys, residual;
    for (Expr* c : now_placeable) {
      bool is_equi = false;
      if (c->kind == ExprKind::kCompare && c->cmp_op == CmpOp::kEq) {
        std::set<size_t> lpos, rpos;
        CollectPositions(*c->children[0], *bq, &lpos);
        CollectPositions(*c->children[1], *bq, &rpos);
        auto owners = [&](const std::set<size_t>& pos) {
          std::set<size_t> out;
          for (size_t p : pos) {
            size_t o = TableOfPosition(*bq, p);
            if (o != static_cast<size_t>(-1)) out.insert(o);
          }
          return out;
        };
        std::set<size_t> lt = owners(lpos), rt = owners(rpos);
        auto in_joined = [&](const std::set<size_t>& s) {
          if (s.empty()) return false;
          for (size_t x : s) {
            if (joined.count(x) == 0) return false;
          }
          return true;
        };
        auto is_t_only = [&](const std::set<size_t>& s) {
          return s.size() == 1 && *s.begin() == t;
        };
        if (in_joined(lt) && is_t_only(rt)) {
          s_keys.push_back(c->children[0].get());
          t_keys.push_back(c->children[1].get());
          is_equi = true;
        } else if (in_joined(rt) && is_t_only(lt)) {
          s_keys.push_back(c->children[1].get());
          t_keys.push_back(c->children[0].get());
          is_equi = true;
        }
      }
      if (!is_equi) residual.push_back(c);
    }

    // Join algorithm choice.
    bool built = false;
    uint64_t t_rows_raw = std::max<uint64_t>(1, RowCountOf(*ref.table));
    if (options_.enable_index_nl_join && !t_keys.empty()) {
      // Find an index on t whose leading columns are exactly covered by the
      // t-side key columns (plain refs).
      for (const IndexInfo* idx : ref.table->indexes) {
        std::vector<const Expr*> probe_exprs;
        bool match = true;
        for (size_t k = 0; k < idx->column_indices.size(); ++k) {
          const Expr* found = nullptr;
          for (size_t j = 0; j < t_keys.size(); ++j) {
            const Expr* tk = t_keys[j];
            if (tk->kind == ExprKind::kColumnRef &&
                tk->column_index == ref.offset + idx->column_indices[k]) {
              found = s_keys[j];
              break;
            }
          }
          if (found == nullptr) {
            match = k > 0;  // a strict prefix is acceptable
            break;
          }
          probe_exprs.push_back(found);
        }
        if (!match || probe_exprs.empty()) continue;
        // Cost: per outer row, one index descent plus one random heap fetch
        // per *matching* inner row (fan-out = rows / ndv of the probed
        // prefix), vs scanning t once for a hash join.
        double fanout = 1.0;
        {
          // Combined distinct count of the probed prefix: the product of the
          // per-column ndvs, capped at the table's cardinality.
          double ndv = 1.0;
          for (size_t k = 0; k < probe_exprs.size(); ++k) {
            size_t col = idx->column_indices[k];
            const ColumnStats* s = StatsFor(*ref.table, col);
            double col_ndv =
                s != nullptr && s->ndv > 0
                    ? static_cast<double>(s->ndv)
                    : std::max(1.0, static_cast<double>(t_rows_raw) / 100);
            ndv = std::min(ndv * col_ndv, static_cast<double>(t_rows_raw));
          }
          fanout = std::max(1.0, static_cast<double>(t_rows_raw) / ndv);
        }
        const StorageCosts tcost = ref.table->storage->ScanCosts(cost);
        double inl_cost;
        if (est.v2) {
          // Split per-engine costs: descent is page-priced for every
          // engine, but the per-match row fetch is an in-memory decode on
          // the columnar engine (OptimizerCosts::ForTable).
          const OptimizerCosts toc = OptimizerCosts::ForTable(*ref.table, cost);
          inl_cost = current_rows * toc.index_descent_us +
                     current_rows * fanout *
                         (toc.index_entry_cpu_us + toc.row_fetch_us);
        } else {
          inl_cost = current_rows * (tcost.random_page_us * 2) +
                     current_rows * fanout * tcost.random_page_us;
        }
        uint32_t t_pages = 1;
        if (auto p = ref.table->storage->NumPages(); p.ok()) {
          t_pages = std::max(1u, p.value());
        }
        double hash_cost = static_cast<double>(t_pages) * tcost.seq_page_us +
                           static_cast<double>(t_rows_raw) * tcost.tuple_cpu_us;
        if (inl_cost > hash_cost && probe_exprs.size() < idx->column_indices.size()) {
          continue;  // partial prefix and not cheaper: let hash handle it
        }
        if (inl_cost > hash_cost * 4) continue;
        // Residual: non-key join predicates + all single-table filters of t
        // (the index path replaces the chosen access path).
        std::vector<const Expr*> inl_residual = residual;
        for (const Expr* s : cands[t].singles) inl_residual.push_back(s);
        // Key equality beyond the probed prefix must be rechecked.
        for (size_t j = 0; j < t_keys.size(); ++j) {
          bool probed = false;
          for (size_t k = 0; k < probe_exprs.size(); ++k) {
            if (t_keys[j]->kind == ExprKind::kColumnRef &&
                t_keys[j]->column_index ==
                    ref.offset + idx->column_indices[k] &&
                probe_exprs[k] == s_keys[j]) {
              probed = true;
              break;
            }
          }
          if (!probed) {
            // Recheck via residual using the original conjunct; find it.
            for (Expr* c : now_placeable) {
              if (c->kind == ExprKind::kCompare && c->cmp_op == CmpOp::kEq &&
                  (c->children[0].get() == t_keys[j] ||
                   c->children[1].get() == t_keys[j])) {
                inl_residual.push_back(c);
                break;
              }
            }
          }
        }
        tree = std::make_unique<IndexNLJoinOp>(
            std::move(tree), ref.table, idx, layout.tables[t].offset,
            probe_exprs, inl_residual, outer, needed[t]);
        built = true;
        break;
      }
    }
    if (!built && !t_keys.empty()) {
      // Hash join; t is the build side (its scan applies pushed filters).
      tree = std::make_unique<HashJoinOp>(
          make_scan(t), std::move(tree), t_keys, s_keys, residual,
          layout.tables[t], outer,
          static_cast<uint64_t>(std::max(0.0, cands[t].path.est_rows)));
      built = true;
    }
    if (!built) {
      tree = std::make_unique<NestedLoopsJoinOp>(
          std::move(tree), make_scan(t), residual, layout.tables[t], outer);
    }
    // Estimated join output rows, for EXPLAIN ANALYZE drift reporting.
    tree->set_est_rows(static_cast<uint64_t>(std::max(1.0, best_result)));
    joined.insert(t);
    current_rows = std::max(1.0, best_result);
  }

  // 4. Any conjuncts still unplaced (should not happen) become a filter.
  std::vector<const Expr*> leftover;
  for (ConjunctInfo& c : conjuncts) {
    if (!c.placed) leftover.push_back(c.expr);
  }
  if (!leftover.empty()) {
    tree = std::make_unique<FilterOp>(std::move(tree), leftover);
  }

  // 5. Aggregation.
  if (bq->has_aggregation) {
    std::vector<const Expr*> groups, aggs;
    for (const ExprPtr& g : bq->group_by) groups.push_back(g.get());
    for (const ExprPtr& a : bq->agg_calls) aggs.push_back(a.get());
    bool has_distinct_agg = false;
    for (const Expr* a : aggs) {
      if (a->agg_distinct) has_distinct_agg = true;
    }
    // Single-table scan-aggregate queries (the TPC-D Q1/Q6 shape) run as
    // one parallel partial-aggregation pipeline: scan, filter, and partial
    // aggregation all happen in the worker lanes; only merged groups cross
    // the gather barrier. DISTINCT aggregates are not losslessly mergeable
    // from partials and keep the serial HashAggOp.
    if (!has_distinct_agg && bq->tables.size() == 1 && parallel_eligible(0)) {
      std::vector<const Expr*> filters = cands[0].singles;
      filters.insert(filters.end(), zero_table.begin(), zero_table.end());
      filters.insert(filters.end(), leftover.begin(), leftover.end());
      tree = std::make_unique<GatherOp>(
          bq->tables[0].table, layout.tables[0].offset, layout.width,
          std::move(filters), needed[0], options_.dop,
          static_cast<uint64_t>(std::max(0.0, cands[0].path.est_rows)),
          groups, aggs);
    } else {
      tree = std::make_unique<HashAggOp>(
          std::move(tree), groups, aggs,
          static_cast<uint64_t>(std::max(0.0, current_rows)));
    }
    if (bq->having != nullptr) {
      tree = std::make_unique<FilterOp>(std::move(tree),
                                        std::vector<const Expr*>{bq->having.get()});
    }
  }

  // 6. Projection -> output rows.
  std::vector<const Expr*> select;
  for (const ExprPtr& e : bq->select_exprs) select.push_back(e.get());
  tree = std::make_unique<ProjectOp>(std::move(tree), select);

  if (bq->distinct) {
    // Cardinality hint only meaningful when no aggregation collapsed the
    // stream first.
    uint64_t est = bq->has_aggregation
                       ? 0
                       : static_cast<uint64_t>(std::max(0.0, current_rows));
    tree = std::make_unique<DistinctOp>(std::move(tree), est);
  }
  if (!bq->order_by.empty()) {
    std::vector<SortKey> keys;
    for (const BoundOrderKey& k : bq->order_by) {
      keys.push_back(SortKey{k.output_index, k.asc});
    }
    tree = std::make_unique<SortOp>(std::move(tree), keys);
  }
  if (!bq->final_project.empty()) {
    // Drop hidden sort columns.
    std::vector<const Expr*> fin;
    for (const ExprPtr& e : bq->final_project) fin.push_back(e.get());
    tree = std::make_unique<ProjectOp>(std::move(tree), fin);
  }
  if (bq->limit >= 0) {
    tree = std::make_unique<LimitOp>(std::move(tree), bq->limit);
  }

  if (bq->subqueries.empty()) RemapToLayout(*bq, needed, layout);

  PlanResult out;
  out.root = std::move(tree);
  out.runner = std::move(runner);
  return out;
}

std::string PlanChoices::Summary() const {
  std::string out = str::Format(
      "scans{seq=%d index=%d parallel=%d} joins{hash=%d index_nl=%d nl=%d} "
      "aggs{hash=%d partial=%d} sort=%d distinct=%d limit=%d materialize=%d "
      "gather{nodes=%d dop=%d} subplans=%d",
      seq_scans, index_scans, parallel_scans, hash_joins, index_nl_joins,
      nl_joins, hash_aggs, partial_aggs, sorts, distincts, limits,
      materializes, gather_nodes, gather_dop, subquery_plans);
  // Appended only when present, keeping the rendering byte-identical for
  // plans over row tables.
  if (columnar_scans > 0) {
    out += str::Format(" columnar_scans=%d", columnar_scans);
  }
  return out;
}

namespace {

/// Counts plan-node kinds by their Describe() name prefixes. The plan text
/// is the one stable cross-layer contract for node identity (tests already
/// byte-compare it), so EXPLAIN-style counting beats adding a virtual kind
/// to every operator.
void CountPlanText(const std::string& text, PlanChoices* c) {
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    size_t first = text.find_first_not_of(' ', start);
    if (first != std::string::npos && first < end) {
      const char* line = text.c_str() + first;
      auto has_prefix = [line](const char* p) {
        return std::strncmp(line, p, std::strlen(p)) == 0;
      };
      if (has_prefix("SeqScan(")) {
        ++c->seq_scans;
      } else if (has_prefix("ColumnarScan(")) {
        ++c->columnar_scans;
      } else if (has_prefix("IndexScan(")) {
        ++c->index_scans;
      } else if (has_prefix("ParallelSeqScan(")) {
        ++c->parallel_scans;
      } else if (has_prefix("HashJoin(") || has_prefix("HashLeftOuterJoin(")) {
        ++c->hash_joins;
      } else if (has_prefix("IndexNLJoin(") || has_prefix("IndexNLOuterJoin(")) {
        ++c->index_nl_joins;
      } else if (has_prefix("NLJoin(") || has_prefix("NLOuterJoin(")) {
        ++c->nl_joins;
      } else if (has_prefix("HashAggregate(")) {
        ++c->hash_aggs;
      } else if (has_prefix("PartialHashAggregate(")) {
        ++c->partial_aggs;
      } else if (has_prefix("Sort(")) {
        ++c->sorts;
      } else if (has_prefix("Distinct")) {
        ++c->distincts;
      } else if (has_prefix("Limit(")) {
        ++c->limits;
      } else if (has_prefix("Materialize")) {
        ++c->materializes;
      } else if (has_prefix("Gather(dop=")) {
        ++c->gather_nodes;
        c->gather_dop = std::atoi(line + std::strlen("Gather(dop="));
      }
    }
    start = end + 1;
  }
}

void CountSubqueries(const SubqueryRunnerImpl* runner, PlanChoices* c) {
  if (runner == nullptr) return;
  for (const auto& cs : runner->subqueries) {
    ++c->subquery_plans;
    if (cs->root != nullptr) CountPlanText(cs->root->DebugString(), c);
    CountSubqueries(cs->runner.get(), c);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Bind-value peeking: bucket classification for the plan-variant cache
// ---------------------------------------------------------------------------

int PeekBucket(double est_fraction) {
  if (est_fraction <= 0.001) return 0;
  if (est_fraction <= 0.02) return 1;
  if (est_fraction <= 0.2) return 2;
  return 3;
}

PeekClassifier BuildPeekClassifier(const BoundQuery& bq) {
  PeekClassifier out;
  for (const ExprPtr& c : bq.conjuncts) {
    if (c == nullptr) continue;
    std::set<size_t> positions;
    CollectPositions(*c, bq, &positions);
    std::set<size_t> tables;
    for (size_t p : positions) {
      size_t t = TableOfPosition(bq, p);
      if (t != static_cast<size_t>(-1)) tables.insert(t);
    }
    if (tables.size() != 1) continue;
    const BoundTableRef& t = bq.tables[*tables.begin()];
    ColCompare cc;
    if (!MatchColCompare(*c, t, &cc)) continue;
    PeekClassifier::Entry e;
    e.table = t.table;
    e.column = cc.column;
    e.op = cc.op;
    e.is_between = cc.is_between;
    e.value = cc.value->Clone();
    if (cc.value2 != nullptr) e.value2 = cc.value2->Clone();
    out.entries.push_back(std::move(e));
  }
  return out;
}

double PeekEstimate(const PeekClassifier& c, const std::vector<Value>& params) {
  std::map<const TableInfo*, double> per_table;
  EvalContext ec;
  ec.params = &params;
  for (const PeekClassifier::Entry& e : c.entries) {
    const ColumnStats* s = StatsFor(*e.table, e.column);
    Value v;
    if (!EvalExpr(*e.value, ec, &v).ok()) continue;
    double sel;
    if (e.is_between) {
      Value v2;
      if (e.value2 == nullptr || !EvalExpr(*e.value2, ec, &v2).ok()) continue;
      if (s == nullptr) {
        sel = selectivity::kDefaultRange / 2;
      } else {
        double hi = selectivity::LessThan(*s, v2, /*use_histogram=*/true) +
                    selectivity::Equals(*s, v2, /*use_histogram=*/true);
        double lo = selectivity::LessThan(*s, v, /*use_histogram=*/true);
        sel = std::max(0.0, std::min(1.0, hi) - lo);
      }
    } else if (s == nullptr) {
      sel = e.op == CmpOp::kEq ? selectivity::kDefaultEquals
                               : selectivity::kDefaultRange;
    } else {
      switch (e.op) {
        case CmpOp::kEq:
          sel = selectivity::Equals(*s, v, true);
          break;
        case CmpOp::kLt:
        case CmpOp::kLe:
          sel = selectivity::LessThan(*s, v, true);
          break;
        case CmpOp::kGt:
        case CmpOp::kGe:
          sel = selectivity::GreaterThan(*s, v, true);
          break;
        case CmpOp::kNe:
        default:
          sel = 1.0 - selectivity::Equals(*s, v, true);
          break;
      }
    }
    per_table.emplace(e.table, 1.0).first->second *= sel;
  }
  double min_frac = 1.0;
  for (const auto& kv : per_table) min_frac = std::min(min_frac, kv.second);
  return min_frac;
}

Result<PhysicalPlan> Optimizer::Plan(std::unique_ptr<BoundQuery> bq) {
  R3_ASSIGN_OR_RETURN(PlanResult res, PlanQueryTree(bq.get()));
  PhysicalPlan plan;
  plan.root = std::move(res.root);
  plan.runner = std::move(res.runner);
  plan.output_schema = bq->output_schema;
  plan.column_names = bq->column_names;
  plan.num_params = bq->num_params;
  plan.query = std::move(bq);
  if (plan.root != nullptr) CountPlanText(plan.root->DebugString(), &plan.choices);
  CountSubqueries(plan.runner.get(), &plan.choices);

  MetricsRegistry* metrics = metrics_ != nullptr ? metrics_ : GlobalMetrics();
  const PlanChoices& c = plan.choices;
  metrics->GetCounter("rdbms.optimizer.plans")->Add(1);
  metrics->GetCounter("rdbms.optimizer.seq_scans")->Add(c.seq_scans);
  metrics->GetCounter("rdbms.optimizer.index_scans")->Add(c.index_scans);
  metrics->GetCounter("rdbms.optimizer.parallel_scans")->Add(c.parallel_scans);
  metrics->GetCounter("rdbms.optimizer.hash_joins")->Add(c.hash_joins);
  metrics->GetCounter("rdbms.optimizer.index_nl_joins")->Add(c.index_nl_joins);
  metrics->GetCounter("rdbms.optimizer.nl_joins")->Add(c.nl_joins);
  metrics->GetCounter("rdbms.optimizer.sorts")->Add(c.sorts);
  metrics->GetCounter("rdbms.optimizer.gather_nodes")->Add(c.gather_nodes);
  return plan;
}

}  // namespace rdbms
}  // namespace r3
