#ifndef R3DB_RDBMS_OPTIMIZER_OPTIMIZER_H_
#define R3DB_RDBMS_OPTIMIZER_OPTIMIZER_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "rdbms/catalog.h"
#include "rdbms/exec/executor.h"
#include "rdbms/plan/logical_plan.h"

namespace r3 {
namespace rdbms {

struct PlannerOptions {
  /// When a predicate's constant is a `?` parameter the optimizer cannot
  /// estimate selectivity. True reproduces the paper's commercial RDBMS:
  /// "the optimizer ... blindly generates a plan" that prefers the index
  /// (Section 4.1 / Table 6). False falls back to a sequential scan.
  bool blind_prefers_index = true;

  /// Master switch for index-nested-loops joins.
  bool enable_index_nl_join = true;

  /// Degree of intra-query parallelism plans may use (1 = serial plans
  /// only). Parallel plans fix their lane count at plan time, so results
  /// and simulated times depend on this value, not on the executing
  /// machine. Database::set_dop() changes it on a live database.
  int dop = 1;

  /// Minimum estimated base-table cardinality before a parallel (Gather)
  /// scan is worth its startup cost.
  uint64_t parallel_threshold_rows = 5000;

  /// Optimizer v2 master switch: bind-value peeking plus everything that
  /// rides on it — histogram-routed selectivity, the split per-engine
  /// OptimizerCosts index formulas, and multi-range index access. Off (the
  /// default) keeps every plan, estimate, and simulated time byte-identical
  /// to the pre-v2 optimizer; the Table 6 blindness repro stays intact.
  bool bind_peeking = false;
};

/// Selectivity-bucket classification for the parameter-sensitive plan
/// cache: estimated fraction ≤0.1% / ≤2% / ≤20% / rest.
int PeekBucket(double est_fraction);
inline constexpr int kPeekBuckets = 4;

/// The per-statement classifier the plan-variant cache uses to map bind
/// values to a selectivity bucket without re-planning. Built once from the
/// bound query at first compile; entries clone the comparison value
/// expressions so they outlive the (consumed) BoundQuery.
struct PeekClassifier {
  struct Entry {
    const TableInfo* table = nullptr;
    size_t column = 0;  ///< table-local
    CmpOp op = CmpOp::kEq;
    bool is_between = false;
    ExprPtr value;   ///< comparison constant (may reference params)
    ExprPtr value2;  ///< BETWEEN upper bound
  };
  std::vector<Entry> entries;
};

/// Extracts the classifier from a bound query's single-table predicates.
PeekClassifier BuildPeekClassifier(const BoundQuery& bq);

/// Estimated fraction of the driving table selected under `params`:
/// per-table product of predicate selectivities (histogram-backed), then
/// the minimum across tables. 1.0 when nothing is estimable.
double PeekEstimate(const PeekClassifier& c, const std::vector<Value>& params);

/// A compiled subquery plan plus its (per-execution) caches.
struct CompiledSubquery;

/// Executes compiled subquery plans; one instance per query nesting level.
class SubqueryRunnerImpl : public SubqueryRunner {
 public:
  SubqueryRunnerImpl() = default;
  ~SubqueryRunnerImpl() override;

  Status RunScalar(size_t idx, const Row* outer, Value* out) override;
  Status RunExists(size_t idx, const Row* outer, bool* out) override;
  Status RunInProbe(size_t idx, const Row* outer, const Value& probe,
                    Value* out) override;

  /// Gives the runner (recursively) the executing statement's context and
  /// clears value caches. Call once per statement execution: subquery
  /// plans then run with the statement's params, snapshot, batch size and
  /// epoch.
  void Bind(const ExecContext& ctx);

  std::vector<std::unique_ptr<CompiledSubquery>> subqueries;

 private:
  /// The statement's context with this subquery's runner and correlation
  /// row; `totals` stays null, so EXPLAIN ANALYZE totals count top-level
  /// operators only.
  ExecContext MakeContext(CompiledSubquery* cs, const Row* outer) const;

  ExecContext ctx_;
};

struct CompiledSubquery {
  SubqueryKind kind = SubqueryKind::kScalar;
  bool correlated = false;
  OperatorPtr root;
  std::unique_ptr<SubqueryRunnerImpl> runner;  ///< for its own subqueries
  /// Non-owning: the BoundQuery stays owned by its parent query's
  /// `subqueries` vector (which PhysicalPlan::query keeps alive).
  BoundQuery* query = nullptr;

  // Per-execution caches (uncorrelated only).
  bool scalar_cached = false;
  Value scalar_value;
  bool exists_cached = false;
  bool exists_value = false;
  bool in_set_cached = false;
  std::unordered_set<std::string> in_set;
  bool in_set_has_null = false;

  /// Reusable pull scratch for this subquery's executions.
  RowBatch scratch;
};

/// What the planner decided for one statement — the per-plan slice of the
/// paper's "which access path / join method did the optimizer pick" story.
/// Counted over the main tree plus all (nested) subquery plans.
struct PlanChoices {
  int seq_scans = 0;
  int index_scans = 0;
  int parallel_scans = 0;
  int columnar_scans = 0;
  int hash_joins = 0;
  int index_nl_joins = 0;
  int nl_joins = 0;
  int hash_aggs = 0;
  int partial_aggs = 0;
  int sorts = 0;
  int distincts = 0;
  int limits = 0;
  int materializes = 0;
  int gather_nodes = 0;
  int gather_dop = 0;  ///< dop of the plan's Gather nodes (0 = serial plan)
  int subquery_plans = 0;

  /// One-line rendering for EXPLAIN ANALYZE / the performance monitor.
  std::string Summary() const;
};

/// A ready-to-execute statement: operator tree + subquery machinery +
/// ownership of all bound expressions.
struct PhysicalPlan {
  OperatorPtr root;
  std::unique_ptr<SubqueryRunnerImpl> runner;
  std::unique_ptr<BoundQuery> query;  ///< keeps Expr nodes alive
  Schema output_schema;
  std::vector<std::string> column_names;
  size_t num_params = 0;
  PlanChoices choices;

  std::string Explain() const { return root ? ExplainPlan(*root) : "<empty>"; }
};

/// Cost-based physical planner: access-path selection from statistics,
/// greedy join ordering, join-algorithm choice (index-NL vs hash vs NL),
/// and naive (nested re-execution) subquery compilation — deliberately
/// matching the behaviour the paper observed in its commercial RDBMS.
class Optimizer {
 public:
  /// `metrics` (null = GlobalMetrics()) receives `rdbms.optimizer.*`
  /// counters for every plan produced. `peeked` (null = none) are the bind
  /// values the planner sees when `options.bind_peeking` is on:
  /// parameterized predicates are then estimated like literals.
  Optimizer(const Catalog* catalog, PlannerOptions options,
            MetricsRegistry* metrics = nullptr,
            const std::vector<Value>* peeked = nullptr)
      : catalog_(catalog),
        options_(options),
        metrics_(metrics),
        peeked_(peeked) {}

  /// Consumes the bound query and produces an executable plan.
  Result<PhysicalPlan> Plan(std::unique_ptr<BoundQuery> bq);

 private:
  struct PlanResult {
    OperatorPtr root;
    std::unique_ptr<SubqueryRunnerImpl> runner;
  };

  Result<PlanResult> PlanQueryTree(BoundQuery* bq);

  const Catalog* catalog_;
  PlannerOptions options_;
  MetricsRegistry* metrics_;
  const std::vector<Value>* peeked_;
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_OPTIMIZER_OPTIMIZER_H_
