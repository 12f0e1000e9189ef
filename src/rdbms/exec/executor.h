#ifndef R3DB_RDBMS_EXEC_EXECUTOR_H_
#define R3DB_RDBMS_EXEC_EXECUTOR_H_

#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "common/trace.h"
#include "rdbms/catalog.h"
#include "rdbms/exec/join_table.h"
#include "rdbms/exec/key_range.h"
#include "rdbms/expr/eval.h"
#include "rdbms/expr/expr.h"
#include "rdbms/row.h"
#include "rdbms/row_batch.h"

namespace r3 {
namespace rdbms {

namespace txn {
class MvccManager;
struct Snapshot;
}  // namespace txn

/// Runtime state shared by the operators of one executing statement.
///
/// Operators are re-openable: a plan tree is built once (at prepare time)
/// and can be executed many times — the cursor-caching behaviour the paper's
/// Open SQL interface relies on. `outer_row` carries the correlation row
/// while a subquery plan executes.
struct ExecContext {
  BufferPool* pool = nullptr;
  SimClock* clock = nullptr;
  const std::vector<Value>* params = nullptr;
  SubqueryRunner* subqueries = nullptr;
  const Row* outer_row = nullptr;
  size_t work_mem_bytes = 4u << 20;  ///< sort/aggregate memory budget
  /// Worker-thread budget for parallel (Gather) plan fragments. The plan's
  /// own degree of parallelism is fixed by the optimizer; this only caps how
  /// many OS threads execute it (1 = run all lanes on the calling thread).
  int dop = 1;
  /// Rows per RowBatch for operator-internal pulls (1 = legacy
  /// row-at-a-time shape). A pure execution knob: results and simulated
  /// times are identical at any value (DESIGN.md §6).
  size_t batch_size = kDefaultBatchRows;
  /// Monotonic id of the top-level statement execution this context belongs
  /// to. Operators compare it against the epoch of their accumulated stats
  /// and zero them when it moves on — a cached (prepared) plan re-executed
  /// on a reused Database reports per-statement counters, not lifetime
  /// totals (DESIGN.md §7).
  uint64_t statement_epoch = 0;

  /// MVCC hooks for snapshot-isolation reads: scan/index operators consult
  /// `mvcc` with `snapshot` to decide which version of each heap row this
  /// statement sees. Both null (WAL/MVCC off, or DML internals) = read the
  /// heap as-is — the pre-MVCC behavior, byte for byte.
  txn::MvccManager* mvcc = nullptr;
  const txn::Snapshot* snapshot = nullptr;

  /// Query-wide operator counters, summed across the operators of the
  /// top-level plan (EXPLAIN ANALYZE sets this; normal execution and
  /// subquery contexts leave it null).
  struct Totals {
    int64_t rows = 0;     ///< rows exchanged between operators
    int64_t batches = 0;  ///< non-empty batches exchanged
    int64_t opens = 0;
    int64_t closes = 0;
  };
  Totals* totals = nullptr;

  EvalContext MakeEvalContext(const Row* row) const {
    EvalContext ec;
    ec.row = row;
    ec.outer = outer_row;
    ec.params = params;
    ec.subqueries = subqueries;
    return ec;
  }
};

/// Per-operator runtime counters, accumulated across the operator's
/// lifetime by the non-virtual Open/NextBatch/Close wrappers.
struct OperatorStats {
  int64_t rows_out = 0;
  int64_t batches_out = 0;
  int64_t opens = 0;
  int64_t closes = 0;
  /// Inclusive simulated time (this operator plus its inputs), measured as
  /// the shared-clock delta across Open and every NextBatch call.
  int64_t sim_us = 0;
};

/// Batch-at-a-time (vectorized Volcano) operator. All rows exchanged
/// between operators of one query level share one row layout, except
/// downstream of aggregation/projection where the layouts documented in
/// plan/logical_plan.h apply. A level without subqueries uses the
/// optimizer's compact layout: each table's needed columns, contiguous, in
/// FROM order. A level with subqueries keeps the binder's "wide row", the
/// concatenation of every table's columns (DESIGN.md §6).
///
/// NextBatch contract: the wrapper clears `*out`; the operator fills at
/// most `out->capacity()` rows and returns true iff it produced at least
/// one (false is sticky until the next Open, and implies an empty batch).
/// Partial batches do NOT signal exhaustion. Operators must bound every
/// child pull by the caller's capacity so early-exiting consumers (LIMIT,
/// EXISTS/scalar subqueries) trigger exactly the work — and therefore the
/// simulated charges — of the row-at-a-time engine.
class Operator {
 public:
  virtual ~Operator() = default;

  /// (Re)initializes; must be callable repeatedly.
  Status Open(ExecContext* ctx);

  /// Produces the next batch of rows into `*out` (cleared first); returns
  /// false when exhausted.
  Result<bool> NextBatch(RowBatch* out);

  Status Close();

  /// Width of rows this operator produces.
  virtual size_t OutputWidth() const = 0;

  /// Human-readable plan node for EXPLAIN-style rendering. With `analyze`,
  /// nodes append their runtime counters (see StatsSuffix).
  virtual std::string Describe(bool analyze) const = 0;

  /// Plan rendering without runtime counters (byte-identical to the
  /// pre-batch engine's output).
  std::string DebugString() const { return Describe(false); }

  const OperatorStats& stats() const { return stats_; }

  /// Optimizer's estimated output cardinality for this node (0 = none
  /// recorded). EXPLAIN ANALYZE renders est-vs-actual drift from it; plain
  /// EXPLAIN output is unaffected.
  void set_est_rows(uint64_t est) { est_rows_ = est; }
  uint64_t est_rows() const { return est_rows_; }

 protected:
  virtual Status OpenImpl(ExecContext* ctx) = 0;
  virtual Result<bool> NextBatchImpl(RowBatch* out) = 0;
  virtual Status CloseImpl() = 0;

  /// " [rows=... batches=... opens=... sim=...us]" when `analyze`, else "".
  std::string StatsSuffix(bool analyze) const;

 private:
  OperatorStats stats_;
  uint64_t est_rows_ = 0;
  SimClock* stats_clock_ = nullptr;
  ExecContext::Totals* totals_ = nullptr;
  uint64_t stats_epoch_ = 0;
  /// Trace state: one "exec" span per Open→Close cycle (suppressed inside
  /// worker lanes and when no tracer is attached).
  uint64_t span_token_ = Tracer::kInactive;
  int64_t span_rows_base_ = 0;
  std::string span_name_;  ///< cached first line of Describe(false)
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Renders the plan tree (indented, one node per line). With `analyze`,
/// every node is annotated with its accumulated runtime counters.
std::string ExplainPlan(const Operator& root, bool analyze = false);

/// Indents every line of a child's Describe() text by two spaces.
std::string Indent(const std::string& s);

/// Caps speculative reserve() sizing so a wild cardinality estimate cannot
/// allocate an absurd hash table up front.
size_t CappedReserve(uint64_t est_rows);

// ---------------------------------------------------------------------------
// Scans
// ---------------------------------------------------------------------------

/// Full scan of `table` through its storage engine's ScanCursor, emitting
/// rows of `wide_width` values with the table's columns at `offset` and
/// NULL elsewhere; applies pushed-down filters. Renders as "SeqScan" over the row heap and
/// "ColumnarScan" over the columnar engine — same operator, different
/// engine-provided cursor.
///
/// Batched: the cursor stages one heap page (or columnar chunk) per fill
/// step, releasing any page pin before filters run so predicates with
/// subqueries cannot pile up pins.
///
/// `needed_cols` (table-local indices, ascending) is the optimizer's
/// projection set: every engine decodes only those columns, the k-th at
/// `offset + k` (DecodeRowInto). Empty optional = all columns, column c at
/// `offset + c`.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(const TableInfo* table, size_t offset, size_t wide_width,
            std::vector<const Expr*> filters,
            std::optional<std::vector<size_t>> needed_cols);

  size_t OutputWidth() const override { return wide_width_; }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  /// Fills the engine scan spec: MVCC context, projection set, and — for
  /// dictionary-compressed engines — string-equality predicates that can be
  /// pre-filtered on dictionary codes (the predicates stay in `filters_`
  /// and are re-checked on materialized survivors).
  Status BuildScanSpec(ExecContext* ctx, ScanSpec* spec) const;

  const TableInfo* table_;
  size_t offset_;
  size_t wide_width_;
  std::vector<const Expr*> filters_;
  std::optional<std::vector<size_t>> needed_cols_;
  ExecContext* ctx_ = nullptr;
  std::unique_ptr<ScanCursor> cursor_;
  bool done_ = false;
  SelVector sel_;
};

/// Index range scan + heap fetch over a KeyRangeCursor; the random fetches
/// charge the cost model through the buffer pool (the Table 6 effect).
/// Bounds are evaluated once per Open (literals and `?` parameters).
/// Decodes only `needed_cols` of each fetched row, like SeqScanOp.
class IndexScanOp : public Operator {
 public:
  IndexScanOp(const TableInfo* table, const IndexInfo* index, size_t offset,
              size_t wide_width, IndexBounds bounds,
              std::vector<const Expr*> residual_filters,
              std::optional<std::vector<size_t>> needed_cols);

  size_t OutputWidth() const override { return wide_width_; }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  const TableInfo* table_;
  const IndexInfo* index_;
  size_t offset_;
  size_t wide_width_;
  IndexBounds bounds_;
  std::vector<const Expr*> filters_;
  std::optional<std::vector<size_t>> needed_cols_;
  ExecContext* ctx_ = nullptr;
  KeyRangeCursor range_;
  std::string rec_;  // heap-fetch scratch
  SelVector sel_;
};

// ---------------------------------------------------------------------------
// Streaming transforms
// ---------------------------------------------------------------------------

/// Applies residual predicates, compacting each child batch down to the
/// surviving rows via a selection vector.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, std::vector<const Expr*> predicates);

  size_t OutputWidth() const override { return child_->OutputWidth(); }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<const Expr*> predicates_;
  ExecContext* ctx_ = nullptr;
  RowBatch child_batch_;
  SelVector sel_;
};

/// Evaluates the select list, producing output rows.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<const Expr*> exprs);

  size_t OutputWidth() const override { return exprs_.size(); }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<const Expr*> exprs_;
  ExecContext* ctx_ = nullptr;
  RowBatch child_batch_;
};

/// Stops after `limit` rows, shrinking the pull capacity to the remaining
/// count so a cut mid-batch never pulls (or charges for) surplus rows.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit);

  size_t OutputWidth() const override { return child_->OutputWidth(); }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

/// Drops duplicate rows (hash-based). `est_rows` (0 = unknown) pre-sizes the
/// hash set from the optimizer's cardinality estimate.
class DistinctOp : public Operator {
 public:
  explicit DistinctOp(OperatorPtr child, uint64_t est_rows = 0);

  size_t OutputWidth() const override { return child_->OutputWidth(); }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr child_;
  uint64_t est_rows_;
  ExecContext* ctx_ = nullptr;
  std::unordered_set<std::string> seen_;
  std::string key_scratch_;
  RowBatch child_batch_;
};

/// Materializes and re-emits child rows; Open() after the first run replays
/// from memory. Used as the inner of nested-loops joins.
class MaterializeOp : public Operator {
 public:
  /// With `cacheable` false the child is re-run on every Open — required
  /// when the subtree's output depends on correlation (outer refs) or
  /// parameters that change between Opens.
  explicit MaterializeOp(OperatorPtr child, bool cacheable = true);

  size_t OutputWidth() const override { return child_->OutputWidth(); }
  std::string Describe(bool analyze) const override;

  /// Accesses the materialized rows after Open.
  const std::vector<Row>& rows() const { return rows_; }

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr child_;
  bool cacheable_;
  bool loaded_ = false;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  RowBatch child_batch_;
};

// ---------------------------------------------------------------------------
// Joins (join_ops.cc)
// ---------------------------------------------------------------------------

/// The contiguous row range a join's inner side fills: its table's
/// positions in the level's row layout.
struct FilledRange {
  size_t offset = 0;
  size_t width = 0;
};

/// Hash join: builds on `build`, probes with `probe`, merging rows. The
/// JoinTable keeps only the `build_range` values of each build row and
/// copies them back into a copy of the probe row. With `preserve_probe`
/// (left-outer semantics where the probe side is the preserved side), probe
/// rows without a match are emitted with the build range left NULL.
/// `est_build_rows` (0 = unknown) sizes the table's slot array from the
/// optimizer's cardinality estimate. When the build child is a GatherOp,
/// the table is built by its worker pool (partitioned build).
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr build, OperatorPtr probe,
             std::vector<const Expr*> build_keys,
             std::vector<const Expr*> probe_keys,
             std::vector<const Expr*> residual,
             FilledRange build_range, bool preserve_probe,
             uint64_t est_build_rows = 0);

  size_t OutputWidth() const override { return probe_->OutputWidth(); }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr build_;
  OperatorPtr probe_;
  std::vector<const Expr*> build_keys_;
  std::vector<const Expr*> probe_keys_;
  std::vector<const Expr*> residual_;
  FilledRange build_range_;
  bool preserve_probe_;
  uint64_t est_build_rows_;

  ExecContext* ctx_ = nullptr;
  JoinTable table_;
  std::string key_scratch_;
  RowBatch probe_batch_;
  size_t probe_pos_ = 0;
  bool have_probe_ = false;
  uint32_t match_ = JoinTable::kEnd;  ///< next build row to merge
  bool emitted_for_probe_ = false;
  bool probe_done_ = false;
};

/// Index nested-loops join: for each left row, evaluates the key
/// expressions and probes `index`, fetching matching heap rows of `table`
/// into the row at `table_offset` (only `needed_cols` of them, like
/// SeqScanOp). One
/// round of random I/O per probe — the expensive pattern the paper's 2.2
/// Open SQL reports exhibit server-side.
class IndexNLJoinOp : public Operator {
 public:
  IndexNLJoinOp(OperatorPtr left, const TableInfo* table,
                const IndexInfo* index, size_t table_offset,
                std::vector<const Expr*> key_exprs,
                std::vector<const Expr*> residual, bool preserve_left,
                std::optional<std::vector<size_t>> needed_cols);

  size_t OutputWidth() const override { return left_->OutputWidth(); }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr left_;
  const TableInfo* table_;
  const IndexInfo* index_;
  size_t table_offset_;
  IndexBounds keys_;  ///< equality prefix only, over the left row
  std::vector<const Expr*> residual_;
  bool preserve_left_;
  std::optional<std::vector<size_t>> needed_cols_;

  ExecContext* ctx_ = nullptr;
  RowBatch left_batch_;
  size_t left_pos_ = 0;
  bool have_left_ = false;
  bool left_done_ = false;
  KeyRangeCursor range_;  ///< the current left row's probe
  bool emitted_for_left_ = false;
  std::string rec_;  // heap-fetch scratch
};

/// Nested-loops join over a materialized right side, with an arbitrary
/// predicate (used for non-equi joins and cross products).
class NestedLoopsJoinOp : public Operator {
 public:
  NestedLoopsJoinOp(OperatorPtr left, OperatorPtr right,
                    std::vector<const Expr*> predicates,
                    FilledRange right_range, bool preserve_left);

  size_t OutputWidth() const override { return left_->OutputWidth(); }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr left_;
  std::unique_ptr<MaterializeOp> right_;
  std::vector<const Expr*> predicates_;
  FilledRange right_range_;
  bool preserve_left_;

  ExecContext* ctx_ = nullptr;
  RowBatch left_batch_;
  size_t left_pos_ = 0;
  bool have_left_ = false;
  bool left_done_ = false;
  size_t right_pos_ = 0;
  bool emitted_for_left_ = false;
};

// ---------------------------------------------------------------------------
// Aggregation (agg_ops.cc)
// ---------------------------------------------------------------------------

/// Hash aggregation. Output rows: [group values..., aggregate results...].
/// Without GROUP BY, emits exactly one row (aggregates over the empty input
/// follow SQL: COUNT = 0, SUM/AVG/MIN/MAX = NULL). `est_input_rows`
/// (0 = unknown) pre-sizes the hash table from the optimizer's estimate.
class HashAggOp : public Operator {
 public:
  HashAggOp(OperatorPtr child, std::vector<const Expr*> group_exprs,
            std::vector<const Expr*> agg_calls, uint64_t est_input_rows = 0);

  size_t OutputWidth() const override {
    return group_exprs_.size() + agg_calls_.size();
  }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr child_;
  uint64_t est_input_rows_;
  std::vector<const Expr*> group_exprs_;
  std::vector<const Expr*> agg_calls_;
  ExecContext* ctx_ = nullptr;
  std::vector<Row> results_;
  size_t pos_ = 0;
  RowBatch child_batch_;
};

// ---------------------------------------------------------------------------
// Sorting (sort_ops.cc)
// ---------------------------------------------------------------------------

struct SortKey {
  size_t column = 0;  ///< position in the child's output row
  bool asc = true;
};

/// Full sort of the child's rows. When the data exceeds the work-memory
/// budget, external-sort I/O (run write + merge read) is charged to the
/// simulated clock — in-memory execution stays exact either way.
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys);

  size_t OutputWidth() const override { return child_->OutputWidth(); }
  std::string Describe(bool analyze) const override;

 protected:
  Status OpenImpl(ExecContext* ctx) override;
  Result<bool> NextBatchImpl(RowBatch* out) override;
  Status CloseImpl() override;

 private:
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  std::vector<Row> rows_;
  size_t pos_ = 0;
  RowBatch child_batch_;
};

/// Encodes a row (or a subset of its values) into a canonical byte string
/// usable as a hash/equality key.
std::string RowKey(const Row& row);
std::string ValuesKey(const std::vector<Value>& values);

/// Evaluates equi-join key expressions into a canonical byte key, appending
/// to a caller-owned (reusable) buffer after clearing it. Numerics are
/// normalized to double so INT 5 and DECIMAL 5.00 meet; `*null_key` is set
/// when any key value is NULL (SQL equi-join never matches on NULL).
/// Shared by HashJoinOp and the parallel partitioned join build.
Status EvalJoinKey(const std::vector<const Expr*>& keys, const EvalContext& ec,
                   std::string* out, bool* null_key);

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_EXEC_EXECUTOR_H_
