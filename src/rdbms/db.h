#ifndef R3DB_RDBMS_DB_H_
#define R3DB_RDBMS_DB_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "common/trace.h"
#include "rdbms/catalog.h"
#include "rdbms/optimizer/optimizer.h"
#include "rdbms/sql/ast.h"
#include "rdbms/storage/buffer_pool.h"
#include "rdbms/storage/disk.h"
#include "rdbms/txn/txn_manager.h"

namespace r3 {
namespace rdbms {

struct DatabaseOptions {
  /// RDBMS buffer cache. 10 MB is what SAP R/3 configures by default for
  /// its back-end (Section 3.3 of the paper); benches keep this setting.
  size_t buffer_pool_bytes = 10u << 20;
  size_t work_mem_bytes = 4u << 20;
  /// Rows per RowBatch in the execution pipeline (1 = row-at-a-time shape).
  /// Purely a wall-clock knob: results and simulated times do not depend on
  /// it (DESIGN.md §6).
  size_t batch_rows = kDefaultBatchRows;
  /// OS worker-thread cap for parallel plan fragments; 0 (default) follows
  /// `planner.dop`. Unlike `planner.dop` — which fixes the *plan's* lane
  /// count and thereby results and simulated times — this is purely a
  /// wall-clock knob: the same dop-N plan runs its N lanes on up to
  /// `exec_threads` threads with identical simulated behaviour (DESIGN.md
  /// §7).
  int exec_threads = 0;
  /// Storage engine for tables created without an explicit ENGINE clause.
  EngineKind default_engine = EngineKind::kRowHeap;
  /// Registry for `rdbms.*` (and, via the AppServer, `appsys.*`) metrics.
  /// Null uses the process-wide GlobalMetrics(). Benches that build several
  /// systems side by side pass one registry per system.
  MetricsRegistry* metrics = nullptr;
  /// Plan-shaping settings, among them the degree of intra-query
  /// parallelism (`planner.dop`, 1 = serial, the paper's setting).
  PlannerOptions planner;
};

/// A materialized query result.
struct QueryResult {
  Schema schema;
  std::vector<std::string> column_names;
  std::vector<Row> rows;
};

/// A compiled statement, reusable with different parameter bindings —
/// the substrate for SAP R/3's cursor caching. Shared by the plan cache
/// and the cursors open on it.
class PreparedStatement
    : public std::enable_shared_from_this<PreparedStatement> {
 public:
  const Schema& output_schema() const { return plan_.output_schema; }
  const std::vector<std::string>& column_names() const {
    return plan_.column_names;
  }
  size_t num_params() const { return plan_.num_params; }
  std::string ExplainPlan() const { return plan_.Explain(); }

 private:
  friend class Database;
  friend class Cursor;
  PhysicalPlan plan_;
};

/// An open server-side cursor over a prepared statement: the unit the app
/// server's Open SQL layer fetches from, one batch per FetchBatch call.
/// Movable; closing (or destroying) releases the plan for the next open.
class Cursor {
 public:
  Cursor() = default;
  ~Cursor();

  Cursor(Cursor&&) noexcept = default;
  Cursor& operator=(Cursor&&) noexcept = default;
  Cursor(const Cursor&) = delete;
  Cursor& operator=(const Cursor&) = delete;

  bool valid() const { return state_ != nullptr; }
  const Schema& output_schema() const;
  const std::vector<std::string>& column_names() const;

  /// Fills `*batch` with up to `batch->capacity()` result rows; returns
  /// false when the cursor is exhausted (the batch is then empty).
  Result<bool> FetchBatch(RowBatch* batch);

  /// Closes the underlying plan. Idempotent; the destructor calls it too.
  Status Close();

 private:
  friend class Database;

  /// Heap-allocated so the ExecContext's pointer to `params` survives moves
  /// of the Cursor object.
  struct State {
    std::shared_ptr<PreparedStatement> stmt;
    std::vector<Value> params;
    /// Pins the statement's snapshot-isolation view (and its GC horizon)
    /// for the cursor's whole open..close window, so rows written by other
    /// transactions after the open never appear in later FetchBatch calls.
    std::shared_ptr<const txn::Snapshot> snapshot;
    ExecContext ctx;
    bool done = false;
    TraceSpan span;  ///< "sql/execute" span covering open..close
  };
  std::unique_ptr<State> state_;
};

/// The embedded relational database: the stand-in for the paper's unnamed
/// commercial back-end RDBMS.
///
/// Not thread-safe (one session). Statements outside Begin()/Commit() run
/// in autocommit: every statement either fully applies or reports an error
/// with best-effort cleanup of partial index entries. Explicit transactions
/// add multi-statement atomicity (Rollback undoes every record write since
/// Begin) and — once EnableWal() is on — crash durability with redo-only
/// recovery (DESIGN.md §8). WAL is off by default; nothing changes for
/// databases that never call EnableWal().
class Database {
 public:
  /// `clock` is shared with whatever runs on top (the application server);
  /// pass null to let the database own a private clock.
  explicit Database(SimClock* clock = nullptr, DatabaseOptions options = {});

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Catalog* catalog() { return catalog_.get(); }
  const Catalog* catalog() const { return catalog_.get(); }
  BufferPool* pool() { return pool_.get(); }
  SimClock* clock() { return clock_; }
  MetricsRegistry* metrics() const { return metrics_; }
  const DatabaseOptions& options() const { return options_; }

  /// Changes the degree of parallelism for subsequent statements. Plans fix
  /// their lane count at compile time, so the plan cache is flushed.
  void set_dop(int dop);
  int dop() const { return options_.planner.dop; }

  /// Changes the execution batch size for subsequent statements (min 1).
  /// Plans don't embed it, so cached prepared statements stay valid.
  void set_batch_rows(size_t batch_rows);
  size_t batch_rows() const { return options_.batch_rows; }

  /// Caps the OS worker threads for parallel fragments (0 = follow dop).
  /// A pure wall-clock knob: plans, results, and simulated times are
  /// unaffected, so cached prepared statements stay valid.
  void set_exec_threads(int n) { options_.exec_threads = n < 0 ? 0 : n; }
  int exec_threads() const { return options_.exec_threads; }

  // -- Transactions ---------------------------------------------------------

  /// Starts an explicit transaction (one at a time per session).
  Status Begin();

  /// Commits: forces the WAL (when enabled) so the transaction is durable
  /// before control returns, then releases its locks. On a WAL write
  /// failure (injected crash) the transaction stays open and the database
  /// must be crashed + recovered.
  Status Commit();

  /// Undoes every record write of the active transaction (reverse order,
  /// in memory), releases its locks, and resets per-statement execution
  /// state (operator-stats epoch, SimClock lane binding) so a reused
  /// connection starts the next statement clean.
  Status Rollback();

  bool in_txn() const { return txn_mgr_->in_txn(); }

  /// Turns on write-ahead logging with the current contents as the durable
  /// baseline (schema + loaded data are the fixture; only changes after
  /// this call are logged). Idempotent.
  Status EnableWal();

  /// Fuzzy checkpoint: flushes committed dirty pages, records the redo
  /// point, truncates the log.
  Status Checkpoint();

  /// Simulates the process image dying: every non-flushed buffer page and
  /// every non-flushed WAL record is lost; the active transaction (if any)
  /// evaporates. The Disk plays the surviving storage device.
  Status SimulateCrash();

  /// Restart recovery after SimulateCrash(): log scan, redo committed work,
  /// discard losers, rebuild derived state, checkpoint.
  Status Recover();

  /// Order-independent checksum over a table's live rows (content only, not
  /// RIDs — stable across record relocation). For refresh-idempotence and
  /// crash-recovery verification.
  Result<uint64_t> TableChecksum(const std::string& table) const;

  txn::TxnManager* txn_manager() { return txn_mgr_.get(); }
  /// Null until EnableWal().
  txn::Wal* wal() { return txn_mgr_->wal(); }

  // -- SQL entry points -----------------------------------------------------

  /// Parses, plans, and runs a statement of any kind. For SELECTs the rows
  /// land in `*result` (if non-null); DML sets `*affected_rows`.
  Status Execute(const std::string& sql, const std::vector<Value>& params = {},
                 QueryResult* result = nullptr, int64_t* affected_rows = nullptr);

  /// SELECT convenience wrapper.
  Result<QueryResult> Query(const std::string& sql,
                            const std::vector<Value>& params = {});

  /// Compiles a SELECT once; cached by statement text (a hard parse is
  /// charged only on the first call — parameterized re-execution is what
  /// makes cursor caching pay). Valid until the next plan-cache flush.
  Result<PreparedStatement*> Prepare(const std::string& sql);

  /// What one plan-cache lookup decided (optimizer v2 telemetry).
  struct BindPeekInfo {
    bool peeked = false;        ///< false = peeking off, un-peeked plan
    int bucket = -1;            ///< selectivity bucket; -1 = un-peeked
    double est_fraction = 1.0;  ///< peeked selectivity estimate
    bool hit = false;           ///< reused a cached plan (no compile)
  };

  /// Bind-value-peeking Prepare (optimizer v2): classifies `params` into a
  /// selectivity bucket and keeps one compiled plan variant per
  /// (statement, bucket) — a parameter-sensitive plan cache. Re-executions
  /// in a known bucket reuse the variant without a hard parse; crossing a
  /// bucket boundary compiles one new variant. When `bind_peeking()` is off
  /// this is Prepare() — byte-identical to the v1 path.
  Result<PreparedStatement*> PrepareWithParams(const std::string& sql,
                                               const std::vector<Value>& params,
                                               BindPeekInfo* info = nullptr);

  /// Toggles bind-value peeking (optimizer v2 master switch). Cached plans
  /// embed the peeking decision, so the plan cache is flushed.
  void set_bind_peeking(bool on);
  bool bind_peeking() const { return options_.planner.bind_peeking; }

  /// Runs a prepared SELECT with the given parameter bindings.
  Result<QueryResult> ExecutePrepared(PreparedStatement* stmt,
                                      const std::vector<Value>& params = {});

  /// Opens a server-side cursor on a prepared statement: binds `params`,
  /// opens the plan, and returns a Cursor to FetchBatch from. One cursor at
  /// a time per PreparedStatement (the plan tree is single-use until
  /// closed).
  Result<Cursor> OpenCursor(PreparedStatement* stmt,
                            const std::vector<Value>& params = {});

  /// Plans a SELECT and renders the physical plan without running it.
  Result<std::string> Explain(const std::string& sql);

  /// Plans a SELECT under the given bind values with peeking forced on and
  /// renders the bucket classification, peeked selectivity, and per-engine
  /// calibrated optimizer costs ahead of the chosen plan.
  Result<std::string> Explain(const std::string& sql,
                              const std::vector<Value>& params);

  /// Plans, runs, and renders the physical plan annotated with per-operator
  /// runtime counters (rows/batches/opens/simulated time) plus query-wide
  /// totals — the EXPLAIN ANALYZE view.
  Result<std::string> ExplainAnalyze(const std::string& sql,
                                     const std::vector<Value>& params = {});

  // -- Direct (non-SQL) row interface; used by bulk loaders ------------------

  /// Validates NOT NULL + CHAR widths, casts values to the declared column
  /// types, inserts, and maintains all indexes.
  Status InsertRow(const std::string& table, const Row& row);

  /// Refreshes optimizer statistics (empty name = all tables); flushes plans.
  Status Analyze(const std::string& table = "");

  // -- Introspection ----------------------------------------------------------

  struct TableSize {
    std::string name;
    uint64_t rows = 0;
    uint64_t data_kb = 0;
    uint64_t index_kb = 0;
  };

  /// Allocated sizes per table (Table 2 of the paper).
  Result<std::vector<TableSize>> TableSizes() const;

 private:
  /// The one-shot SELECT path: compiles (hard parse charged) and runs.
  Status ExecuteSelect(const SelectStmt& stmt, const std::vector<Value>& params,
                       QueryResult* result);
  Status ExecuteInsert(const InsertStmt& stmt, const std::vector<Value>& params,
                       int64_t* affected);
  Status ExecuteDelete(const DeleteStmt& stmt, const std::vector<Value>& params,
                       int64_t* affected);
  Status ExecuteUpdate(const UpdateStmt& stmt, const std::vector<Value>& params,
                       int64_t* affected);
  Status ExecuteCreateTable(const CreateTableStmt& stmt);

  /// Binds an expression against a single table's schema (for DML WHERE /
  /// SET clauses; no subqueries or aggregates).
  Status BindTableExpr(const TableInfo& table, Expr* e) const;

  /// Finds rows matching `where` (index-assisted when its equality
  /// conjuncts cover an index prefix; heap scan otherwise).
  Status CollectMatches(TableInfo* table, const Expr* where,
                        const std::vector<Value>& params,
                        std::vector<std::pair<Rid, Row>>* out);

  Status InsertRowChecked(TableInfo* table, Row row, Rid* rid_out);
  Status DeleteRowAt(TableInfo* table, Rid rid, const Row& row);
  Status AnalyzeTable(TableInfo* table);

  /// One reversible record write of the active transaction.
  struct UndoEntry {
    enum class Kind { kInsert, kDelete, kUpdate };
    Kind kind;
    TableInfo* table;
    Rid rid;      ///< insert/delete: the row's RID; update: the pre-image RID
    Rid new_rid;  ///< update only: RID after the update (may equal rid)
    Row row;      ///< insert: inserted values; delete/update: pre-image
    Row new_row;  ///< update only: post-image (for index undo)
  };

  /// Takes the intention locks above a row write (root IX + table IX) for
  /// the active transaction; no-op in autocommit. kAborted = this txn was
  /// chosen as a deadlock victim and must roll back.
  Status LockTableIntent(TableInfo* table);
  /// Row-granularity write lock: intention locks plus the {table, rid} X
  /// lock. Writers of different rows no longer serialize on the table.
  Status LockRowForWrite(TableInfo* table, Rid rid);
  /// Appends a WAL record for `table` unless its engine is not WAL-capable.
  Status LogEngineOp(TableInfo* table, txn::LogType type, Rid rid,
                     std::string_view rec);
  Status UndoOne(const UndoEntry& e);

  /// Binds and plans a parsed SELECT under the `sql/bind` and
  /// `sql/optimize` spans. Charges and counts nothing: each entry point
  /// does its own accounting. `peeked` (null = none) are bind values the
  /// planner sees when `planner.bind_peeking` is on; `classifier_out`
  /// (optional) receives the peek classifier, extracted before planning
  /// consumes the bound query.
  Result<std::shared_ptr<PreparedStatement>> Compile(
      const SelectStmt& stmt, const PlannerOptions& planner,
      const std::vector<Value>* peeked = nullptr,
      PeekClassifier* classifier_out = nullptr);

  /// Parses and compiles `sql` under a `sql/prepare` span, counting a hard
  /// parse and charging the compile: the miss path of the plan cache.
  /// Each peeked compile (`peeked` non-null) counts one plan variant.
  Result<std::shared_ptr<PreparedStatement>> HardParse(
      const std::string& sql, const std::vector<Value>* peeked = nullptr,
      PeekClassifier* classifier_out = nullptr);

  /// Classifies bind values into a peek bucket (no simulated charges).
  static BindPeekInfo PeekBinds(const PeekClassifier& classifier,
                                const std::vector<Value>& params);

  /// The plan-cache lookup behind Prepare and PrepareWithParams (`peeked`
  /// null = un-peeked plan); a miss hard-parses and fills the slot.
  Result<PreparedStatement*> LookupPlan(const std::string& sql,
                                        const std::vector<Value>* peeked,
                                        BindPeekInfo* info);

  /// Opens `stmt`'s plan for a run under a fresh snapshot: the statement's
  /// ExecContext reaches every operator and, through the subquery runner,
  /// every subquery plan. Does not count a statement (callers do).
  /// `totals` (optional) collects EXPLAIN ANALYZE operator totals.
  Result<Cursor> Open(PreparedStatement* stmt, const std::vector<Value>& params,
                      ExecContext::Totals* totals = nullptr);

  /// Opens, drains into `*result` and closes `stmt`, then samples
  /// `rdbms.sql.statement_sim_us` from `timer`'s start.
  Status Run(PreparedStatement* stmt, const std::vector<Value>& params,
             const SimTimer& timer, QueryResult* result,
             ExecContext::Totals* totals = nullptr);

  /// Drops every cached plan; called from every event that can stale one
  /// (crash, DOP or peeking change, DROP, CREATE INDEX, ANALYZE).
  void FlushPlanCache();

  /// Effective OS-thread budget for parallel fragments.
  int EffectiveExecThreads() const {
    return options_.exec_threads > 0 ? options_.exec_threads
                                     : options_.planner.dop;
  }

  /// Advances the statement epoch (operator stats reset on next Open) and
  /// counts the statement; called once per top-level executed statement.
  uint64_t BeginStatement();

  DatabaseOptions options_;
  std::unique_ptr<SimClock> owned_clock_;
  SimClock* clock_;
  MetricsRegistry* metrics_;
  std::unique_ptr<Disk> disk_;
  std::unique_ptr<BufferPool> pool_;
  std::unique_ptr<Catalog> catalog_;
  std::unique_ptr<txn::TxnManager> txn_mgr_;
  /// MVCC write id of the DML statement currently executing: the active
  /// txn's id, or a fresh instantly-committed id per autocommit statement
  /// (TxnManager::AllocWriteId). 0 = no DML in flight / MVCC off.
  uint64_t write_id_ = 0;
  std::vector<UndoEntry> undo_log_;
  /// The plan cache, keyed by statement text: `plans[0]` is the un-peeked
  /// plan (bucket -1), `plans[b + 1]` the variant of peek bucket b.
  struct CachedStatement {
    PeekClassifier classifier;
    std::array<std::shared_ptr<PreparedStatement>, kPeekBuckets + 1> plans;
  };
  std::unordered_map<std::string, CachedStatement> plan_cache_;
  uint64_t statement_epoch_ = 0;
  // Cached registry mirrors (see constructor).
  Counter* m_statements_;
  Counter* m_hard_parses_;
  Counter* m_prepared_hits_;
  Counter* m_plan_variants_;
  std::array<Counter*, kPeekBuckets> m_bucket_hits_;
  Histogram* h_statement_sim_us_;
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_DB_H_
