#include "rdbms/db.h"

#include <algorithm>
#include <unordered_set>

#include "common/str_util.h"
#include "rdbms/expr/eval.h"
#include "rdbms/index/key_codec.h"
#include "rdbms/optimizer/optimizer_costs.h"
#include "rdbms/sql/binder.h"
#include "rdbms/sql/parser.h"
#include "rdbms/txn/recovery.h"

namespace r3 {
namespace rdbms {

Database::Database(SimClock* clock, DatabaseOptions options)
    : options_(options) {
  if (clock == nullptr) {
    owned_clock_ = std::make_unique<SimClock>();
    clock_ = owned_clock_.get();
  } else {
    clock_ = clock;
  }
  metrics_ = options_.metrics != nullptr ? options_.metrics : GlobalMetrics();
  m_statements_ = metrics_->GetCounter("rdbms.sql.statements");
  m_hard_parses_ = metrics_->GetCounter("rdbms.sql.hard_parses");
  m_prepared_hits_ = metrics_->GetCounter("rdbms.sql.prepared_cache_hits");
  m_plan_variants_ = metrics_->GetCounter("rdbms.sql.plan_cache.variants");
  for (int b = 0; b < kPeekBuckets; ++b) {
    m_bucket_hits_[b] = metrics_->GetCounter(
        str::Format("rdbms.sql.plan_cache.bucket%d_hits", b));
  }
  h_statement_sim_us_ = metrics_->GetHistogram("rdbms.sql.statement_sim_us");
  disk_ = std::make_unique<Disk>();
  pool_ = std::make_unique<BufferPool>(disk_.get(), clock_,
                                       options_.buffer_pool_bytes, metrics_);
  catalog_ = std::make_unique<Catalog>(pool_.get());
  catalog_->set_default_engine(options_.default_engine);
  catalog_->set_metrics(metrics_);
  txn_mgr_ = std::make_unique<txn::TxnManager>(pool_.get(), clock_, metrics_);
}

// ---------------------------------------------------------------------------
// Transactions
// ---------------------------------------------------------------------------

Status Database::Begin() {
  undo_log_.clear();
  return txn_mgr_->Begin().status();
}

Status Database::Commit() {
  R3_RETURN_IF_ERROR(txn_mgr_->Commit());
  undo_log_.clear();
  return Status::OK();
}

Status Database::Rollback() {
  if (!txn_mgr_->in_txn()) {
    return Status::InvalidArgument("no active transaction");
  }
  for (auto it = undo_log_.rbegin(); it != undo_log_.rend(); ++it) {
    R3_RETURN_IF_ERROR(UndoOne(*it));
  }
  undo_log_.clear();
  R3_RETURN_IF_ERROR(txn_mgr_->FinishRollback());
  // A reused connection must not bleed per-statement state across the
  // aborted boundary: advance the operator-stats epoch (operators of a
  // cached plan re-opened later reset their counters — same mechanism as a
  // successful statement) and clear any stale SimClock lane binding an
  // aborted parallel region could have left on this thread.
  BeginStatement();
  SimClock::ExitLane();
  return Status::OK();
}

Status Database::EnableWal() {
  for (const TableInfo* t : catalog_->AllTables()) {
    if (!t->storage->wal_capable()) {
      return Status::InvalidArgument(
          "EnableWal: table '" + t->name + "' uses the non-durable " +
          std::string(t->storage->name()) + " engine");
    }
  }
  return txn_mgr_->EnableWal();
}

Status Database::Checkpoint() { return txn_mgr_->Checkpoint(); }

Status Database::SimulateCrash() {
  undo_log_.clear();
  txn_mgr_->ResetAfterCrash();
  R3_RETURN_IF_ERROR(pool_->DropAllNoFlush());
  if (txn_mgr_->wal() != nullptr) txn_mgr_->wal()->DropUnflushed();
  FlushPlanCache();
  // Engines without WAL backing (columnar) are memory-resident: a crash
  // empties them, and their indexes with them. Recovery never visits these
  // files — a warehouse re-extracts its tables instead.
  for (const TableInfo* ct : catalog_->AllTables()) {
    if (ct->storage->wal_capable()) continue;
    R3_ASSIGN_OR_RETURN(TableInfo * t, catalog_->GetTable(ct->name));
    t->storage->Clear();
    for (IndexInfo* idx : t->indexes) {
      R3_ASSIGN_OR_RETURN(BTree tree, BTree::Create(pool_.get()));
      *idx->btree = std::move(tree);
    }
    t->row_count = 0;
    t->data_bytes = 0;
    t->stats = TableStats();
  }
  return Status::OK();
}

Status Database::Recover() {
  if (!txn_mgr_->wal_enabled()) {
    return Status::InvalidArgument("Recover requires EnableWal");
  }
  R3_RETURN_IF_ERROR(txn::RunRecovery(catalog_.get(), pool_.get(),
                                      txn_mgr_->wal(), clock_, metrics_)
                         .status());
  // Leave a clean image + bounded log behind; also re-baselines page LSNs.
  R3_RETURN_IF_ERROR(txn_mgr_->Checkpoint());
  BeginStatement();
  return Status::OK();
}

Result<uint64_t> Database::TableChecksum(const std::string& table) const {
  R3_ASSIGN_OR_RETURN(TableInfo * t, catalog_->GetTable(table));
  return t->storage->Checksum();
}

Status Database::LockTableIntent(TableInfo* table) {
  if (!txn_mgr_->in_txn()) return Status::OK();
  uint64_t id = txn_mgr_->active_txn_id();
  txn::LockManager* locks = txn_mgr_->locks();
  R3_RETURN_IF_ERROR(
      locks->Acquire(id, txn::LockKey::Root(), txn::LockMode::kIX));
  return locks->Acquire(id, txn::LockKey::Table(table->storage->file_id()),
                        txn::LockMode::kIX);
}

Status Database::LockRowForWrite(TableInfo* table, Rid rid) {
  if (!txn_mgr_->in_txn()) return Status::OK();
  R3_RETURN_IF_ERROR(LockTableIntent(table));
  return txn_mgr_->locks()->Acquire(
      txn_mgr_->active_txn_id(),
      txn::LockKey::Row(table->storage->file_id(), rid.Pack()),
      txn::LockMode::kX);
}

Status Database::LogEngineOp(TableInfo* table, txn::LogType type, Rid rid,
                             std::string_view rec) {
  // Non-WAL-capable engines (columnar) keep no pages to redo; their crash
  // story is Clear-and-reextract, so nothing is logged for them.
  if (!table->storage->wal_capable()) return Status::OK();
  return txn_mgr_->LogHeapOp(type, table->storage->file_id(), rid, rec);
}

Status Database::UndoOne(const UndoEntry& e) {
  TableInfo* table = e.table;
  switch (e.kind) {
    case UndoEntry::Kind::kInsert: {
      R3_RETURN_IF_ERROR(table->storage->Delete(e.rid));
      for (IndexInfo* idx : table->indexes) {
        R3_RETURN_IF_ERROR(
            idx->btree->Delete(IndexKeyForRow(*idx, e.row), e.rid.Pack()));
      }
      if (table->row_count > 0) table->row_count -= 1;
      size_t bytes = SerializedRowSize(table->schema, e.row);
      table->data_bytes =
          table->data_bytes > bytes ? table->data_bytes - bytes : 0;
      return Status::OK();
    }
    case UndoEntry::Kind::kDelete: {
      std::string rec;
      R3_RETURN_IF_ERROR(SerializeRow(table->schema, e.row, &rec));
      R3_RETURN_IF_ERROR(table->storage->InsertAt(e.rid, rec));
      for (IndexInfo* idx : table->indexes) {
        R3_RETURN_IF_ERROR(idx->btree->Insert(IndexKeyForRow(*idx, e.row),
                                              e.rid.Pack(), false));
      }
      table->row_count += 1;
      table->data_bytes += rec.size();
      return Status::OK();
    }
    case UndoEntry::Kind::kUpdate: {
      std::string rec;
      R3_RETURN_IF_ERROR(SerializeRow(table->schema, e.row, &rec));
      Rid final_rid;
      if (e.new_rid == e.rid) {
        // May relocate again if the pre-image no longer fits in place;
        // harmless — checksums and index fixes below are RID-aware.
        R3_ASSIGN_OR_RETURN(final_rid, table->storage->Update(e.rid, rec));
      } else {
        R3_RETURN_IF_ERROR(table->storage->Delete(e.new_rid));
        R3_RETURN_IF_ERROR(table->storage->InsertAt(e.rid, rec));
        final_rid = e.rid;
      }
      // The live index entry for this row is (key(new_row), new_rid) whether
      // or not the forward op touched the index; swap it for the pre-image.
      for (IndexInfo* idx : table->indexes) {
        std::string old_key = IndexKeyForRow(*idx, e.row);
        std::string new_key = IndexKeyForRow(*idx, e.new_row);
        if (new_key != old_key || !(e.new_rid == final_rid)) {
          R3_RETURN_IF_ERROR(idx->btree->Delete(new_key, e.new_rid.Pack()));
          R3_RETURN_IF_ERROR(
              idx->btree->Insert(old_key, final_rid.Pack(), false));
        }
      }
      return Status::OK();
    }
  }
  return Status::Internal("unknown undo kind");
}

void Database::set_dop(int dop) {
  if (dop < 1) dop = 1;
  if (dop == options_.planner.dop) return;
  options_.planner.dop = dop;
  // Cached plans embed the old lane count; recompile on next use.
  FlushPlanCache();
}

void Database::set_bind_peeking(bool on) {
  if (on == options_.planner.bind_peeking) return;
  options_.planner.bind_peeking = on;
  // Cached plans embed the peeking decision; recompile on next use.
  FlushPlanCache();
}

void Database::FlushPlanCache() { plan_cache_.clear(); }

void Database::set_batch_rows(size_t batch_rows) {
  // Plans are batch-size agnostic (capacity is picked per execution), so
  // the prepared-statement cache stays valid.
  options_.batch_rows = batch_rows < 1 ? 1 : batch_rows;
}

uint64_t Database::BeginStatement() {
  m_statements_->Add(1);
  return ++statement_epoch_;
}

// ---------------------------------------------------------------------------
// Cursor
// ---------------------------------------------------------------------------

Cursor::~Cursor() {
  Status st = Close();
  (void)st;
}

const Schema& Cursor::output_schema() const {
  return state_->stmt->plan_.output_schema;
}

const std::vector<std::string>& Cursor::column_names() const {
  return state_->stmt->plan_.column_names;
}

Result<bool> Cursor::FetchBatch(RowBatch* batch) {
  batch->Clear();
  if (state_ == nullptr || state_->done) return false;
  R3_ASSIGN_OR_RETURN(bool ok, state_->stmt->plan_.root->NextBatch(batch));
  if (!ok) state_->done = true;
  return ok;
}

Status Cursor::Close() {
  if (state_ == nullptr) return Status::OK();
  Status st = state_->stmt->plan_.root->Close();
  state_.reset();
  return st;
}

Result<Cursor> Database::Open(PreparedStatement* stmt,
                              const std::vector<Value>& params,
                              ExecContext::Totals* totals) {
  Cursor cur;
  cur.state_ = std::make_unique<Cursor::State>();
  Cursor::State* st = cur.state_.get();
  st->stmt = stmt->shared_from_this();
  st->params = params;
  // Covers the whole open..fetch..close window; ends in Cursor::Close after
  // the plan's own Close (State members are destroyed span-first).
  st->span = TraceSpan(clock_, "sql", "execute");
  st->snapshot = txn_mgr_->AcquireSnapshot();
  ExecContext& ctx = st->ctx;
  ctx.pool = pool_.get();
  ctx.clock = clock_;
  ctx.params = &st->params;
  ctx.subqueries = stmt->plan_.runner.get();
  ctx.work_mem_bytes = options_.work_mem_bytes;
  ctx.dop = EffectiveExecThreads();
  ctx.batch_size = options_.batch_rows < 1 ? 1 : options_.batch_rows;
  ctx.statement_epoch = statement_epoch_;
  ctx.mvcc = txn_mgr_->mvcc();
  ctx.snapshot = st->snapshot.get();
  ctx.totals = totals;
  stmt->plan_.runner->Bind(ctx);
  R3_RETURN_IF_ERROR(stmt->plan_.root->Open(&ctx));
  return cur;
}

Result<Cursor> Database::OpenCursor(PreparedStatement* stmt,
                                    const std::vector<Value>& params) {
  BeginStatement();
  return Open(stmt, params);
}

Status Database::Run(PreparedStatement* stmt, const std::vector<Value>& params,
                     const SimTimer& timer, QueryResult* result,
                     ExecContext::Totals* totals) {
  R3_ASSIGN_OR_RETURN(Cursor cur, Open(stmt, params, totals));
  result->schema = stmt->plan_.output_schema;
  result->column_names = stmt->plan_.column_names;
  result->rows.clear();
  RowBatch batch(cur.state_->ctx.batch_size);
  while (true) {
    R3_ASSIGN_OR_RETURN(bool ok, cur.FetchBatch(&batch));
    if (!ok) break;
    for (size_t i = 0; i < batch.size(); ++i) {
      result->rows.push_back(std::move(batch.row(i)));
    }
  }
  cur.state_->span.ArgInt("rows", static_cast<int64_t>(result->rows.size()));
  R3_RETURN_IF_ERROR(cur.Close());
  h_statement_sim_us_->Observe(timer.ElapsedUs());
  return Status::OK();
}

Status Database::Execute(const std::string& sql,
                         const std::vector<Value>& params, QueryResult* result,
                         int64_t* affected_rows) {
  TraceSpan parse_span(clock_, "sql", "parse");
  R3_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  parse_span.End();
  int64_t affected = 0;
  switch (stmt.kind) {
    case Statement::Kind::kSelect: {
      QueryResult local;
      R3_RETURN_IF_ERROR(
          ExecuteSelect(*stmt.select, params, result != nullptr ? result : &local));
      return Status::OK();
    }
    case Statement::Kind::kInsert: {
      uint64_t wid = txn_mgr_->AllocWriteId();
      write_id_ = wid;
      Status st = ExecuteInsert(*stmt.insert, params, &affected);
      write_id_ = 0;
      // Autocommit DML's physical effects persist even on mid-statement
      // failure (no statement-level undo), so its version-map footprint
      // commits unconditionally to keep both views consistent.
      txn_mgr_->FinishAutocommitWrite(wid, /*committed=*/true);
      R3_RETURN_IF_ERROR(st);
      break;
    }
    case Statement::Kind::kDelete: {
      uint64_t wid = txn_mgr_->AllocWriteId();
      write_id_ = wid;
      Status st = ExecuteDelete(*stmt.del, params, &affected);
      write_id_ = 0;
      txn_mgr_->FinishAutocommitWrite(wid, /*committed=*/true);
      R3_RETURN_IF_ERROR(st);
      break;
    }
    case Statement::Kind::kUpdate: {
      uint64_t wid = txn_mgr_->AllocWriteId();
      write_id_ = wid;
      Status st = ExecuteUpdate(*stmt.update, params, &affected);
      write_id_ = 0;
      txn_mgr_->FinishAutocommitWrite(wid, /*committed=*/true);
      R3_RETURN_IF_ERROR(st);
      break;
    }
    case Statement::Kind::kCreateTable:
      R3_RETURN_IF_ERROR(ExecuteCreateTable(*stmt.create_table));
      break;
    case Statement::Kind::kCreateIndex: {
      FlushPlanCache();  // cached plans never considered the new index
      clock_->ChargeStatementCompile();
      R3_RETURN_IF_ERROR(catalog_
                             ->CreateIndex(stmt.create_index->index,
                                           stmt.create_index->table,
                                           stmt.create_index->columns,
                                           stmt.create_index->unique)
                             .status());
      break;
    }
    case Statement::Kind::kCreateView:
      R3_RETURN_IF_ERROR(catalog_->CreateView(stmt.create_view->view,
                                              stmt.create_view->select_sql));
      break;
    case Statement::Kind::kDrop:
      FlushPlanCache();  // plans may reference the dropped object
      switch (stmt.drop->target) {
        case DropStmt::Target::kTable:
          R3_RETURN_IF_ERROR(catalog_->DropTable(stmt.drop->name));
          break;
        case DropStmt::Target::kIndex:
          R3_RETURN_IF_ERROR(catalog_->DropIndex(stmt.drop->name));
          break;
        case DropStmt::Target::kView:
          return Status::Unsupported("DROP VIEW not implemented");
      }
      break;
    case Statement::Kind::kAnalyze:
      R3_RETURN_IF_ERROR(Analyze(stmt.analyze->table));
      break;
  }
  if (affected_rows != nullptr) *affected_rows = affected;
  return Status::OK();
}

Result<QueryResult> Database::Query(const std::string& sql,
                                    const std::vector<Value>& params) {
  QueryResult result;
  R3_RETURN_IF_ERROR(Execute(sql, params, &result, nullptr));
  return result;
}

Status Database::ExecuteSelect(const SelectStmt& stmt,
                               const std::vector<Value>& params,
                               QueryResult* result) {
  BeginStatement();
  m_hard_parses_->Add(1);
  SimTimer timer(*clock_);
  clock_->ChargeStatementCompile();
  R3_ASSIGN_OR_RETURN(std::shared_ptr<PreparedStatement> compiled,
                      Compile(stmt, options_.planner));
  return Run(compiled.get(), params, timer, result);
}

Result<std::shared_ptr<PreparedStatement>> Database::Compile(
    const SelectStmt& stmt, const PlannerOptions& planner,
    const std::vector<Value>* peeked, PeekClassifier* classifier_out) {
  TraceSpan bind_span(clock_, "sql", "bind");
  Binder binder(catalog_.get());
  R3_ASSIGN_OR_RETURN(std::unique_ptr<BoundQuery> bq, binder.BindSelect(stmt));
  bind_span.End();
  if (classifier_out != nullptr) *classifier_out = BuildPeekClassifier(*bq);
  TraceSpan opt_span(clock_, "sql", "optimize");
  Optimizer opt(catalog_.get(), planner, metrics_, peeked);
  auto compiled = std::make_shared<PreparedStatement>();
  R3_ASSIGN_OR_RETURN(compiled->plan_, opt.Plan(std::move(bq)));
  return compiled;
}

Result<std::shared_ptr<PreparedStatement>> Database::HardParse(
    const std::string& sql, const std::vector<Value>* peeked,
    PeekClassifier* classifier_out) {
  m_hard_parses_->Add(1);
  TraceSpan prepare_span(clock_, "sql", "prepare");
  clock_->ChargeStatementCompile();
  TraceSpan parse_span(clock_, "sql", "parse");
  R3_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect(sql));
  parse_span.End();
  R3_ASSIGN_OR_RETURN(std::shared_ptr<PreparedStatement> compiled,
                      Compile(*sel, options_.planner, peeked, classifier_out));
  if (peeked != nullptr) m_plan_variants_->Add(1);
  return compiled;
}

Database::BindPeekInfo Database::PeekBinds(const PeekClassifier& classifier,
                                           const std::vector<Value>& params) {
  BindPeekInfo peek;
  peek.peeked = true;
  peek.est_fraction = PeekEstimate(classifier, params);
  peek.bucket = PeekBucket(peek.est_fraction);
  return peek;
}

Result<PreparedStatement*> Database::LookupPlan(
    const std::string& sql, const std::vector<Value>* peeked,
    BindPeekInfo* info) {
  *info = BindPeekInfo{};
  // First sight: one hard parse builds the classifier and the first plan.
  std::shared_ptr<PreparedStatement> compiled;
  auto it = plan_cache_.find(sql);
  if (it == plan_cache_.end()) {
    CachedStatement fresh;
    R3_ASSIGN_OR_RETURN(compiled, HardParse(sql, peeked, &fresh.classifier));
    it = plan_cache_.emplace(sql, std::move(fresh)).first;
  }
  CachedStatement& entry = it->second;
  if (peeked != nullptr) *info = PeekBinds(entry.classifier, *peeked);
  std::shared_ptr<PreparedStatement>& slot =
      entry.plans[static_cast<size_t>(info->bucket + 1)];
  if (slot != nullptr) {
    m_prepared_hits_->Add(1);
    if (info->peeked) m_bucket_hits_[static_cast<size_t>(info->bucket)]->Add(1);
    info->hit = true;
    return slot.get();
  }
  // Known statement, empty slot (other plan kind or a new bucket).
  if (compiled == nullptr) {
    R3_ASSIGN_OR_RETURN(compiled, HardParse(sql, peeked));
  }
  slot = std::move(compiled);
  return slot.get();
}

Result<PreparedStatement*> Database::Prepare(const std::string& sql) {
  BindPeekInfo info;
  return LookupPlan(sql, nullptr, &info);
}

Result<PreparedStatement*> Database::PrepareWithParams(
    const std::string& sql, const std::vector<Value>& params,
    BindPeekInfo* info) {
  BindPeekInfo local;
  return LookupPlan(sql, options_.planner.bind_peeking ? &params : nullptr,
                    info != nullptr ? info : &local);
}

Result<QueryResult> Database::ExecutePrepared(PreparedStatement* stmt,
                                              const std::vector<Value>& params) {
  SimTimer timer(*clock_);
  BeginStatement();
  QueryResult result;
  R3_RETURN_IF_ERROR(Run(stmt, params, timer, &result));
  return result;
}

Result<std::string> Database::Explain(const std::string& sql) {
  R3_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect(sql));
  R3_ASSIGN_OR_RETURN(std::shared_ptr<PreparedStatement> compiled,
                      Compile(*sel, options_.planner));
  return compiled->ExplainPlan();
}

Result<std::string> Database::Explain(const std::string& sql,
                                      const std::vector<Value>& params) {
  R3_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect(sql));
  PlannerOptions planner = options_.planner;
  planner.bind_peeking = true;
  PeekClassifier classifier;
  R3_ASSIGN_OR_RETURN(std::shared_ptr<PreparedStatement> compiled,
                      Compile(*sel, planner, &params, &classifier));
  BindPeekInfo peek = PeekBinds(classifier, params);
  std::string out = str::Format("Peek: bucket=%d est_fraction=%.6f\n",
                                peek.bucket, peek.est_fraction);
  const CostModel& cost = DefaultCostModel();
  for (const BoundTableRef& bt : compiled->plan_.query->tables) {
    out += OptimizerCosts::ForTable(*bt.table, cost).Describe(bt.table->name) +
           "\n";
  }
  out += compiled->ExplainPlan();
  return out;
}

Result<std::string> Database::ExplainAnalyze(const std::string& sql,
                                             const std::vector<Value>& params) {
  BeginStatement();
  m_hard_parses_->Add(1);
  SimTimer timer(*clock_);
  clock_->ChargeStatementCompile();
  R3_ASSIGN_OR_RETURN(std::unique_ptr<SelectStmt> sel, ParseSelect(sql));
  R3_ASSIGN_OR_RETURN(std::shared_ptr<PreparedStatement> compiled,
                      Compile(*sel, options_.planner));
  ExecContext::Totals totals;
  BufferPoolStats pool_before = pool_->stats();
  QueryResult result;
  R3_RETURN_IF_ERROR(Run(compiled.get(), params, timer, &result, &totals));
  BufferPoolStats pool_after = pool_->stats();
  std::string out = ExplainPlan(*compiled->plan_.root, /*analyze=*/true);
  out += str::Format(
      "\nTotals: result_rows=%lld exchanged_rows=%lld batches=%lld "
      "opens=%lld closes=%lld",
      static_cast<long long>(result.rows.size()),
      static_cast<long long>(totals.rows),
      static_cast<long long>(totals.batches),
      static_cast<long long>(totals.opens),
      static_cast<long long>(totals.closes));
  out += "\nOptimizer: " + compiled->plan_.choices.Summary();
  uint64_t logical = pool_after.logical_reads - pool_before.logical_reads;
  uint64_t physical = pool_after.physical_reads - pool_before.physical_reads;
  double hit_pct =
      logical == 0 ? 100.0
                   : 100.0 * (1.0 - static_cast<double>(physical) /
                                        static_cast<double>(logical));
  out += str::Format(
      "\nBuffer pool: logical_reads=%llu physical_reads=%llu "
      "(seq=%llu random=%llu) page_writes=%llu hit=%.1f%%",
      static_cast<unsigned long long>(logical),
      static_cast<unsigned long long>(physical),
      static_cast<unsigned long long>(pool_after.sequential_reads -
                                      pool_before.sequential_reads),
      static_cast<unsigned long long>(pool_after.random_reads -
                                      pool_before.random_reads),
      static_cast<unsigned long long>(pool_after.page_writes -
                                      pool_before.page_writes),
      hit_pct);
  for (const BoundTableRef& bt : compiled->plan_.query->tables) {
    const TableInfo* t = bt.table;
    if (!t->stats_stale()) continue;
    uint64_t threshold = t->stats.row_count / 10;
    if (threshold < 64) threshold = 64;
    out += str::Format(
        "\nStats: %s stale (mods=%llu since ANALYZE, threshold=%llu)",
        t->name.c_str(),
        static_cast<unsigned long long>(t->mods_since_analyze),
        static_cast<unsigned long long>(threshold));
  }
  return out;
}

// ---------------------------------------------------------------------------
// DML
// ---------------------------------------------------------------------------

Status Database::BindTableExpr(const TableInfo& table, Expr* e) const {
  if (e->kind == ExprKind::kColumnRef) {
    R3_ASSIGN_OR_RETURN(size_t idx, table.schema.IndexOf(e->column_name));
    e->column_index = idx;
    e->result_type = table.schema.column(idx).type;
    return Status::OK();
  }
  if (e->kind == ExprKind::kAggCall || e->subquery_ast != nullptr) {
    return Status::Unsupported("aggregates/subqueries not allowed in DML");
  }
  for (ExprPtr& c : e->children) {
    R3_RETURN_IF_ERROR(BindTableExpr(table, c.get()));
  }
  if (e->kind == ExprKind::kCompare || e->kind == ExprKind::kLogic ||
      e->kind == ExprKind::kNot || e->kind == ExprKind::kIsNull ||
      e->kind == ExprKind::kLike || e->kind == ExprKind::kInList ||
      e->kind == ExprKind::kBetween) {
    e->result_type = DataType::kBool;
  }
  return Status::OK();
}

Status Database::InsertRowChecked(TableInfo* table, Row row, Rid* rid_out) {
  const Schema& schema = table->schema;
  if (row.size() != schema.NumColumns()) {
    return Status::InvalidArgument(
        str::Format("row has %zu values but %s has %zu columns", row.size(),
                    table->name.c_str(), schema.NumColumns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema.column(i);
    if (row[i].is_null()) {
      if (!col.nullable) {
        return Status::ConstraintViolation("column " + col.name +
                                           " must not be NULL");
      }
      row[i] = Value::Null(col.type);
      continue;
    }
    if (row[i].type() != col.type) {
      R3_ASSIGN_OR_RETURN(row[i], row[i].CastTo(col.type));
    }
    if (col.type == DataType::kString && col.length > 0) {
      if (row[i].string_value().size() > col.length) {
        return Status::OutOfRange(
            str::Format("value too long for %s.%s CHAR(%u)",
                        table->name.c_str(), col.name.c_str(), col.length));
      }
      // CHAR semantics: storage blank-pads and reads trim, so normalize now
      // to keep index keys identical before and after a round trip.
      std::string trimmed = str::RTrim(row[i].string_value());
      if (trimmed.size() != row[i].string_value().size()) {
        row[i] = Value::Str(std::move(trimmed));
      }
    }
  }
  std::string rec;
  R3_RETURN_IF_ERROR(SerializeRow(schema, row, &rec));
  // Intent locks first; the row X lock must wait until the heap hands out
  // the RID (a fresh RID, so it can never block or deadlock).
  R3_RETURN_IF_ERROR(LockTableIntent(table));
  R3_ASSIGN_OR_RETURN(Rid rid, table->storage->Insert(rec));
  R3_RETURN_IF_ERROR(LockRowForWrite(table, rid));
  clock_->ChargeDbmsTuple();
  // Logged immediately (before the index work can trigger an eviction) so
  // the no-steal pin and page LSN are in place while the page is dirty.
  R3_RETURN_IF_ERROR(
      LogEngineOp(table, txn::LogType::kHeapInsert, rid, rec));

  // Maintain indexes; undo on unique violation.
  std::vector<IndexInfo*> done;
  for (IndexInfo* idx : table->indexes) {
    Status st = idx->btree->Insert(IndexKeyForRow(*idx, row), rid.Pack(),
                                   idx->unique);
    if (!st.ok()) {
      for (IndexInfo* u : done) {
        (void)u->btree->Delete(IndexKeyForRow(*u, row), rid.Pack());
      }
      (void)table->storage->Delete(rid);
      // A compensating log record instead of unlogging: redo replays the
      // insert and this delete, netting out to nothing.
      (void)LogEngineOp(table, txn::LogType::kHeapDelete, rid, {});
      if (st.code() == StatusCode::kAlreadyExists) {
        return Status::ConstraintViolation("duplicate key for index " +
                                           idx->name);
      }
      return st;
    }
    done.push_back(idx);
  }
  table->row_count += 1;
  table->data_bytes += rec.size();
  table->mods_since_analyze += 1;
  // Only after index maintenance succeeded: the unique-violation path above
  // physically removed the row again, so no version-map entry may exist yet.
  txn_mgr_->mvcc()->OnInsert(table->storage->file_id(), rid, write_id_);
  if (txn_mgr_->in_txn()) {
    undo_log_.push_back(UndoEntry{UndoEntry::Kind::kInsert, table, rid, rid,
                                  row, Row{}});
  }
  if (rid_out != nullptr) *rid_out = rid;
  return Status::OK();
}

Status Database::InsertRow(const std::string& table, const Row& row) {
  R3_ASSIGN_OR_RETURN(TableInfo * ti, catalog_->GetTable(table));
  uint64_t wid = txn_mgr_->AllocWriteId();
  write_id_ = wid;
  Status st = InsertRowChecked(ti, row, nullptr);
  write_id_ = 0;
  txn_mgr_->FinishAutocommitWrite(wid, /*committed=*/true);
  return st;
}

Status Database::DeleteRowAt(TableInfo* table, Rid rid, const Row& row) {
  R3_RETURN_IF_ERROR(LockRowForWrite(table, rid));
  // Pre-image for the version chain, captured before the physical delete.
  // Serialization is a faithful round trip of the stored record (rows come
  // from DeserializeRow of that record).
  std::string pre;
  if (write_id_ != 0) {
    R3_RETURN_IF_ERROR(SerializeRow(table->schema, row, &pre));
  }
  R3_RETURN_IF_ERROR(table->storage->Delete(rid));
  if (write_id_ != 0) {
    txn_mgr_->mvcc()->OnDelete(table->storage->file_id(), rid, write_id_, pre);
  }
  R3_RETURN_IF_ERROR(LogEngineOp(table, txn::LogType::kHeapDelete, rid, {}));
  for (IndexInfo* idx : table->indexes) {
    R3_RETURN_IF_ERROR(
        idx->btree->Delete(IndexKeyForRow(*idx, row), rid.Pack()));
  }
  if (table->row_count > 0) table->row_count -= 1;
  table->mods_since_analyze += 1;
  size_t bytes = SerializedRowSize(table->schema, row);
  table->data_bytes = table->data_bytes > bytes ? table->data_bytes - bytes : 0;
  clock_->ChargeDbmsTuple();
  if (txn_mgr_->in_txn()) {
    undo_log_.push_back(
        UndoEntry{UndoEntry::Kind::kDelete, table, rid, rid, row, Row{}});
  }
  return Status::OK();
}

Status Database::ExecuteInsert(const InsertStmt& stmt,
                               const std::vector<Value>& params,
                               int64_t* affected) {
  R3_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table));
  const Schema& schema = table->schema;
  std::vector<size_t> targets;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.NumColumns(); ++i) targets.push_back(i);
  } else {
    for (const std::string& c : stmt.columns) {
      R3_ASSIGN_OR_RETURN(size_t idx, schema.IndexOf(c));
      targets.push_back(idx);
    }
  }
  EvalContext ec;
  ec.params = &params;
  for (const auto& exprs : stmt.rows) {
    if (exprs.size() != targets.size()) {
      return Status::InvalidArgument("VALUES arity mismatch");
    }
    Row row(schema.NumColumns(), Value::Null());
    for (size_t i = 0; i < exprs.size(); ++i) {
      Value v;
      R3_RETURN_IF_ERROR(EvalExpr(*exprs[i], ec, &v));
      row[targets[i]] = std::move(v);
    }
    R3_RETURN_IF_ERROR(InsertRowChecked(table, std::move(row), nullptr));
    ++*affected;
  }
  return Status::OK();
}

Status Database::CollectMatches(TableInfo* table, const Expr* where,
                                const std::vector<Value>& params,
                                std::vector<std::pair<Rid, Row>>* out) {
  EvalContext ec;
  ec.params = &params;

  // Index assist: if the WHERE conjuncts constrain a prefix of some index
  // by equality against runtime constants, range-scan that index instead of
  // the heap (crucial for tuple-at-a-time application workloads). The
  // longest prefix wins, the first index on ties; an index whose prefix
  // fails to evaluate or cast is passed over.
  KeyRangeCursor range;
  size_t best_cols = 0;
  if (where != nullptr) {
    // Gather col = const candidates.
    std::vector<std::pair<size_t, const Expr*>> eqs;
    std::function<void(const Expr&)> gather = [&](const Expr& e) {
      if (e.kind == ExprKind::kLogic && e.logic_op == LogicOp::kAnd) {
        gather(*e.children[0]);
        gather(*e.children[1]);
        return;
      }
      if (e.kind == ExprKind::kCompare && e.cmp_op == CmpOp::kEq) {
        const Expr& l = *e.children[0];
        const Expr& r = *e.children[1];
        if (l.kind == ExprKind::kColumnRef && !ExprHasColumnRefs(r)) {
          eqs.emplace_back(l.column_index, &r);
        } else if (r.kind == ExprKind::kColumnRef && !ExprHasColumnRefs(l)) {
          eqs.emplace_back(r.column_index, &l);
        }
      }
    };
    gather(*where);
    for (const IndexInfo* idx : table->indexes) {
      IndexBounds bounds;
      for (size_t col : idx->column_indices) {
        auto eq = std::find_if(eqs.begin(), eqs.end(),
                               [col](const auto& e) { return e.first == col; });
        if (eq == eqs.end()) break;
        bounds.eq_exprs.push_back(eq->second);
      }
      if (bounds.eq_exprs.size() <= best_cols) continue;
      KeyRangeCursor candidate;
      if (!candidate.Compile(*table, *idx, bounds, ec).ok()) continue;
      range = std::move(candidate);
      best_cols = bounds.eq_exprs.size();
    }
  }

  Row row;
  std::string rec;
  Rid rid;
  if (best_cols > 0) {
    ExecContext ctx;  // DML reads the current committed state: no snapshot
    ctx.clock = clock_;
    R3_RETURN_IF_ERROR(range.Seek());
    while (true) {
      R3_ASSIGN_OR_RETURN(bool ok, range.Next(ctx, &rid, &rec));
      if (!ok) break;
      R3_RETURN_IF_ERROR(DeserializeRow(table->schema, rec, &row));
      ec.row = &row;
      R3_ASSIGN_OR_RETURN(bool match, EvalPredicate(*where, ec));
      if (match) out->emplace_back(rid, row);
    }
    return Status::OK();
  }

  std::unique_ptr<RecordIterator> it = table->storage->NewIterator();
  while (true) {
    R3_ASSIGN_OR_RETURN(bool ok, it->Next(&rid, &rec));
    if (!ok) break;
    clock_->ChargeDbmsTuple();
    R3_RETURN_IF_ERROR(DeserializeRow(table->schema, rec, &row));
    if (where != nullptr) {
      ec.row = &row;
      R3_ASSIGN_OR_RETURN(bool match, EvalPredicate(*where, ec));
      if (!match) continue;
    }
    out->emplace_back(rid, row);
  }
  return Status::OK();
}

Status Database::ExecuteDelete(const DeleteStmt& stmt,
                               const std::vector<Value>& params,
                               int64_t* affected) {
  R3_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table));
  ExprPtr where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    R3_RETURN_IF_ERROR(BindTableExpr(*table, where.get()));
  }
  std::vector<std::pair<Rid, Row>> victims;
  R3_RETURN_IF_ERROR(CollectMatches(table, where.get(), params, &victims));
  for (auto& [vrid, vrow] : victims) {
    R3_RETURN_IF_ERROR(DeleteRowAt(table, vrid, vrow));
    ++*affected;
  }
  return Status::OK();
}

Status Database::ExecuteUpdate(const UpdateStmt& stmt,
                               const std::vector<Value>& params,
                               int64_t* affected) {
  R3_ASSIGN_OR_RETURN(TableInfo * table, catalog_->GetTable(stmt.table));
  ExprPtr where;
  if (stmt.where != nullptr) {
    where = stmt.where->Clone();
    R3_RETURN_IF_ERROR(BindTableExpr(*table, where.get()));
  }
  std::vector<std::pair<size_t, ExprPtr>> sets;
  for (const auto& [name, expr] : stmt.assignments) {
    R3_ASSIGN_OR_RETURN(size_t idx, table->schema.IndexOf(name));
    ExprPtr bound = expr->Clone();
    R3_RETURN_IF_ERROR(BindTableExpr(*table, bound.get()));
    sets.emplace_back(idx, std::move(bound));
  }
  std::vector<std::pair<Rid, Row>> targets;
  R3_RETURN_IF_ERROR(CollectMatches(table, where.get(), params, &targets));
  for (auto& [rid, old_row] : targets) {
    Row new_row = old_row;
    EvalContext ec;
    ec.params = &params;
    ec.row = &old_row;
    for (auto& [idx, expr] : sets) {
      Value v;
      R3_RETURN_IF_ERROR(EvalExpr(*expr, ec, &v));
      if (!v.is_null()) {
        R3_ASSIGN_OR_RETURN(v, v.CastTo(table->schema.column(idx).type));
      }
      new_row[idx] = std::move(v);
    }
    std::string rec;
    R3_RETURN_IF_ERROR(SerializeRow(table->schema, new_row, &rec));
    R3_RETURN_IF_ERROR(LockRowForWrite(table, rid));
    std::string old_rec;
    if (write_id_ != 0) {
      R3_RETURN_IF_ERROR(SerializeRow(table->schema, old_row, &old_rec));
    }
    R3_ASSIGN_OR_RETURN(Rid new_rid, table->storage->Update(rid, rec));
    clock_->ChargeDbmsTuple();
    if (new_rid == rid) {
      R3_RETURN_IF_ERROR(
          LogEngineOp(table, txn::LogType::kHeapUpdate, rid, rec));
      if (write_id_ != 0) {
        txn_mgr_->mvcc()->OnUpdate(table->storage->file_id(), rid, write_id_,
                                   old_rec);
      }
    } else {
      // The heap relocated the record: physiologically that is a delete at
      // the old RID plus an insert at the new one.
      R3_RETURN_IF_ERROR(
          LogEngineOp(table, txn::LogType::kHeapDelete, rid, {}));
      R3_RETURN_IF_ERROR(
          LogEngineOp(table, txn::LogType::kHeapInsert, new_rid, rec));
      if (write_id_ != 0) {
        txn_mgr_->mvcc()->OnDelete(table->storage->file_id(), rid, write_id_,
                                   old_rec);
        txn_mgr_->mvcc()->OnInsert(table->storage->file_id(), new_rid, write_id_);
      }
    }
    if (txn_mgr_->in_txn()) {
      undo_log_.push_back(UndoEntry{UndoEntry::Kind::kUpdate, table, rid,
                                    new_rid, old_row, new_row});
    }
    for (IndexInfo* idx : table->indexes) {
      std::string old_key = IndexKeyForRow(*idx, old_row);
      std::string new_key = IndexKeyForRow(*idx, new_row);
      if (old_key != new_key || !(new_rid == rid)) {
        R3_RETURN_IF_ERROR(idx->btree->Delete(old_key, rid.Pack()));
        R3_RETURN_IF_ERROR(idx->btree->Insert(new_key, new_rid.Pack(), false));
      }
    }
    table->mods_since_analyze += 1;
    ++*affected;
  }
  return Status::OK();
}

Status Database::ExecuteCreateTable(const CreateTableStmt& stmt) {
  EngineKind kind = catalog_->default_engine();
  if (!stmt.engine.empty()) {
    R3_ASSIGN_OR_RETURN(kind, ParseEngineKind(stmt.engine));
  }
  if (kind != EngineKind::kRowHeap && txn_mgr_->wal_enabled()) {
    return Status::InvalidArgument(
        "cannot create a non-WAL-capable table after EnableWal");
  }
  R3_RETURN_IF_ERROR(
      catalog_->CreateTable(stmt.table, Schema(stmt.columns), kind).status());
  if (!stmt.primary_key.empty()) {
    R3_RETURN_IF_ERROR(catalog_
                           ->CreateIndex("PK_" + str::ToUpper(stmt.table),
                                         stmt.table, stmt.primary_key,
                                         /*unique=*/true)
                           .status());
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// ANALYZE / introspection
// ---------------------------------------------------------------------------

Status Database::AnalyzeTable(TableInfo* table) {
  TableStats stats;
  stats.columns.resize(table->schema.NumColumns());
  std::vector<std::unordered_set<std::string>> distinct(
      table->schema.NumColumns());
  std::vector<std::vector<Value>> samples(table->schema.NumColumns());
  std::unique_ptr<RecordIterator> it = table->storage->NewIterator();
  Rid rid;
  std::string rec;
  Row row;
  while (true) {
    R3_ASSIGN_OR_RETURN(bool ok, it->Next(&rid, &rec));
    if (!ok) break;
    clock_->ChargeDbmsTuple();
    R3_RETURN_IF_ERROR(DeserializeRow(table->schema, rec, &row));
    ++stats.row_count;
    stats.total_bytes += rec.size();
    for (size_t i = 0; i < row.size(); ++i) {
      ColumnStats& cs = stats.columns[i];
      if (row[i].is_null()) {
        ++cs.null_count;
        continue;
      }
      if (!cs.valid) {
        cs.valid = true;
        cs.min = row[i];
        cs.max = row[i];
      } else {
        if (row[i].Compare(cs.min) < 0) cs.min = row[i];
        if (row[i].Compare(cs.max) > 0) cs.max = row[i];
      }
      distinct[i].insert(key_codec::Encode(row[i]));
      samples[i].push_back(row[i]);
    }
  }
  for (size_t i = 0; i < distinct.size(); ++i) {
    ColumnStats& cs = stats.columns[i];
    cs.ndv = distinct[i].size();
    // Equi-height histograms ride on the values ANALYZE already read; the
    // in-memory sort is free of simulated charges (the paper's systems fold
    // it into the utility's CPU budget).
    std::sort(samples[i].begin(), samples[i].end(),
              [](const Value& a, const Value& b) { return a.Compare(b) < 0; });
    BuildEquiHeightHistogram(std::move(samples[i]), &cs);
  }
  stats.valid = true;
  table->stats = std::move(stats);
  table->mods_since_analyze = 0;
  return Status::OK();
}

Status Database::Analyze(const std::string& table) {
  // New statistics can change any plan (as in PostgreSQL's plancache.c).
  FlushPlanCache();
  if (!table.empty()) {
    R3_ASSIGN_OR_RETURN(TableInfo * ti, catalog_->GetTable(table));
    return AnalyzeTable(ti);
  }
  for (const TableInfo* t : catalog_->AllTables()) {
    R3_RETURN_IF_ERROR(AnalyzeTable(const_cast<TableInfo*>(t)));
  }
  return Status::OK();
}

Result<std::vector<Database::TableSize>> Database::TableSizes() const {
  std::vector<TableSize> out;
  for (const TableInfo* t : catalog_->AllTables()) {
    TableSize ts;
    ts.name = t->name;
    ts.rows = t->row_count;
    R3_ASSIGN_OR_RETURN(uint64_t data_bytes, t->storage->DataBytes());
    ts.data_kb = data_bytes / 1024;
    uint64_t index_bytes = 0;
    for (const IndexInfo* idx : t->indexes) {
      R3_ASSIGN_OR_RETURN(uint64_t b,
                          pool_->disk()->FileSizeBytes(idx->btree->file_id()));
      index_bytes += b;
    }
    ts.index_kb = index_bytes / 1024;
    out.push_back(std::move(ts));
  }
  return out;
}

}  // namespace rdbms
}  // namespace r3
