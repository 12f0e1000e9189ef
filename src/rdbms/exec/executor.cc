#include "rdbms/exec/executor.h"

#include <algorithm>

#include "common/str_util.h"
#include "rdbms/index/key_codec.h"
#include "rdbms/storage/page.h"
#include "rdbms/txn/mvcc.h"

namespace r3 {
namespace rdbms {

namespace {

/// Indents every line of a child's debug string.
std::string Indent(const std::string& s) {
  std::string out;
  size_t start = 0;
  while (start < s.size()) {
    size_t end = s.find('\n', start);
    if (end == std::string::npos) end = s.size();
    out += "  " + s.substr(start, end - start) + "\n";
    start = end + 1;
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Operator wrappers
// ---------------------------------------------------------------------------

Status Operator::Open(ExecContext* ctx) {
  stats_clock_ = ctx->clock;
  totals_ = ctx->totals;
  if (ctx->statement_epoch != stats_epoch_) {
    // First Open on behalf of a new top-level statement: drop the counters
    // accumulated by earlier executions of this (cached) plan.
    stats_ = OperatorStats();
    stats_epoch_ = ctx->statement_epoch;
  }
  if (Tracer* tracer =
          stats_clock_ != nullptr ? stats_clock_->tracer() : nullptr) {
    if (span_token_ != Tracer::kInactive) tracer->EndSpan(span_token_);
    if (span_name_.empty()) {
      span_name_ = Describe(false);
      size_t eol = span_name_.find('\n');
      if (eol != std::string::npos) span_name_.resize(eol);
    }
    span_token_ = tracer->BeginSpan("exec", span_name_);
    span_rows_base_ = stats_.rows_out;
  }
  ++stats_.opens;
  if (totals_ != nullptr) ++totals_->opens;
  int64_t t0 = stats_clock_ != nullptr ? stats_clock_->NowMicros() : 0;
  Status s = OpenImpl(ctx);
  if (stats_clock_ != nullptr) stats_.sim_us += stats_clock_->NowMicros() - t0;
  return s;
}

Result<bool> Operator::NextBatch(RowBatch* out) {
  out->Clear();
  int64_t t0 = stats_clock_ != nullptr ? stats_clock_->NowMicros() : 0;
  Result<bool> r = NextBatchImpl(out);
  if (stats_clock_ != nullptr) stats_.sim_us += stats_clock_->NowMicros() - t0;
  if (r.ok() && r.value()) {
    stats_.rows_out += static_cast<int64_t>(out->size());
    ++stats_.batches_out;
    if (totals_ != nullptr) {
      totals_->rows += static_cast<int64_t>(out->size());
      ++totals_->batches;
    }
  }
  return r;
}

Status Operator::Close() {
  ++stats_.closes;
  if (totals_ != nullptr) ++totals_->closes;
  Status s = CloseImpl();
  if (span_token_ != Tracer::kInactive && stats_clock_ != nullptr) {
    if (Tracer* tracer = stats_clock_->tracer()) {
      tracer->SpanArgInt(span_token_, "rows", stats_.rows_out - span_rows_base_);
      tracer->EndSpan(span_token_);
    }
    span_token_ = Tracer::kInactive;
  }
  return s;
}

std::string Operator::StatsSuffix(bool analyze) const {
  if (!analyze) return "";
  std::string out =
      str::Format(" [rows=%lld batches=%lld opens=%lld sim=%lldus]",
                  static_cast<long long>(stats_.rows_out),
                  static_cast<long long>(stats_.batches_out),
                  static_cast<long long>(stats_.opens),
                  static_cast<long long>(stats_.sim_us));
  // Est-vs-actual drift for nodes the optimizer recorded an estimate on;
  // the stale-stats story of EXPLAIN ANALYZE (plain EXPLAIN is untouched).
  if (est_rows_ > 0) {
    double actual = static_cast<double>(stats_.rows_out);
    double drift = actual / static_cast<double>(est_rows_);
    out += str::Format(" [est_rows=%llu drift=%.2fx]",
                       static_cast<unsigned long long>(est_rows_), drift);
  }
  return out;
}

std::string ExplainPlan(const Operator& root, bool analyze) {
  return root.Describe(analyze);
}

std::string RowKey(const Row& row) { return key_codec::Encode(row); }
std::string ValuesKey(const std::vector<Value>& values) {
  return key_codec::Encode(values);
}

Result<bool> MvccFetchRow(const ExecContext& ctx, const TableInfo* table,
                          Rid rid, std::string* rec) {
  // Deletes remove B-tree entries eagerly, so a live entry whose row is
  // gone means index and heap disagree: the miss surfaces as an error.
  R3_RETURN_IF_ERROR(table->storage->Get(rid, rec));
  if (ctx.mvcc == nullptr || ctx.snapshot == nullptr ||
      !ctx.mvcc->MightHaveVersions(table->storage->file_id())) {
    return true;
  }
  std::string alt;
  switch (
      ctx.mvcc->Check(table->storage->file_id(), rid, *ctx.snapshot, &alt)) {
    case txn::MvccManager::Visibility::kCurrent:
      return true;
    case txn::MvccManager::Visibility::kAltVersion:
      *rec = std::move(alt);
      return true;
    case txn::MvccManager::Visibility::kInvisible:
      return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// SeqScanOp
// ---------------------------------------------------------------------------

namespace {

/// Collects the table-local column ids a predicate reads (wide-row refs
/// rebased by `offset`, clipped to the table's width). Correlated outer
/// refs and subquery internals are charged-for conservatively elsewhere.
void CollectLocalCols(const Expr& e, size_t offset, size_t ncols,
                      std::vector<size_t>* out) {
  if (e.kind == ExprKind::kColumnRef && e.column_index >= offset &&
      e.column_index < offset + ncols) {
    out->push_back(e.column_index - offset);
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr) CollectLocalCols(*c, offset, ncols, out);
  }
}

void SortUnique(std::vector<size_t>* v) {
  std::sort(v->begin(), v->end());
  v->erase(std::unique(v->begin(), v->end()), v->end());
}

bool IsSubqueryNode(const Expr& e) {
  return e.kind == ExprKind::kScalarSubquery ||
         e.kind == ExprKind::kExistsSubquery ||
         e.kind == ExprKind::kInSubquery;
}

}  // namespace

SeqScanOp::SeqScanOp(const TableInfo* table, size_t offset, size_t wide_width,
                     std::vector<const Expr*> filters,
                     std::optional<std::vector<size_t>> needed_cols)
    : table_(table),
      offset_(offset),
      wide_width_(wide_width),
      filters_(std::move(filters)),
      needed_cols_(std::move(needed_cols)) {}

Status SeqScanOp::BuildScanSpec(ExecContext* ctx, ScanSpec* spec) const {
  spec->mvcc = ctx->mvcc;
  spec->snapshot = ctx->snapshot;
  spec->offset = offset_;
  spec->wide_width = wide_width_;
  spec->needed_cols = needed_cols_;
  if (table_->storage->kind() == EngineKind::kRowHeap) return Status::OK();
  // Columnar extras: which columns the filters read (charging), and which
  // string-equality predicates can pre-filter on dictionary codes. A
  // pushed-down equality is evaluated exactly like EvalExpr would on the
  // materialized value (NULL never matches), and the original predicate
  // stays in filters_, so this can only skip decode work — never change
  // results.
  const size_t ncols = table_->schema.NumColumns();
  EvalContext ec = ctx->MakeEvalContext(nullptr);
  for (const Expr* f : filters_) {
    CollectLocalCols(*f, offset_, ncols, &spec->filter_cols);
    if (f->kind != ExprKind::kCompare || f->cmp_op != CmpOp::kEq ||
        f->children.size() != 2) {
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const Expr& col = *f->children[side];
      const Expr& konst = *f->children[1 - side];
      if (col.kind != ExprKind::kColumnRef || col.column_index < offset_ ||
          col.column_index >= offset_ + ncols) {
        continue;
      }
      size_t local = col.column_index - offset_;
      if (table_->schema.column(local).type != DataType::kString) continue;
      if (ExprHasColumnRefs(konst) || ExprContains(konst, IsSubqueryNode)) {
        continue;
      }
      Value v;
      Status st = EvalExpr(konst, ec, &v);
      if (!st.ok() || v.is_null() || v.type() != DataType::kString) continue;
      spec->dict_eqs.push_back(ScanSpec::DictEq{local, v.string_value()});
      break;
    }
  }
  SortUnique(&spec->filter_cols);
  return Status::OK();
}

Status SeqScanOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  done_ = false;
  ScanSpec spec;
  R3_RETURN_IF_ERROR(BuildScanSpec(ctx, &spec));
  cursor_ = table_->storage->NewScanCursor(spec);
  return Status::OK();
}

Result<bool> SeqScanOp::NextBatchImpl(RowBatch* out) {
  if (done_) return false;
  R3_RETURN_IF_ERROR(cursor_->BeginBatch());
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  while (!out->full()) {
    size_t first = out->size();
    R3_ASSIGN_OR_RETURN(bool more, cursor_->NextChunk(out));
    if (!more) {
      done_ = true;
      break;
    }
    // Any page pin was released inside the cursor before filters run (they
    // may execute subqueries).
    if (!filters_.empty() && out->size() > first) {
      R3_RETURN_IF_ERROR(
          EvalPredicatesBatch(filters_, &ec, *out, first, &sel_));
      out->Keep(sel_, first);
    }
  }
  return !out->empty();
}

Status SeqScanOp::CloseImpl() {
  cursor_.reset();
  return Status::OK();
}

std::string SeqScanOp::Describe(bool analyze) const {
  std::string out = table_->storage->kind() == EngineKind::kColumnar
                        ? "ColumnarScan("
                        : "SeqScan(";
  out += table_->name;
  for (const Expr* f : filters_) out += ", " + f->ToString();
  return out + ")" + StatsSuffix(analyze);
}

// ---------------------------------------------------------------------------
// IndexScanOp
// ---------------------------------------------------------------------------

IndexScanOp::IndexScanOp(const TableInfo* table, const IndexInfo* index,
                         size_t offset, size_t wide_width, IndexBounds bounds,
                         std::vector<const Expr*> residual_filters,
                         std::optional<std::vector<size_t>> needed_cols)
    : table_(table),
      index_(index),
      offset_(offset),
      wide_width_(wide_width),
      bounds_(std::move(bounds)),
      filters_(std::move(residual_filters)),
      needed_cols_(std::move(needed_cols)) {}

Status IndexScanOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  done_ = false;
  key_ranges_.clear();
  next_range_ = 0;
  // Evaluate the bound expressions (no row context: literals/params only).
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  std::string prefix;
  for (size_t i = 0; i < bounds_.eq_exprs.size(); ++i) {
    Value v;
    R3_RETURN_IF_ERROR(EvalExpr(*bounds_.eq_exprs[i], ec, &v));
    // Cast to the index column's type so encodings line up.
    size_t col = index_->column_indices[i];
    R3_ASSIGN_OR_RETURN(v, v.CastTo(table_->schema.column(col).type));
    key_codec::EncodeValue(v, &prefix);
  }
  if (!bounds_.ranges.empty()) {
    // Multi-range (optimizer v2): compile every range to an encoded
    // (start, stop) pair, then sort and merge overlaps so the scan emits
    // each qualifying row exactly once, in key order.
    const size_t col = index_->column_indices[bounds_.eq_exprs.size()];
    const DataType ct = table_->schema.column(col).type;
    auto encode = [&](const Expr& e, std::string* out_key) -> Status {
      Value v;
      R3_RETURN_IF_ERROR(EvalExpr(e, ec, &v));
      R3_ASSIGN_OR_RETURN(v, v.CastTo(ct));
      *out_key = prefix;
      key_codec::EncodeValue(v, out_key);
      return Status::OK();
    };
    for (const IndexRange& r : bounds_.ranges) {
      std::string start = prefix;
      std::string stop = key_codec::PrefixUpperBound(prefix);
      std::string enc;
      if (r.point != nullptr) {
        R3_RETURN_IF_ERROR(encode(*r.point, &enc));
        start = enc;
        stop = key_codec::PrefixUpperBound(enc);
      } else {
        if (r.lower != nullptr) {
          R3_RETURN_IF_ERROR(encode(*r.lower, &enc));
          start = r.lower_inclusive ? enc : key_codec::PrefixUpperBound(enc);
        }
        if (r.upper != nullptr) {
          R3_RETURN_IF_ERROR(encode(*r.upper, &enc));
          stop = r.upper_inclusive ? key_codec::PrefixUpperBound(enc) : enc;
        }
      }
      if (!stop.empty() && start >= stop) continue;  // provably empty
      key_ranges_.emplace_back(std::move(start), std::move(stop));
    }
    std::sort(key_ranges_.begin(), key_ranges_.end());
    std::vector<std::pair<std::string, std::string>> merged;
    for (auto& kr : key_ranges_) {
      if (!merged.empty()) {
        auto& last = merged.back();
        const bool last_unbounded = last.second.empty();
        if (last_unbounded || kr.first <= last.second) {
          if (last_unbounded || kr.second.empty()) {
            last.second.clear();
          } else if (kr.second > last.second) {
            last.second = kr.second;
          }
          continue;
        }
      }
      merged.push_back(std::move(kr));
    }
    key_ranges_ = std::move(merged);
    R3_ASSIGN_OR_RETURN(bool any, SeekNextRange());
    done_ = !any;
    return Status::OK();
  }
  std::string start = prefix;
  stop_key_ = key_codec::PrefixUpperBound(prefix);
  size_t range_col_pos = bounds_.eq_exprs.size();
  if (bounds_.lower != nullptr) {
    Value v;
    R3_RETURN_IF_ERROR(EvalExpr(*bounds_.lower, ec, &v));
    size_t col = index_->column_indices[range_col_pos];
    R3_ASSIGN_OR_RETURN(v, v.CastTo(table_->schema.column(col).type));
    std::string enc = prefix;
    key_codec::EncodeValue(v, &enc);
    start = bounds_.lower_inclusive ? enc : key_codec::PrefixUpperBound(enc);
  }
  if (bounds_.upper != nullptr) {
    Value v;
    R3_RETURN_IF_ERROR(EvalExpr(*bounds_.upper, ec, &v));
    size_t col = index_->column_indices[range_col_pos];
    R3_ASSIGN_OR_RETURN(v, v.CastTo(table_->schema.column(col).type));
    std::string enc = prefix;
    key_codec::EncodeValue(v, &enc);
    stop_key_ = bounds_.upper_inclusive ? key_codec::PrefixUpperBound(enc) : enc;
  }
  R3_ASSIGN_OR_RETURN(BTree::Cursor c, index_->btree->Seek(start));
  cursor_ = std::make_unique<BTree::Cursor>(std::move(c));
  return Status::OK();
}

Result<bool> IndexScanOp::SeekNextRange() {
  if (next_range_ >= key_ranges_.size()) return false;
  const auto& kr = key_ranges_[next_range_++];
  stop_key_ = kr.second;
  R3_ASSIGN_OR_RETURN(BTree::Cursor c, index_->btree->Seek(kr.first));
  cursor_ = std::make_unique<BTree::Cursor>(std::move(c));
  return true;
}

Result<bool> IndexScanOp::NextBatchImpl(RowBatch* out) {
  if (done_) return false;
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  std::string key;
  uint64_t payload = 0;
  while (!out->full() && !done_) {
    size_t first = out->size();
    while (!out->full()) {
      R3_ASSIGN_OR_RETURN(bool ok, cursor_->Next(&key, &payload));
      if (!ok || (!stop_key_.empty() && key >= stop_key_)) {
        R3_ASSIGN_OR_RETURN(bool more, SeekNextRange());
        if (more) continue;
        done_ = true;
        break;
      }
      ctx_->clock->ChargeDbmsTuple();
      R3_ASSIGN_OR_RETURN(
          bool visible,
          MvccFetchRow(*ctx_, table_, Rid::Unpack(payload), &rec_));
      if (!visible) continue;  // row created after this statement's snapshot
      Row& wide = out->AppendRow();
      wide.assign(wide_width_, Value::Null());
      R3_RETURN_IF_ERROR(DecodeRowInto(table_->schema, rec_, needed_cols_,
                                       offset_, &wide));
    }
    if (!filters_.empty() && out->size() > first) {
      R3_RETURN_IF_ERROR(
          EvalPredicatesBatch(filters_, &ec, *out, first, &sel_));
      out->Keep(sel_, first);
    }
  }
  return !out->empty();
}

Status IndexScanOp::CloseImpl() {
  cursor_.reset();
  return Status::OK();
}

std::string IndexScanOp::Describe(bool analyze) const {
  std::string out = "IndexScan(" + table_->name + " via " + index_->name;
  out += str::Format(", eq=%zu", bounds_.eq_exprs.size());
  if (!bounds_.ranges.empty()) {
    // v2 multi-range rendering (never produced by legacy plans).
    out += str::Format(", ranges=%zu{", bounds_.ranges.size());
    for (size_t i = 0; i < bounds_.ranges.size(); ++i) {
      const IndexRange& r = bounds_.ranges[i];
      if (i > 0) out += ",";
      if (r.point != nullptr) {
        out += "=" + r.point->ToString();
      } else {
        out += r.lower_inclusive ? "[" : "(";
        if (r.lower != nullptr) out += r.lower->ToString();
        out += "..";
        if (r.upper != nullptr) out += r.upper->ToString();
        out += r.upper_inclusive ? "]" : ")";
      }
    }
    out += "}";
  }
  if (bounds_.lower != nullptr) out += ", lo=" + bounds_.lower->ToString();
  if (bounds_.upper != nullptr) out += ", hi=" + bounds_.upper->ToString();
  for (const Expr* f : filters_) out += ", " + f->ToString();
  return out + ")" + StatsSuffix(analyze);
}

// ---------------------------------------------------------------------------
// FilterOp
// ---------------------------------------------------------------------------

FilterOp::FilterOp(OperatorPtr child, std::vector<const Expr*> predicates)
    : child_(std::move(child)), predicates_(std::move(predicates)) {}

Status FilterOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Result<bool> FilterOp::NextBatchImpl(RowBatch* out) {
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  while (out->empty()) {
    // Capacity-bounded pull: the child produces at most as many rows as the
    // caller still wants, so an early-exiting caller never triggers work the
    // row-at-a-time engine would not have done (DESIGN.md §6).
    child_batch_.Reset(out->capacity());
    R3_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&child_batch_));
    if (!ok) return false;
    R3_RETURN_IF_ERROR(
        EvalPredicatesBatch(predicates_, &ec, child_batch_, 0, &sel_));
    for (uint32_t idx : sel_) out->PushRow(std::move(child_batch_.row(idx)));
  }
  return true;
}

Status FilterOp::CloseImpl() { return child_->Close(); }

std::string FilterOp::Describe(bool analyze) const {
  std::string out = "Filter(";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i != 0) out += " AND ";
    out += predicates_[i]->ToString();
  }
  return out + ")" + StatsSuffix(analyze) + "\n" +
         Indent(child_->Describe(analyze));
}

// ---------------------------------------------------------------------------
// ProjectOp
// ---------------------------------------------------------------------------

ProjectOp::ProjectOp(OperatorPtr child, std::vector<const Expr*> exprs)
    : child_(std::move(child)), exprs_(std::move(exprs)) {}

Status ProjectOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  return child_->Open(ctx);
}

Result<bool> ProjectOp::NextBatchImpl(RowBatch* out) {
  child_batch_.Reset(out->capacity());
  R3_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&child_batch_));
  if (!ok) return false;
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  R3_RETURN_IF_ERROR(EvalProjectionBatch(exprs_, &ec, child_batch_, out));
  return true;
}

Status ProjectOp::CloseImpl() { return child_->Close(); }

std::string ProjectOp::Describe(bool analyze) const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i != 0) out += ", ";
    out += exprs_[i]->ToString();
  }
  return out + ")" + StatsSuffix(analyze) + "\n" +
         Indent(child_->Describe(analyze));
}

// ---------------------------------------------------------------------------
// LimitOp
// ---------------------------------------------------------------------------

LimitOp::LimitOp(OperatorPtr child, int64_t limit)
    : child_(std::move(child)), limit_(limit) {}

Status LimitOp::OpenImpl(ExecContext* ctx) {
  produced_ = 0;
  return child_->Open(ctx);
}

Result<bool> LimitOp::NextBatchImpl(RowBatch* out) {
  if (produced_ >= limit_) return false;
  // Shrink the pull to the remaining row budget so a LIMIT cutting
  // mid-batch never makes the child produce (or charge for) surplus rows.
  size_t want = std::min<size_t>(
      out->capacity(), static_cast<size_t>(limit_ - produced_));
  out->Reset(want);
  R3_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(out));
  if (!ok) return false;
  produced_ += static_cast<int64_t>(out->size());
  return true;
}

Status LimitOp::CloseImpl() { return child_->Close(); }

std::string LimitOp::Describe(bool analyze) const {
  return str::Format("Limit(%lld)", static_cast<long long>(limit_)) +
         StatsSuffix(analyze) + "\n" + Indent(child_->Describe(analyze));
}

// ---------------------------------------------------------------------------
// DistinctOp
// ---------------------------------------------------------------------------

DistinctOp::DistinctOp(OperatorPtr child, uint64_t est_rows)
    : child_(std::move(child)), est_rows_(est_rows) {}

Status DistinctOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  seen_.clear();
  if (est_rows_ > 0) {
    seen_.reserve(
        static_cast<size_t>(std::min<uint64_t>(est_rows_, uint64_t{1} << 20)));
  }
  return child_->Open(ctx);
}

Result<bool> DistinctOp::NextBatchImpl(RowBatch* out) {
  while (out->empty()) {
    child_batch_.Reset(out->capacity());
    R3_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&child_batch_));
    if (!ok) return false;
    for (size_t i = 0; i < child_batch_.size(); ++i) {
      ctx_->clock->ChargeDbmsTuple();
      Row& row = child_batch_.row(i);
      // Encode into a reused scratch buffer; the set only copies on insert.
      key_scratch_.clear();
      for (const Value& v : row) key_codec::EncodeValue(v, &key_scratch_);
      if (seen_.insert(key_scratch_).second) out->PushRow(std::move(row));
    }
  }
  return true;
}

Status DistinctOp::CloseImpl() {
  seen_.clear();
  return child_->Close();
}

std::string DistinctOp::Describe(bool analyze) const {
  return "Distinct" + StatsSuffix(analyze) + "\n" +
         Indent(child_->Describe(analyze));
}

// ---------------------------------------------------------------------------
// MaterializeOp
// ---------------------------------------------------------------------------

MaterializeOp::MaterializeOp(OperatorPtr child, bool cacheable)
    : child_(std::move(child)), cacheable_(cacheable) {}

Status MaterializeOp::OpenImpl(ExecContext* ctx) {
  pos_ = 0;
  if (loaded_ && cacheable_) return Status::OK();
  rows_.clear();
  R3_RETURN_IF_ERROR(child_->Open(ctx));
  while (true) {
    child_batch_.Reset(ctx->batch_size);
    R3_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&child_batch_));
    if (!ok) break;
    for (size_t i = 0; i < child_batch_.size(); ++i) {
      rows_.push_back(std::move(child_batch_.row(i)));
    }
  }
  R3_RETURN_IF_ERROR(child_->Close());
  loaded_ = true;
  return Status::OK();
}

Result<bool> MaterializeOp::NextBatchImpl(RowBatch* out) {
  while (!out->full() && pos_ < rows_.size()) {
    out->AppendRow() = rows_[pos_++];  // copy: rows_ replays on re-open
  }
  return !out->empty();
}

Status MaterializeOp::CloseImpl() { return Status::OK(); }

std::string MaterializeOp::Describe(bool analyze) const {
  return "Materialize" + StatsSuffix(analyze) + "\n" +
         Indent(child_->Describe(analyze));
}

}  // namespace rdbms
}  // namespace r3
