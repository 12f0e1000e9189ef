#include "rdbms/exec/executor.h"

#include <algorithm>

#include "common/str_util.h"
#include "rdbms/index/key_codec.h"

namespace r3 {
namespace rdbms {

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

size_t CappedReserve(uint64_t est_rows) {
  return static_cast<size_t>(std::min<uint64_t>(est_rows, 1u << 20));
}

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

// ---------------------------------------------------------------------------
// SeqScanOp
// ---------------------------------------------------------------------------

namespace {

/// Table-local column id of row position `pos` for a table whose needed
/// columns (all `ncols` without a projection) start at `offset`, or -1 when
/// `pos` lies outside the table's positions.
int64_t LocalColumn(size_t pos, size_t offset,
                    const std::optional<std::vector<size_t>>& needed,
                    size_t ncols) {
  const size_t width = needed.has_value() ? needed->size() : ncols;
  if (pos < offset || pos >= offset + width) return -1;
  const size_t k = pos - offset;
  return static_cast<int64_t>(needed.has_value() ? (*needed)[k] : k);
}

/// Collects the table-local column ids a predicate reads. Correlated outer
/// refs and subquery internals are charged-for conservatively elsewhere.
void CollectLocalCols(const Expr& e, size_t offset,
                      const std::optional<std::vector<size_t>>& needed,
                      size_t ncols, std::vector<size_t>* out) {
  if (e.kind == ExprKind::kColumnRef) {
    const int64_t c = LocalColumn(e.column_index, offset, needed, ncols);
    if (c >= 0) out->push_back(static_cast<size_t>(c));
  }
  for (const ExprPtr& c : e.children) {
    if (c != nullptr) CollectLocalCols(*c, offset, needed, ncols, out);
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
    CollectLocalCols(*f, offset_, needed_cols_, ncols, &spec->filter_cols);
    if (f->kind != ExprKind::kCompare || f->cmp_op != CmpOp::kEq ||
        f->children.size() != 2) {
      continue;
    }
    for (int side = 0; side < 2; ++side) {
      const Expr& col = *f->children[side];
      const Expr& konst = *f->children[1 - side];
      const int64_t c =
          col.kind == ExprKind::kColumnRef
              ? LocalColumn(col.column_index, offset_, needed_cols_, ncols)
              : -1;
      if (c < 0) continue;
      const size_t local = static_cast<size_t>(c);
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
  R3_RETURN_IF_ERROR(range_.Compile(*table_, *index_, bounds_,
                                    ctx_->MakeEvalContext(nullptr)));
  return range_.Seek();
}

Result<bool> IndexScanOp::NextBatchImpl(RowBatch* out) {
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  Rid rid;
  bool more = true;
  while (more && !out->full()) {
    size_t first = out->size();
    while (!out->full()) {
      R3_ASSIGN_OR_RETURN(more, range_.Next(*ctx_, &rid, &rec_));
      if (!more) break;
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

Status IndexScanOp::CloseImpl() { return Status::OK(); }

std::string IndexScanOp::Describe(bool analyze) const {
  std::string out = "IndexScan(" + table_->name + " via " + index_->name;
  out += str::Format(", eq=%zu", bounds_.eq_exprs.size());
  const std::vector<IndexRange>& ranges = bounds_.ranges;
  if (ranges.size() == 1 && ranges[0].point == nullptr) {
    // One contiguous range renders as lo=/hi=, as before multi-range.
    const IndexRange& r = ranges[0];
    if (r.lower != nullptr) out += ", lo=" + r.lower->ToString();
    if (r.upper != nullptr) out += ", hi=" + r.upper->ToString();
  } else if (!ranges.empty()) {
    out += str::Format(", ranges=%zu{", ranges.size());
    for (size_t i = 0; i < ranges.size(); ++i) {
      const IndexRange& r = ranges[i];
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
    // Swap, not move: the child's slot keeps storage for its next fill.
    for (uint32_t idx : sel_) out->AppendRow().swap(child_batch_.row(idx));
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
      if (seen_.insert(key_scratch_).second) out->AppendRow().swap(row);
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
