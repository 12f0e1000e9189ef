#include <algorithm>

#include "common/str_util.h"
#include "rdbms/exec/executor.h"
#include "rdbms/exec/parallel_ops.h"
#include "rdbms/index/key_codec.h"

namespace r3 {
namespace rdbms {

namespace {

/// Copies `range.width` values from `src` into `range` of `dst`.
void CopyInto(const Value* src, const FilledRange& range, Row* dst) {
  std::copy(src, src + range.width, dst->begin() + range.offset);
}

void NullRange(const FilledRange& range, Row* dst) {
  auto first = dst->begin() + range.offset;
  std::fill(first, first + range.width, Value::Null());
}

}  // namespace

Status EvalJoinKey(const std::vector<const Expr*>& keys, const EvalContext& ec,
                   std::string* out, bool* null_key) {
  out->clear();
  *null_key = false;
  for (const Expr* k : keys) {
    Value v;
    R3_RETURN_IF_ERROR(EvalExpr(*k, ec, &v));
    if (v.is_null()) {
      *null_key = true;
      return Status::OK();
    }
    // Normalize numerics so INT 5 and DECIMAL 5.00 and DOUBLE 5.0 meet.
    if (IsNumeric(v.type()) && v.type() != DataType::kDouble) {
      v = Value::Dbl(v.AsDouble());
    }
    key_codec::EncodeValue(v, out);
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// HashJoinOp
// ---------------------------------------------------------------------------

HashJoinOp::HashJoinOp(OperatorPtr build, OperatorPtr probe,
                       std::vector<const Expr*> build_keys,
                       std::vector<const Expr*> probe_keys,
                       std::vector<const Expr*> residual,
                       FilledRange build_range, bool preserve_probe,
                       uint64_t est_build_rows)
    : build_(std::move(build)),
      probe_(std::move(probe)),
      build_keys_(std::move(build_keys)),
      probe_keys_(std::move(probe_keys)),
      residual_(std::move(residual)),
      build_range_(build_range),
      preserve_probe_(preserve_probe),
      est_build_rows_(est_build_rows) {}

Status HashJoinOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  table_.Reset(build_range_.width, est_build_rows_);
  match_ = JoinTable::kEnd;
  probe_done_ = false;
  have_probe_ = false;
  emitted_for_probe_ = false;
  probe_batch_.Clear();
  probe_pos_ = 0;

  // A Gather build child runs the scan + key evaluation on its worker pool
  // (partitioned build); the serial path drains the child batch by batch
  // (probe_batch_ doubles as the drain scratch until probing starts).
  if (auto* gather = dynamic_cast<GatherOp*>(build_.get())) {
    R3_RETURN_IF_ERROR(
        gather->BuildJoinTable(ctx, build_keys_, build_range_, &table_));
    return probe_->Open(ctx);
  }
  R3_RETURN_IF_ERROR(build_->Open(ctx));
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  while (true) {
    probe_batch_.Reset(ctx->batch_size);
    R3_ASSIGN_OR_RETURN(bool ok, build_->NextBatch(&probe_batch_));
    if (!ok) break;
    for (size_t i = 0; i < probe_batch_.size(); ++i) {
      ctx_->clock->ChargeDbmsTuple();
      ec.row = &probe_batch_.row(i);
      bool null_key = false;
      R3_RETURN_IF_ERROR(
          EvalJoinKey(build_keys_, ec, &key_scratch_, &null_key));
      if (null_key) continue;
      table_.Insert(key_scratch_,
                    probe_batch_.row(i).data() + build_range_.offset);
    }
  }
  R3_RETURN_IF_ERROR(build_->Close());
  probe_batch_.Clear();
  return probe_->Open(ctx);
}

Result<bool> HashJoinOp::NextBatchImpl(RowBatch* out) {
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  while (!probe_done_) {
    if (!have_probe_) {
      if (probe_pos_ >= probe_batch_.size()) {
        probe_batch_.Reset(out->capacity());
        R3_ASSIGN_OR_RETURN(bool ok, probe_->NextBatch(&probe_batch_));
        if (!ok) {
          probe_done_ = true;
          break;
        }
        probe_pos_ = 0;
      }
      ctx_->clock->ChargeDbmsTuple();
      ec.row = &probe_batch_.row(probe_pos_);
      bool null_key = false;
      R3_RETURN_IF_ERROR(
          EvalJoinKey(probe_keys_, ec, &key_scratch_, &null_key));
      match_ = null_key ? JoinTable::kEnd : table_.Find(key_scratch_);
      emitted_for_probe_ = false;
      have_probe_ = true;
    }
    const Row& probe_row = probe_batch_.row(probe_pos_);
    // match_ survives suspensions: the table is immutable while probing.
    while (match_ != JoinTable::kEnd) {
      if (out->full()) return true;
      Row& candidate = out->AppendRow();
      candidate = probe_row;
      CopyInto(table_.RowValues(match_), build_range_, &candidate);
      match_ = table_.Next(match_);
      ec.row = &candidate;
      R3_ASSIGN_OR_RETURN(bool pass, EvalPredicates(residual_, ec));
      if (pass) {
        emitted_for_probe_ = true;
      } else {
        out->PopRow();
      }
    }
    // This probe row has no (further) matches.
    if (preserve_probe_ && !emitted_for_probe_) {
      if (out->full()) return true;
      Row& preserved = out->AppendRow();
      preserved = probe_row;
      NullRange(build_range_, &preserved);
      emitted_for_probe_ = true;
    }
    have_probe_ = false;
    ++probe_pos_;
  }
  return !out->empty();
}

Status HashJoinOp::CloseImpl() {
  table_.Release();
  return probe_->Close();
}

std::string HashJoinOp::Describe(bool analyze) const {
  std::string out = preserve_probe_ ? "HashLeftOuterJoin(" : "HashJoin(";
  for (size_t i = 0; i < build_keys_.size(); ++i) {
    if (i != 0) out += ", ";
    out += build_keys_[i]->ToString() + "=" + probe_keys_[i]->ToString();
  }
  for (const Expr* r : residual_) out += ", " + r->ToString();
  out += ")";
  return out + StatsSuffix(analyze) + "\n" + Indent(build_->Describe(analyze)) +
         "\n" + Indent(probe_->Describe(analyze));
}

// ---------------------------------------------------------------------------
// IndexNLJoinOp
// ---------------------------------------------------------------------------

IndexNLJoinOp::IndexNLJoinOp(OperatorPtr left, const TableInfo* table,
                             const IndexInfo* index, size_t table_offset,
                             std::vector<const Expr*> key_exprs,
                             std::vector<const Expr*> residual,
                             bool preserve_left,
                             std::optional<std::vector<size_t>> needed_cols)
    : left_(std::move(left)),
      table_(table),
      index_(index),
      table_offset_(table_offset),
      keys_{std::move(key_exprs), {}},
      residual_(std::move(residual)),
      preserve_left_(preserve_left),
      needed_cols_(std::move(needed_cols)) {}

Status IndexNLJoinOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  left_done_ = false;
  have_left_ = false;
  emitted_for_left_ = false;
  left_batch_.Clear();
  left_pos_ = 0;
  return left_->Open(ctx);
}

Result<bool> IndexNLJoinOp::NextBatchImpl(RowBatch* out) {
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  Rid rid;
  while (!left_done_) {
    if (!have_left_) {
      if (left_pos_ >= left_batch_.size()) {
        // The outer side stays row-at-a-time: each probe interleaves index
        // and inner-heap page reads with the outer scan, so prefetching a
        // batch of outer rows would reorder page accesses and — once the
        // buffer pool is evicting — change simulated I/O. Output batching
        // is unaffected.
        left_batch_.Reset(1);
        R3_ASSIGN_OR_RETURN(bool ok, left_->NextBatch(&left_batch_));
        if (!ok) {
          left_done_ = true;
          break;
        }
        left_pos_ = 0;
      }
      // Probe with this left row's key; a NULL key compiles to no range.
      emitted_for_left_ = false;
      ec.row = &left_batch_.row(left_pos_);
      R3_RETURN_IF_ERROR(range_.Compile(*table_, *index_, keys_, ec));
      R3_RETURN_IF_ERROR(range_.Seek());
      have_left_ = true;
    }
    const Row& left_row = left_batch_.row(left_pos_);
    while (true) {
      if (out->full()) return true;  // resume from the cursor on re-entry
      R3_ASSIGN_OR_RETURN(bool ok, range_.Next(*ctx_, &rid, &rec_));
      if (!ok) break;
      Row& candidate = out->AppendRow();
      candidate = left_row;  // the inner table's positions are NULL here
      R3_RETURN_IF_ERROR(DecodeRowInto(table_->schema, rec_, needed_cols_,
                                       table_offset_, &candidate));
      ec.row = &candidate;
      R3_ASSIGN_OR_RETURN(bool pass, EvalPredicates(residual_, ec));
      if (pass) {
        emitted_for_left_ = true;
      } else {
        out->PopRow();
      }
    }
    // Left row exhausted its matches.
    if (preserve_left_ && !emitted_for_left_) {
      if (out->full()) return true;
      out->AppendRow() = left_row;  // inner columns already NULL in the row
      emitted_for_left_ = true;
    }
    have_left_ = false;
    ++left_pos_;
  }
  return !out->empty();
}

Status IndexNLJoinOp::CloseImpl() { return left_->Close(); }

std::string IndexNLJoinOp::Describe(bool analyze) const {
  std::string out = preserve_left_ ? "IndexNLOuterJoin(" : "IndexNLJoin(";
  out += table_->name + " via " + index_->name + ", keys=";
  for (size_t i = 0; i < keys_.eq_exprs.size(); ++i) {
    if (i != 0) out += ",";
    out += keys_.eq_exprs[i]->ToString();
  }
  for (const Expr* r : residual_) out += ", " + r->ToString();
  return out + ")" + StatsSuffix(analyze) + "\n" +
         Indent(left_->Describe(analyze));
}

// ---------------------------------------------------------------------------
// NestedLoopsJoinOp
// ---------------------------------------------------------------------------

NestedLoopsJoinOp::NestedLoopsJoinOp(OperatorPtr left, OperatorPtr right,
                                     std::vector<const Expr*> predicates,
                                     FilledRange right_range,
                                     bool preserve_left)
    : left_(std::move(left)),
      right_(std::make_unique<MaterializeOp>(std::move(right),
                                             /*cacheable=*/false)),
      predicates_(std::move(predicates)),
      right_range_(right_range),
      preserve_left_(preserve_left) {}

Status NestedLoopsJoinOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  left_done_ = false;
  have_left_ = false;
  left_batch_.Clear();
  left_pos_ = 0;
  right_pos_ = 0;
  emitted_for_left_ = false;
  R3_RETURN_IF_ERROR(right_->Open(ctx));
  return left_->Open(ctx);
}

Result<bool> NestedLoopsJoinOp::NextBatchImpl(RowBatch* out) {
  const std::vector<Row>& inner = right_->rows();
  EvalContext ec = ctx_->MakeEvalContext(nullptr);
  while (!left_done_) {
    if (!have_left_) {
      if (left_pos_ >= left_batch_.size()) {
        left_batch_.Reset(out->capacity());
        R3_ASSIGN_OR_RETURN(bool ok, left_->NextBatch(&left_batch_));
        if (!ok) {
          left_done_ = true;
          break;
        }
        left_pos_ = 0;
      }
      right_pos_ = 0;
      emitted_for_left_ = false;
      have_left_ = true;
    }
    const Row& left_row = left_batch_.row(left_pos_);
    while (right_pos_ < inner.size()) {
      if (out->full()) return true;
      ctx_->clock->ChargeDbmsTuple();
      Row& candidate = out->AppendRow();
      candidate = left_row;
      CopyInto(inner[right_pos_].data() + right_range_.offset, right_range_,
               &candidate);
      ++right_pos_;
      ec.row = &candidate;
      R3_ASSIGN_OR_RETURN(bool pass, EvalPredicates(predicates_, ec));
      if (pass) {
        emitted_for_left_ = true;
      } else {
        out->PopRow();
      }
    }
    // Inner exhausted for this left row.
    if (preserve_left_ && !emitted_for_left_) {
      if (out->full()) return true;
      Row& preserved = out->AppendRow();
      preserved = left_row;
      NullRange(right_range_, &preserved);
      emitted_for_left_ = true;
    }
    have_left_ = false;
    ++left_pos_;
  }
  return !out->empty();
}

Status NestedLoopsJoinOp::CloseImpl() {
  R3_RETURN_IF_ERROR(right_->Close());
  return left_->Close();
}

std::string NestedLoopsJoinOp::Describe(bool analyze) const {
  std::string out = preserve_left_ ? "NLOuterJoin(" : "NLJoin(";
  for (size_t i = 0; i < predicates_.size(); ++i) {
    if (i != 0) out += " AND ";
    out += predicates_[i]->ToString();
  }
  return out + ")" + StatsSuffix(analyze) + "\n" +
         Indent(left_->Describe(analyze)) + "\n" +
         Indent(right_->Describe(analyze));
}

}  // namespace rdbms
}  // namespace r3
