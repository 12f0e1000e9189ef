#include <algorithm>

#include "common/str_util.h"
#include "rdbms/exec/agg_state.h"
#include "rdbms/exec/executor.h"
#include "rdbms/index/key_codec.h"

namespace r3 {
namespace rdbms {

AggTable::AggTable(const std::vector<const Expr*>& group_exprs,
                   const std::vector<const Expr*>& agg_calls, size_t reserve)
    : group_exprs_(group_exprs), agg_calls_(agg_calls) {
  if (reserve > 0) groups_.reserve(reserve);
}

Status AggTable::Add(const RowBatch& batch, const ExecContext& ctx) {
  EvalContext ec = ctx.MakeEvalContext(nullptr);
  for (size_t r = 0; r < batch.size(); ++r) {
    ctx.clock->ChargeDbmsTuple();
    ec.row = &batch.row(r);
    key_.clear();
    keys_.clear();
    for (const Expr* g : group_exprs_) {
      Value v;
      R3_RETURN_IF_ERROR(EvalExpr(*g, ec, &v));
      key_codec::EncodeValue(v, &key_);
      keys_.push_back(std::move(v));
    }
    auto [it, inserted] = groups_.try_emplace(key_);
    if (inserted) {
      it->second.keys = keys_;
      it->second.states.resize(agg_calls_.size());
    }
    for (size_t i = 0; i < agg_calls_.size(); ++i) {
      const Expr& call = *agg_calls_[i];
      Value arg;
      if (call.agg_func != AggFunc::kCountStar) {
        R3_RETURN_IF_ERROR(EvalExpr(*call.children[0], ec, &arg));
      }
      it->second.states[i].Accumulate(call, arg);
    }
  }
  return Status::OK();
}

void AggTable::Merge(AggTable&& other) {
  for (auto& [key, group] : other.groups_) {
    auto [it, inserted] = groups_.try_emplace(key);
    if (inserted) {
      it->second = std::move(group);
    } else {
      for (size_t i = 0; i < agg_calls_.size(); ++i) {
        it->second.states[i].Merge(group.states[i]);
      }
    }
  }
}

std::vector<Row> AggTable::Finish() {
  std::vector<Row> results;
  if (groups_.empty() && group_exprs_.empty()) {
    Row out;
    for (const Expr* call : agg_calls_) {
      out.push_back(AggState().Finalize(*call));
    }
    results.push_back(std::move(out));
    return results;
  }
  // Encoded-key order keeps the result order deterministic.
  std::vector<std::pair<const std::string*, Group*>> ordered;
  ordered.reserve(groups_.size());
  for (auto& [k, g] : groups_) ordered.emplace_back(&k, &g);
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  results.reserve(ordered.size());
  for (auto& [k, g] : ordered) {
    Row out = std::move(g->keys);
    for (size_t i = 0; i < agg_calls_.size(); ++i) {
      out.push_back(g->states[i].Finalize(*agg_calls_[i]));
    }
    results.push_back(std::move(out));
  }
  return results;
}

HashAggOp::HashAggOp(OperatorPtr child, std::vector<const Expr*> group_exprs,
                     std::vector<const Expr*> agg_calls,
                     uint64_t est_input_rows)
    : child_(std::move(child)),
      est_input_rows_(est_input_rows),
      group_exprs_(std::move(group_exprs)),
      agg_calls_(std::move(agg_calls)) {}

Status HashAggOp::OpenImpl(ExecContext* ctx) {
  ctx_ = ctx;
  results_.clear();
  pos_ = 0;
  R3_RETURN_IF_ERROR(child_->Open(ctx));
  AggTable groups(group_exprs_, agg_calls_, CappedReserve(est_input_rows_));
  while (true) {
    child_batch_.Reset(ctx->batch_size);
    R3_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&child_batch_));
    if (!ok) break;
    R3_RETURN_IF_ERROR(groups.Add(child_batch_, *ctx));
  }
  R3_RETURN_IF_ERROR(child_->Close());
  results_ = groups.Finish();
  return Status::OK();
}

Result<bool> HashAggOp::NextBatchImpl(RowBatch* out) {
  while (!out->full() && pos_ < results_.size()) {
    out->AppendRow() = results_[pos_++];  // copy: results_ replay on re-open
  }
  return !out->empty();
}

Status HashAggOp::CloseImpl() {
  results_.clear();
  pos_ = 0;
  return Status::OK();
}

std::string HashAggOp::Describe(bool analyze) const {
  std::string out = "HashAggregate(groups=[";
  for (size_t i = 0; i < group_exprs_.size(); ++i) {
    if (i != 0) out += ", ";
    out += group_exprs_[i]->ToString();
  }
  out += "], aggs=[";
  for (size_t i = 0; i < agg_calls_.size(); ++i) {
    if (i != 0) out += ", ";
    out += agg_calls_[i]->ToString();
  }
  return out + "])" + StatsSuffix(analyze) + "\n" +
         Indent(child_->Describe(analyze));
}

}  // namespace rdbms
}  // namespace r3
