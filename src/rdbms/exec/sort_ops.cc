#include <algorithm>

#include "common/str_util.h"
#include "rdbms/exec/executor.h"

namespace r3 {
namespace rdbms {

namespace {

size_t ApproxRowBytes(const Row& row) {
  size_t n = 0;
  for (const Value& v : row) {
    n += 9;
    if (v.type() == DataType::kString) n += v.string_value().size();
  }
  return n;
}

}  // namespace

SortOp::SortOp(OperatorPtr child, std::vector<SortKey> keys)
    : child_(std::move(child)), keys_(std::move(keys)) {}

Status SortOp::OpenImpl(ExecContext* ctx) {
  rows_.clear();
  pos_ = 0;
  R3_RETURN_IF_ERROR(child_->Open(ctx));
  size_t bytes = 0;
  while (true) {
    child_batch_.Reset(ctx->batch_size);
    R3_ASSIGN_OR_RETURN(bool ok, child_->NextBatch(&child_batch_));
    if (!ok) break;
    for (size_t i = 0; i < child_batch_.size(); ++i) {
      ctx->clock->ChargeDbmsTuple();
      Row& row = child_batch_.row(i);
      bytes += ApproxRowBytes(row);
      rows_.push_back(std::move(row));
    }
  }
  R3_RETURN_IF_ERROR(child_->Close());

  // A pipelined in-memory sort up to the work-memory budget; beyond that,
  // charge one external run-generation + merge pass (write + re-read).
  if (bytes > ctx->work_mem_bytes) {
    int64_t pages = static_cast<int64_t>((bytes + kPageSize - 1) / kPageSize);
    for (int64_t i = 0; i < pages; ++i) {
      ctx->clock->ChargePageWrite();
      ctx->clock->ChargeSeqPageRead();
    }
  }

  std::stable_sort(rows_.begin(), rows_.end(),
                   [this](const Row& a, const Row& b) {
                     for (const SortKey& k : keys_) {
                       int c = a[k.column].Compare(b[k.column]);
                       if (c != 0) return k.asc ? c < 0 : c > 0;
                     }
                     return false;
                   });
  return Status::OK();
}

Result<bool> SortOp::NextBatchImpl(RowBatch* out) {
  while (!out->full() && pos_ < rows_.size()) {
    out->AppendRow() = rows_[pos_++];  // copy: rows_ replay on re-open
  }
  return !out->empty();
}

Status SortOp::CloseImpl() {
  rows_.clear();
  pos_ = 0;
  return Status::OK();
}

std::string SortOp::Describe(bool analyze) const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i != 0) out += ", ";
    out += str::Format("#%zu %s", keys_[i].column, keys_[i].asc ? "asc" : "desc");
  }
  return out + ")" + StatsSuffix(analyze) + "\n" +
         Indent(child_->Describe(analyze));
}

}  // namespace rdbms
}  // namespace r3
