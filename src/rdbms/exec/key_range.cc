#include "rdbms/exec/key_range.h"

#include <algorithm>

#include "rdbms/exec/executor.h"
#include "rdbms/index/key_codec.h"
#include "rdbms/txn/mvcc.h"

namespace r3 {
namespace rdbms {

namespace {

/// Reads the row at `rid` into `*rec`, substituting the version visible to
/// `ctx`'s snapshot when the heap image is newer. False when no version is
/// visible. With no MVCC context on `ctx` this is exactly `storage->Get`.
Result<bool> MvccFetchRow(const ExecContext& ctx, const TableInfo* table,
                          Rid rid, std::string* rec) {
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

}  // namespace

Status KeyRangeCursor::Compile(const TableInfo& table, const IndexInfo& index,
                               const IndexBounds& bounds,
                               const EvalContext& ec) {
  table_ = &table;
  btree_ = index.btree.get();
  ranges_.clear();
  next_range_ = 0;
  active_ = false;
  // Appends bound `e` on key column `pos` to `*key`; false when it is NULL.
  auto encode = [&](const Expr& e, size_t pos,
                    std::string* key) -> Result<bool> {
    Value v;
    R3_RETURN_IF_ERROR(EvalExpr(e, ec, &v));
    if (v.is_null()) return false;
    const size_t col = index.column_indices[pos];
    R3_ASSIGN_OR_RETURN(v, v.CastTo(table.schema.column(col).type));
    key_codec::EncodeValue(v, key);
    return true;
  };
  std::string prefix;
  for (size_t i = 0; i < bounds.eq_exprs.size(); ++i) {
    R3_ASSIGN_OR_RETURN(bool known, encode(*bounds.eq_exprs[i], i, &prefix));
    if (!known) return Status::OK();
  }
  std::string prefix_stop = key_codec::PrefixUpperBound(prefix);
  if (bounds.ranges.empty()) {
    ranges_.emplace_back(std::move(prefix), std::move(prefix_stop));
    return Status::OK();
  }
  const size_t pos = bounds.eq_exprs.size();
  for (const IndexRange& r : bounds.ranges) {
    std::string start = prefix;
    std::string stop = prefix_stop;
    bool known = true;
    if (r.point != nullptr) {
      R3_ASSIGN_OR_RETURN(known, encode(*r.point, pos, &start));
      stop = key_codec::PrefixUpperBound(start);
    } else {
      if (r.lower != nullptr) {
        R3_ASSIGN_OR_RETURN(known, encode(*r.lower, pos, &start));
        if (!r.lower_inclusive) start = key_codec::PrefixUpperBound(start);
      }
      if (known && r.upper != nullptr) {
        stop = prefix;
        R3_ASSIGN_OR_RETURN(known, encode(*r.upper, pos, &stop));
        if (r.upper_inclusive) stop = key_codec::PrefixUpperBound(stop);
      }
    }
    if (!known || (!stop.empty() && start >= stop)) continue;  // empty
    ranges_.emplace_back(std::move(start), std::move(stop));
  }
  // Sort and merge overlaps so each qualifying entry is visited exactly
  // once, in key order.
  std::sort(ranges_.begin(), ranges_.end());
  size_t n = 0;
  for (size_t i = 0; i < ranges_.size(); ++i) {
    auto& kr = ranges_[i];
    if (n > 0) {
      auto& last = ranges_[n - 1];
      if (last.second.empty() || kr.first <= last.second) {
        if (!last.second.empty() &&
            (kr.second.empty() || kr.second > last.second)) {
          last.second = std::move(kr.second);
        }
        continue;
      }
    }
    if (n != i) ranges_[n] = std::move(kr);
    ++n;
  }
  ranges_.resize(n);
  return Status::OK();
}

Status KeyRangeCursor::Seek() {
  R3_ASSIGN_OR_RETURN(active_, SeekNextRange());
  return Status::OK();
}

Result<bool> KeyRangeCursor::SeekNextRange() {
  if (next_range_ >= ranges_.size()) return false;
  R3_ASSIGN_OR_RETURN(cursor_, btree_->Seek(ranges_[next_range_++].first));
  return true;
}

Result<bool> KeyRangeCursor::Next(const ExecContext& ctx, Rid* rid,
                                  std::string* rec) {
  uint64_t payload = 0;
  while (active_) {
    R3_ASSIGN_OR_RETURN(bool ok, cursor_.Next(&key_, &payload));
    const std::string& stop = ranges_[next_range_ - 1].second;
    if (!ok || (!stop.empty() && key_ >= stop)) {
      R3_ASSIGN_OR_RETURN(active_, SeekNextRange());
      continue;
    }
    ctx.clock->ChargeDbmsTuple();
    *rid = Rid::Unpack(payload);
    R3_ASSIGN_OR_RETURN(bool visible, MvccFetchRow(ctx, table_, *rid, rec));
    if (visible) return true;  // else created after this snapshot
  }
  return false;
}

}  // namespace rdbms
}  // namespace r3
