#include "rdbms/exec/parallel_ops.h"

#include <algorithm>
#include <iterator>
#include <thread>

#include "common/str_util.h"
#include "rdbms/exec/agg_state.h"
#include "rdbms/storage/page.h"
#include "rdbms/txn/mvcc.h"

namespace r3 {
namespace rdbms {

GatherOp::GatherOp(const TableInfo* table, size_t offset, size_t wide_width,
                   std::vector<const Expr*> filters,
                   std::optional<std::vector<size_t>> needed_cols, int dop,
                   uint64_t est_rows)
    : table_(table),
      offset_(offset),
      wide_width_(wide_width),
      filters_(std::move(filters)),
      needed_cols_(std::move(needed_cols)),
      dop_(dop < 1 ? 1 : dop),
      est_rows_(est_rows),
      mode_(Mode::kRows) {}

GatherOp::GatherOp(const TableInfo* table, size_t offset, size_t wide_width,
                   std::vector<const Expr*> filters,
                   std::optional<std::vector<size_t>> needed_cols, int dop,
                   uint64_t est_rows, std::vector<const Expr*> group_exprs,
                   std::vector<const Expr*> agg_calls)
    : table_(table),
      offset_(offset),
      wide_width_(wide_width),
      filters_(std::move(filters)),
      needed_cols_(std::move(needed_cols)),
      dop_(dop < 1 ? 1 : dop),
      est_rows_(est_rows),
      mode_(Mode::kPartialAgg),
      group_exprs_(std::move(group_exprs)),
      agg_calls_(std::move(agg_calls)) {}

Status GatherOp::FilterTail(ExecContext* ctx, EvalContext* ec,
                            LaneScratch* scratch) {
  (void)ctx;
  if (filters_.empty()) {
    scratch->tail_first = scratch->batch.size();
    return Status::OK();
  }
  R3_RETURN_IF_ERROR(EvalPredicatesBatch(filters_, ec, scratch->batch,
                                         scratch->tail_first, &scratch->sel));
  scratch->batch.Keep(scratch->sel, scratch->tail_first);
  scratch->tail_first = scratch->batch.size();
  return Status::OK();
}

Status GatherOp::ScanMorsel(
    ExecContext* ctx, const Morsel& m, size_t morsel_idx, size_t lane,
    char* page_buf, LaneScratch* scratch,
    const std::function<Status(size_t, size_t, RowBatch*)>& emit) {
  const uint32_t file_id = table_->storage->file_id();
  RowBatch& batch = scratch->batch;
  EvalContext ec = ctx->MakeEvalContext(nullptr);
  // Version-map checks only when some row of the system has version info;
  // otherwise this is the pre-MVCC scan, byte for byte.
  const bool mvcc_active = ctx->mvcc != nullptr && ctx->snapshot != nullptr &&
                           ctx->mvcc->MightHaveVersions(file_id);
  std::string alt_rec;
  std::vector<std::pair<uint16_t, std::string>> ghosts;
  // Appends one record to the lane's batch, flushing at capacity.
  auto append_rec = [&](std::string_view rec) -> Status {
    Row& wide = batch.AppendRow();
    wide.assign(wide_width_, Value::Null());
    R3_RETURN_IF_ERROR(DecodeRowInto(table_->schema, rec, needed_cols_,
                                     offset_, &wide));
    if (batch.full()) {
      R3_RETURN_IF_ERROR(FilterTail(ctx, &ec, scratch));
      if (batch.full()) {  // every held row survived: hand off
        R3_RETURN_IF_ERROR(emit(morsel_idx, lane, &batch));
        batch.Clear();
        scratch->tail_first = 0;
      }
    }
    return Status::OK();
  };
  for (uint32_t pg = m.first_page; pg < m.end_page; ++pg) {
    R3_RETURN_IF_ERROR(
        ctx->pool->ReadPageForScan(PageId{file_id, pg}, page_buf));
    SlottedPage sp(page_buf);
    const uint16_t slots = sp.slot_count();
    for (uint16_t s = 0; s < slots; ++s) {
      if (!sp.IsLive(s)) continue;
      ctx->clock->ChargeDbmsTuple();  // routed to this worker's lane
      R3_ASSIGN_OR_RETURN(std::string_view rec, sp.Read(s));
      if (mvcc_active) {
        switch (ctx->mvcc->Check(file_id, Rid{pg, s}, *ctx->snapshot,
                                 &alt_rec)) {
          case txn::MvccManager::Visibility::kCurrent:
            break;
          case txn::MvccManager::Visibility::kAltVersion:
            rec = alt_rec;
            break;
          case txn::MvccManager::Visibility::kInvisible:
            continue;
        }
      }
      R3_RETURN_IF_ERROR(append_rec(rec));
    }
    if (mvcc_active) {
      ghosts.clear();
      ctx->mvcc->VisibleGhosts(file_id, pg, *ctx->snapshot, &ghosts);
      for (const auto& [slot, rec] : ghosts) {
        ctx->clock->ChargeDbmsTuple();
        R3_RETURN_IF_ERROR(append_rec(rec));
      }
    }
  }
  // Morsel boundary: flush so a batch never spans morsels (the consumer's
  // per-morsel slots depend on it).
  R3_RETURN_IF_ERROR(FilterTail(ctx, &ec, scratch));
  if (!batch.empty()) {
    R3_RETURN_IF_ERROR(emit(morsel_idx, lane, &batch));
    batch.Clear();
    scratch->tail_first = 0;
  }
  return Status::OK();
}

Status GatherOp::RunParallel(
    ExecContext* ctx,
    const std::function<Status(size_t morsel, size_t lane, RowBatch* batch)>&
        emit) {
  morsels_.clear();
  R3_ASSIGN_OR_RETURN(uint32_t num_pages, table_->storage->NumPages());
  for (uint32_t pg = 0; pg < num_pages; pg += kMorselPages) {
    morsels_.push_back(
        Morsel{pg, std::min<uint32_t>(pg + kMorselPages, num_pages)});
  }
  if (mode_ == Mode::kRows) {
    morsel_rows_.assign(morsels_.size(), {});
  }

  std::vector<SimClock::Lane> lanes(static_cast<size_t>(dop_));
  std::vector<Status> lane_status(lanes.size(), Status::OK());

  auto run_lane = [&](size_t lane) -> Status {
    LaneScope scope(&lanes[lane]);
    std::unique_ptr<char[]> page_buf(new char[kPageSize]);
    LaneScratch scratch;
    scratch.batch.Reset(ctx->batch_size);
    for (size_t mi = lane; mi < morsels_.size();
         mi += static_cast<size_t>(dop_)) {
      R3_RETURN_IF_ERROR(ScanMorsel(ctx, morsels_[mi], mi, lane,
                                    page_buf.get(), &scratch, emit));
    }
    return Status::OK();
  };

  // The plan's dop fixes the number of lanes (and therefore all results and
  // simulated charges); ctx->dop only caps the physical thread count.
  const size_t num_threads = static_cast<size_t>(
      std::min<int>(dop_, std::max(1, ctx->dop)));
  if (num_threads <= 1) {
    for (size_t lane = 0; lane < lanes.size(); ++lane) {
      lane_status[lane] = run_lane(lane);
    }
  } else {
    std::vector<std::thread> threads;
    threads.reserve(num_threads);
    for (size_t tid = 0; tid < num_threads; ++tid) {
      threads.emplace_back([&, tid]() {
        for (size_t lane = tid; lane < lanes.size(); lane += num_threads) {
          lane_status[lane] = run_lane(lane);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }

  for (const Status& st : lane_status) {
    R3_RETURN_IF_ERROR(st);
  }
  // Barrier: the region's simulated cost is its critical path.
  ctx->clock->MergeLanes(lanes);
  return Status::OK();
}

Status GatherOp::OpenImpl(ExecContext* ctx) {
  out_morsel_ = 0;
  out_pos_ = 0;
  agg_results_.clear();
  morsel_rows_.clear();

  if (mode_ == Mode::kRows) {
    return RunParallel(
        ctx,
        [this](size_t morsel, size_t /*lane*/, RowBatch* batch) -> Status {
          std::vector<Row>& rows = morsel_rows_[morsel];
          for (size_t i = 0; i < batch->size(); ++i) {
            rows.push_back(std::move(batch->row(i)));
          }
          return Status::OK();
        });
  }

  // kPartialAgg: each lane accumulates into a private aggregation table;
  // the barrier merges them in lane order.
  const size_t reserve =
      est_rows_ > 0 ? CappedReserve(est_rows_ / static_cast<uint64_t>(dop_) + 1)
                    : 0;
  std::vector<AggTable> partials;
  partials.reserve(static_cast<size_t>(dop_));
  for (int lane = 0; lane < dop_; ++lane) {
    partials.emplace_back(group_exprs_, agg_calls_, reserve);
  }
  R3_RETURN_IF_ERROR(RunParallel(
      ctx, [&](size_t /*morsel*/, size_t lane, RowBatch* batch) -> Status {
        return partials[lane].Add(*batch, *ctx);
      }));
  for (size_t lane = 1; lane < partials.size(); ++lane) {
    partials[0].Merge(std::move(partials[lane]));
  }
  agg_results_ = partials[0].Finish();
  return Status::OK();
}

Status GatherOp::BuildJoinTable(ExecContext* ctx,
                                const std::vector<const Expr*>& keys,
                                const FilledRange& range, JoinTable* table) {
  // Lanes do the scan, key evaluation and packing; each morsel collects its
  // keys and packed rows privately, and the barrier inserts them in morsel
  // order — the exact order the serial build would have used.
  struct MorselBuild {
    std::string keys;               ///< encoded keys, concatenated
    std::vector<size_t> key_ends;   ///< end of each row's key in `keys`
    std::vector<Value> rows;        ///< packed rows, range.width each
  };
  std::vector<MorselBuild> builds;
  std::vector<std::string> key_scratch(static_cast<size_t>(dop_));

  // Pre-size the per-morsel slots before the workers start (RunParallel
  // recomputes the same page partition deterministically).
  {
    R3_ASSIGN_OR_RETURN(uint32_t num_pages, table_->storage->NumPages());
    builds.resize((num_pages + kMorselPages - 1) / kMorselPages);
  }
  Status st = RunParallel(
      ctx, [&](size_t morsel, size_t lane, RowBatch* batch) -> Status {
        EvalContext ec = ctx->MakeEvalContext(nullptr);
        std::string& key = key_scratch[lane];
        MorselBuild& b = builds[morsel];
        for (size_t r = 0; r < batch->size(); ++r) {
          ctx->clock->ChargeDbmsTuple();  // build CPU, charged in-lane
          ec.row = &batch->row(r);
          bool null_key = false;
          R3_RETURN_IF_ERROR(EvalJoinKey(keys, ec, &key, &null_key));
          if (null_key) continue;
          b.keys += key;
          b.key_ends.push_back(b.keys.size());
          auto first = batch->row(r).begin() + range.offset;
          b.rows.insert(b.rows.end(), std::make_move_iterator(first),
                        std::make_move_iterator(first + range.width));
        }
        return Status::OK();
      });
  R3_RETURN_IF_ERROR(st);

  for (MorselBuild& b : builds) {
    size_t key_begin = 0;
    for (size_t i = 0; i < b.key_ends.size(); ++i) {
      table->Insert(std::string_view(b.keys).substr(
                        key_begin, b.key_ends[i] - key_begin),
                    b.rows.data() + i * range.width);
      key_begin = b.key_ends[i];
    }
    b = MorselBuild();  // free each morsel's buffers as soon as it is in
  }
  return Status::OK();
}

Result<bool> GatherOp::NextBatchImpl(RowBatch* out) {
  if (mode_ == Mode::kPartialAgg) {
    while (!out->full() && out_pos_ < agg_results_.size()) {
      out->AppendRow() = agg_results_[out_pos_++];  // copy: replay on re-open
    }
    return !out->empty();
  }
  while (!out->full() && out_morsel_ < morsel_rows_.size()) {
    if (out_pos_ < morsel_rows_[out_morsel_].size()) {
      out->PushRow(std::move(morsel_rows_[out_morsel_][out_pos_++]));
    } else {
      ++out_morsel_;
      out_pos_ = 0;
    }
  }
  return !out->empty();
}

Status GatherOp::CloseImpl() {
  morsel_rows_.clear();
  agg_results_.clear();
  out_morsel_ = 0;
  out_pos_ = 0;
  return Status::OK();
}

size_t GatherOp::OutputWidth() const {
  return mode_ == Mode::kPartialAgg
             ? group_exprs_.size() + agg_calls_.size()
             : wide_width_;
}

std::string GatherOp::Describe(bool analyze) const {
  std::string out = "Gather(dop=" + std::to_string(dop_) + ")";
  out += StatsSuffix(analyze);
  std::string scan = "ParallelSeqScan(" + table_->name;
  for (const Expr* f : filters_) scan += ", " + f->ToString();
  scan += ")";
  if (mode_ == Mode::kPartialAgg) {
    std::string agg = "PartialHashAggregate(groups=[";
    for (size_t i = 0; i < group_exprs_.size(); ++i) {
      if (i != 0) agg += ", ";
      agg += group_exprs_[i]->ToString();
    }
    agg += "], aggs=[";
    for (size_t i = 0; i < agg_calls_.size(); ++i) {
      if (i != 0) agg += ", ";
      agg += agg_calls_[i]->ToString();
    }
    agg += "])";
    return out + "\n" + Indent(agg + "\n" + Indent(scan));
  }
  return out + "\n" + Indent(scan);
}

}  // namespace rdbms
}  // namespace r3
