#include "rdbms/storage/columnar/columnar_engine.h"

#include <algorithm>
#include <utility>

#include "common/str_util.h"
#include "rdbms/row.h"
#include "rdbms/txn/mvcc.h"

namespace r3 {
namespace rdbms {

namespace {

/// Compressed width of one stored value, in bytes. Dictionary codes shrink
/// with the dictionary; fixed-width types pay their natural size.
uint64_t ValueWidth(DataType type, size_t dict_size) {
  switch (type) {
    case DataType::kBool:
      return 1;
    case DataType::kDate:
      return 4;
    case DataType::kString:
      if (dict_size <= 255) return 1;
      if (dict_size <= 65535) return 2;
      return 4;
    default:
      return 8;  // int64 / decimal / double
  }
}

/// Per-run overhead: a 2-byte repeat count.
constexpr uint64_t kRunHeader = 2;
/// Per-dictionary-entry overhead: a 2-byte length prefix.
constexpr uint64_t kDictEntryHeader = 2;

}  // namespace

// ---------------------------------------------------------------------------
// ColumnarScanCursor
// ---------------------------------------------------------------------------

/// Batch scan kernel: per chunk, charge the compressed bytes of the touched
/// column segments as sequential page I/O, one columnar-value CPU tick per
/// scanned predicate value, evaluate dictionary-equality predicates on
/// codes, then materialize only the surviving rows' needed columns.
class ColumnarScanCursor : public ScanCursor {
 public:
  ColumnarScanCursor(const ColumnarEngine* engine, const ScanSpec& spec)
      : engine_(engine),
        mvcc_(spec.mvcc),
        snapshot_(spec.snapshot),
        offset_(spec.offset),
        wide_width_(spec.wide_width),
        needed_cols_(spec.needed_cols),
        dict_eqs_(spec.dict_eqs) {
    const size_t ncols = engine_->schema_->NumColumns();
    if (!spec.needed_cols.has_value()) {
      for (size_t c = 0; c < ncols; ++c) mat_cols_.push_back(c);
    } else {
      mat_cols_ = *spec.needed_cols;
    }
    scan_cols_ = spec.filter_cols;
    std::sort(scan_cols_.begin(), scan_cols_.end());
    scan_cols_.erase(std::unique(scan_cols_.begin(), scan_cols_.end()),
                     scan_cols_.end());
  }

  Status BeginBatch() override {
    mvcc_active_ = mvcc_ != nullptr && snapshot_ != nullptr &&
                   mvcc_->MightHaveVersions(engine_->file_id());
    if (!opened_) {
      opened_ = true;
      R3_RETURN_IF_ERROR(ResolvePlan());
    }
    return Status::OK();
  }

  Result<bool> NextChunk(RowBatch* out) override {
    if (stage_pos_ >= staged_.size()) {
      staged_.clear();
      stage_pos_ = 0;
      while (staged_.empty()) {
        if (chunk_ >= chunk_cost_bytes_.size() || impossible_) {
          if (!tail_charged_) {
            tail_charged_ = true;
            if (byte_acc_ > 0) {
              engine_->pool_->clock()->ChargeSeqPageRead();
              byte_acc_ = 0;
            }
          }
          return false;
        }
        R3_RETURN_IF_ERROR(ProcessChunk(chunk_++));
      }
    }
    while (stage_pos_ < staged_.size() && !out->full()) {
      out->PushRow(std::move(staged_[stage_pos_++]));
    }
    return true;
  }

 private:
  /// Snapshots the per-chunk compressed byte costs of the accessed columns
  /// and resolves dictionary-equality literals to codes. An absent literal
  /// proves the predicate matches nothing: the scan reads dictionaries only.
  Status ResolvePlan() {
    const ColumnarEngine* e = engine_;
    e->RecomputeStats();
    std::vector<size_t> accessed = mat_cols_;
    accessed.insert(accessed.end(), scan_cols_.begin(), scan_cols_.end());
    std::sort(accessed.begin(), accessed.end());
    accessed.erase(std::unique(accessed.begin(), accessed.end()),
                   accessed.end());
    accessed_col_count_ = accessed.size();
    chunk_cost_bytes_.assign(e->num_chunks(), 0);
    uint64_t dict_bytes = 0;
    {
      std::lock_guard<std::mutex> lock(e->stats_mu_);
      for (size_t c : accessed) {
        if (c >= e->col_stats_.size()) {
          return Status::Internal(
              str::Format("columnar scan references column %zu of %zu", c,
                          e->col_stats_.size()));
        }
        const ColumnarEngine::ColumnStats& cs = e->col_stats_[c];
        dict_bytes += cs.dict_bytes;
        for (size_t k = 0; k < cs.chunk_bytes.size(); ++k) {
          chunk_cost_bytes_[k] += cs.chunk_bytes[k];
        }
      }
    }
    AddBytes(dict_bytes);
    for (const ScanSpec::DictEq& eq : dict_eqs_) {
      const ColumnarEngine::ColumnData& col = e->cols_[eq.col];
      if (col.type != DataType::kString) {
        return Status::Internal("dictionary predicate on non-string column");
      }
      auto it = col.dict_map.find(eq.value);
      if (it == col.dict_map.end()) {
        impossible_ = true;  // literal absent from the dictionary
        return Status::OK();
      }
      dict_codes_.push_back({eq.col, it->second});
    }
    return Status::OK();
  }

  void AddBytes(uint64_t bytes) {
    byte_acc_ += bytes;
    while (byte_acc_ >= kPageSize) {
      engine_->pool_->clock()->ChargeSeqPageRead();
      byte_acc_ -= kPageSize;
    }
  }

  bool PassesDictEqs(size_t idx) const {
    for (const auto& [c, code] : dict_codes_) {
      const ColumnarEngine::ColumnData& col = engine_->cols_[c];
      if (col.nulls[idx] || col.codes[idx] != code) return false;
    }
    return true;
  }

  Status ProcessChunk(size_t chunk) {
    const ColumnarEngine* e = engine_;
    SimClock* clock = e->pool_->clock();
    const size_t begin = chunk * ColumnarEngine::kChunkRows;
    const size_t end = std::min(e->total_slots_,
                                begin + ColumnarEngine::kChunkRows);
    AddBytes(chunk_cost_bytes_[chunk]);
    if (e->m_segments_read_ != nullptr) {
      e->m_segments_read_->Add(static_cast<int64_t>(accessed_col_count_));
    }
    int64_t live_n = 0;
    for (size_t idx = begin; idx < end; ++idx) {
      if (e->live_[idx]) ++live_n;
    }
    if (!scan_cols_.empty() && live_n > 0) {
      int64_t scanned = live_n * static_cast<int64_t>(scan_cols_.size());
      clock->ChargeColumnarValue(scanned);
      if (e->m_values_scanned_ != nullptr) e->m_values_scanned_->Add(scanned);
    }
    int64_t survivors = 0;
    for (size_t idx = begin; idx < end; ++idx) {
      if (!e->live_[idx]) continue;
      if (mvcc_active_) {
        // Engine-side predicate pushdown is disabled when versions may be
        // in play: a snapshot might see an older value of the column.
        switch (mvcc_->Check(e->file_id_, e->RidOfIndex(idx), *snapshot_,
                             &alt_rec_)) {
          case txn::MvccManager::Visibility::kCurrent:
            StageSegmentRow(idx);
            break;
          case txn::MvccManager::Visibility::kAltVersion:
            R3_RETURN_IF_ERROR(StageRecordRow(alt_rec_));
            break;
          case txn::MvccManager::Visibility::kInvisible:
            continue;
        }
      } else {
        if (!PassesDictEqs(idx)) continue;
        StageSegmentRow(idx);
      }
      ++survivors;
    }
    if (survivors > 0 && !mat_cols_.empty()) {
      int64_t materialized =
          survivors * static_cast<int64_t>(mat_cols_.size());
      clock->ChargeColumnarValue(materialized);
      if (e->m_values_materialized_ != nullptr) {
        e->m_values_materialized_->Add(materialized);
      }
    }
    if (mvcc_active_) {
      ghosts_.clear();
      mvcc_->VisibleGhosts(e->file_id_, static_cast<uint32_t>(chunk),
                           *snapshot_, &ghosts_);
      for (const auto& [slot, rec] : ghosts_) {
        // Ghosts are full record images, decoded like heap tuples.
        clock->ChargeDbmsTuple();
        R3_RETURN_IF_ERROR(StageRecordRow(rec));
      }
    }
    return Status::OK();
  }

  /// Materializes the needed columns of slot `idx` from the segments, the
  /// k-th at `offset_ + k` (DecodeRowInto's placement rule).
  void StageSegmentRow(size_t idx) {
    Row& wide = staged_.emplace_back();
    wide.assign(wide_width_, Value::Null());
    for (size_t k = 0; k < mat_cols_.size(); ++k) {
      wide[offset_ + k] = engine_->ValueAt(mat_cols_[k], idx);
    }
  }

  /// Materializes the needed columns from a serialized record image (MVCC
  /// alt versions and ghosts carry the whole row).
  Status StageRecordRow(std::string_view rec) {
    Row& wide = staged_.emplace_back();
    wide.assign(wide_width_, Value::Null());
    return DecodeRowInto(*engine_->schema_, rec, needed_cols_, offset_, &wide);
  }

  const ColumnarEngine* engine_;
  txn::MvccManager* mvcc_;
  const txn::Snapshot* snapshot_;
  size_t offset_;
  size_t wide_width_;
  std::optional<std::vector<size_t>> needed_cols_;
  std::vector<ScanSpec::DictEq> dict_eqs_;

  std::vector<size_t> mat_cols_;
  std::vector<size_t> scan_cols_;
  size_t accessed_col_count_ = 0;
  std::vector<std::pair<size_t, uint32_t>> dict_codes_;
  std::vector<uint64_t> chunk_cost_bytes_;

  bool opened_ = false;
  bool mvcc_active_ = false;
  bool impossible_ = false;
  bool tail_charged_ = false;
  size_t chunk_ = 0;
  uint64_t byte_acc_ = 0;
  std::vector<Row> staged_;
  size_t stage_pos_ = 0;
  std::string alt_rec_;
  std::vector<std::pair<uint16_t, std::string>> ghosts_;
};

// ---------------------------------------------------------------------------
// ColumnarEngine
// ---------------------------------------------------------------------------

ColumnarEngine::ColumnarEngine(BufferPool* pool, uint32_t file_id,
                               const Schema* schema, MetricsRegistry* metrics)
    : pool_(pool), file_id_(file_id), schema_(schema) {
  cols_.resize(schema_->NumColumns());
  for (size_t c = 0; c < cols_.size(); ++c) {
    cols_[c].type = schema_->column(c).type;
  }
  if (metrics != nullptr) {
    m_segments_read_ = metrics->GetCounter("columnar.segments_read");
    m_values_scanned_ = metrics->GetCounter("columnar.values_scanned");
    m_values_materialized_ =
        metrics->GetCounter("columnar.values_materialized");
    g_compressed_bytes_ = metrics->GetGauge("columnar.compressed_bytes");
    g_raw_bytes_ = metrics->GetGauge("columnar.raw_bytes");
    g_bytes_saved_ = metrics->GetGauge("columnar.dict_bytes_saved");
  }
}

Status ColumnarEngine::DecodeRecord(std::string_view record, Row* row) const {
  R3_RETURN_IF_ERROR(DeserializeRow(*schema_, record, row));
  if (row->size() != cols_.size()) {
    return Status::Internal(
        str::Format("record has %zu columns, schema has %zu", row->size(),
                    cols_.size()));
  }
  return Status::OK();
}

void ColumnarEngine::AppendSlot(const Row& row) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    ColumnData& col = cols_[c];
    const Value* v = row.empty() ? nullptr : &row[c];
    const bool null = v == nullptr || v->is_null();
    col.nulls.push_back(null ? 1 : 0);
    if (col.type == DataType::kString) {
      uint32_t code = 0;
      if (!null) {
        const std::string& s = v->string_value();
        auto it = col.dict_map.find(s);
        if (it == col.dict_map.end()) {
          code = static_cast<uint32_t>(col.dict.size());
          col.dict.push_back(s);
          col.dict_map.emplace(s, code);
        } else {
          code = it->second;
        }
      }
      col.codes.push_back(code);
    } else if (col.type == DataType::kDouble) {
      col.dbls.push_back(null ? 0.0 : v->double_value());
    } else {
      col.ints.push_back(null ? 0 : v->int_value());
    }
  }
  live_.push_back(0);
  rec_bytes_.push_back(0);
  ++total_slots_;
}

void ColumnarEngine::StoreAt(size_t idx, const Row& row) {
  for (size_t c = 0; c < cols_.size(); ++c) {
    ColumnData& col = cols_[c];
    const Value& v = row[c];
    const bool null = v.is_null();
    col.nulls[idx] = null ? 1 : 0;
    if (col.type == DataType::kString) {
      uint32_t code = 0;
      if (!null) {
        const std::string& s = v.string_value();
        auto it = col.dict_map.find(s);
        if (it == col.dict_map.end()) {
          code = static_cast<uint32_t>(col.dict.size());
          col.dict.push_back(s);
          col.dict_map.emplace(s, code);
        } else {
          code = it->second;
        }
      }
      col.codes[idx] = code;
    } else if (col.type == DataType::kDouble) {
      col.dbls[idx] = null ? 0.0 : v.double_value();
    } else {
      col.ints[idx] = null ? 0 : v.int_value();
    }
  }
}

Value ColumnarEngine::ValueAt(size_t c, size_t idx) const {
  const ColumnData& col = cols_[c];
  if (col.nulls[idx]) return Value::Null(col.type);
  switch (col.type) {
    case DataType::kString:
      return Value::Str(col.dict[col.codes[idx]]);
    case DataType::kDouble:
      return Value::Dbl(col.dbls[idx]);
    case DataType::kBool:
      return Value::Bool(col.ints[idx] != 0);
    case DataType::kDecimal:
      return Value::DecimalFromCents(col.ints[idx]);
    case DataType::kDate:
      return Value::Date(static_cast<int32_t>(col.ints[idx]));
    default:
      return Value::Int(col.ints[idx]);
  }
}

void ColumnarEngine::MarkDirty() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  stats_dirty_ = true;
}

Result<Rid> ColumnarEngine::Insert(std::string_view record) {
  Row row;
  R3_RETURN_IF_ERROR(DecodeRecord(record, &row));
  const size_t idx = total_slots_;
  if (idx / kChunkRows > 0xFFFFFFFFull) {
    return Status::OutOfRange("columnar table full");
  }
  AppendSlot(row);
  live_[idx] = 1;
  rec_bytes_[idx] = static_cast<uint32_t>(record.size());
  raw_bytes_ += record.size();
  ++live_rows_;
  MarkDirty();
  return RidOfIndex(idx);
}

Status ColumnarEngine::InsertAt(Rid rid, std::string_view record) {
  if (rid.slot >= kChunkRows) {
    return Status::InvalidArgument(
        str::Format("columnar rid slot %u out of range", rid.slot));
  }
  Row row;
  R3_RETURN_IF_ERROR(DecodeRecord(record, &row));
  const size_t idx = SlotIndex(rid);
  while (total_slots_ <= idx) AppendSlot(Row());
  if (live_[idx]) {
    return Status::AlreadyExists(
        str::Format("columnar slot %u.%u is live", rid.page_no, rid.slot));
  }
  StoreAt(idx, row);
  live_[idx] = 1;
  raw_bytes_ += record.size() - rec_bytes_[idx];
  rec_bytes_[idx] = static_cast<uint32_t>(record.size());
  ++live_rows_;
  MarkDirty();
  return Status::OK();
}

Status ColumnarEngine::Get(Rid rid, std::string* out) const {
  const size_t idx = SlotIndex(rid);
  if (!LiveAt(idx)) {
    return Status::NotFound(
        str::Format("no columnar record at %u.%u", rid.page_no, rid.slot));
  }
  pool_->clock()->ChargeColumnarValue(static_cast<int64_t>(cols_.size()));
  Row row;
  row.reserve(cols_.size());
  for (size_t c = 0; c < cols_.size(); ++c) row.push_back(ValueAt(c, idx));
  out->clear();
  return SerializeRow(*schema_, row, out);
}

Status ColumnarEngine::Delete(Rid rid) {
  const size_t idx = SlotIndex(rid);
  if (!LiveAt(idx)) {
    return Status::NotFound(
        str::Format("no columnar record at %u.%u", rid.page_no, rid.slot));
  }
  live_[idx] = 0;
  raw_bytes_ -= rec_bytes_[idx];
  --live_rows_;
  MarkDirty();
  return Status::OK();
}

Result<Rid> ColumnarEngine::Update(Rid rid, std::string_view record) {
  const size_t idx = SlotIndex(rid);
  if (!LiveAt(idx)) {
    return Status::NotFound(
        str::Format("no columnar record at %u.%u", rid.page_no, rid.slot));
  }
  Row row;
  R3_RETURN_IF_ERROR(DecodeRecord(record, &row));
  StoreAt(idx, row);
  raw_bytes_ += record.size() - rec_bytes_[idx];
  rec_bytes_[idx] = static_cast<uint32_t>(record.size());
  MarkDirty();
  return rid;  // columnar updates never relocate
}

std::unique_ptr<ScanCursor> ColumnarEngine::NewScanCursor(
    const ScanSpec& spec) {
  return std::make_unique<ColumnarScanCursor>(this, spec);
}

namespace {

class ColumnarIterator : public RecordIterator {
 public:
  explicit ColumnarIterator(const ColumnarEngine* engine) : engine_(engine) {}

  Result<bool> Next(Rid* rid, std::string* record) override;

 private:
  const ColumnarEngine* engine_;
  size_t idx_ = 0;
};

}  // namespace

Result<bool> ColumnarIterator::Next(Rid* rid, std::string* record) {
  // Implemented via Get so maintenance reads charge like point reads.
  for (;;) {
    Rid r{static_cast<uint32_t>(idx_ / ColumnarEngine::kChunkRows),
          static_cast<uint16_t>(idx_ % ColumnarEngine::kChunkRows)};
    if (idx_ >= engine_->total_slot_count()) return false;
    ++idx_;
    Status st = engine_->Get(r, record);
    if (st.ok()) {
      *rid = r;
      return true;
    }
    if (st.code() != StatusCode::kNotFound) return st;
  }
}

std::unique_ptr<RecordIterator> ColumnarEngine::NewIterator() const {
  return std::make_unique<ColumnarIterator>(this);
}

Result<uint32_t> ColumnarEngine::NumPages() const {
  const uint64_t bytes = CompressedBytes();
  const uint64_t pages = (bytes + kPageSize - 1) / kPageSize;
  return static_cast<uint32_t>(std::max<uint64_t>(1, pages));
}

Result<uint64_t> ColumnarEngine::DataBytes() const {
  return CompressedBytes();
}

Result<uint64_t> ColumnarEngine::Checksum() const {
  // Same commutative FNV-1a over live record images as the row heap: the
  // records re-serialize canonically, so identical logical contents hash
  // identically across engines.
  uint64_t sum = 0;
  uint64_t count = 0;
  std::string rec;
  Row row;
  for (size_t idx = 0; idx < total_slots_; ++idx) {
    if (!live_[idx]) continue;
    row.clear();
    for (size_t c = 0; c < cols_.size(); ++c) row.push_back(ValueAt(c, idx));
    rec.clear();
    R3_RETURN_IF_ERROR(SerializeRow(*schema_, row, &rec));
    uint64_t h = 1469598103934665603ull;  // FNV offset basis
    for (unsigned char ch : rec) {
      h ^= ch;
      h *= 1099511628211ull;  // FNV prime
    }
    sum += h;
    ++count;
  }
  return sum + count * 0x9E3779B97F4A7C15ull;
}

StorageCosts ColumnarEngine::ScanCosts(const CostModel& cost) const {
  StorageCosts c;
  // Segments stream at the sequential page rate, but NumPages() reports
  // compressed pages, so the I/O term shrinks with the compression ratio.
  c.seq_page_us = static_cast<double>(cost.seq_page_read_us);
  // Random access is still priced like a seek: the optimizer's random-page
  // term always rides on a B-tree descent, and those index pages are as
  // page-bound as ever. Pricing it at the (tiny) per-value decode cost made
  // every index path look free and flipped scan-friendly plans to index
  // nested loops that the engine then executed no faster.
  c.random_page_us = static_cast<double>(cost.random_page_read_us);
  c.tuple_cpu_us = static_cast<double>(cost.columnar_value_cpu_us) *
                   static_cast<double>(cols_.size());
  return c;
}

void ColumnarEngine::Clear() {
  for (ColumnData& col : cols_) {
    col.codes.clear();
    col.dict.clear();
    col.dict_map.clear();
    col.ints.clear();
    col.dbls.clear();
    col.nulls.clear();
  }
  live_.clear();
  rec_bytes_.clear();
  total_slots_ = 0;
  live_rows_ = 0;
  raw_bytes_ = 0;
  MarkDirty();
}

uint64_t ColumnarEngine::CompressedBytes() const {
  RecomputeStats();
  std::lock_guard<std::mutex> lock(stats_mu_);
  return compressed_bytes_;
}

uint64_t ColumnarEngine::RawBytes() const { return raw_bytes_; }

void ColumnarEngine::RecomputeStats() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  if (!stats_dirty_) return;
  const size_t chunks = num_chunks();
  col_stats_.assign(cols_.size(), ColumnStats());
  uint64_t total = 0;
  for (size_t c = 0; c < cols_.size(); ++c) {
    const ColumnData& col = cols_[c];
    ColumnStats& cs = col_stats_[c];
    cs.chunk_bytes.assign(chunks, 0);
    if (col.type == DataType::kString) {
      for (const std::string& s : col.dict) {
        cs.dict_bytes += s.size() + kDictEntryHeader;
      }
    }
    const uint64_t width = ValueWidth(col.type, col.dict.size());
    for (size_t k = 0; k < chunks; ++k) {
      const size_t begin = k * kChunkRows;
      const size_t end = std::min(total_slots_, begin + kChunkRows);
      // Count runs of equal (value, nullness) pairs across the chunk's live
      // slots: an all-default filler column collapses to a single run.
      uint64_t runs = 0;
      bool have_prev = false;
      bool prev_null = false;
      uint32_t prev_code = 0;
      int64_t prev_int = 0;
      double prev_dbl = 0.0;
      for (size_t idx = begin; idx < end; ++idx) {
        if (!live_[idx]) continue;
        const bool null = col.nulls[idx] != 0;
        bool same = have_prev && null == prev_null;
        if (same && !null) {
          if (col.type == DataType::kString) {
            same = col.codes[idx] == prev_code;
          } else if (col.type == DataType::kDouble) {
            same = col.dbls[idx] == prev_dbl;
          } else {
            same = col.ints[idx] == prev_int;
          }
        }
        if (!same) {
          ++runs;
          have_prev = true;
          prev_null = null;
          if (!null) {
            if (col.type == DataType::kString) {
              prev_code = col.codes[idx];
            } else if (col.type == DataType::kDouble) {
              prev_dbl = col.dbls[idx];
            } else {
              prev_int = col.ints[idx];
            }
          }
        }
      }
      cs.chunk_bytes[k] = runs * (width + kRunHeader);
    }
    for (uint64_t b : cs.chunk_bytes) cs.total_bytes += b;
    cs.total_bytes += cs.dict_bytes;
    total += cs.total_bytes;
  }
  compressed_bytes_ = total;
  stats_dirty_ = false;
  PublishGauges(total);
}

void ColumnarEngine::PublishGauges(uint64_t compressed) const {
  if (g_compressed_bytes_ != nullptr) {
    g_compressed_bytes_->Set(static_cast<int64_t>(compressed));
  }
  if (g_raw_bytes_ != nullptr) {
    g_raw_bytes_->Set(static_cast<int64_t>(raw_bytes_));
  }
  if (g_bytes_saved_ != nullptr) {
    const int64_t saved = static_cast<int64_t>(raw_bytes_) -
                          static_cast<int64_t>(compressed);
    g_bytes_saved_->Set(saved > 0 ? saved : 0);
  }
}

}  // namespace rdbms
}  // namespace r3
