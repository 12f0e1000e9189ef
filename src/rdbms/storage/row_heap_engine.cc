#include "rdbms/storage/row_heap_engine.h"

#include <optional>
#include <utility>
#include <vector>

#include "rdbms/row.h"
#include "rdbms/storage/page.h"
#include "rdbms/txn/mvcc.h"

namespace r3 {
namespace rdbms {

namespace {

/// The sequential-scan loop extracted verbatim from the pre-engine
/// SeqScanOp: one NextChunk call performs one step of the old per-batch
/// while loop — a pending-ghost drain, or one heap page's live slots (with
/// per-row MVCC resolution) plus the ghost collection for that page.
class RowHeapScanCursor : public ScanCursor {
 public:
  RowHeapScanCursor(BufferPool* pool, HeapFile* heap, const Schema* schema,
                    const ScanSpec& spec)
      : pool_(pool),
        heap_(heap),
        schema_(schema),
        mvcc_(spec.mvcc),
        snapshot_(spec.snapshot),
        offset_(spec.offset),
        wide_width_(spec.wide_width),
        needed_cols_(spec.needed_cols) {}

  Status BeginBatch() override {
    R3_ASSIGN_OR_RETURN(num_pages_, heap_->NumPages());
    // Consult the version map only when it could matter: it is empty unless
    // a transaction is (or recently was) rewriting rows under MVCC.
    mvcc_active_ = mvcc_ != nullptr && snapshot_ != nullptr &&
                   mvcc_->MightHaveVersions(heap_->file_id());
    return Status::OK();
  }

  Result<bool> NextChunk(RowBatch* out) override {
    const uint32_t file_id = heap_->file_id();
    if (ghost_pos_ < pending_ghosts_.size()) {
      // Drain ghosts of the page just finished: rows whose physical delete
      // this snapshot must not observe.
      while (ghost_pos_ < pending_ghosts_.size() && !out->full()) {
        pool_->clock()->ChargeDbmsTuple();
        const std::string& rec = pending_ghosts_[ghost_pos_++].second;
        R3_RETURN_IF_ERROR(EmitWideRow(rec, out));
      }
    } else if (page_no_ >= num_pages_) {
      return false;
    } else {
      R3_ASSIGN_OR_RETURN(PageHandle h,
                          pool_->FetchPage(PageId{file_id, page_no_}));
      SlottedPage page(h.data());
      while (slot_ < page.slot_count() && !out->full()) {
        uint16_t s = static_cast<uint16_t>(slot_++);
        if (!page.IsLive(s)) continue;
        pool_->clock()->ChargeDbmsTuple();
        R3_ASSIGN_OR_RETURN(std::string_view rec, page.Read(s));
        if (mvcc_active_) {
          switch (mvcc_->Check(file_id, Rid{page_no_, s}, *snapshot_,
                               &alt_rec_)) {
            case txn::MvccManager::Visibility::kCurrent:
              break;
            case txn::MvccManager::Visibility::kAltVersion:
              rec = alt_rec_;
              break;
            case txn::MvccManager::Visibility::kInvisible:
              continue;
          }
        }
        R3_RETURN_IF_ERROR(EmitWideRow(rec, out));
      }
      if (slot_ >= page.slot_count()) {
        if (mvcc_active_) {
          pending_ghosts_.clear();
          ghost_pos_ = 0;
          mvcc_->VisibleGhosts(file_id, page_no_, *snapshot_,
                               &pending_ghosts_);
        }
        ++page_no_;
        slot_ = 0;
      }
    }  // the page pin is released before the caller runs its filters
    return true;
  }

 private:
  Status EmitWideRow(std::string_view rec, RowBatch* out) {
    Row& wide = out->AppendRow();
    wide.assign(wide_width_, Value::Null());
    return DecodeRowInto(*schema_, rec, needed_cols_, offset_, &wide);
  }

  BufferPool* pool_;
  HeapFile* heap_;
  const Schema* schema_;
  txn::MvccManager* mvcc_;
  const txn::Snapshot* snapshot_;
  size_t offset_;
  size_t wide_width_;
  std::optional<std::vector<size_t>> needed_cols_;

  uint32_t num_pages_ = 0;
  bool mvcc_active_ = false;
  uint32_t page_no_ = 0;
  uint32_t slot_ = 0;
  std::string alt_rec_;
  std::vector<std::pair<uint16_t, std::string>> pending_ghosts_;
  size_t ghost_pos_ = 0;
};

class RowHeapIterator : public RecordIterator {
 public:
  explicit RowHeapIterator(const HeapFile* heap) : it_(heap) {}
  Result<bool> Next(Rid* rid, std::string* record) override {
    return it_.Next(rid, record);
  }

 private:
  HeapFile::Iterator it_;
};

}  // namespace

RowHeapEngine::RowHeapEngine(BufferPool* pool, uint32_t file_id,
                             const Schema* schema)
    : pool_(pool), heap_(pool, file_id), schema_(schema) {}

std::unique_ptr<ScanCursor> RowHeapEngine::NewScanCursor(
    const ScanSpec& spec) {
  return std::make_unique<RowHeapScanCursor>(pool_, &heap_, schema_, spec);
}

std::unique_ptr<RecordIterator> RowHeapEngine::NewIterator() const {
  return std::make_unique<RowHeapIterator>(&heap_);
}

Result<uint64_t> RowHeapEngine::DataBytes() const {
  return pool_->disk()->FileSizeBytes(heap_.file_id());
}

Result<uint64_t> RowHeapEngine::Checksum() const {
  // FNV-1a per record, combined commutatively: the checksum depends only on
  // the multiset of live record images, not on their RIDs or scan order
  // (undo and recovery may relocate records).
  uint64_t sum = 0;
  uint64_t count = 0;
  R3_ASSIGN_OR_RETURN(uint32_t num_pages, heap_.NumPages());
  std::vector<char> buf(kPageSize);
  for (uint32_t p = 0; p < num_pages; ++p) {
    R3_RETURN_IF_ERROR(
        pool_->ReadPageForScan(PageId{heap_.file_id(), p}, buf.data()));
    SlottedPage page(buf.data());
    for (uint16_t s = 0; s < page.slot_count(); ++s) {
      if (!page.IsLive(s)) continue;
      R3_ASSIGN_OR_RETURN(std::string_view rec, page.Read(s));
      uint64_t h = 1469598103934665603ull;  // FNV offset basis
      for (unsigned char c : rec) {
        h ^= c;
        h *= 1099511628211ull;  // FNV prime
      }
      sum += h;
      ++count;
    }
  }
  return sum + count * 0x9E3779B97F4A7C15ull;
}

StorageCosts RowHeapEngine::ScanCosts(const CostModel& cost) const {
  StorageCosts c;
  c.seq_page_us = static_cast<double>(cost.seq_page_read_us);
  c.random_page_us = static_cast<double>(cost.random_page_read_us);
  c.tuple_cpu_us = static_cast<double>(cost.dbms_tuple_cpu_us);
  return c;
}

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kRowHeap:
      return "row";
    case EngineKind::kColumnar:
      return "columnar";
  }
  return "unknown";
}

Result<EngineKind> ParseEngineKind(std::string_view name) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(static_cast<char>(
        c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
  }
  if (lower == "row" || lower == "rowheap" || lower == "heap") {
    return EngineKind::kRowHeap;
  }
  if (lower == "columnar" || lower == "column") return EngineKind::kColumnar;
  return Status::InvalidArgument("unknown storage engine '" +
                                 std::string(name) +
                                 "' (expected row or columnar)");
}

}  // namespace rdbms
}  // namespace r3
