#include "rdbms/txn/mvcc.h"

#include <algorithm>

namespace r3 {
namespace rdbms {
namespace txn {

namespace {
std::vector<int64_t> ChainLenBounds() { return {1, 2, 4, 8, 16, 32, 64}; }
}  // namespace

MvccManager::MvccManager(MetricsRegistry* metrics) {
  MetricsRegistry* m = metrics != nullptr ? metrics : GlobalMetrics();
  m_versions_created_ = m->GetCounter("rdbms.mvcc.versions_created");
  m_ghosts_created_ = m->GetCounter("rdbms.mvcc.ghosts_created");
  m_gc_runs_ = m->GetCounter("rdbms.mvcc.gc_runs");
  m_gc_trimmed_ = m->GetCounter("rdbms.mvcc.versions_trimmed");
  m_gc_entries_erased_ = m->GetCounter("rdbms.mvcc.entries_erased");
  m_snapshots_ = m->GetCounter("rdbms.mvcc.snapshots_taken");
  m_alt_reads_ = m->GetCounter("rdbms.mvcc.alt_version_reads");
  m_invisible_rows_ = m->GetCounter("rdbms.mvcc.invisible_rows_skipped");
  h_chain_len_ = m->GetHistogram("rdbms.mvcc.chain_length", ChainLenBounds());
}

void MvccManager::Reset() {
  std::lock_guard<std::mutex> lk(mu_);
  files_.clear();
  active_txns_.clear();
  snapshot_low_waters_.clear();
  txn_ops_.clear();
  gc_queue_.clear();
  entry_count_.store(0, std::memory_order_release);
  last_seen_txn_ = 0;
}

void MvccManager::BeginTxn(uint64_t id) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  active_txns_.insert(id);
  last_seen_txn_ = std::max(last_seen_txn_, id);
}

void MvccManager::CommitTxn(uint64_t id) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  active_txns_.erase(id);
  auto it = txn_ops_.find(id);
  if (it != txn_ops_.end()) {
    // The committed txn's touched rows become GC candidates: once the
    // horizon passes `id`, their superseded versions are unreachable.
    for (const OpRec& op : it->second) {
      gc_queue_.emplace_back(op.file_id, op.rid);
    }
    txn_ops_.erase(it);
  }
  GarbageCollectLocked();
}

void MvccManager::AbortTxn(uint64_t id) {
  if (!enabled_ || id == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  active_txns_.erase(id);
  auto it = txn_ops_.find(id);
  if (it == txn_ops_.end()) return;
  // Undo version-map effects newest-first, mirroring the physical undo the
  // Database layer already performed on the heap.
  for (auto op = it->second.rbegin(); op != it->second.rend(); ++op) {
    FileMap& fm = files_[op->file_id];
    auto row_it = fm.rows.find(op->rid);
    if (row_it == fm.rows.end()) continue;
    Entry& e = row_it->second;
    switch (op->kind) {
      case OpRec::Kind::kInsert:
        // The inserted row is physically gone again. If the entry has
        // history (insert over a ghost cannot happen — RIDs are never
        // reused — so `older` must be empty), just drop it.
        EraseEntryLocked(fm, op->rid);
        break;
      case OpRec::Kind::kUpdate:
        // The heap holds the pre-image again; pop our version off the chain.
        if (!e.older.empty()) {
          e.xmin = e.older.front().xmin;
          e.older.erase(e.older.begin());
        }
        if (e.xmin == 0 && e.older.empty() && !e.deleted) {
          EraseEntryLocked(fm, op->rid);
        }
        break;
      case OpRec::Kind::kDelete:
        // The row was physically re-inserted at the same RID by undo.
        if (e.deleted && !e.older.empty()) {
          RemoveGhostLocked(fm, op->rid);
          e.deleted = false;
          e.xmax = 0;
          e.xmin = e.older.front().xmin;
          e.older.erase(e.older.begin());
        }
        if (e.xmin == 0 && e.older.empty() && !e.deleted) {
          EraseEntryLocked(fm, op->rid);
        }
        break;
    }
  }
  txn_ops_.erase(it);
  GarbageCollectLocked();
}

std::shared_ptr<const Snapshot> MvccManager::AcquireSnapshot(uint64_t own_txn) {
  auto snap = std::make_shared<Snapshot>();
  snap->own_txn = own_txn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    snap->next_txn_id = last_seen_txn_ + 1;
    snap->active.assign(active_txns_.begin(), active_txns_.end());
    snap->low_water =
        active_txns_.empty() ? snap->next_txn_id : *active_txns_.begin();
    snapshot_low_waters_[snap->low_water]++;
  }
  m_snapshots_->Increment();
  // The returned handle unregisters its low-water on destruction, releasing
  // the GC horizon this snapshot pinned.
  uint64_t lw = snap->low_water;
  return std::shared_ptr<const Snapshot>(
      snap.get(), [this, snap, lw](const Snapshot*) mutable {
        std::lock_guard<std::mutex> lk(mu_);
        auto it = snapshot_low_waters_.find(lw);
        if (it != snapshot_low_waters_.end() && --it->second == 0) {
          snapshot_low_waters_.erase(it);
        }
        snap.reset();
      });
}

void MvccManager::OnInsert(uint32_t file_id, Rid rid, uint64_t txn) {
  if (!enabled_ || txn == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  last_seen_txn_ = std::max(last_seen_txn_, txn);
  FileMap& fm = files_[file_id];
  auto [it, inserted] = fm.rows.try_emplace(rid.Pack());
  Entry& e = it->second;
  if (inserted) BumpEntryCount(+1);
  e.xmin = txn;
  e.xmax = 0;
  e.deleted = false;
  RecordOp(txn, OpRec::Kind::kInsert, file_id, rid.Pack());
}

void MvccManager::OnUpdate(uint32_t file_id, Rid rid, uint64_t txn,
                           std::string_view pre_image) {
  if (!enabled_ || txn == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  last_seen_txn_ = std::max(last_seen_txn_, txn);
  FileMap& fm = files_[file_id];
  uint64_t key = rid.Pack();
  auto [it, inserted] = fm.rows.try_emplace(key);
  Entry& e = it->second;
  if (inserted) BumpEntryCount(+1);
  // Push the superseded image: it was created by the old xmin and ends at
  // this txn.
  OldVersion v;
  v.xmin = e.xmin;  // 0 when the row predates MVCC tracking
  v.xmax = txn;
  v.record.assign(pre_image.data(), pre_image.size());
  e.older.insert(e.older.begin(), std::move(v));
  e.xmin = txn;
  m_versions_created_->Increment();
  h_chain_len_->Observe(static_cast<int64_t>(e.older.size()));
  RecordOp(txn, OpRec::Kind::kUpdate, file_id, key);
}

void MvccManager::OnDelete(uint32_t file_id, Rid rid, uint64_t txn,
                           std::string_view pre_image) {
  if (!enabled_ || txn == 0) return;
  std::lock_guard<std::mutex> lk(mu_);
  last_seen_txn_ = std::max(last_seen_txn_, txn);
  FileMap& fm = files_[file_id];
  uint64_t key = rid.Pack();
  auto [it, inserted] = fm.rows.try_emplace(key);
  Entry& e = it->second;
  if (inserted) BumpEntryCount(+1);
  // Keep the deleted image as the newest chain link; the heap slot is gone.
  OldVersion v;
  v.xmin = e.xmin;
  v.xmax = txn;
  v.record.assign(pre_image.data(), pre_image.size());
  e.older.insert(e.older.begin(), std::move(v));
  e.deleted = true;
  e.xmax = txn;
  AddGhostLocked(fm, key);
  m_ghosts_created_->Increment();
  h_chain_len_->Observe(static_cast<int64_t>(e.older.size()));
  RecordOp(txn, OpRec::Kind::kDelete, file_id, key);
}

MvccManager::Visibility MvccManager::Check(uint32_t file_id, Rid rid,
                                           const Snapshot& snap,
                                           std::string* alt) const {
  if (!MightHaveVersions(file_id)) return Visibility::kCurrent;
  std::lock_guard<std::mutex> lk(mu_);
  auto fit = files_.find(file_id);
  if (fit == files_.end()) return Visibility::kCurrent;
  auto rit = fit->second.rows.find(rid.Pack());
  if (rit == fit->second.rows.end()) return Visibility::kCurrent;
  const Entry& e = rit->second;
  if (e.deleted) {
    // Caller fetched a live heap row, so a `deleted` entry here means the
    // RID was never reused (slots are not reused) — should not happen; be
    // safe and treat the heap row as current.
    return Visibility::kCurrent;
  }
  if (snap.Sees(e.xmin)) return Visibility::kCurrent;
  // Walk older versions, newest first: visible when its creator is seen and
  // its terminator is not.
  for (const OldVersion& v : e.older) {
    if (!snap.Sees(v.xmin)) continue;
    if (snap.Sees(v.xmax)) {
      // This version ended before the snapshot — and every older one did
      // too, so the row (as far as this snapshot goes) did not exist yet.
      break;
    }
    if (alt != nullptr) *alt = v.record;
    m_alt_reads_->Increment();
    return Visibility::kAltVersion;
  }
  m_invisible_rows_->Increment();
  return Visibility::kInvisible;
}

void MvccManager::VisibleGhosts(
    uint32_t file_id, uint32_t page_no, const Snapshot& snap,
    std::vector<std::pair<uint16_t, std::string>>* out) const {
  if (!MightHaveVersions(file_id)) return;
  std::lock_guard<std::mutex> lk(mu_);
  auto fit = files_.find(file_id);
  if (fit == files_.end()) return;
  auto git = fit->second.ghosts_by_page.find(page_no);
  if (git == fit->second.ghosts_by_page.end()) return;
  size_t first = out->size();
  for (uint64_t key : git->second) {
    auto rit = fit->second.rows.find(key);
    if (rit == fit->second.rows.end() || !rit->second.deleted) continue;
    const Entry& e = rit->second;
    for (const OldVersion& v : e.older) {
      if (!snap.Sees(v.xmin)) continue;
      if (snap.Sees(v.xmax)) break;  // deletion (or older end) visible
      out->emplace_back(Rid::Unpack(key).slot, v.record);
      break;
    }
  }
  std::sort(out->begin() + first, out->end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
}

size_t MvccManager::GarbageCollect() {
  std::lock_guard<std::mutex> lk(mu_);
  return GarbageCollectLocked();
}

uint64_t MvccManager::HorizonLocked() const {
  uint64_t h = last_seen_txn_ + 1;
  if (!active_txns_.empty()) h = std::min(h, *active_txns_.begin());
  if (!snapshot_low_waters_.empty()) {
    h = std::min(h, snapshot_low_waters_.begin()->first);
  }
  return h;
}

size_t MvccManager::GarbageCollectLocked() {
  m_gc_runs_->Increment();
  const uint64_t horizon = HorizonLocked();
  size_t freed = 0;
  size_t budget = gc_queue_.size();
  std::deque<std::pair<uint32_t, uint64_t>> requeue;
  while (budget-- > 0 && !gc_queue_.empty()) {
    auto [file_id, key] = gc_queue_.front();
    gc_queue_.pop_front();
    auto fit = files_.find(file_id);
    if (fit == files_.end()) continue;
    FileMap& fm = fit->second;
    auto rit = fm.rows.find(key);
    if (rit == fm.rows.end()) continue;
    Entry& e = rit->second;
    // Trim chain tail: a version is dead once the *next newer* write (its
    // xmax) is visible to every possible snapshot, i.e. xmax < horizon.
    while (!e.older.empty() && e.older.back().xmax < horizon &&
           e.older.back().xmax != 0) {
      e.older.pop_back();
      ++freed;
      m_gc_trimmed_->Increment();
    }
    bool erase = false;
    if (e.deleted) {
      // Ghost: gone once the deletion itself is universally visible and no
      // chain link survives.
      erase = e.older.empty() && e.xmax != 0 && e.xmax < horizon;
    } else {
      // Frozen: current version universally visible, no history left.
      erase = e.older.empty() && e.xmin < horizon;
    }
    if (erase) {
      EraseEntryLocked(fm, key);
      m_gc_entries_erased_->Increment();
    } else if (!e.older.empty() || e.deleted || e.xmin >= horizon) {
      // Still pinned by some snapshot or in-flight txn; revisit later.
      requeue.emplace_back(file_id, key);
    }
  }
  for (auto& item : requeue) gc_queue_.push_back(item);
  return freed;
}

size_t MvccManager::live_entries() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [fid, fm] : files_) n += fm.rows.size();
  return n;
}

size_t MvccManager::live_txns() const {
  std::lock_guard<std::mutex> lk(mu_);
  return active_txns_.size();
}

size_t MvccManager::live_snapshots() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = 0;
  for (const auto& [lw, count] : snapshot_low_waters_) n += count;
  return n;
}

void MvccManager::RecordOp(uint64_t txn, OpRec::Kind kind, uint32_t file_id,
                           uint64_t rid) {
  txn_ops_[txn].push_back(OpRec{kind, file_id, rid});
}

void MvccManager::EraseEntryLocked(FileMap& fm, uint64_t rid) {
  auto it = fm.rows.find(rid);
  if (it == fm.rows.end()) return;
  if (it->second.deleted) RemoveGhostLocked(fm, rid);
  fm.rows.erase(it);
  BumpEntryCount(-1);
}

void MvccManager::AddGhostLocked(FileMap& fm, uint64_t rid) {
  uint32_t page = Rid::Unpack(rid).page_no;
  auto& vec = fm.ghosts_by_page[page];
  if (std::find(vec.begin(), vec.end(), rid) == vec.end()) {
    vec.push_back(rid);
  }
}

void MvccManager::RemoveGhostLocked(FileMap& fm, uint64_t rid) {
  uint32_t page = Rid::Unpack(rid).page_no;
  auto it = fm.ghosts_by_page.find(page);
  if (it == fm.ghosts_by_page.end()) return;
  auto& vec = it->second;
  vec.erase(std::remove(vec.begin(), vec.end(), rid), vec.end());
  if (vec.empty()) fm.ghosts_by_page.erase(it);
}

}  // namespace txn
}  // namespace rdbms
}  // namespace r3
