#ifndef R3DB_RDBMS_TXN_MVCC_H_
#define R3DB_RDBMS_TXN_MVCC_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "rdbms/storage/page.h"

namespace r3 {
namespace rdbms {
namespace txn {

/// A transaction's (or statement's) view of the database, captured when the
/// transaction begins. Snapshot isolation: a version is visible when its
/// creator committed before the snapshot was taken (or is the snapshot's own
/// transaction) and its deleter did not.
struct Snapshot {
  uint64_t own_txn = 0;      ///< 0 = read-only / autocommit statement
  uint64_t next_txn_id = 0;  ///< ids >= this began after the snapshot
  /// Oldest transaction whose effects this snapshot may not see: the GC
  /// horizon contribution of this snapshot while it is live.
  uint64_t low_water = 0;
  std::vector<uint64_t> active;  ///< in-flight txn ids at capture, sorted

  /// True when the effects of `t` are visible to this snapshot.
  bool Sees(uint64_t t) const {
    if (t == 0) return true;  // baseline / pre-MVCC write: committed long ago
    if (t == own_txn) return true;
    if (t >= next_txn_id) return false;
    // Aborted transactions revert their versions eagerly, so any id below
    // next_txn_id that was not active at capture has committed.
    return !std::binary_search(active.begin(), active.end(), t);
  }
};

/// Multi-version concurrency control over the heap: an in-memory version
/// chain per modified row, snapshot-visibility checks for readers, and a
/// transaction-end garbage collector.
///
/// The newest version of a row always lives in its heap page (InnoDB-style);
/// this manager keeps the row's logical header — creating txn (xmin),
/// deleting txn (xmax) — plus a chain of superseded record images, keyed by
/// {heap file, RID}. Rows never touched since MVCC was enabled have no entry
/// and are visible to every snapshot, so the map only ever holds the working
/// set of recent write transactions (GC trims it back after commit).
///
/// A physically deleted row whose deletion is invisible to some live
/// snapshot survives as a *ghost*: the slot is gone from the page (keeping
/// WAL, checksums, and non-MVCC behavior unchanged) but the chain retains
/// the last record image, indexed per page so sequential scans can emit it.
///
/// Thread-safe: one mutex guards the maps (writers are row-locked anyway;
/// readers only race with GC and concurrent writers in the stress tests).
/// Disabled (the default) every hook is a no-op and readers skip the map
/// entirely via an atomic emptiness check.
class MvccManager {
 public:
  explicit MvccManager(MetricsRegistry* metrics = nullptr);

  MvccManager(const MvccManager&) = delete;
  MvccManager& operator=(const MvccManager&) = delete;

  /// Turns version tracking on (Database::EnableWal does this). Off, all
  /// hooks no-op and visibility always answers kCurrent.
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Crash aftermath: drop every chain, snapshot, and in-flight txn (the
  /// heap was dropped too; recovery rebuilds only committed state, which is
  /// visible to everyone without version info).
  void Reset();

  // -- Transaction registry --------------------------------------------------

  /// Registers `id` as in-flight; subsequent snapshots treat it as invisible
  /// until CommitTxn.
  void BeginTxn(uint64_t id);

  /// Marks `id` committed (drops it from the active set) and runs the
  /// transaction-end GC pass.
  void CommitTxn(uint64_t id);

  /// Reverts every version-map effect of `id` (the caller has already
  /// restored the heap images) and drops it from the active set.
  void AbortTxn(uint64_t id);

  /// Captures the active-txn set as a Snapshot. The snapshot is registered
  /// for GC-horizon purposes until the returned handle is destroyed.
  std::shared_ptr<const Snapshot> AcquireSnapshot(uint64_t own_txn = 0);

  // -- Writer hooks (no-ops when disabled) -----------------------------------

  /// Row inserted at `rid` by `txn`.
  void OnInsert(uint32_t file_id, Rid rid, uint64_t txn);

  /// Row at `rid` rewritten in place by `txn`; `pre_image` is the record as
  /// it was before the write.
  void OnUpdate(uint32_t file_id, Rid rid, uint64_t txn,
                std::string_view pre_image);

  /// Row at `rid` physically deleted by `txn`; `pre_image` becomes the ghost
  /// image older snapshots read.
  void OnDelete(uint32_t file_id, Rid rid, uint64_t txn,
                std::string_view pre_image);

  // -- Reader API ------------------------------------------------------------

  enum class Visibility {
    kCurrent,     ///< the heap record is the visible version
    kAltVersion,  ///< an older image (written to `*alt`) is visible
    kInvisible,   ///< no version of this row exists for the snapshot
  };

  /// Decides which version of the (live) heap row at `rid` snapshot `snap`
  /// sees. kAltVersion copies the visible image into `*alt`.
  Visibility Check(uint32_t file_id, Rid rid, const Snapshot& snap,
                   std::string* alt) const;

  /// Appends the ghost rows of `page_no` visible to `snap` — rows whose
  /// physical deletion the snapshot must not observe — as {slot, record},
  /// sorted by slot. Scans call this after the page's live slots.
  void VisibleGhosts(uint32_t file_id, uint32_t page_no, const Snapshot& snap,
                     std::vector<std::pair<uint16_t, std::string>>* out) const;

  /// Lock-free fast path for scans: false guarantees no row of `file_id`
  /// has version info (every heap record is current and there are no
  /// ghosts), so per-row checks can be skipped wholesale.
  bool MightHaveVersions(uint32_t file_id) const {
    (void)file_id;  // global count: per-file precision isn't worth a lock
    return entry_count_.load(std::memory_order_acquire) != 0;
  }

  // -- Garbage collection ----------------------------------------------------

  /// Trims version chains and ghost entries no live snapshot can need.
  /// Runs automatically at CommitTxn; exposed for tests. Returns the number
  /// of record images freed.
  size_t GarbageCollect();

  // -- Introspection (tests) -------------------------------------------------

  size_t live_entries() const;
  size_t live_txns() const;
  size_t live_snapshots() const;

 private:
  /// A superseded record image. `xmin` wrote it; `xmax` replaced or deleted
  /// it (and is therefore the creator of the next-newer version, or the
  /// deleter of the row).
  struct OldVersion {
    uint64_t xmin = 0;
    uint64_t xmax = 0;
    std::string record;
  };

  /// Logical row header + history for one RID.
  struct Entry {
    uint64_t xmin = 0;     ///< creator of the current (heap) version
    uint64_t xmax = 0;     ///< deleter, when `deleted`
    bool deleted = false;  ///< ghost: the slot is physically gone
    std::vector<OldVersion> older;  ///< newest first
  };

  struct FileMap {
    std::unordered_map<uint64_t, Entry> rows;  ///< key: Rid::Pack()
    /// page -> packed RIDs of ghosts on that page (for scan emission).
    std::unordered_map<uint32_t, std::vector<uint64_t>> ghosts_by_page;
  };

  /// One reversible version-map effect, for AbortTxn.
  struct OpRec {
    enum class Kind : uint8_t { kInsert, kUpdate, kDelete };
    Kind kind;
    uint32_t file_id;
    uint64_t rid;
  };

  void RecordOp(uint64_t txn, OpRec::Kind kind, uint32_t file_id,
                uint64_t rid);
  void EraseEntryLocked(FileMap& fm, uint64_t rid);
  void AddGhostLocked(FileMap& fm, uint64_t rid);
  void RemoveGhostLocked(FileMap& fm, uint64_t rid);
  /// Oldest txn id any live snapshot or in-flight txn may care about.
  uint64_t HorizonLocked() const;
  size_t GarbageCollectLocked();
  void BumpEntryCount(int64_t delta) {
    entry_count_.fetch_add(delta, std::memory_order_acq_rel);
  }

  bool enabled_ = false;
  mutable std::mutex mu_;
  std::unordered_map<uint32_t, FileMap> files_;
  std::set<uint64_t> active_txns_;
  /// Registered snapshot low-waters (multiset semantics via counted map).
  std::map<uint64_t, int> snapshot_low_waters_;
  std::unordered_map<uint64_t, std::vector<OpRec>> txn_ops_;
  std::deque<std::pair<uint32_t, uint64_t>> gc_queue_;  ///< {file, rid}
  std::atomic<int64_t> entry_count_{0};
  uint64_t last_seen_txn_ = 0;  ///< highest id ever registered or written

  Counter* m_versions_created_;
  Counter* m_ghosts_created_;
  Counter* m_gc_runs_;
  Counter* m_gc_trimmed_;
  Counter* m_gc_entries_erased_;
  Counter* m_snapshots_;
  Counter* m_alt_reads_;       ///< reads served from an older version
  Counter* m_invisible_rows_;  ///< rows skipped as not-yet-visible
  Histogram* h_chain_len_;
};

}  // namespace txn
}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_TXN_MVCC_H_
