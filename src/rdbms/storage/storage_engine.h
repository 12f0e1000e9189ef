#ifndef R3DB_RDBMS_STORAGE_STORAGE_ENGINE_H_
#define R3DB_RDBMS_STORAGE_STORAGE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cost_model.h"
#include "common/status.h"
#include "rdbms/row_batch.h"
#include "rdbms/storage/page.h"

namespace r3 {
namespace rdbms {

class HeapFile;

namespace txn {
class MvccManager;
struct Snapshot;
}  // namespace txn

/// Which physical layout a table uses. The row heap is the transactional
/// default; the columnar engine is a read-optimized, memory-resident layout
/// for the warehouse path (no WAL durability — a crash re-extracts).
enum class EngineKind : uint8_t {
  kRowHeap = 0,
  kColumnar = 1,
};

const char* EngineKindName(EngineKind kind);

/// Parses "row" / "columnar" (case-insensitive). Anything else is an error.
Result<EngineKind> ParseEngineKind(std::string_view name);

/// Per-engine page/tuple costs the optimizer plugs into its formulas, in the
/// spirit of MariaDB's per-handler OPTIMIZER_COSTS. Values are doubles so an
/// engine can undercut the row heap's integer microsecond constants; the row
/// engine reports the CostModel integers verbatim (exactly representable, so
/// plan arithmetic stays bit-identical to the pre-engine code).
struct StorageCosts {
  double seq_page_us = 0;     ///< reading one page sequentially
  double random_page_us = 0;  ///< reading one page at a random position
  double tuple_cpu_us = 0;    ///< per-tuple CPU while scanning
};

/// Constructor bundle for a table scan cursor: the execution-time context a
/// storage engine needs to produce visible rows. `offset`/`wide_width`
/// describe where the table's columns land in the operator's row.
struct ScanSpec {
  txn::MvccManager* mvcc = nullptr;          ///< null = no MVCC checks
  const txn::Snapshot* snapshot = nullptr;   ///< null = no MVCC checks
  size_t offset = 0;
  size_t wide_width = 0;
  /// Local column ids (0-based within the table, ascending) the consumer
  /// will actually read; every engine materializes only these, the k-th at
  /// `offset + k` (DecodeRowInto's rule). Empty optional = every column,
  /// column c at `offset + c`.
  std::optional<std::vector<size_t>> needed_cols;
  /// Local column ids referenced by the scan's filter predicates (subset of
  /// needed_cols); a columnar engine charges these as its "scan" columns.
  std::vector<size_t> filter_cols;
  /// Exact-match string predicates safe to evaluate inside a columnar
  /// engine via dictionary-code comparison. The operator keeps the original
  /// predicate in its filter list, so engine-side evaluation may only drop
  /// rows the predicate would reject anyway.
  struct DictEq {
    size_t col = 0;      ///< local column id (string-typed)
    std::string value;   ///< non-null comparison literal
  };
  std::vector<DictEq> dict_eqs;
};

/// Pull-based batch scan over one table, produced by a StorageEngine. The
/// cursor appends fully padded rows of `wide_width` values (the spec's
/// needed columns from `offset`, Nulls elsewhere) to the caller's RowBatch and owns all position
/// state.
class ScanCursor {
 public:
  virtual ~ScanCursor() = default;

  /// Called once at the top of every operator NextBatch before the chunk
  /// loop, so the cursor can refresh per-batch state (page count, whether
  /// MVCC checks can be skipped) exactly like the pre-engine scan did.
  virtual Status BeginBatch() = 0;

  /// Performs one scan step — one heap page, one pending-ghost drain, or one
  /// columnar chunk — appending visible rows to `*out` (never beyond its
  /// capacity; overflow is staged internally for the next call). Returns
  /// false when the scan is exhausted and nothing was appended.
  virtual Result<bool> NextChunk(RowBatch* out) = 0;
};

/// Iterator over the raw serialized records of a table, for maintenance
/// paths (ANALYZE, index backfill, recovery rebuild) that predate MVCC
/// visibility: it yields the current version of every live row.
class RecordIterator {
 public:
  virtual ~RecordIterator() = default;

  /// Advances to the next live record. Returns false at the end.
  virtual Result<bool> Next(Rid* rid, std::string* record) = 0;
};

/// Abstract table storage: the catalog owns one engine per table and every
/// scan operator, DML path, and maintenance pass goes through this
/// interface. Records cross the boundary in the canonical serialized row
/// format (SerializeRow), so checksums and WAL images are engine-agnostic.
class StorageEngine {
 public:
  virtual ~StorageEngine() = default;

  virtual EngineKind kind() const = 0;
  const char* name() const { return EngineKindName(kind()); }

  /// The Disk file id backing (or reserved for) this table. Also the MVCC
  /// and lock-key namespace for its rows.
  virtual uint32_t file_id() const = 0;

  /// True when the engine's pages are WAL-logged and crash recovery can
  /// rebuild it. Database::EnableWal refuses tables that answer false.
  virtual bool wal_capable() const = 0;

  /// The underlying heap file for WAL/recovery redo, or nullptr for engines
  /// without slotted-page backing.
  virtual HeapFile* heap_file() const { return nullptr; }

  // -- Record DML ------------------------------------------------------------

  virtual Result<Rid> Insert(std::string_view record) = 0;

  /// Places a record at exactly `rid` (undo path: a record must return to
  /// its original RID so index payloads stay valid).
  virtual Status InsertAt(Rid rid, std::string_view record) = 0;

  virtual Status Get(Rid rid, std::string* out) const = 0;

  virtual Status Delete(Rid rid) = 0;

  /// Updates the record; the returned RID may differ from `rid` when the
  /// engine had to relocate it (row heap page overflow).
  virtual Result<Rid> Update(Rid rid, std::string_view record) = 0;

  /// Forgets append-locality hints (after crash recovery rebuilt state).
  virtual void ResetInsertHint() {}

  // -- Scans -----------------------------------------------------------------

  virtual std::unique_ptr<ScanCursor> NewScanCursor(const ScanSpec& spec) = 0;

  virtual std::unique_ptr<RecordIterator> NewIterator() const = 0;

  // -- Introspection ---------------------------------------------------------

  /// Page count for the optimizer's I/O costing: physical pages for the row
  /// heap, compressed-bytes-equivalent pages for the columnar engine.
  virtual Result<uint32_t> NumPages() const = 0;

  /// Bytes of storage attributed to the table's data (excluding indexes):
  /// the Disk file size for the row heap, compressed segment bytes for the
  /// columnar engine.
  virtual Result<uint64_t> DataBytes() const = 0;

  /// Order-independent checksum over the multiset of live records, charging
  /// no simulated time. Engines storing canonical serialized rows produce
  /// identical checksums for identical logical contents.
  virtual Result<uint64_t> Checksum() const = 0;

  virtual StorageCosts ScanCosts(const CostModel& cost) const = 0;

  /// Drops all rows without logging (crash simulation for engines that are
  /// not WAL-capable; the row heap ignores this — recovery handles it).
  virtual void Clear() {}
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_STORAGE_STORAGE_ENGINE_H_
