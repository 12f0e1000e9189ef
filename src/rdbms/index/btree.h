#ifndef R3DB_RDBMS_INDEX_BTREE_H_
#define R3DB_RDBMS_INDEX_BTREE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "rdbms/storage/buffer_pool.h"
#include "rdbms/storage/page.h"

namespace r3 {
namespace rdbms {

/// Disk-page B+-tree mapping memcomparable byte keys to uint64 payloads
/// (packed RIDs for secondary indexes, child pages internally).
///
/// * Variable-length keys (slotted node layout).
/// * Duplicate keys allowed; entries are ordered by (key, payload) so
///   deletes address an exact entry.
/// * Deletion is lazy (no rebalancing/merging) — fine for the TPC-D
///   workloads where deletes are a small fraction of inserts.
///
/// The root page number lives in the in-memory object; the catalog owns
/// BTree instances for the lifetime of the database.
class BTree {
 public:
  /// Creates an empty tree in a fresh Disk file.
  static Result<BTree> Create(BufferPool* pool);

  /// Inserts (key, payload). With `unique` set, fails with kAlreadyExists
  /// if any entry with the same key exists.
  Status Insert(std::string_view key, uint64_t payload, bool unique = false);

  /// Removes the exact (key, payload) entry. kNotFound if absent.
  Status Delete(std::string_view key, uint64_t payload);

  /// True if at least one entry with exactly `key` exists.
  Result<bool> Contains(std::string_view key);

  /// Forward cursor over entries with key >= `lower` (byte order).
  ///
  /// Stays exact when the tree changes between two Next calls: the cursor
  /// keeps its bound — the last returned (key, payload), or the Seek key
  /// before the first Next — and when an insert, delete or split has moved
  /// that bound off the slot before its position, it re-positions by binary
  /// search to the first entry after the bound. No entry is skipped or
  /// returned twice. While the tree is unchanged, no page fetch is added.
  class Cursor {
   public:
    /// Advances; returns false when the tree is exhausted.
    Result<bool> Next(std::string* key, uint64_t* payload);

   private:
    friend class BTree;
    BTree* tree_ = nullptr;
    uint32_t page_no_ = 0;
    uint32_t pos_ = 0;
    bool done_ = true;
    /// After (bound_key_, bound_payload_) once an entry was returned;
    /// before that, at or after the Seek key bound_key_.
    std::string bound_key_;
    uint64_t bound_payload_ = 0;
    bool returned_ = false;
  };

  /// Positions a cursor at the first entry with key >= `lower`.
  Result<Cursor> Seek(std::string_view lower);

  /// Positions a cursor at the very first entry.
  Result<Cursor> SeekFirst() { return Seek(std::string_view()); }

  /// Number of live entries.
  Result<uint64_t> CountEntries();

  uint32_t file_id() const { return file_id_; }

  /// Pages allocated to this index (for size reporting).
  Result<uint32_t> NumPages() const;

  /// Tree height (1 = just a root leaf).
  int height() const { return height_; }

 private:
  BTree(BufferPool* pool, uint32_t file_id, uint32_t root)
      : pool_(pool), file_id_(file_id), root_(root) {}

  struct PromotedEntry {
    std::string key;
    uint32_t right_page;
  };

  // Recursive insert; sets *promoted when the child split.
  Status InsertRec(uint32_t page_no, std::string_view key, uint64_t payload,
                   bool unique, std::optional<PromotedEntry>* promoted);

  // Descends to the leaf that may contain `key` (for point ops).
  Result<uint32_t> FindLeaf(std::string_view key);

  BufferPool* pool_;
  uint32_t file_id_;
  uint32_t root_;
  int height_ = 1;
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_INDEX_BTREE_H_
