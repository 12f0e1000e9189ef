#ifndef R3DB_RDBMS_EXEC_JOIN_TABLE_H_
#define R3DB_RDBMS_EXEC_JOIN_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "rdbms/value.h"

namespace r3 {
namespace rdbms {

/// The hash-join build table, shared by the serial build (HashJoinOp) and
/// the partitioned build (GatherOp::BuildJoinTable).
///
/// Flat storage: every packed build row lives in one `Value` arena of fixed
/// width, every distinct encoded key in one concatenated string, and an
/// open-addressing slot array maps a key hash to its key id. Each key keeps
/// a head/tail chain through its rows, so a probe walks a key's matches in
/// insertion order. A build is a few geometric vector growths instead of one
/// heap row and one map node per tuple, and a probe hashes the caller's
/// key bytes in place, allocating nothing.
class JoinTable {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  /// Empties the table for rows of `width` packed values. The slot array is
  /// sized for `est_rows` keys (0 = unknown), capped by CappedReserve; the
  /// arena only grows as rows arrive, so a wild estimate cannot raise
  /// memory.
  void Reset(size_t width, uint64_t est_rows);

  /// Appends one build row under `key`: moves `width` values out of
  /// `packed` into the arena and links the row at the tail of the key's
  /// chain.
  void Insert(std::string_view key, Value* packed);

  /// First row of `key`'s chain, or kEnd.
  uint32_t Find(std::string_view key) const;

  /// Row after `row` in its key's chain, or kEnd.
  uint32_t Next(uint32_t row) const { return next_[row]; }

  /// The packed values of `row` (`width` of them).
  const Value* RowValues(uint32_t row) const {
    return arena_.data() + static_cast<size_t>(row) * width_;
  }

  size_t num_rows() const { return next_.size(); }
  size_t num_keys() const { return keys_.size(); }

  /// Frees every buffer. A cached plan keeps its operators alive between
  /// executions, so a closed join must not pin its last build.
  void Release();

 private:
  struct Key {
    size_t offset = 0;  ///< into key_bytes_
    uint32_t length = 0;
    uint32_t head = kEnd;
    uint32_t tail = kEnd;
  };
  /// One open-addressing slot: the high half of the key's hash (rejects
  /// most mismatches without touching the key bytes) and the key's id;
  /// `key == kEnd` marks an empty slot.
  struct Slot {
    uint32_t tag = 0;
    uint32_t key = kEnd;
  };

  static uint64_t Hash(std::string_view key);
  std::string_view KeyBytes(const Key& k) const {
    return std::string_view(key_bytes_.data() + k.offset, k.length);
  }
  /// The slot holding `key`, or the empty slot where it would go.
  size_t Locate(std::string_view key, uint64_t hash) const;
  void Grow();

  size_t width_ = 0;
  std::vector<Value> arena_;
  std::vector<uint32_t> next_;  ///< per row: next row of the same key
  std::string key_bytes_;
  std::vector<Key> keys_;
  std::vector<Slot> slots_;  ///< power-of-two size, at most 3/4 full
};

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_EXEC_JOIN_TABLE_H_
