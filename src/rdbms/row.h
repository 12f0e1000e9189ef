#ifndef R3DB_RDBMS_ROW_H_
#define R3DB_RDBMS_ROW_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "rdbms/schema.h"
#include "rdbms/value.h"

namespace r3 {
namespace rdbms {

/// A materialized tuple.
using Row = std::vector<Value>;

/// Serializes `row` according to `schema` and appends to `*out`.
///
/// Wire format per column: 1 null byte, then (if non-null) the column's
/// fixed-width payload, or u16 length + bytes for VARCHAR. CHAR(n) columns
/// are blank-padded to exactly n bytes (and trimmed on read) — this is what
/// makes SAP's CHAR(16)-coded keys physically ~4x larger than the original
/// TPC-D 4-byte integer keys.
Status SerializeRow(const Schema& schema, const Row& row, std::string* out);

/// Parses a serialized row. `data` must be exactly one row.
Status DeserializeRow(const Schema& schema, std::string_view data, Row* row);

/// Decodes one serialized record into a row: the k-th column of `cols`
/// (table-local ids, ascending) lands at `(*row)[offset + k]`, and without
/// `cols` record column `c` lands at `(*row)[offset + c]`. So a projected
/// table occupies `cols->size()` contiguous positions, the optimizer's
/// compact row layout (DESIGN.md §6). Every other position of `*row` is left
/// as it is, and `*row` must already hold the written positions. Every
/// column's bytes are still walked and bounds-checked, so a truncated record
/// or trailing bytes fail exactly as in DeserializeRow; a column outside
/// `cols` costs no Value construction, allocation or trim.
Status DecodeRowInto(const Schema& schema, std::string_view data,
                     const std::optional<std::vector<size_t>>& cols,
                     size_t offset, Row* row);

/// Serialized size without building the string.
size_t SerializedRowSize(const Schema& schema, const Row& row);

/// Renders a row as "(a, b, c)" for tests and debugging.
std::string RowToString(const Row& row);

}  // namespace rdbms
}  // namespace r3

#endif  // R3DB_RDBMS_ROW_H_
