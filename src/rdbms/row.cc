#include "rdbms/row.h"

#include <cstring>

#include "common/str_util.h"

namespace r3 {
namespace rdbms {

namespace {

void AppendFixedInt(std::string* out, uint64_t v, size_t bytes) {
  // Little-endian fixed-width.
  for (size_t i = 0; i < bytes; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

uint64_t ReadFixedInt(const char* p, size_t bytes) {
  uint64_t v = 0;
  for (size_t i = 0; i < bytes; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

int64_t SignExtend(uint64_t v, size_t bytes) {
  if (bytes == 8) return static_cast<int64_t>(v);
  uint64_t sign_bit = 1ULL << (8 * bytes - 1);
  if (v & sign_bit) {
    v |= ~((sign_bit << 1) - 1);
  }
  return static_cast<int64_t>(v);
}

}  // namespace

Status SerializeRow(const Schema& schema, const Row& row, std::string* out) {
  if (row.size() != schema.NumColumns()) {
    return Status::Internal(
        str::Format("row has %zu values, schema has %zu columns", row.size(),
                    schema.NumColumns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = schema.column(i);
    const Value& v = row[i];
    if (v.is_null()) {
      out->push_back(1);
      continue;
    }
    out->push_back(0);
    switch (col.type) {
      case DataType::kBool:
        out->push_back(v.bool_value() ? 1 : 0);
        break;
      case DataType::kInt64:
        AppendFixedInt(out, static_cast<uint64_t>(v.int_value()),
                       col.length == 4 ? 4 : 8);
        break;
      case DataType::kDouble: {
        double d = v.double_value();
        uint64_t bits;
        std::memcpy(&bits, &d, 8);
        AppendFixedInt(out, bits, 8);
        break;
      }
      case DataType::kDecimal:
        AppendFixedInt(out, static_cast<uint64_t>(v.decimal_cents()), 8);
        break;
      case DataType::kDate:
        AppendFixedInt(out, static_cast<uint32_t>(v.date_value()), 4);
        break;
      case DataType::kString: {
        const std::string& s = v.string_value();
        if (col.length > 0) {
          out->append(str::PadTo(s, col.length));
        } else {
          if (s.size() > 0xffff) {
            return Status::OutOfRange("VARCHAR value exceeds 64 KiB");
          }
          AppendFixedInt(out, s.size(), 2);
          out->append(s);
        }
        break;
      }
    }
  }
  return Status::OK();
}

Status DeserializeRow(const Schema& schema, std::string_view data, Row* row) {
  row->resize(schema.NumColumns());
  return DecodeRowInto(schema, data, std::nullopt, 0, row);
}

Status DecodeRowInto(const Schema& schema, std::string_view data,
                     const std::optional<std::vector<size_t>>& cols,
                     size_t offset, Row* row) {
  size_t pos = 0;
  size_t next_col = 0;  // index into *cols of the next column to decode
  auto need = [&](size_t n) -> bool { return pos + n <= data.size(); };
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    const Column& col = schema.column(i);
    Value* out = nullptr;
    if (!cols.has_value()) {
      out = &(*row)[offset + i];
    } else if (next_col < cols->size() && (*cols)[next_col] == i) {
      out = &(*row)[offset + next_col++];
    }
    if (!need(1)) return Status::Internal("row truncated (null byte)");
    bool is_null = data[pos++] != 0;
    if (is_null) {
      if (out != nullptr) *out = Value::Null(col.type);
      continue;
    }
    switch (col.type) {
      case DataType::kBool:
        if (!need(1)) return Status::Internal("row truncated (bool)");
        if (out != nullptr) *out = Value::Bool(data[pos] != 0);
        pos += 1;
        break;
      case DataType::kInt64: {
        size_t w = col.length == 4 ? 4 : 8;
        if (!need(w)) return Status::Internal("row truncated (int)");
        if (out != nullptr) {
          *out = Value::Int(SignExtend(ReadFixedInt(data.data() + pos, w), w));
        }
        pos += w;
        break;
      }
      case DataType::kDouble: {
        if (!need(8)) return Status::Internal("row truncated (double)");
        if (out != nullptr) {
          uint64_t bits = ReadFixedInt(data.data() + pos, 8);
          double d;
          std::memcpy(&d, &bits, 8);
          *out = Value::Dbl(d);
        }
        pos += 8;
        break;
      }
      case DataType::kDecimal: {
        if (!need(8)) return Status::Internal("row truncated (decimal)");
        if (out != nullptr) {
          *out = Value::DecimalFromCents(
              static_cast<int64_t>(ReadFixedInt(data.data() + pos, 8)));
        }
        pos += 8;
        break;
      }
      case DataType::kDate: {
        if (!need(4)) return Status::Internal("row truncated (date)");
        if (out != nullptr) {
          *out = Value::Date(static_cast<int32_t>(
              SignExtend(ReadFixedInt(data.data() + pos, 4), 4)));
        }
        pos += 4;
        break;
      }
      case DataType::kString: {
        if (col.length > 0) {
          if (!need(col.length)) return Status::Internal("row truncated (char)");
          if (out != nullptr) {
            *out = Value::Str(str::RTrim(data.substr(pos, col.length)));
          }
          pos += col.length;
        } else {
          if (!need(2)) return Status::Internal("row truncated (varlen)");
          size_t len = ReadFixedInt(data.data() + pos, 2);
          pos += 2;
          if (!need(len)) return Status::Internal("row truncated (varchar)");
          if (out != nullptr) {
            *out = Value::Str(std::string(data.substr(pos, len)));
          }
          pos += len;
        }
        break;
      }
    }
  }
  if (pos != data.size()) {
    return Status::Internal("trailing bytes after row");
  }
  return Status::OK();
}

size_t SerializedRowSize(const Schema& schema, const Row& row) {
  size_t n = 0;
  for (size_t i = 0; i < row.size() && i < schema.NumColumns(); ++i) {
    n += 1;  // null byte
    if (!row[i].is_null()) n += schema.column(i).StoredSize(row[i]);
  }
  return n;
}

std::string RowToString(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += ", ";
    out += row[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace rdbms
}  // namespace r3
