#include "rdbms/index/key_codec.h"

#include <cstring>

namespace r3 {
namespace rdbms {
namespace key_codec {

namespace {

/// Appends the present tag and `v` big-endian: one 9-byte append.
void AppendTaggedBigEndian(uint64_t v, std::string* out) {
  char buf[9];
  buf[0] = '\x01';
  for (int i = 0; i < 8; ++i) {
    buf[1 + i] = static_cast<char>((v >> (56 - 8 * i)) & 0xff);
  }
  out->append(buf, sizeof(buf));
}

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back('\x00');
    return;
  }
  constexpr uint64_t kSign = 0x8000000000000000ULL;
  switch (v.type()) {
    case DataType::kBool:
      out->append(v.bool_value() ? "\x01\x01" : "\x01\x00", 2);
      break;
    // Integers: flip the sign bit so negatives sort first.
    case DataType::kInt64:
      AppendTaggedBigEndian(static_cast<uint64_t>(v.int_value()) ^ kSign, out);
      break;
    case DataType::kDecimal:
      AppendTaggedBigEndian(static_cast<uint64_t>(v.decimal_cents()) ^ kSign,
                            out);
      break;
    case DataType::kDate:
      AppendTaggedBigEndian(
          static_cast<uint64_t>(static_cast<int64_t>(v.date_value())) ^ kSign,
          out);
      break;
    case DataType::kDouble: {
      double d = v.double_value();
      uint64_t bits;
      std::memcpy(&bits, &d, 8);
      // Negative: invert all so more-negative sorts first; positive: set
      // the sign bit.
      AppendTaggedBigEndian((bits & kSign) ? ~bits : bits ^ kSign, out);
      break;
    }
    case DataType::kString: {
      // Copy the runs between NULs whole; each NUL becomes 0x00 0xFF.
      const std::string& str = v.string_value();
      out->push_back('\x01');
      const char* p = str.data();
      const char* end = p + str.size();
      while (const void* nul = std::memchr(p, 0, static_cast<size_t>(end - p))) {
        const char* at = static_cast<const char*>(nul);
        out->append(p, static_cast<size_t>(at - p));
        out->append("\x00\xff", 2);
        p = at + 1;
      }
      out->append(p, static_cast<size_t>(end - p));
      out->append("\x00\x00", 2);
      break;
    }
  }
}

std::string Encode(const std::vector<Value>& values) {
  std::string out;
  for (const Value& v : values) EncodeValue(v, &out);
  return out;
}

std::string Encode(const Value& v) {
  std::string out;
  EncodeValue(v, &out);
  return out;
}

std::string PrefixUpperBound(const std::string& prefix) {
  std::string out = prefix;
  while (!out.empty()) {
    unsigned char last = static_cast<unsigned char>(out.back());
    if (last != 0xff) {
      out.back() = static_cast<char>(last + 1);
      return out;
    }
    out.pop_back();
  }
  return out;  // empty: no finite upper bound
}

}  // namespace key_codec
}  // namespace rdbms
}  // namespace r3
