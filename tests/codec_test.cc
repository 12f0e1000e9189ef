// Property tests for the two wire formats:
//  * row serialization round-trips exactly for random rows (TEST_P sweep);
//  * the memcomparable key codec preserves value order bytewise.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "common/rng.h"
#include "common/str_util.h"
#include "rdbms/index/key_codec.h"
#include "rdbms/row.h"

namespace r3 {
namespace rdbms {
namespace {

Schema TestSchema() {
  return Schema({ColInt("I8"), ColInt("I4", 4), ColDouble("D"),
                 ColDecimal("DEC"), ColChar("C", 10), ColVarchar("V"),
                 ColDate("DT"), ColBool("B")});
}

Value RandomValueFor(Rng* rng, const Column& col, bool allow_null = true) {
  if (allow_null && rng->Bernoulli(0.15)) return Value::Null(col.type);
  switch (col.type) {
    case DataType::kInt64:
      if (col.length == 4) {
        return Value::Int(rng->Uniform(-2000000000LL, 2000000000LL));
      }
      return Value::Int(rng->Uniform(-1e15, 1e15));
    case DataType::kDouble:
      return Value::Dbl(static_cast<double>(rng->Uniform(-1e9, 1e9)) / 977.0);
    case DataType::kDecimal:
      return Value::DecimalFromCents(rng->Uniform(-1e9, 1e9));
    case DataType::kString: {
      std::string s = rng->AlphaString(0, col.length > 0 ? col.length : 40);
      return Value::Str(s);
    }
    case DataType::kDate:
      return Value::Date(static_cast<int32_t>(rng->Uniform(-30000, 30000)));
    case DataType::kBool:
      return Value::Bool(rng->Bernoulli(0.5));
  }
  return Value::Null();
}

// ---------------------------------------------------------------------------
// Row serialization
// ---------------------------------------------------------------------------

class RowRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(RowRoundTrip, RandomRowsSurviveExactly) {
  Rng rng(static_cast<uint64_t>(GetParam()) * 7919 + 1);
  Schema schema = TestSchema();
  for (int iter = 0; iter < 50; ++iter) {
    Row row;
    for (size_t c = 0; c < schema.NumColumns(); ++c) {
      row.push_back(RandomValueFor(&rng, schema.column(c)));
    }
    std::string bytes;
    ASSERT_TRUE(SerializeRow(schema, row, &bytes).ok());
    EXPECT_EQ(bytes.size(), SerializedRowSize(schema, row));
    Row back;
    ASSERT_TRUE(DeserializeRow(schema, bytes, &back).ok());
    ASSERT_EQ(back.size(), row.size());
    for (size_t c = 0; c < row.size(); ++c) {
      EXPECT_EQ(back[c].is_null(), row[c].is_null()) << "col " << c;
      if (!row[c].is_null()) {
        EXPECT_EQ(back[c].Compare(row[c]), 0)
            << "col " << c << ": " << row[c].ToString() << " vs "
            << back[c].ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RowRoundTrip, ::testing::Range(0, 8));

TEST(RowCodecTest, CharIsBlankPaddedAndTrimmed) {
  Schema s({ColChar("C", 8)});
  std::string bytes;
  ASSERT_TRUE(SerializeRow(s, Row{Value::Str("hi")}, &bytes).ok());
  EXPECT_EQ(bytes.size(), 1u + 8u);
  Row back;
  ASSERT_TRUE(DeserializeRow(s, bytes, &back).ok());
  EXPECT_EQ(back[0].string_value(), "hi");  // padding removed on read
}

TEST(RowCodecTest, WidthMismatchRejected) {
  Schema s({ColInt("A"), ColInt("B")});
  std::string bytes;
  EXPECT_FALSE(SerializeRow(s, Row{Value::Int(1)}, &bytes).ok());
}

TEST(RowCodecTest, TruncatedBytesRejected) {
  Schema s({ColInt("A"), ColVarchar("V")});
  std::string bytes;
  ASSERT_TRUE(
      SerializeRow(s, Row{Value::Int(1), Value::Str("hello")}, &bytes).ok());
  Row back;
  EXPECT_FALSE(DeserializeRow(s, bytes.substr(0, bytes.size() - 2), &back).ok());
  EXPECT_FALSE(DeserializeRow(s, bytes + "x", &back).ok());
}

TEST(RowCodecTest, ProjectedDecodeWritesOnlyItsColumns) {
  Schema s({ColInt("A"), ColChar("C", 8), ColVarchar("V"), ColInt("I", 4)});
  std::string bytes;
  ASSERT_TRUE(SerializeRow(s,
                           Row{Value::Int(7), Value::Str("hi"),
                               Value::Null(DataType::kString), Value::Int(-3)},
                           &bytes)
                  .ok());
  // Two foreign positions, then the table at offset 2. A projection packs
  // its columns densely: the k-th projected column lands at offset + k.
  Row wide(6, Value::Str("untouched"));
  ASSERT_TRUE(DecodeRowInto(s, bytes, std::vector<size_t>{1, 2}, 2, &wide)
                  .ok());
  EXPECT_EQ(RowToString(wide),
            "(untouched, untouched, hi, NULL, untouched, untouched)");
  EXPECT_EQ(wide[3].type(), DataType::kString);  // typed NULL, as decoded
  // No projection decodes every column.
  ASSERT_TRUE(DecodeRowInto(s, bytes, std::nullopt, 2, &wide).ok());
  EXPECT_EQ(RowToString(wide), "(untouched, untouched, 7, hi, NULL, -3)");
}

TEST(RowCodecTest, ProjectedDecodeStillRejectsMalformedRecords) {
  // The unneeded columns sit at the end: the projected decode must still
  // walk their bytes to find a truncation or trailing garbage there.
  Schema s({ColInt("A"), ColVarchar("V"), ColChar("C", 6), ColInt("I", 4)});
  std::string bytes;
  ASSERT_TRUE(SerializeRow(s,
                           Row{Value::Int(1), Value::Str("hello"),
                               Value::Str("abc"), Value::Int(9)},
                           &bytes)
                  .ok());
  const std::optional<std::vector<size_t>> first_only = std::vector<size_t>{0};
  Row wide(4);
  ASSERT_TRUE(DecodeRowInto(s, bytes, first_only, 0, &wide).ok());
  EXPECT_EQ(wide[0].int_value(), 1);
  EXPECT_TRUE(wide[1].is_null());
  for (size_t cut = 1; cut <= 6; ++cut) {
    EXPECT_FALSE(
        DecodeRowInto(s, bytes.substr(0, bytes.size() - cut), first_only, 0,
                      &wide)
            .ok())
        << "truncated by " << cut;
  }
  EXPECT_FALSE(DecodeRowInto(s, bytes + "x", first_only, 0, &wide).ok());
  EXPECT_FALSE(
      DecodeRowInto(s, bytes + "x", std::vector<size_t>{}, 0, &wide).ok());
}

// The key codec's bytes are an on-disk and in-memory contract (B-tree
// keys, join and group keys), so the word-at-a-time encoder must produce
// exactly the bytes of the byte-at-a-time encoder it replaced. These hex
// strings were produced by that encoder.
TEST(KeyCodecTest, EncodingBytesArePinned) {
  auto hex = [](const Value& v) {
    std::string key;
    key_codec::EncodeValue(v, &key);
    std::string out;
    for (unsigned char c : key) out += str::Format("%02x", c);
    return out;
  };
  EXPECT_EQ(hex(Value::Null()), "00");
  EXPECT_EQ(hex(Value::Null(DataType::kString)), "00");
  EXPECT_EQ(hex(Value::Int(0)), "018000000000000000");
  EXPECT_EQ(hex(Value::Int(-1)), "017fffffffffffffff");
  EXPECT_EQ(hex(Value::Int(-123456789012LL)), "017fffffe34166e5ec");
  EXPECT_EQ(hex(Value::Int(INT64_MIN)), "010000000000000000");
  EXPECT_EQ(hex(Value::Int(INT64_MAX)), "01ffffffffffffffff");
  EXPECT_EQ(hex(Value::DecimalFromCents(-12345)), "017fffffffffffcfc7");
  EXPECT_EQ(hex(Value::DecimalFromCents(99)), "018000000000000063");
  EXPECT_EQ(hex(Value::Date(-1)), "017fffffffffffffff");
  EXPECT_EQ(hex(Value::Date(9000)), "018000000000002328");
  EXPECT_EQ(hex(Value::Dbl(0.0)), "018000000000000000");
  EXPECT_EQ(hex(Value::Dbl(-0.0)), "017fffffffffffffff");
  EXPECT_EQ(hex(Value::Dbl(-2.5)), "013ffbffffffffffff");
  EXPECT_EQ(hex(Value::Dbl(3.25)), "01c00a000000000000");
  EXPECT_EQ(hex(Value::Dbl(-std::numeric_limits<double>::infinity())),
            "01000fffffffffffff");
  EXPECT_EQ(hex(Value::Bool(true)), "0101");
  EXPECT_EQ(hex(Value::Bool(false)), "0100");
  EXPECT_EQ(hex(Value::Str("")), "010000");
  EXPECT_EQ(hex(Value::Str("abc")), "016162630000");
  EXPECT_EQ(hex(Value::Str(std::string("a\0b", 3))), "016100ff620000");
  EXPECT_EQ(hex(Value::Str(std::string("\0\0", 2))), "0100ff00ff0000");
  EXPECT_EQ(hex(Value::Str(std::string("\0x\0", 3))), "0100ff7800ff0000");
  EXPECT_EQ(hex(Value::Str(std::string("\xff\0\x01", 3))), "01ff00ff010000");
  // Values append: a composite key is the concatenation.
  const Value nul_str = Value::Str(std::string("a\0b", 3));
  EXPECT_EQ(key_codec::Encode(std::vector<Value>{Value::Int(-1), nul_str}),
            key_codec::Encode(Value::Int(-1)) + key_codec::Encode(nul_str));
}

TEST(RowCodecTest, Int4WidthRoundTripsNegatives) {
  Schema s({ColInt("I", 4)});
  std::string bytes;
  ASSERT_TRUE(SerializeRow(s, Row{Value::Int(-123456)}, &bytes).ok());
  EXPECT_EQ(bytes.size(), 1u + 4u);
  Row back;
  ASSERT_TRUE(DeserializeRow(s, bytes, &back).ok());
  EXPECT_EQ(back[0].int_value(), -123456);
}

TEST(RowCodecTest, RowToStringRendering) {
  EXPECT_EQ(RowToString(Row{Value::Int(1), Value::Str("x"), Value::Null()}),
            "(1, x, NULL)");
}

// ---------------------------------------------------------------------------
// Key codec order preservation
// ---------------------------------------------------------------------------

class KeyOrderProperty : public ::testing::TestWithParam<DataType> {};

TEST_P(KeyOrderProperty, EncodingPreservesOrder) {
  DataType type = GetParam();
  Column col;
  col.type = type;
  col.length = type == DataType::kString ? 12 : 0;
  Rng rng(static_cast<uint64_t>(type) + 101);
  for (int iter = 0; iter < 300; ++iter) {
    Value a = RandomValueFor(&rng, col);
    Value b = RandomValueFor(&rng, col);
    std::string ka = key_codec::Encode(a);
    std::string kb = key_codec::Encode(b);
    int vc = a.Compare(b);
    int kc = ka.compare(kb);
    if (vc < 0) {
      EXPECT_LT(kc, 0) << a.ToString() << " vs " << b.ToString();
    } else if (vc > 0) {
      EXPECT_GT(kc, 0) << a.ToString() << " vs " << b.ToString();
    } else {
      EXPECT_EQ(kc, 0) << a.ToString() << " vs " << b.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Types, KeyOrderProperty,
                         ::testing::Values(DataType::kInt64, DataType::kDouble,
                                           DataType::kDecimal,
                                           DataType::kString, DataType::kDate,
                                           DataType::kBool),
                         [](const auto& info) {
                           return DataTypeName(info.param);
                         });

TEST(KeyCodecTest, CompositeOrdering) {
  auto key = [](int64_t a, const std::string& s) {
    return key_codec::Encode({Value::Int(a), Value::Str(s)});
  };
  EXPECT_LT(key(1, "zzz"), key(2, "aaa"));  // first column dominates
  EXPECT_LT(key(1, "a"), key(1, "b"));
  EXPECT_LT(key(1, "a"), key(1, "aa"));  // prefix sorts first
}

TEST(KeyCodecTest, NullSortsFirst) {
  EXPECT_LT(key_codec::Encode(Value::Null(DataType::kInt64)),
            key_codec::Encode(Value::Int(INT64_MIN)));
}

TEST(KeyCodecTest, EmbeddedNulByteEscaped) {
  std::string with_nul = std::string("a\0b", 3);
  std::string a = key_codec::Encode(Value::Str(with_nul));
  std::string b = key_codec::Encode(Value::Str("a"));
  std::string c = key_codec::Encode(Value::Str("ab"));
  EXPECT_GT(a, b);  // "a\0b" > "a"
  EXPECT_LT(a, c);  // "a\0b" < "ab"
}

TEST(KeyCodecTest, PrefixUpperBound) {
  EXPECT_EQ(key_codec::PrefixUpperBound("ab"), "ac");
  EXPECT_EQ(key_codec::PrefixUpperBound(std::string("a\xff", 2)), "b");
  EXPECT_EQ(key_codec::PrefixUpperBound(std::string("\xff\xff", 2)), "");
  // Everything starting with the prefix is strictly below the bound.
  std::string p = key_codec::Encode(Value::Int(42));
  std::string ub = key_codec::PrefixUpperBound(p);
  EXPECT_LT(p + "anything", ub);
  EXPECT_GE(ub, p);
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
