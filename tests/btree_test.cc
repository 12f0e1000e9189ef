// B+-tree tests: point ops, splits across many keys, duplicates (including
// duplicates straddling leaf splits), range cursors, deletes, uniqueness,
// a randomized cross-check against std::multimap, and cursors that stay
// exact while deletes and splits change the tree under them.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "rdbms/index/btree.h"
#include "rdbms/index/key_codec.h"

namespace r3 {
namespace rdbms {
namespace {

#define ASSERT_OK(expr)                        \
  do {                                         \
    ::r3::Status _st = (expr);                 \
    ASSERT_TRUE(_st.ok()) << _st.ToString();   \
  } while (false)

class BTreeTest : public ::testing::Test {
 protected:
  BTreeTest() : pool_(&disk_, &clock_, 256 * kPageSize) {
    auto t = BTree::Create(&pool_);
    tree_ = std::make_unique<BTree>(std::move(t).value());
  }

  static std::string K(int64_t v) { return key_codec::Encode(Value::Int(v)); }
  static std::string KS(const std::string& s) {
    return key_codec::Encode(Value::Str(s));
  }

  std::vector<std::pair<std::string, uint64_t>> Drain(std::string_view lower) {
    std::vector<std::pair<std::string, uint64_t>> out;
    auto c = tree_->Seek(std::string(lower));
    EXPECT_TRUE(c.ok());
    std::string k;
    uint64_t p;
    while (c.value().Next(&k, &p).value()) out.emplace_back(k, p);
    return out;
  }

  Disk disk_;
  SimClock clock_;
  BufferPool pool_;
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTree) {
  EXPECT_EQ(tree_->CountEntries().value(), 0u);
  EXPECT_FALSE(tree_->Contains(K(1)).value());
  EXPECT_TRUE(Drain("").empty());
}

TEST_F(BTreeTest, PointInsertAndContains) {
  ASSERT_OK(tree_->Insert(K(5), 50));
  ASSERT_OK(tree_->Insert(K(3), 30));
  EXPECT_TRUE(tree_->Contains(K(5)).value());
  EXPECT_FALSE(tree_->Contains(K(4)).value());
}

TEST_F(BTreeTest, ManyInsertsCauseSplitsAndStaySorted) {
  // Shuffled inserts of 20k keys force several levels of splits.
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < 20000; ++i) keys.push_back(i);
  Rng rng(5);
  rng.Shuffle(&keys);
  for (int64_t k : keys) {
    ASSERT_OK(tree_->Insert(K(k), static_cast<uint64_t>(k)));
  }
  EXPECT_GT(tree_->height(), 1);
  auto all = Drain("");
  ASSERT_EQ(all.size(), 20000u);
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].second, i) << "position " << i;
    if (i > 0) {
      EXPECT_LT(all[i - 1].first, all[i].first);
    }
  }
}

TEST_F(BTreeTest, RangeSeek) {
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK(tree_->Insert(K(i * 2), static_cast<uint64_t>(i)));
  }
  auto from_51 = Drain(K(51));
  ASSERT_FALSE(from_51.empty());
  EXPECT_EQ(from_51[0].first, K(52));
  EXPECT_EQ(from_51.size(), 74u);  // 52..198 step 2
}

TEST_F(BTreeTest, DuplicateKeysAllRetained) {
  for (uint64_t p = 0; p < 500; ++p) {
    ASSERT_OK(tree_->Insert(K(7), p));
  }
  ASSERT_OK(tree_->Insert(K(6), 1));
  ASSERT_OK(tree_->Insert(K(8), 2));
  auto dup = Drain(K(7));
  // 500 sevens (payload-ordered) then the single eight.
  ASSERT_EQ(dup.size(), 501u);
  for (uint64_t p = 0; p < 500; ++p) {
    EXPECT_EQ(dup[p].first, K(7));
    EXPECT_EQ(dup[p].second, p);
  }
  EXPECT_EQ(dup[500].first, K(8));
}

TEST_F(BTreeTest, DuplicatesAcrossLeafSplitsAreFound) {
  // Long runs of duplicates forced over many leaves.
  for (int64_t k = 0; k < 20; ++k) {
    for (uint64_t p = 0; p < 300; ++p) {
      ASSERT_OK(tree_->Insert(K(k), k * 1000 + p));
    }
  }
  for (int64_t k = 0; k < 20; ++k) {
    EXPECT_TRUE(tree_->Contains(K(k)).value()) << k;
  }
  EXPECT_EQ(tree_->CountEntries().value(), 6000u);
  // A seek at key k must find all 300 of its entries before key k+1.
  auto at_5 = Drain(K(5));
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(at_5[static_cast<size_t>(i)].first, K(5));
  }
  EXPECT_EQ(at_5[300].first, K(6));
}

TEST_F(BTreeTest, DeleteExactEntry) {
  ASSERT_OK(tree_->Insert(K(1), 10));
  ASSERT_OK(tree_->Insert(K(1), 11));
  ASSERT_OK(tree_->Delete(K(1), 10));
  auto rest = Drain("");
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0].second, 11u);
  EXPECT_FALSE(tree_->Delete(K(1), 10).ok());  // already gone
  EXPECT_FALSE(tree_->Delete(K(2), 0).ok());   // never existed
}

TEST_F(BTreeTest, UniqueIndexRejectsDuplicates) {
  ASSERT_OK(tree_->Insert(K(1), 10, /*unique=*/true));
  Status st = tree_->Insert(K(1), 11, /*unique=*/true);
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(tree_->CountEntries().value(), 1u);
}

TEST_F(BTreeTest, VariableLengthStringKeys) {
  std::vector<std::string> words = {"a", "ab", "abc", "b", "ba", "z", "zz"};
  for (size_t i = 0; i < words.size(); ++i) {
    ASSERT_OK(tree_->Insert(KS(words[i]), i));
  }
  auto all = Drain("");
  ASSERT_EQ(all.size(), words.size());
  EXPECT_EQ(all[0].second, 0u);   // "a"
  EXPECT_EQ(all[1].second, 1u);   // "ab"
  EXPECT_EQ(all[2].second, 2u);   // "abc"
  EXPECT_EQ(all[3].second, 3u);   // "b"
}

TEST_F(BTreeTest, OversizeKeyRejected) {
  std::string huge(kPageSize, 'k');
  EXPECT_EQ(tree_->Insert(huge, 1).code(), StatusCode::kOutOfRange);
}

TEST_F(BTreeTest, RandomizedAgainstMultimap) {
  Rng rng(99);
  std::multimap<std::string, uint64_t> reference;
  for (int op = 0; op < 8000; ++op) {
    int64_t raw = rng.Uniform(0, 500);
    std::string key = K(raw);
    if (rng.Bernoulli(0.75) || reference.empty()) {
      uint64_t payload = static_cast<uint64_t>(op);
      ASSERT_OK(tree_->Insert(key, payload));
      reference.emplace(key, payload);
    } else {
      // Delete one existing entry for this key if any.
      auto it = reference.find(key);
      if (it != reference.end()) {
        ASSERT_OK(tree_->Delete(key, it->second));
        reference.erase(it);
      } else {
        EXPECT_FALSE(tree_->Delete(key, 1).ok());
      }
    }
  }
  auto all = Drain("");
  ASSERT_EQ(all.size(), reference.size());
  size_t i = 0;
  for (const auto& [k, p] : reference) {
    EXPECT_EQ(all[i].first, k);
    ++i;
  }
}

TEST_F(BTreeTest, CursorResumesAfterDeletesUnderIt) {
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_OK(tree_->Insert(K(i), static_cast<uint64_t>(i)));
  }
  ASSERT_EQ(tree_->height(), 1);  // one leaf: every delete shifts the cursor
  auto c = tree_->SeekFirst();
  ASSERT_TRUE(c.ok());
  std::string k;
  uint64_t p = 0;
  for (uint64_t want = 0; want < 3; ++want) {
    ASSERT_TRUE(c.value().Next(&k, &p).value());
    EXPECT_EQ(p, want);
  }
  // Delete a passed key and the key just returned: both sit before the
  // cursor's slot and shift the rest of the leaf left.
  ASSERT_OK(tree_->Delete(K(0), 0));
  ASSERT_OK(tree_->Delete(K(2), 2));
  std::vector<uint64_t> rest;
  while (c.value().Next(&k, &p).value()) rest.push_back(p);
  ASSERT_EQ(rest.size(), 97u);
  for (size_t i = 0; i < rest.size(); ++i) EXPECT_EQ(rest[i], i + 3);

  // A cursor that has not returned anything yet resumes at its Seek key.
  auto s = tree_->Seek(K(50));
  ASSERT_TRUE(s.ok());
  ASSERT_OK(tree_->Delete(K(10), 10));
  ASSERT_TRUE(s.value().Next(&k, &p).value());
  EXPECT_EQ(p, 50u);
}

TEST_F(BTreeTest, CursorResumesAfterSplitOfItsLeaf) {
  // 300 odd keys fit one leaf; the cursor stops after the first 200.
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_OK(tree_->Insert(K(2 * i + 1), static_cast<uint64_t>(2 * i + 1)));
  }
  ASSERT_EQ(tree_->height(), 1);
  auto c = tree_->SeekFirst();
  ASSERT_TRUE(c.ok());
  std::string k;
  uint64_t p = 0;
  for (int i = 0; i < 200; ++i) ASSERT_TRUE(c.value().Next(&k, &p).value());
  ASSERT_EQ(p, 399u);
  // 300 even keys, all but 100 of them before the cursor, split its leaf.
  for (int64_t i = 0; i < 300; ++i) {
    ASSERT_OK(tree_->Insert(K(2 * i), static_cast<uint64_t>(2 * i)));
  }
  ASSERT_GT(tree_->height(), 1);
  // Exactly the entries after key 399, each once, in order.
  std::vector<uint64_t> rest;
  while (c.value().Next(&k, &p).value()) rest.push_back(p);
  ASSERT_EQ(rest.size(), 200u);
  for (size_t i = 0; i < rest.size(); ++i) EXPECT_EQ(rest[i], i + 400);
}

TEST_F(BTreeTest, CountAndPages) {
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_OK(tree_->Insert(K(i), static_cast<uint64_t>(i)));
  }
  EXPECT_EQ(tree_->CountEntries().value(), 5000u);
  EXPECT_GT(tree_->NumPages().value(), 10u);
}

}  // namespace
}  // namespace rdbms
}  // namespace r3
