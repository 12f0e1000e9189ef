#include "rdbms/index/btree.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <vector>

#include "common/str_util.h"

namespace r3 {
namespace rdbms {

namespace {

// Node layout (within one kPageSize frame):
//   [0]     uint8  is_leaf
//   [1]     pad
//   [2..4)  uint16 nkeys
//   [4..8)  uint32 link: next-leaf page for leaves (kNoPage = none),
//                        leftmost child for internal nodes
//   [8..10) uint16 data_start (record area grows down from kPageSize)
//   [10..)  slot array: uint16 entry offset, in key order
// Entry at offset: uint16 key_len, key bytes, uint64 payload (LE).
//
// Leaf entries are (user key, payload) ordered by (key, payload).
// Internal separators are the *augmented* key `user_key || be64(payload)` of
// the first entry of the right sibling, so duplicates that straddle a split
// keep a total order; the entry payload is the child page. Navigation uses
// "first separator strictly greater than the search bytes" — a plain user
// key (a strict prefix of every augmented separator with the same user key)
// therefore descends to the leftmost leaf that can contain it.

constexpr size_t kHeaderSize = 10;
constexpr uint32_t kNoPage = 0xffffffffu;

void AppendBe64(uint64_t v, std::string* out) {
  for (int i = 7; i >= 0; --i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::string AugmentedKey(std::string_view key, uint64_t payload) {
  std::string out(key);
  AppendBe64(payload, &out);
  return out;
}

class Node {
 public:
  explicit Node(char* p) : p_(p) {}

  void Init(bool is_leaf) {
    p_[0] = is_leaf ? 1 : 0;
    p_[1] = 0;
    Put16(2, 0);
    Put32(4, kNoPage);
    Put16(8, static_cast<uint16_t>(kPageSize));
  }

  bool is_leaf() const { return p_[0] != 0; }
  uint16_t nkeys() const { return Get16(2); }
  uint32_t link() const { return Get32(4); }
  void set_link(uint32_t v) { Put32(4, v); }

  std::string_view Key(uint16_t i) const {
    uint16_t off = SlotOffset(i);
    uint16_t klen = Get16(off);
    return std::string_view(p_ + off + 2, klen);
  }

  uint64_t Payload(uint16_t i) const {
    uint16_t off = SlotOffset(i);
    uint16_t klen = Get16(off);
    uint64_t v = 0;
    std::memcpy(&v, p_ + off + 2 + klen, 8);
    return v;
  }

  size_t FreeSpace() const {
    size_t dir_end = kHeaderSize + nkeys() * 2;
    uint16_t start = Get16(8);
    return start > dir_end ? start - dir_end : 0;
  }

  static size_t EntrySize(size_t key_len) { return 2 + key_len + 8 + 2; }

  bool Fits(size_t key_len) const { return FreeSpace() >= EntrySize(key_len); }

  /// Leaf ordering: first index i with (Key(i), Payload(i)) >= (key, payload).
  uint16_t LowerBound(std::string_view key, uint64_t payload) const {
    uint16_t lo = 0, hi = nkeys();
    while (lo < hi) {
      uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
      int c = Key(mid).compare(key);
      if (c < 0 || (c == 0 && Payload(mid) < payload)) {
        lo = static_cast<uint16_t>(mid + 1);
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// First index i with Key(i) >= key (bytewise; payload ignored).
  uint16_t LowerBoundKey(std::string_view key) const {
    uint16_t lo = 0, hi = nkeys();
    while (lo < hi) {
      uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
      if (Key(mid).compare(key) < 0) {
        lo = static_cast<uint16_t>(mid + 1);
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// First index i with Key(i) > search (bytewise).
  uint16_t UpperBoundKey(std::string_view search) const {
    uint16_t lo = 0, hi = nkeys();
    while (lo < hi) {
      uint16_t mid = static_cast<uint16_t>((lo + hi) / 2);
      if (Key(mid).compare(search) <= 0) {
        lo = static_cast<uint16_t>(mid + 1);
      } else {
        hi = mid;
      }
    }
    return lo;
  }

  /// Child to descend into for `search` bytes (internal nodes).
  uint32_t ChildFor(std::string_view search) const {
    uint16_t ub = UpperBoundKey(search);
    if (ub == 0) return link();
    return static_cast<uint32_t>(Payload(static_cast<uint16_t>(ub - 1)));
  }

  /// Inserts at position `pos`; caller must have checked Fits().
  void InsertEntryAt(uint16_t pos, std::string_view key, uint64_t payload) {
    uint16_t data_start = Get16(8);
    size_t rec = 2 + key.size() + 8;
    uint16_t off = static_cast<uint16_t>(data_start - rec);
    Put16(off, static_cast<uint16_t>(key.size()));
    std::memcpy(p_ + off + 2, key.data(), key.size());
    std::memcpy(p_ + off + 2 + key.size(), &payload, 8);
    Put16(8, off);
    uint16_t n = nkeys();
    for (uint16_t i = n; i > pos; --i) {
      Put16(kHeaderSize + i * 2, Get16(kHeaderSize + (i - 1) * 2));
    }
    Put16(kHeaderSize + pos * 2, off);
    Put16(2, static_cast<uint16_t>(n + 1));
  }

  void RemoveAt(uint16_t i) {
    uint16_t n = nkeys();
    for (uint16_t j = i; j + 1 < n; ++j) {
      Put16(kHeaderSize + j * 2, Get16(kHeaderSize + (j + 1) * 2));
    }
    Put16(2, static_cast<uint16_t>(n - 1));
  }

  void Export(std::vector<std::pair<std::string, uint64_t>>* out) const {
    out->clear();
    out->reserve(nkeys());
    for (uint16_t i = 0; i < nkeys(); ++i) {
      out->emplace_back(std::string(Key(i)), Payload(i));
    }
  }

  /// Rebuilds the node with the given already-sorted entries.
  void Rebuild(bool leaf, uint32_t link,
               const std::vector<std::pair<std::string, uint64_t>>& entries) {
    Init(leaf);
    set_link(link);
    for (const auto& [k, v] : entries) {
      InsertEntryAt(nkeys(), k, v);
    }
  }

 private:
  uint16_t Get16(size_t off) const {
    uint16_t v;
    std::memcpy(&v, p_ + off, 2);
    return v;
  }
  void Put16(size_t off, uint16_t v) { std::memcpy(p_ + off, &v, 2); }
  uint32_t Get32(size_t off) const {
    uint32_t v;
    std::memcpy(&v, p_ + off, 4);
    return v;
  }
  void Put32(size_t off, uint32_t v) { std::memcpy(p_ + off, &v, 4); }
  uint16_t SlotOffset(uint16_t i) const { return Get16(kHeaderSize + i * 2); }

  char* p_;
};

// Sort helper for leaf entries: (key, payload).
bool EntryLess(const std::pair<std::string, uint64_t>& a,
               const std::pair<std::string, uint64_t>& b) {
  int c = a.first.compare(b.first);
  if (c != 0) return c < 0;
  return a.second < b.second;
}

// True while slot `pos` of a leaf is still where a cursor resumes: right
// after the entry (key, payload) it returned last or, before its first
// Next (`returned` false), at the first entry >= its Seek key.
bool ResumesAt(const Node& node, uint32_t pos, std::string_view key,
               uint64_t payload, bool returned) {
  const uint32_t n = node.nkeys();
  if (pos > n) return false;
  if (returned) {
    if (pos == 0) return false;
    const uint16_t prev = static_cast<uint16_t>(pos - 1);
    return node.Payload(prev) == payload && node.Key(prev) == key;
  }
  return (pos == 0 || node.Key(static_cast<uint16_t>(pos - 1)) < key) &&
         (pos == n || node.Key(static_cast<uint16_t>(pos)) >= key);
}

// The slot of a leaf at which such a cursor resumes after the tree changed.
uint16_t ResumeSlot(const Node& node, std::string_view key, uint64_t payload,
                    bool returned) {
  if (!returned) return node.LowerBoundKey(key);
  uint16_t pos = node.LowerBound(key, payload);
  if (pos < node.nkeys() && node.Payload(pos) == payload &&
      node.Key(pos) == key) {
    ++pos;
  }
  return pos;
}

}  // namespace

Result<BTree> BTree::Create(BufferPool* pool) {
  uint32_t file_id = pool->disk()->CreateFile();
  uint32_t root_no = 0;
  R3_ASSIGN_OR_RETURN(PageHandle h, pool->NewPage(file_id, &root_no));
  Node root(h.data());
  root.Init(/*is_leaf=*/true);
  h.MarkDirty();
  return BTree(pool, file_id, root_no);
}

Result<uint32_t> BTree::FindLeaf(std::string_view search) {
  uint32_t page_no = root_;
  while (true) {
    R3_ASSIGN_OR_RETURN(PageHandle h, pool_->FetchPage(PageId{file_id_, page_no}));
    Node node(h.data());
    if (node.is_leaf()) return page_no;
    page_no = node.ChildFor(search);
  }
}

Status BTree::InsertRec(uint32_t page_no, std::string_view key,
                        uint64_t payload, bool unique,
                        std::optional<PromotedEntry>* promoted) {
  promoted->reset();
  R3_ASSIGN_OR_RETURN(PageHandle h, pool_->FetchPage(PageId{file_id_, page_no}));
  Node node(h.data());

  if (node.is_leaf()) {
    if (unique) {
      uint16_t pos = node.LowerBoundKey(key);
      if (pos < node.nkeys() && node.Key(pos) == key) {
        return Status::AlreadyExists("duplicate key in unique index");
      }
    }
    if (node.Fits(key.size())) {
      node.InsertEntryAt(node.LowerBound(key, payload), key, payload);
      h.MarkDirty();
      return Status::OK();
    }
    // Split leaf.
    std::vector<std::pair<std::string, uint64_t>> entries;
    node.Export(&entries);
    entries.emplace_back(std::string(key), payload);
    std::sort(entries.begin(), entries.end(), EntryLess);
    size_t mid = entries.size() / 2;
    std::vector<std::pair<std::string, uint64_t>> left(entries.begin(),
                                                       entries.begin() + mid);
    std::vector<std::pair<std::string, uint64_t>> right(entries.begin() + mid,
                                                        entries.end());
    uint32_t right_no = 0;
    R3_ASSIGN_OR_RETURN(PageHandle rh, pool_->NewPage(file_id_, &right_no));
    Node rnode(rh.data());
    rnode.Rebuild(/*leaf=*/true, node.link(), right);
    rh.MarkDirty();
    node.Rebuild(/*leaf=*/true, right_no, left);
    h.MarkDirty();
    *promoted = PromotedEntry{
        AugmentedKey(right.front().first, right.front().second), right_no};
    return Status::OK();
  }

  // Internal node: descend using the augmented search key.
  std::string search = AugmentedKey(key, payload);
  uint32_t child = node.ChildFor(search);
  std::optional<PromotedEntry> child_promoted;
  h.Release();  // keep pin depth shallow while recursing
  R3_RETURN_IF_ERROR(InsertRec(child, key, payload, unique, &child_promoted));
  if (!child_promoted) return Status::OK();

  R3_ASSIGN_OR_RETURN(PageHandle h2, pool_->FetchPage(PageId{file_id_, page_no}));
  Node node2(h2.data());
  const std::string& sep = child_promoted->key;
  uint64_t child_payload = child_promoted->right_page;
  if (node2.Fits(sep.size())) {
    node2.InsertEntryAt(node2.LowerBoundKey(sep), sep, child_payload);
    h2.MarkDirty();
    return Status::OK();
  }
  // Split internal node: median separator moves up.
  std::vector<std::pair<std::string, uint64_t>> entries;
  node2.Export(&entries);
  entries.emplace_back(sep, child_payload);
  std::sort(entries.begin(), entries.end(), EntryLess);
  size_t mid = entries.size() / 2;
  std::string up_key = entries[mid].first;
  uint32_t right_leftmost = static_cast<uint32_t>(entries[mid].second);
  std::vector<std::pair<std::string, uint64_t>> left(entries.begin(),
                                                     entries.begin() + mid);
  std::vector<std::pair<std::string, uint64_t>> right(entries.begin() + mid + 1,
                                                      entries.end());
  uint32_t right_no = 0;
  R3_ASSIGN_OR_RETURN(PageHandle rh, pool_->NewPage(file_id_, &right_no));
  Node rnode(rh.data());
  rnode.Rebuild(/*leaf=*/false, right_leftmost, right);
  rh.MarkDirty();
  node2.Rebuild(/*leaf=*/false, node2.link(), left);
  h2.MarkDirty();
  *promoted = PromotedEntry{std::move(up_key), right_no};
  return Status::OK();
}

Status BTree::Insert(std::string_view key, uint64_t payload, bool unique) {
  // A node must be able to hold at least 3 entries for splits to terminate
  // (+8 for the payload suffix separators carry).
  if ((2 + key.size() + 8 + 8 + 2) * 3 + kHeaderSize > kPageSize) {
    return Status::OutOfRange("index key too large for a node page");
  }
  std::optional<PromotedEntry> promoted;
  R3_RETURN_IF_ERROR(InsertRec(root_, key, payload, unique, &promoted));
  if (promoted) {
    uint32_t new_root_no = 0;
    R3_ASSIGN_OR_RETURN(PageHandle h, pool_->NewPage(file_id_, &new_root_no));
    Node root(h.data());
    root.Init(/*is_leaf=*/false);
    root.set_link(root_);
    root.InsertEntryAt(0, promoted->key, promoted->right_page);
    h.MarkDirty();
    root_ = new_root_no;
    ++height_;
  }
  return Status::OK();
}

Status BTree::Delete(std::string_view key, uint64_t payload) {
  std::string search = AugmentedKey(key, payload);
  R3_ASSIGN_OR_RETURN(uint32_t page_no, FindLeaf(search));
  while (page_no != kNoPage) {
    R3_ASSIGN_OR_RETURN(PageHandle h, pool_->FetchPage(PageId{file_id_, page_no}));
    Node node(h.data());
    uint16_t pos = node.LowerBound(key, payload);
    if (pos < node.nkeys()) {
      if (node.Key(pos) == key && node.Payload(pos) == payload) {
        node.RemoveAt(pos);
        h.MarkDirty();
        return Status::OK();
      }
      break;  // first entry >= target is not the target: absent
    }
    page_no = node.link();
  }
  return Status::NotFound("index entry not found");
}

Result<bool> BTree::Contains(std::string_view key) {
  R3_ASSIGN_OR_RETURN(Cursor c, Seek(key));
  std::string k;
  uint64_t payload;
  R3_ASSIGN_OR_RETURN(bool ok, c.Next(&k, &payload));
  return ok && k == key;
}

Result<BTree::Cursor> BTree::Seek(std::string_view lower) {
  R3_ASSIGN_OR_RETURN(uint32_t leaf_no, FindLeaf(lower));
  Cursor c;
  c.tree_ = this;
  R3_ASSIGN_OR_RETURN(PageHandle h, pool_->FetchPage(PageId{file_id_, leaf_no}));
  Node node(h.data());
  uint16_t pos = node.LowerBoundKey(lower);
  c.page_no_ = leaf_no;
  c.pos_ = pos;
  c.done_ = false;
  c.bound_key_.assign(lower.data(), lower.size());
  // Cursor::Next handles pos == nkeys by hopping leaves.
  return c;
}

Result<bool> BTree::Cursor::Next(std::string* key, uint64_t* payload) {
  if (done_) return false;
  // Only the leaf the cursor rests on can have shifted under it since the
  // last call. Once that check fails, every leaf from there on is entered by
  // binary search for the bound, not at slot 0: a split may have moved the
  // bound itself to a leaf further right.
  bool first_leaf = true;
  bool reposition = false;
  while (true) {
    R3_ASSIGN_OR_RETURN(
        PageHandle h, tree_->pool_->FetchPage(PageId{tree_->file_id_, page_no_}));
    Node node(h.data());
    if (first_leaf) {
      reposition =
          !ResumesAt(node, pos_, bound_key_, bound_payload_, returned_);
      first_leaf = false;
    }
    if (reposition) {
      pos_ = ResumeSlot(node, bound_key_, bound_payload_, returned_);
    }
    if (pos_ < node.nkeys()) {
      const uint16_t slot = static_cast<uint16_t>(pos_);
      std::string_view k = node.Key(slot);
      key->assign(k.data(), k.size());
      *payload = node.Payload(slot);
      bound_key_.assign(k.data(), k.size());
      bound_payload_ = *payload;
      returned_ = true;
      ++pos_;
      return true;
    }
    uint32_t next = node.link();
    if (next == kNoPage) {
      done_ = true;
      return false;
    }
    page_no_ = next;
    pos_ = 0;
  }
}

Result<uint64_t> BTree::CountEntries() {
  R3_ASSIGN_OR_RETURN(Cursor c, SeekFirst());
  uint64_t n = 0;
  std::string k;
  uint64_t p;
  while (true) {
    R3_ASSIGN_OR_RETURN(bool ok, c.Next(&k, &p));
    if (!ok) break;
    ++n;
  }
  return n;
}

Result<uint32_t> BTree::NumPages() const {
  return pool_->disk()->FilePages(file_id_);
}

}  // namespace rdbms
}  // namespace r3
