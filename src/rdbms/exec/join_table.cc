#include "rdbms/exec/join_table.h"

#include <functional>
#include <iterator>

#include "rdbms/exec/executor.h"

namespace r3 {
namespace rdbms {

namespace {

constexpr size_t kMinSlots = 16;

/// Smallest power of two holding `keys` at a load of at most 3/4.
size_t SlotsFor(size_t keys) {
  size_t n = kMinSlots;
  while (n / 4 * 3 < keys) n *= 2;
  return n;
}

}  // namespace

uint64_t JoinTable::Hash(std::string_view key) {
  return std::hash<std::string_view>{}(key);
}

void JoinTable::Reset(size_t width, uint64_t est_rows) {
  width_ = width;
  arena_.clear();
  next_.clear();
  key_bytes_.clear();
  keys_.clear();
  slots_.assign(SlotsFor(CappedReserve(est_rows)), Slot());
}

size_t JoinTable::Locate(std::string_view key, uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint32_t tag = static_cast<uint32_t>(hash >> 32);
  for (size_t i = static_cast<size_t>(hash) & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.key == kEnd) return i;
    if (s.tag == tag && KeyBytes(keys_[s.key]) == key) return i;
  }
}

void JoinTable::Grow() {
  std::vector<Slot> old;
  old.swap(slots_);
  slots_.assign(old.size() * 2, Slot());
  for (const Slot& s : old) {
    if (s.key == kEnd) continue;
    const std::string_view key = KeyBytes(keys_[s.key]);
    slots_[Locate(key, Hash(key))] = s;
  }
}

void JoinTable::Insert(std::string_view key, Value* packed) {
  const uint32_t row = static_cast<uint32_t>(next_.size());
  arena_.insert(arena_.end(), std::make_move_iterator(packed),
                std::make_move_iterator(packed + width_));
  next_.push_back(kEnd);
  const uint64_t hash = Hash(key);
  size_t slot = Locate(key, hash);
  if (slots_[slot].key != kEnd) {
    Key& k = keys_[slots_[slot].key];
    next_[k.tail] = row;
    k.tail = row;
    return;
  }
  if (keys_.size() + 1 > slots_.size() / 4 * 3) {
    Grow();
    slot = Locate(key, hash);
  }
  Key k;
  k.offset = key_bytes_.size();
  k.length = static_cast<uint32_t>(key.size());
  k.head = k.tail = row;
  key_bytes_.append(key);
  slots_[slot] = Slot{static_cast<uint32_t>(hash >> 32),
                      static_cast<uint32_t>(keys_.size())};
  keys_.push_back(k);
}

uint32_t JoinTable::Find(std::string_view key) const {
  if (slots_.empty()) return kEnd;  // released
  const Slot& s = slots_[Locate(key, Hash(key))];
  return s.key == kEnd ? kEnd : keys_[s.key].head;
}

void JoinTable::Release() {
  std::vector<Value>().swap(arena_);
  std::vector<uint32_t>().swap(next_);
  std::string().swap(key_bytes_);
  std::vector<Key>().swap(keys_);
  std::vector<Slot>().swap(slots_);
}

}  // namespace rdbms
}  // namespace r3
