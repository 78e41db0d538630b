// A flat open-addressing hash map from unsigned integer keys: linear
// probing over one slot array, Fibonacci hashing, at most half full, so a
// lookup costs about one probe and there is no node per entry. It backs the
// per-user id vocabularies of the bag and graph models (bag::IdVocabulary)
// and the ranker's per-user score cache (rec::BatchRanker).
//
// The key type's maximum value marks an empty slot (text::kInvalidTerm for
// grams, corpus::kInvalidTweet for tweets): Find() reports it absent and
// Insert() refuses it. There is no erase and no iteration. A pointer that
// Find() or Insert() returns is valid until the next Insert().
#ifndef MICROREC_UTIL_FLAT_MAP_H_
#define MICROREC_UTIL_FLAT_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

namespace microrec {

template <typename Key, typename Value>
class FlatMap {
  static_assert(std::is_unsigned_v<Key>, "FlatMap keys are unsigned ints");

 public:
  /// The key that marks an empty slot; it is never stored.
  static constexpr Key kEmpty = std::numeric_limits<Key>::max();

  /// The value stored under `key`, or nullptr.
  const Value* Find(Key key) const {
    if (slots_.empty()) return nullptr;
    const Slot& slot = slots_[SlotOf(key)];
    return slot.key == kEmpty ? nullptr : &slot.value;
  }

  /// Stores `value` under `key` unless the key is already present. Returns
  /// the stored value and whether this call inserted it; for kEmpty,
  /// {nullptr, false}.
  std::pair<const Value*, bool> Insert(Key key, Value value) {
    if (key == kEmpty) return {nullptr, false};
    if (2 * (size_ + 1) > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    Slot& slot = slots_[SlotOf(key)];
    if (slot.key != kEmpty) return {&slot.value, false};
    slot = {key, std::move(value)};
    ++size_;
    return {&slot.value, true};
  }

  size_t size() const { return size_; }

 private:
  struct Slot {
    Key key = kEmpty;
    Value value{};
  };

  // The slot holding `key`, or the empty slot where it would go. The table
  // is at most half full, so the probe always ends; kEmpty itself stops at
  // the first empty slot.
  size_t SlotOf(Key key) const {
    const size_t mask = slots_.size() - 1;
    // Fibonacci hashing spreads dense ids over the table's high bits.
    size_t i = static_cast<size_t>(
                   (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ULL) >> 32) &
               mask;
    while (slots_[i].key != key && slots_[i].key != kEmpty) {
      i = (i + 1) & mask;
    }
    return i;
  }

  void Rehash(size_t capacity) {  // capacity: a power of two
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(capacity));
    for (Slot& slot : old) {
      if (slot.key != kEmpty) slots_[SlotOf(slot.key)] = std::move(slot);
    }
  }

  std::vector<Slot> slots_;  // capacity: zero or a power of two
  size_t size_ = 0;
};

}  // namespace microrec

#endif  // MICROREC_UTIL_FLAT_MAP_H_
