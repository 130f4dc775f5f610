// A small map from sequence numbers to values, for keys that arrive mostly in
// ascending order and leave mostly from the front.
//
// Per-invocation bookkeeping has that shape: a connection's group request ids
// are issued in order, and their replies are delivered roughly in order. A
// SeqMap keeps its entries sorted in one vector that keeps its capacity, so a
// connection in steady state inserts (an append) and retires (advancing past
// the front) without allocating. Entries erased from the front leave a
// consumed prefix that is dropped once it is at least half the vector; an
// entry erased elsewhere is removed in place.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

namespace eternal::util {

template <typename V>
class SeqMap {
 public:
  std::size_t size() const noexcept { return items_.size() - head_; }
  bool empty() const noexcept { return size() == 0; }

  /// The value stored under `key`, or nullptr.
  V* find(std::uint64_t key) {
    auto it = lower_bound(key);
    return it != items_.end() && it->first == key ? &it->second : nullptr;
  }

  /// Stores `value` under `key`, replacing any value already there.
  void insert_or_assign(std::uint64_t key, V value) {
    if (empty() || items_.back().first < key) {
      items_.emplace_back(key, std::move(value));
      return;
    }
    auto it = lower_bound(key);
    if (it != items_.end() && it->first == key) {
      it->second = std::move(value);
    } else {
      items_.emplace(it, key, std::move(value));
    }
  }

  /// Removes the entry under `key` and returns its value, if there is one.
  std::optional<V> take(std::uint64_t key) {
    auto it = lower_bound(key);
    if (it == items_.end() || it->first != key) return std::nullopt;
    std::optional<V> value(std::move(it->second));
    if (it == items_.begin() + static_cast<std::ptrdiff_t>(head_)) {
      pop_front();
    } else {
      items_.erase(it);
    }
    return value;
  }

  /// Removes the entries with the smallest keys until at most `cap` remain.
  void trim(std::size_t cap) {
    while (size() > cap) pop_front();
  }

  void clear() {
    items_.clear();
    head_ = 0;
  }

 private:
  using Item = std::pair<std::uint64_t, V>;

  typename std::vector<Item>::iterator lower_bound(std::uint64_t key) {
    return std::lower_bound(items_.begin() + static_cast<std::ptrdiff_t>(head_), items_.end(),
                            key, [](const Item& item, std::uint64_t k) { return item.first < k; });
  }

  void pop_front() {
    items_[head_++].second = V{};  // release what the value holds now
    if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), items_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  std::vector<Item> items_;  ///< sorted by key from head_
  std::size_t head_ = 0;     ///< entries before it have been removed
};

}  // namespace eternal::util
