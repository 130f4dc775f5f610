// A first-in, first-out queue that keeps its capacity.
//
// The hot path's queues — a replica's run queue, a Totem node's send queue,
// a POA object's overflow queue — hold zero to a few items almost all the
// time. A std::deque of large elements allocates a block every few pushes
// and frees it again when it drains; a Fifo keeps its items in one vector
// with a head index, so once it has grown to its working depth, pushing and
// popping allocate nothing. Popped items leave a consumed prefix that is
// dropped once it is at least half the vector (as util::SeqMap does), and
// the vector is emptied in place whenever the queue drains.
//
// Iterators cover the live items, front to back. Like a vector's, they and
// references to items are invalidated by push_back, pop_front and erase.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace eternal::util {

template <typename T>
class Fifo {
 public:
  using iterator = typename std::vector<T>::iterator;
  using const_iterator = typename std::vector<T>::const_iterator;

  Fifo() = default;
  Fifo(Fifo&& other) noexcept
      : items_(std::move(other.items_)), head_(std::exchange(other.head_, 0)) {
    other.items_.clear();
  }
  Fifo& operator=(Fifo&& other) noexcept {
    items_ = std::move(other.items_);
    head_ = std::exchange(other.head_, 0);
    other.items_.clear();
    return *this;
  }

  std::size_t size() const noexcept { return items_.size() - head_; }
  bool empty() const noexcept { return size() == 0; }

  T& front() { return items_[head_]; }
  T& operator[](std::size_t i) { return items_[head_ + i]; }

  iterator begin() noexcept { return items_.begin() + static_cast<std::ptrdiff_t>(head_); }
  iterator end() noexcept { return items_.end(); }
  const_iterator begin() const noexcept {
    return items_.begin() + static_cast<std::ptrdiff_t>(head_);
  }
  const_iterator end() const noexcept { return items_.end(); }

  void push_back(T item) { items_.push_back(std::move(item)); }

  void pop_front() {
    items_[head_++] = T{};  // release what the item holds now
    if (head_ == items_.size()) {
      clear();
    } else if (2 * head_ >= items_.size()) {
      items_.erase(items_.begin(), begin());
      head_ = 0;
    }
  }

  /// Removes the items in [first, last), which lie in [begin(), end()).
  void erase(iterator first, iterator last) {
    items_.erase(first, last);
    if (empty()) clear();
  }

  /// Empties the queue; the capacity stays.
  void clear() noexcept {
    items_.clear();
    head_ = 0;
  }

 private:
  std::vector<T> items_;  ///< live from head_
  std::size_t head_ = 0;  ///< items before it have been popped
};

}  // namespace eternal::util
