// Sequence-indexed frame store of one Totem endpoint.
//
// Holds every Data frame the endpoint received or originated and has not
// yet garbage-collected: undelivered frames waiting for the gap below them
// to close, and delivered ones kept for retransmission to lagging members.
// Sequence numbers are dense, so the store is a ring buffer indexed by
// sequence number instead of a tree: find, insert and the in-order walk of
// delivery are O(1) per frame and allocate nothing once the store has grown
// to its working span.
//
// The ring is two-level: a power-of-two ring of pointers to fixed blocks of
// kBlockFrames consecutive sequence numbers. Only blocks that hold a frame
// are allocated, and a block the span moves past is kept for reuse instead of
// freed. So memory follows the frames actually held (in a running ring, the
// TotemConfig::gc_margin delivered frames behind aru plus the undelivered
// gap), not the next power of two above that span, and a frame far ahead of
// the rest costs one block.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "totem/frames.hpp"

namespace eternal::totem {

class SeqStore {
 public:
  static constexpr unsigned kBlockBits = 6;
  static constexpr std::uint64_t kBlockFrames = std::uint64_t{1} << kBlockBits;

  /// The held frame at `seq`, or nullptr.
  DataFrame* find(std::uint64_t seq) noexcept;
  const DataFrame* find(std::uint64_t seq) const noexcept;
  bool contains(std::uint64_t seq) const noexcept { return find(seq) != nullptr; }

  /// Takes `f` (f.seq != 0, not yet held), growing the block ring if
  /// `f.seq` lies outside the current span. The returned reference is
  /// stable until the frame is erased.
  DataFrame& insert(DataFrame&& f);

  /// Drops every frame with a sequence number below `seq` (garbage
  /// collection behind the ring's all-received-up-to mark).
  void erase_below(std::uint64_t seq) noexcept;

  /// Drops every frame above `seq`; returns how many were dropped.
  std::uint64_t erase_above(std::uint64_t seq) noexcept;

  void clear() noexcept;

  /// Calls `fn(const DataFrame&)` on each held frame with first <= seq <=
  /// last, in sequence order, while `fn` returns true.
  template <typename Fn>
  void for_each_in(std::uint64_t first, std::uint64_t last, Fn&& fn) const {
    const std::uint64_t end = last < top_ ? last + 1 : top_;
    for (std::uint64_t s = first > base_ ? first : base_; s < end; ++s) {
      if (const DataFrame* f = find(s); f != nullptr && !fn(*f)) return;
    }
  }

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }
  /// Consecutive sequence numbers the block ring spans before it must grow.
  std::size_t capacity() const noexcept { return blocks_.size() * kBlockFrames; }

 private:
  /// Slot i holds the frame with seq ≡ i (mod kBlockFrames); an empty slot
  /// has seq == 0 (sequence numbers start at 1).
  using Block = std::array<DataFrame, kBlockFrames>;

  static std::uint64_t block_of(std::uint64_t seq) noexcept { return seq >> kBlockBits; }
  std::unique_ptr<Block>& block_slot(std::uint64_t block) noexcept {
    return blocks_[block & (blocks_.size() - 1)];
  }
  const Block* block_at(std::uint64_t block) const noexcept {
    return blocks_[block & (blocks_.size() - 1)].get();
  }
  void grow(std::uint64_t blocks_needed);
  /// Clears the frames in [first, end) and returns how many were held.
  std::uint64_t drop(std::uint64_t first, std::uint64_t end) noexcept;
  /// Moves the allocated blocks among [first, end) to spare_.
  void release(std::uint64_t first_block, std::uint64_t end_block) noexcept;

  std::vector<std::unique_ptr<Block>> blocks_;  ///< power-of-two ring by block number
  std::vector<std::unique_ptr<Block>> spare_;   ///< emptied blocks, reused first
  std::uint64_t base_ = 0;  ///< lowest seq the span covers (<= every held seq)
  std::uint64_t top_ = 0;   ///< one past the highest held seq
  std::size_t count_ = 0;
};

}  // namespace eternal::totem
