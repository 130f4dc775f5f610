#include "totem/seq_store.hpp"

#include <algorithm>
#include <utility>

namespace eternal::totem {

namespace {
constexpr std::uint64_t kSlotMask = SeqStore::kBlockFrames - 1;
}  // namespace

DataFrame* SeqStore::find(std::uint64_t seq) noexcept {
  return const_cast<DataFrame*>(std::as_const(*this).find(seq));
}

const DataFrame* SeqStore::find(std::uint64_t seq) const noexcept {
  if (seq < base_ || seq >= top_) return nullptr;
  const Block* block = block_at(block_of(seq));
  if (block == nullptr) return nullptr;
  const DataFrame& f = (*block)[seq & kSlotMask];
  return f.seq == seq ? &f : nullptr;
}

DataFrame& SeqStore::insert(DataFrame&& f) {
  const std::uint64_t seq = f.seq;
  const std::uint64_t base = count_ == 0 ? seq : std::min(base_, seq);
  const std::uint64_t top = count_ == 0 ? seq + 1 : std::max(top_, seq + 1);
  const std::uint64_t blocks_needed = block_of(top - 1) - block_of(base) + 1;
  if (blocks_needed > blocks_.size()) grow(blocks_needed);
  base_ = base;
  top_ = top;
  std::unique_ptr<Block>& block = block_slot(block_of(seq));
  if (block == nullptr) {
    if (spare_.empty()) {
      block = std::make_unique<Block>();
    } else {
      block = std::move(spare_.back());
      spare_.pop_back();
    }
  }
  DataFrame& held = (*block)[seq & kSlotMask];
  held = std::move(f);
  count_ += 1;
  return held;
}

void SeqStore::grow(std::uint64_t blocks_needed) {
  std::size_t size = std::max<std::size_t>(4, blocks_.size() * 2);
  while (size < blocks_needed) size *= 2;
  std::vector<std::unique_ptr<Block>> next(size);
  if (count_ != 0) {
    for (std::uint64_t b = block_of(base_); b <= block_of(top_ - 1); ++b) {
      next[b & (size - 1)] = std::move(block_slot(b));
    }
  }
  blocks_.swap(next);
}

std::uint64_t SeqStore::drop(std::uint64_t first, std::uint64_t end) noexcept {
  std::uint64_t dropped = 0;
  for (std::uint64_t s = first; s < end; ++s) {
    Block* block = block_slot(block_of(s)).get();
    if (block == nullptr) {
      s |= kSlotMask;  // skip to the block's last seq; ++s moves past it
      continue;
    }
    DataFrame& f = (*block)[s & kSlotMask];
    if (f.seq != s) continue;
    f = DataFrame{};
    dropped += 1;
  }
  return dropped;
}

void SeqStore::release(std::uint64_t first_block, std::uint64_t end_block) noexcept {
  for (std::uint64_t b = first_block; b < end_block; ++b) {
    if (std::unique_ptr<Block>& block = block_slot(b)) spare_.push_back(std::move(block));
  }
}

void SeqStore::erase_below(std::uint64_t seq) noexcept {
  if (count_ == 0 || seq <= base_) return;
  const std::uint64_t end = std::min(seq, top_);
  count_ -= drop(base_, end);
  if (count_ == 0) return clear();
  release(block_of(base_), block_of(end));  // blocks wholly below `end`
  base_ = end;
}

std::uint64_t SeqStore::erase_above(std::uint64_t seq) noexcept {
  if (count_ == 0 || seq + 1 >= top_) return 0;
  const std::uint64_t first = std::max(seq + 1, base_);
  const std::uint64_t dropped = drop(first, top_);
  count_ -= dropped;
  if (count_ == 0) {
    clear();
    return dropped;
  }
  // A frame below `first` is still held, so first - 1 >= base_.
  release(block_of(first - 1) + 1, block_of(top_ - 1) + 1);  // wholly above
  top_ = first;
  return dropped;
}

void SeqStore::clear() noexcept {
  if (top_ > base_) {
    drop(base_, top_);
    release(block_of(base_), block_of(top_ - 1) + 1);
  }
  count_ = 0;
  base_ = top_ = 0;
}

}  // namespace eternal::totem
