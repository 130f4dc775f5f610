// Shared immutable byte buffers.
//
// A Totem frame is encoded once by its sender and then read by the Ethernet
// segment, by every ring member's frame store, by delivery and by whatever
// the Mechanisms and the ORB keep of it. `SharedBytes` is that one buffer:
// reference-counted, immutable once built, with the count stored in the same
// allocation as the bytes, so building a buffer costs one allocation and
// taking, copying or dropping a reference costs none. `SharedSlice` is a
// reference plus the part of the buffer a holder cares about (a frame's
// payload, one message of a batch, an envelope's IIOP bytes).
//
// The simulator is single-threaded, so the count is a plain integer.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <new>
#include <utility>

#include "util/bytes.hpp"

namespace eternal::util {

class SharedBytes {
 public:
  SharedBytes() noexcept = default;
  SharedBytes(const SharedBytes& other) noexcept : block_(other.block_) { retain(); }
  SharedBytes(SharedBytes&& other) noexcept : block_(std::exchange(other.block_, nullptr)) {}
  SharedBytes& operator=(const SharedBytes& other) noexcept {
    SharedBytes(other).swap(*this);
    return *this;
  }
  SharedBytes& operator=(SharedBytes&& other) noexcept {
    SharedBytes(std::move(other)).swap(*this);
    return *this;
  }
  ~SharedBytes() { release(); }

  /// A buffer of `size` bytes written once by `fill(std::uint8_t* out)`;
  /// immutable afterwards. One allocation (none for size 0).
  template <typename Fill>
  static SharedBytes build(std::size_t size, Fill&& fill) {
    SharedBytes out;
    if (size == 0) return out;
    void* raw = ::operator new(sizeof(Block) + size);
    out.block_ = ::new (raw) Block{1, size};
    fill(out.bytes());
    return out;
  }

  /// A buffer holding a copy of `data`.
  static SharedBytes copy_of(BytesView data);

  const std::uint8_t* data() const noexcept {
    return block_ == nullptr ? nullptr : const_cast<SharedBytes*>(this)->bytes();
  }
  std::size_t size() const noexcept { return block_ == nullptr ? 0 : block_->size; }
  bool empty() const noexcept { return size() == 0; }
  BytesView view() const noexcept { return BytesView(data(), size()); }
  operator BytesView() const noexcept { return view(); }

  /// References held to this buffer (0 for the empty buffer).
  std::size_t use_count() const noexcept { return block_ == nullptr ? 0 : block_->refs; }

  void swap(SharedBytes& other) noexcept { std::swap(block_, other.block_); }

 private:
  struct Block {
    std::size_t refs;
    std::size_t size;
  };  // the bytes follow the block in the same allocation

  std::uint8_t* bytes() noexcept { return reinterpret_cast<std::uint8_t*>(block_ + 1); }
  void retain() noexcept {
    if (block_ != nullptr) ++block_->refs;
  }
  void release() noexcept {
    if (block_ != nullptr && --block_->refs == 0) ::operator delete(block_);
  }

  Block* block_ = nullptr;
};

inline SharedBytes SharedBytes::copy_of(BytesView data) {
  return build(data.size(),
               [&](std::uint8_t* out) { std::memcpy(out, data.data(), data.size()); });
}

/// Part of a SharedBytes buffer, holding a reference to it: the bytes stay
/// valid for as long as the slice (or any copy of it) lives.
class SharedSlice {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;
  using iterator = const_iterator;

  SharedSlice() noexcept = default;
  /// The whole buffer.
  explicit SharedSlice(SharedBytes owner) noexcept
      : view_(owner.view()), owner_(std::move(owner)) {}
  /// `part` of `owner`; `part` must lie inside it.
  SharedSlice(SharedBytes owner, BytesView part) noexcept
      : view_(part), owner_(std::move(owner)) {}

  /// A slice over a fresh buffer holding a copy of `data`: the one copy a
  /// holder pays when the bytes it keeps did not arrive in a shared buffer.
  static SharedSlice copy_of(BytesView data) { return SharedSlice(SharedBytes::copy_of(data)); }

  /// `part` (which must lie inside this slice) under the same reference.
  SharedSlice sub(BytesView part) const noexcept { return SharedSlice(owner_, part); }

  const std::uint8_t* data() const noexcept { return view_.data(); }
  std::size_t size() const noexcept { return view_.size(); }
  bool empty() const noexcept { return view_.empty(); }
  const std::uint8_t* begin() const noexcept { return view_.data(); }
  const std::uint8_t* end() const noexcept { return view_.data() + view_.size(); }
  const std::uint8_t& operator[](std::size_t i) const noexcept { return view_[i]; }
  BytesView view() const noexcept { return view_; }
  operator BytesView() const noexcept { return view_; }
  /// Copies the bytes out, for code that needs an owning, mutable vector.
  operator Bytes() const { return Bytes(begin(), end()); }

  const SharedBytes& owner() const noexcept { return owner_; }

  friend bool operator==(const SharedSlice& a, BytesView b) noexcept {
    return std::ranges::equal(a.view_, b);
  }

 private:
  BytesView view_;
  SharedBytes owner_;
};

}  // namespace eternal::util
