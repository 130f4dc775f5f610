// CORBA Common Data Representation (CDR) marshaling.
//
// CDR is the encoding GIOP uses for every header and body. Rules we follow
// (CORBA 2.3, chapter 15):
//   - a primitive of size N is aligned to an N-byte boundary relative to the
//     start of the encapsulation / message;
//   - the sender writes in its native byte order and flags it; the reader
//     swaps when its order differs;
//   - strings are a ulong length including the terminating NUL, then bytes;
//   - sequences are a ulong element count, then elements.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bytes.hpp"

namespace eternal::util {

/// Thrown when a decode runs past the end of the buffer or meets a
/// malformed value. GIOP handlers convert this into a MessageError.
class CdrError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Byte order of an encoded stream. kLittle matches the flag value used in
/// the GIOP header (1 = little-endian).
enum class ByteOrder : std::uint8_t { kBig = 0, kLittle = 1 };

/// Host byte order of this process.
ByteOrder host_byte_order() noexcept;

/// Serializes values into a growing buffer with CDR alignment.
class CdrWriter {
 public:
  /// `order` is the byte order to encode with; defaults to host order, which
  /// is what a real ORB does (writers write native, readers swap).
  /// `capacity` is the expected encoded size: an encoder that knows its
  /// exact size, or an upper bound, allocates the buffer once instead of
  /// growing it through every power of two.
  explicit CdrWriter(ByteOrder order = host_byte_order(), std::size_t capacity = 0)
      : order_(order) {
    if (capacity != 0) buf_.reserve(capacity);
  }

  ByteOrder order() const noexcept { return order_; }

  void put_u8(std::uint8_t v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u16(std::uint16_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_i32(std::int32_t v) { put_u32(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_u64(static_cast<std::uint64_t>(v)); }
  void put_f64(double v);

  /// CDR string: ulong length (includes NUL), characters, NUL.
  void put_string(std::string_view s);

  /// CDR sequence<octet>: ulong length then raw bytes.
  void put_octets(BytesView data);

  /// Raw bytes with no length prefix and no alignment (for nested,
  /// already-encoded material such as a GIOP body).
  void put_raw(BytesView data);

  /// Pads to an N-byte boundary (N in {1,2,4,8}).
  void align(std::size_t n);

  /// Current encoded size.
  std::size_t size() const noexcept { return buf_.size(); }

  /// Overwrites a previously written u32 at `offset` (used to backpatch the
  /// GIOP message-size field once the body length is known).
  void patch_u32(std::size_t offset, std::uint32_t v);

  const Bytes& bytes() const noexcept { return buf_; }
  Bytes take() && { return std::move(buf_); }

 private:
  ByteOrder order_;
  Bytes buf_;
};

/// Deserializes values from a buffer, tracking alignment from the buffer's
/// first byte. Throws CdrError on underrun.
class CdrReader {
 public:
  CdrReader(BytesView data, ByteOrder order) : data_(data), order_(order) {}

  ByteOrder order() const noexcept { return order_; }

  std::uint8_t get_u8();
  bool get_bool() { return get_u8() != 0; }
  std::uint16_t get_u16();
  std::uint32_t get_u32();
  std::uint64_t get_u64();
  std::int32_t get_i32() { return static_cast<std::int32_t>(get_u32()); }
  std::int64_t get_i64() { return static_cast<std::int64_t>(get_u64()); }
  double get_f64();
  std::string get_string() { return std::string(get_string_view()); }
  Bytes get_octets() { return to_bytes(get_octets_view()); }

  /// Reads `n` raw bytes with no alignment.
  Bytes get_raw(std::size_t n) { return to_bytes(get_raw_view(n)); }

  // In-place variants: views into the reader's buffer, valid as long as it.
  std::string_view get_string_view();
  BytesView get_octets_view() { return get_raw_view(get_u32()); }
  BytesView get_raw_view(std::size_t n);

  void align(std::size_t n);

  /// Reads an element count and validates it against the bytes remaining
  /// (each element consumes at least `min_element_bytes`). Prevents a
  /// corrupted count field from driving an unbounded allocation.
  std::uint32_t get_count(std::size_t min_element_bytes = 1) {
    const std::uint32_t n = get_u32();
    if (min_element_bytes != 0 && n > remaining() / min_element_bytes) {
      throw CdrError("CDR count exceeds remaining bytes");
    }
    return n;
  }

  /// Bytes not yet consumed.
  std::size_t remaining() const noexcept { return data_.size() - pos_; }
  std::size_t position() const noexcept { return pos_; }
  bool exhausted() const noexcept { return pos_ == data_.size(); }

 private:
  void require(std::size_t n);
  static Bytes to_bytes(BytesView v) { return Bytes(v.begin(), v.end()); }

  BytesView data_;
  ByteOrder order_;
  std::size_t pos_ = 0;
};

}  // namespace eternal::util
