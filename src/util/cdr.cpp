#include "util/cdr.hpp"

#include <bit>
#include <cstring>

namespace eternal::util {

ByteOrder host_byte_order() noexcept {
  return std::endian::native == std::endian::little ? ByteOrder::kLittle : ByteOrder::kBig;
}

namespace {
bool needs_swap(ByteOrder order) noexcept { return order != host_byte_order(); }

template <typename T>
T byteswap_integral(T v) noexcept {
  static_assert(std::is_unsigned_v<T>);
  T out = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out = static_cast<T>(out << 8);
    out |= static_cast<T>(v & 0xff);
    v = static_cast<T>(v >> 8);
  }
  return out;
}
}  // namespace

void CdrWriter::align(std::size_t n) {
  const std::size_t rem = buf_.size() % n;
  if (rem != 0) buf_.resize(buf_.size() + (n - rem), 0);
}

void CdrWriter::put_u8(std::uint8_t v) {
  reserve_first(1);
  buf_.push_back(v);
}

void CdrWriter::put_u16(std::uint16_t v) {
  reserve_first(2);
  align(2);
  if (needs_swap(order_)) v = byteswap_integral(v);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf_.insert(buf_.end(), p, p + 2);
}

void CdrWriter::put_u32(std::uint32_t v) {
  reserve_first(4);
  align(4);
  if (needs_swap(order_)) v = byteswap_integral(v);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf_.insert(buf_.end(), p, p + 4);
}

void CdrWriter::put_u64(std::uint64_t v) {
  reserve_first(8);
  align(8);
  if (needs_swap(order_)) v = byteswap_integral(v);
  const auto* p = reinterpret_cast<const std::uint8_t*>(&v);
  buf_.insert(buf_.end(), p, p + 8);
}

void CdrWriter::put_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void CdrWriter::put_string(std::string_view s) {
  put_u32(static_cast<std::uint32_t>(s.size() + 1));
  const auto* p = reinterpret_cast<const std::uint8_t*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
  buf_.push_back(0);
}

void CdrWriter::put_octets(BytesView data) {
  put_u32(static_cast<std::uint32_t>(data.size()));
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void CdrWriter::put_raw(BytesView data) {
  reserve_first(data.size());
  buf_.insert(buf_.end(), data.begin(), data.end());
}

void CdrWriter::patch_u32(std::size_t offset, std::uint32_t v) {
  if (offset + 4 > buf_.size()) throw CdrError("patch_u32 out of range");
  if (needs_swap(order_)) v = byteswap_integral(v);
  std::memcpy(buf_.data() + offset, &v, 4);
}

void CdrReader::require(std::size_t n) {
  if (pos_ + n > data_.size()) throw CdrError("CDR underrun");
}

void CdrReader::align(std::size_t n) {
  const std::size_t rem = pos_ % n;
  if (rem != 0) {
    require(n - rem);
    pos_ += n - rem;
  }
}

std::uint8_t CdrReader::get_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t CdrReader::get_u16() {
  align(2);
  require(2);
  std::uint16_t v;
  std::memcpy(&v, data_.data() + pos_, 2);
  pos_ += 2;
  if (needs_swap(order_)) v = byteswap_integral(v);
  return v;
}

std::uint32_t CdrReader::get_u32() {
  align(4);
  require(4);
  std::uint32_t v;
  std::memcpy(&v, data_.data() + pos_, 4);
  pos_ += 4;
  if (needs_swap(order_)) v = byteswap_integral(v);
  return v;
}

std::uint64_t CdrReader::get_u64() {
  align(8);
  require(8);
  std::uint64_t v;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  if (needs_swap(order_)) v = byteswap_integral(v);
  return v;
}

double CdrReader::get_f64() {
  const std::uint64_t bits = get_u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string_view CdrReader::get_string_view() {
  const std::uint32_t len = get_u32();
  if (len == 0) throw CdrError("CDR string with zero length (must include NUL)");
  require(len);
  if (data_[pos_ + len - 1] != 0) throw CdrError("CDR string missing NUL terminator");
  std::string_view s(reinterpret_cast<const char*>(data_.data() + pos_), len - 1);
  pos_ += len;
  return s;
}

BytesView CdrReader::get_raw_view(std::size_t n) {
  require(n);
  const BytesView out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

}  // namespace eternal::util
