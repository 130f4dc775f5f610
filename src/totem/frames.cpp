#include "totem/frames.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace eternal::totem {

namespace {

constexpr std::uint16_t kMagic = 0x70CE;  // "TOtem CEll"

using util::CdrReader;
using util::CdrWriter;

// Encoded sizes, so every encoder allocates its buffer once. Data and Token
// frames (the per-operation traffic) are sized exactly; the membership
// frames get upper bounds (each u64 run may need 4 bytes of padding).
constexpr std::size_t kFrameHeaderBytes = 8;    // order, type, magic, sender
constexpr std::size_t kDataHeaderBytes = 68;    // through the payload length
constexpr std::size_t kTokenFixedBytes = 72;    // through the rtr count
constexpr std::size_t kMaxSeqsPad = 4;          // u32 count → u64 alignment

std::size_t seqs_bound(const std::vector<std::uint64_t>& seqs) {
  return 4 + kMaxSeqsPad + 8 * seqs.size();
}

std::size_t nodes_bound(const std::vector<NodeId>& nodes) {
  return 4 + 4 * nodes.size() + kMaxSeqsPad;  // a u64 always follows
}

CdrWriter begin_frame(NodeId sender, FrameType type, std::size_t size, Bytes reuse = {}) {
  CdrWriter w(util::host_byte_order(), size, std::move(reuse));
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u16(kMagic);
  w.put_u32(sender.value);
  return w;
}

void put_nodes(CdrWriter& w, const std::vector<NodeId>& nodes) {
  w.put_u32(static_cast<std::uint32_t>(nodes.size()));
  for (NodeId n : nodes) w.put_u32(n.value);
}

std::vector<NodeId> get_nodes(CdrReader& r) {
  const std::uint32_t n = r.get_count(4);
  std::vector<NodeId> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(NodeId{r.get_u32()});
  return out;
}

void put_seqs(CdrWriter& w, const std::vector<std::uint64_t>& seqs) {
  w.put_u32(static_cast<std::uint32_t>(seqs.size()));
  for (std::uint64_t s : seqs) w.put_u64(s);
}

std::vector<std::uint64_t> get_seqs(CdrReader& r) {
  const std::uint32_t n = r.get_count(4);  // u64s are 8B but may be aligned-4
  std::vector<std::uint64_t> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(r.get_u64());
  return out;
}

}  // namespace

Outbound::Outbound(BytesView head, Bytes body, BytesView tail)
    : head_size_(static_cast<std::uint8_t>(head.size())),
      tail_size_(static_cast<std::uint8_t>(tail.size())),
      body_(std::move(body)) {
  assert(head.size() <= kMaxHead && tail.size() <= kMaxTail);
  std::copy(head.begin(), head.end(), head_.begin());
  std::copy(tail.begin(), tail.end(), tail_.begin());
}

void Outbound::copy(std::size_t begin, std::size_t n, std::uint8_t* out) const noexcept {
  // Each part contributes the overlap of [begin, begin + n) with its range.
  const std::size_t end = begin + n;
  std::size_t at = 0;
  for (BytesView part : {BytesView(head_.data(), head_size_), BytesView(body_),
                         BytesView(tail_.data(), tail_size_)}) {
    const std::size_t lo = std::max(begin, at);
    const std::size_t hi = std::min(end, at + part.size());
    if (lo < hi) {
      std::memcpy(out, part.data() + (lo - at), hi - lo);
      out += hi - lo;
    }
    at += part.size();
  }
}

// Data frames are written straight into their final buffer (a shared one on
// the send path), in host byte order like every frame.
void write_data_header(std::uint8_t* out, NodeId sender, const DataFrame& f,
                       std::size_t payload_size) {
  util::CdrSpanWriter w(out);
  w.put(static_cast<std::uint8_t>(util::host_byte_order()));
  w.put(static_cast<std::uint8_t>(FrameType::kData));
  w.put(kMagic);
  w.put(sender.value);
  w.put(f.view.value);
  w.put(f.ring_id);
  w.put(f.origin.value);
  w.put(f.seq);
  w.put(f.msg_id);
  w.put(f.frag_index);
  w.put(f.frag_count);
  w.put(f.batch_count);
  w.put(static_cast<std::uint8_t>(f.retransmission ? 1 : 0));
  w.put(static_cast<std::uint8_t>(f.authoritative ? 1 : 0));
  w.put(static_cast<std::uint32_t>(payload_size));
  assert(w.position() == kDataHeaderBytes);
}

util::SharedBytes encode_data_frame(NodeId sender, const DataFrame& f, BytesView payload) {
  return encode_data_frame(sender, f, payload.size(), [&](std::uint8_t* out) {
    if (!payload.empty()) std::memcpy(out, payload.data(), payload.size());
  });
}

Bytes encode_frame(NodeId sender, const DataFrame& f) {
  Bytes out(kDataHeaderBytes + f.payload.size());
  write_data_header(out.data(), sender, f, f.payload.size());
  std::copy(f.payload.begin(), f.payload.end(), out.begin() + kDataHeaderBytes);
  return out;
}

Bytes encode_frame(NodeId sender, const TokenFrame& f, Bytes reuse) {
  CdrWriter w = begin_frame(sender, FrameType::kToken, kTokenFixedBytes + 8 * f.rtr.size(),
                            std::move(reuse));
  w.put_u64(f.view.value);
  w.put_u64(f.ring_id);
  w.put_u32(f.target.value);
  w.put_u64(f.round);
  w.put_u64(f.next_seq);
  w.put_u64(f.aru);
  w.put_u32(f.aru_setter.value);
  w.put_u32(f.flow_budget);
  w.put_u32(f.flow_setter.value);
  put_seqs(w, f.rtr);
  return std::move(w).take();
}

Bytes encode_frame(NodeId sender, const JoinFrame& f) {
  CdrWriter w = begin_frame(sender, FrameType::kJoin,
                            kFrameHeaderBytes + nodes_bound(f.alive) + 3 * 8);
  put_nodes(w, f.alive);
  w.put_u64(f.highest_seq);
  w.put_u64(f.highest_view);
  w.put_u64(f.ring_id);
  return std::move(w).take();
}

Bytes encode_frame(NodeId sender, const CommitFrame& f) {
  CdrWriter w = begin_frame(sender, FrameType::kCommit,
                            kFrameHeaderBytes + 8 + nodes_bound(f.members) + 2 * 8 +
                                seqs_bound(f.surviving_ancestors));
  w.put_u64(f.new_view.value);
  put_nodes(w, f.members);
  w.put_u64(f.base_seq);
  w.put_u64(f.surviving_ring);
  put_seqs(w, f.surviving_ancestors);
  return std::move(w).take();
}

Bytes encode_frame(NodeId sender, const ReadyFrame& f) {
  CdrWriter w = begin_frame(sender, FrameType::kReady,
                            kFrameHeaderBytes + 8 + seqs_bound(f.missing) +
                                seqs_bound(f.held_seqs) + seqs_bound(f.held_digests));
  w.put_u64(f.new_view.value);
  put_seqs(w, f.missing);
  put_seqs(w, f.held_seqs);
  put_seqs(w, f.held_digests);
  return std::move(w).take();
}

Bytes encode_frame(NodeId sender, const InstallFrame& f) {
  CdrWriter w = begin_frame(sender, FrameType::kInstall,
                            kFrameHeaderBytes + 8 + nodes_bound(f.members) + 8);
  w.put_u64(f.new_view.value);
  put_nodes(w, f.members);
  w.put_u64(f.next_seq);
  return std::move(w).take();
}

Bytes encode_frame(NodeId sender, const JoinRequestFrame&) {
  CdrWriter w = begin_frame(sender, FrameType::kJoinRequest, kFrameHeaderBytes);
  return std::move(w).take();
}

namespace {

/// The one frame parser. `owner`, when given, is the buffer `data` views:
/// a Data payload becomes a slice of it instead of a copy.
std::optional<Frame> decode(BytesView data, const util::SharedBytes* owner) {
  try {
    if (data.size() < 8) return std::nullopt;
    CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    const auto type = static_cast<FrameType>(r.get_u8());
    if (r.get_u16() != kMagic) return std::nullopt;
    const NodeId sender{r.get_u32()};

    switch (type) {
      case FrameType::kData: {
        DataFrame f;
        f.view = ViewId{r.get_u64()};
        f.ring_id = r.get_u64();
        f.origin = NodeId{r.get_u32()};
        f.seq = r.get_u64();
        f.msg_id = r.get_u64();
        f.frag_index = r.get_u32();
        f.frag_count = r.get_u32();
        f.batch_count = r.get_u32();
        f.retransmission = r.get_bool();
        f.authoritative = r.get_bool();
        const BytesView payload = r.get_octets_view();
        if (f.batch_count == 0) return std::nullopt;
        // Each packed message costs at least its 4-byte length prefix, so a
        // corrupt count larger than the payload could ever hold is malformed.
        if (f.batch_count >= 2 && payload.size() / 4 < f.batch_count) {
          return std::nullopt;
        }
        f.payload = owner != nullptr ? util::SharedSlice(*owner, payload)
                                     : util::SharedSlice::copy_of(payload);
        return Frame{sender, std::move(f)};
      }
      case FrameType::kToken: {
        TokenFrame f;
        f.view = ViewId{r.get_u64()};
        f.ring_id = r.get_u64();
        f.target = NodeId{r.get_u32()};
        f.round = r.get_u64();
        f.next_seq = r.get_u64();
        f.aru = r.get_u64();
        f.aru_setter = NodeId{r.get_u32()};
        f.flow_budget = r.get_u32();
        f.flow_setter = NodeId{r.get_u32()};
        f.rtr = get_seqs(r);
        return Frame{sender, std::move(f)};
      }
      case FrameType::kJoin: {
        JoinFrame f;
        f.alive = get_nodes(r);
        f.highest_seq = r.get_u64();
        f.highest_view = r.get_u64();
        f.ring_id = r.get_u64();
        return Frame{sender, std::move(f)};
      }
      case FrameType::kCommit: {
        CommitFrame f;
        f.new_view = ViewId{r.get_u64()};
        f.members = get_nodes(r);
        f.base_seq = r.get_u64();
        f.surviving_ring = r.get_u64();
        f.surviving_ancestors = get_seqs(r);
        return Frame{sender, std::move(f)};
      }
      case FrameType::kReady: {
        ReadyFrame f;
        f.new_view = ViewId{r.get_u64()};
        f.missing = get_seqs(r);
        f.held_seqs = get_seqs(r);
        f.held_digests = get_seqs(r);
        if (f.held_seqs.size() != f.held_digests.size()) return std::nullopt;
        return Frame{sender, std::move(f)};
      }
      case FrameType::kInstall: {
        InstallFrame f;
        f.new_view = ViewId{r.get_u64()};
        f.members = get_nodes(r);
        f.next_seq = r.get_u64();
        return Frame{sender, std::move(f)};
      }
      case FrameType::kJoinRequest:
        return Frame{sender, JoinRequestFrame{}};
    }
    return std::nullopt;
  } catch (const util::CdrError&) {
    return std::nullopt;
  }
}

}  // namespace

std::optional<Frame> decode_frame(BytesView data) { return decode(data, nullptr); }

std::optional<Frame> decode_frame(const util::SharedBytes& frame) {
  return decode(frame.view(), &frame);
}

std::size_t data_frame_overhead() { return kDataHeaderBytes; }

// ------------------------------------------------------------ batch packing

// The blob has no order flag of its own: batches are always packed
// little-endian, so the same bytes mean the same messages on every member
// (and retransmitted copies stay byte-identical to the original).
Bytes pack_batch(const std::vector<Bytes>& messages) {
  std::size_t size = 0;
  for (const Bytes& m : messages) size = packed_batch_size(size, m.size());
  Bytes out(size);
  std::size_t pos = 0;
  for (const Bytes& m : messages) {
    pos = put_batch_prefix(out.data(), pos, m.size());
    std::copy(m.begin(), m.end(), out.begin() + static_cast<std::ptrdiff_t>(pos));
    pos += m.size();
  }
  return out;
}

std::size_t put_batch_prefix(std::uint8_t* out, std::size_t current_bytes,
                             std::size_t message_bytes) {
  std::size_t pos = current_bytes;
  while (pos % 4 != 0) out[pos++] = 0;
  const auto length = static_cast<std::uint32_t>(message_bytes);
  for (std::size_t i = 0; i < 4; ++i) out[pos++] = static_cast<std::uint8_t>(length >> (8 * i));
  return pos;
}

bool batch_well_formed(BytesView packed, std::uint32_t count) noexcept {
  try {
    // Each message costs at least its 4-byte length prefix.
    if (count > packed.size() / 4) return false;
    CdrReader r(packed, util::ByteOrder::kLittle);
    for (std::uint32_t i = 0; i < count; ++i) (void)r.get_octets_view();
    return r.exhausted();  // else trailing garbage
  } catch (const util::CdrError&) {
    return false;
  }
}

std::size_t packed_batch_size(std::size_t current_bytes, std::size_t message_bytes) {
  const std::size_t aligned = (current_bytes + 3) & ~std::size_t{3};
  return aligned + 4 + message_bytes;
}

}  // namespace eternal::totem
