#include "core/envelope.hpp"

#include <algorithm>

namespace eternal::core {

namespace {
constexpr std::uint16_t kMagic = 0xE7E4;

/// Exact encoded size of `e`, so encode_envelope allocates once: 56 header
/// bytes (80 plus the digests for bulk kinds), then four aligned octet
/// sequences.
std::size_t encoded_size(const Envelope& e) {
  std::size_t n = e.kind >= EnvelopeKind::kStateBulkDescriptor
                      ? 80 + 8 * e.extent_digests.size()
                      : 56;
  for (const Bytes* b : {&e.payload, &e.orb_state, &e.infra_state, &e.control_data}) {
    n = ((n + 3) & ~std::size_t{3}) + 4 + b->size();
  }
  return n;
}
}  // namespace

Bytes encode_envelope(const Envelope& e) {
  util::CdrWriter w(util::host_byte_order(), encoded_size(e));
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u8(static_cast<std::uint8_t>(e.kind));
  w.put_u16(kMagic);
  w.put_u32(e.ring);
  w.put_u32(e.client_group.value);
  w.put_u32(e.target_group.value);
  w.put_u64(e.op_seq);
  w.put_u64(e.subject.value);
  w.put_u32(e.subject_node.value);
  w.put_u8(static_cast<std::uint8_t>(e.control_op));
  w.put_u64(e.delta_base);
  w.put_u32(e.chunk_index);
  w.put_u32(e.chunk_count);
  if (e.kind >= EnvelopeKind::kStateBulkDescriptor) {
    w.put_u64(e.transfer_id);
    w.put_u64(e.total_bytes);
    w.put_u32(e.extent_bytes);
    w.put_u32(static_cast<std::uint32_t>(e.extent_digests.size()));
    for (std::uint64_t d : e.extent_digests) w.put_u64(d);
  }
  w.put_octets(e.payload);
  w.put_octets(e.orb_state);
  w.put_octets(e.infra_state);
  w.put_octets(e.control_data);
  return std::move(w).take();
}

std::optional<Envelope> decode_envelope(BytesView data) {
  try {
    if (data.size() < 4) return std::nullopt;
    util::CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    Envelope e;
    e.kind = static_cast<EnvelopeKind>(r.get_u8());
    if (static_cast<std::uint8_t>(e.kind) < 1 || static_cast<std::uint8_t>(e.kind) > 11) {
      return std::nullopt;
    }
    if (r.get_u16() != kMagic) return std::nullopt;
    e.ring = r.get_u32();
    // Ring geometry: an index at or past kMaxRings names a ring no node has
    // an endpoint for; nothing downstream may see it.
    if (e.ring >= kMaxRings) return std::nullopt;
    e.client_group = GroupId{r.get_u32()};
    e.target_group = GroupId{r.get_u32()};
    e.op_seq = r.get_u64();
    e.subject = ReplicaId{r.get_u64()};
    e.subject_node = NodeId{r.get_u32()};
    e.control_op = static_cast<ControlOp>(r.get_u8());
    e.delta_base = r.get_u64();
    e.chunk_index = r.get_u32();
    e.chunk_count = r.get_u32();
    if (e.kind == EnvelopeKind::kStateChunk &&
        (e.chunk_count < 1 || e.chunk_index >= e.chunk_count)) {
      return std::nullopt;
    }
    if (e.kind >= EnvelopeKind::kStateBulkDescriptor) {
      e.transfer_id = r.get_u64();
      e.total_bytes = r.get_u64();
      e.extent_bytes = r.get_u32();
      const std::uint32_t n_digests = r.get_count(8);
      e.extent_digests.reserve(n_digests);
      for (std::uint32_t i = 0; i < n_digests; ++i) {
        e.extent_digests.push_back(r.get_u64());
      }
      // Shared bulk geometry: a transfer is named, non-empty, and its extent
      // grid covers total_bytes exactly (the last extent is the remainder).
      if (e.transfer_id == 0 || e.chunk_count < 1) return std::nullopt;
      if (e.kind != EnvelopeKind::kBulkAck) {
        if (e.extent_bytes < 1 || e.total_bytes < 1) return std::nullopt;
        const std::uint64_t grid =
            static_cast<std::uint64_t>(e.chunk_count) * e.extent_bytes;
        const std::uint64_t prefix =
            static_cast<std::uint64_t>(e.chunk_count - 1) * e.extent_bytes;
        if (e.total_bytes > grid || e.total_bytes <= prefix) return std::nullopt;
      }
      if (e.kind == EnvelopeKind::kStateBulkDescriptor) {
        if (e.extent_digests.size() != e.chunk_count) return std::nullopt;
      }
      if (e.kind == EnvelopeKind::kBulkExtent || e.kind == EnvelopeKind::kBulkAck) {
        if (e.chunk_index >= e.chunk_count) return std::nullopt;
      }
    }
    e.payload = r.get_octets();
    e.orb_state = r.get_octets();
    e.infra_state = r.get_octets();
    e.control_data = r.get_octets();
    if (e.kind == EnvelopeKind::kBulkExtent) {
      // The payload must be exactly this extent's slice of total_bytes —
      // overlap/overflow cannot be expressed.
      const std::uint64_t offset =
          static_cast<std::uint64_t>(e.chunk_index) * e.extent_bytes;
      const std::uint64_t expected =
          std::min<std::uint64_t>(e.extent_bytes, e.total_bytes - offset);
      if (e.payload.size() != expected) return std::nullopt;
    }
    return e;
  } catch (const util::CdrError&) {
    return std::nullopt;
  }
}

Bytes encode_initial_members(const std::vector<InitialMember>& members) {
  util::CdrWriter w;
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u32(static_cast<std::uint32_t>(members.size()));
  for (const InitialMember& m : members) {
    w.put_u64(m.id.value);
    w.put_u32(m.node.value);
  }
  return std::move(w).take();
}

std::vector<InitialMember> decode_initial_members(BytesView data) {
  std::vector<InitialMember> out;
  if (data.empty()) return out;
  try {
    util::CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    const std::uint32_t n = r.get_count(8);
    for (std::uint32_t i = 0; i < n; ++i) {
      InitialMember m;
      m.id = ReplicaId{r.get_u64()};
      m.node = NodeId{r.get_u32()};
      out.push_back(m);
    }
  } catch (const util::CdrError&) {
    out.clear();
  }
  return out;
}

}  // namespace eternal::core
