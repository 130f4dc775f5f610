#include "core/envelope.hpp"

#include <algorithm>
#include <array>

namespace eternal::core {

namespace {
constexpr std::uint16_t kMagic = 0xE7E4;

/// The blobs and digests of an envelope being encoded.
struct Blobs {
  const std::vector<std::uint64_t>& digests;
  BytesView payload;
  BytesView orb_state;
  BytesView infra_state;
  BytesView control_data;
};

const std::vector<std::uint64_t> kNoDigests;

Blobs blobs_of(const Envelope& e) {
  return Blobs{e.extent_digests, e.payload, e.orb_state, e.infra_state, e.control_data};
}

Blobs blobs_of(const RetainedEnvelope& e) { return Blobs{kNoDigests, e.payload, {}, {}, {}}; }

/// Exact encoded size, so encode allocates once: 56 header bytes (80 plus
/// the digests for bulk kinds), then four aligned octet sequences.
std::size_t encoded_size(const EnvelopeHeader& h, const Blobs& b) {
  std::size_t n = h.kind >= EnvelopeKind::kStateBulkDescriptor ? 80 + 8 * b.digests.size() : 56;
  for (BytesView blob : {b.payload, b.orb_state, b.infra_state, b.control_data}) {
    n = ((n + 3) & ~std::size_t{3}) + 4 + blob.size();
  }
  return n;
}

// The one envelope writer, in two halves around the payload bytes, so an
// envelope can be laid out around a payload it does not copy.

/// Everything before the payload bytes: the header, the bulk fields and
/// digests, and the payload's length.
void write_head(util::CdrSpanWriter& w, const EnvelopeHeader& e, const Blobs& b) {
  w.put(static_cast<std::uint8_t>(util::host_byte_order()));
  w.put(static_cast<std::uint8_t>(e.kind));
  w.put(kMagic);
  w.put(e.ring);
  w.put(e.client_group.value);
  w.put(e.target_group.value);
  w.put(e.op_seq);
  w.put(e.subject.value);
  w.put(e.subject_node.value);
  w.put(static_cast<std::uint8_t>(e.control_op));
  w.put(e.delta_base);
  w.put(e.chunk_index);
  w.put(e.chunk_count);
  if (e.kind >= EnvelopeKind::kStateBulkDescriptor) {
    w.put(e.transfer_id);
    w.put(e.total_bytes);
    w.put(e.extent_bytes);
    w.put(static_cast<std::uint32_t>(b.digests.size()));
    for (std::uint64_t d : b.digests) w.put(d);
  }
  w.put(static_cast<std::uint32_t>(b.payload.size()));
}

/// Everything after the payload bytes: the other three blobs.
void write_tail(util::CdrSpanWriter& w, const Blobs& b) {
  w.put_octets(b.orb_state);
  w.put_octets(b.infra_state);
  w.put_octets(b.control_data);
}

/// The whole envelope, into encoded_size(e, b) bytes at `out`.
void write(const EnvelopeHeader& e, const Blobs& b, std::uint8_t* out) {
  util::CdrSpanWriter w(out);
  write_head(w, e, b);
  w.put_raw(b.payload);
  write_tail(w, b);
}

Bytes encode(const EnvelopeHeader& e, const Blobs& b) {
  Bytes out(encoded_size(e, b));
  write(e, b, out.data());
  return out;
}

}  // namespace

Bytes encode_envelope(const Envelope& e) { return encode(e, blobs_of(e)); }

std::size_t encoded_size(const Envelope& e) { return encoded_size(e, blobs_of(e)); }

Bytes encode_envelope(const RetainedEnvelope& e) { return encode(e, blobs_of(e)); }

std::size_t encoded_size(const RetainedEnvelope& e) { return encoded_size(e, blobs_of(e)); }

void encode_envelope_to(const RetainedEnvelope& e, std::uint8_t* out) {
  write(e, blobs_of(e), out);
}

totem::Outbound to_outbound(Envelope&& e) {
  const Blobs b = blobs_of(e);
  if (e.kind >= EnvelopeKind::kStateBulkDescriptor || !e.orb_state.empty() ||
      !e.infra_state.empty() || !e.control_data.empty()) {
    return totem::Outbound(encode(e, b));
  }
  // The fixed header and the payload length in front (56 + 4 bytes), the
  // payload's padding and three empty blob counts behind (at most 15).
  std::array<std::uint8_t, 60> head;
  util::CdrSpanWriter hw(head.data());
  write_head(hw, e, b);
  const std::size_t tail_at = hw.position() + e.payload.size();
  std::array<std::uint8_t, 15> tail;
  util::CdrSpanWriter tw(tail.data(), tail_at);
  write_tail(tw, b);
  return totem::Outbound(BytesView(head.data(), hw.position()), std::move(e.payload),
                         BytesView(tail.data(), tw.position() - tail_at));
}

std::optional<EnvelopeView> decode_envelope_view(BytesView data) {
  try {
    if (data.size() < 4) return std::nullopt;
    util::CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    EnvelopeView e;
    e.order_ = r.order();
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
      if (n_digests > 0) {
        // The digests are consecutive u64s: one 8-byte alignment, then no
        // padding between them.
        r.align(8);
        e.digests_ = r.get_raw_view(8 * std::size_t{n_digests});
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
        if (n_digests != e.chunk_count) return std::nullopt;
      }
      if (e.kind == EnvelopeKind::kBulkExtent || e.kind == EnvelopeKind::kBulkAck) {
        if (e.chunk_index >= e.chunk_count) return std::nullopt;
      }
    }
    e.payload = r.get_octets_view();
    e.orb_state = r.get_octets_view();
    e.infra_state = r.get_octets_view();
    e.control_data = r.get_octets_view();
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

Envelope EnvelopeView::own() const {
  Envelope e;
  static_cast<EnvelopeHeader&>(e) = *this;
  if (!digests_.empty()) {
    util::CdrReader r(digests_, order_);
    e.extent_digests.resize(digests_.size() / 8);
    for (std::uint64_t& d : e.extent_digests) d = r.get_u64();
  }
  e.payload.assign(payload.begin(), payload.end());
  e.orb_state.assign(orb_state.begin(), orb_state.end());
  e.infra_state.assign(infra_state.begin(), infra_state.end());
  e.control_data.assign(control_data.begin(), control_data.end());
  return e;
}

std::optional<Envelope> decode_envelope(BytesView data) {
  std::optional<EnvelopeView> view = decode_envelope_view(data);
  if (!view) return std::nullopt;
  return view->own();
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
