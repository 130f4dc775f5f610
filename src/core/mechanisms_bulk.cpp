// Out-of-band bulk state transfer (control/data split, motr-rpc style).
//
// The totally-ordered ring carries only two skinny control messages per
// transfer: a kStateBulkDescriptor announcing {transfer id, epoch, geometry,
// per-extent FNV-1a digests}, and a kStateBulkComplete marker that pins the
// set_state's logical instant at its own total-order position — exactly where
// the final kStateChunk would have delivered it on the in-band path. The
// state bytes themselves stream point-to-point on the bulk lane
// (sim/bulk_lane.hpp) as kBulkExtent frames under a credit window, each
// acknowledged (kBulkAck) only after its digest verified against the
// descriptor.
//
// Safety argument: the sender multicasts the marker only after every extent
// is acked, and the receiver acks only verified extents — so a delivered
// marker implies the recoverer holds the complete, digest-checked image.
// Every node (recoverer or not) synthesizes the set_state at the marker's
// position: the group table's apply_state_transfer consumes only envelope
// metadata, all of which the marker carries, so non-recoverers stay
// table-consistent without ever seeing the state bytes. Lane events mutate
// only transfer-local state, never the replicated table or servants —
// logical time stays solely on the ring.
//
// Failure handling: lost extents/acks are covered by re-acks and the
// sender's retry timer; retry exhaustion (lane disabled, partitioned, dead
// receiver) aborts the send and re-publishes the kept inner envelope via the
// in-band chunked path under the same epoch. A receiver whose sender dies
// mid-stream stashes its verified extents keyed by content digest; the next
// attempt's descriptor (same or new sender) is pre-filled from the stash and
// the matching extents acked immediately — resume without re-shipping.
#include <algorithm>
#include <utility>

#include "core/mechanisms.hpp"
#include "obs/spans.hpp"
#include "util/log.hpp"

namespace eternal::core {

namespace {
constexpr const char* kTag = "eternal";
}

bool Mechanisms::bulk_usable(NodeId to) const {
  return config_.bulk_lane && config_.state_chunk_bytes > 0 &&
         bulk_lane_ != nullptr && bulk_lane_->enabled() &&
         bulk_lane_->attached(node_) && bulk_lane_->attached(to);
}

void Mechanisms::start_bulk_send(GroupId group, const Envelope& inner) {
  // The lane is point-to-point: the only receiver is the recoverer's node.
  NodeId to{};
  if (const GroupEntry* entry = table_.find(group)) {
    for (const ReplicaInfo& m : entry->members) {
      if (m.id == inner.subject) {
        to = m.node;
        break;
      }
    }
  }
  if (to.value == 0 || to == node_ || !bulk_usable(to)) {
    stats_.bulk_fallbacks_chunked += 1;
    start_chunked_send(group, inner);
    return;
  }

  BulkSend s;
  s.group = group;
  s.transfer_id = (static_cast<std::uint64_t>(node_.value) << 32) | next_transfer_nonce_++;
  s.epoch = inner.op_seq;
  s.subject = inner.subject;
  s.to = to;
  s.inner = inner;
  s.encoded = encode_envelope(inner);
  s.extent_bytes = std::max<std::size_t>(1, config_.bulk_extent_bytes);
  const std::size_t count = (s.encoded.size() + s.extent_bytes - 1) / s.extent_bytes;
  s.digests.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t begin = i * s.extent_bytes;
    const std::size_t end = std::min(begin + s.extent_bytes, s.encoded.size());
    s.digests.push_back(util::fnv1a(BytesView(s.encoded.data() + begin, end - begin)));
  }
  s.sent.assign(count, false);
  s.acked.assign(count, false);

  Envelope d;
  d.kind = EnvelopeKind::kStateBulkDescriptor;
  d.target_group = group;
  d.op_seq = s.epoch;
  d.subject = s.subject;
  d.subject_node = node_;
  d.delta_base = inner.delta_base;
  d.chunk_count = static_cast<std::uint32_t>(count);
  d.transfer_id = s.transfer_id;
  d.total_bytes = s.encoded.size();
  d.extent_bytes = static_cast<std::uint32_t>(s.extent_bytes);
  d.extent_digests = s.digests;

  ETERNAL_LOG(kDebug, kTag,
              util::to_string(node_) << " bulk transfer " << s.transfer_id << ": "
                                     << s.encoded.size() << "B state epoch " << s.epoch
                                     << " in " << count << " extents to "
                                     << util::to_string(to));
  outgoing_bulk_[group.value] = std::move(s);
  stats_.bulk_transfers_started += 1;
  multicast(d);
  // Streaming starts when the descriptor self-delivers (and was first for
  // its epoch in the total order); the timer covers a descriptor that never
  // comes back (ring reformation ate it).
  arm_bulk_retry(group);
}

void Mechanisms::ship_bulk_extent(BulkSend& s, std::size_t index) {
  const std::size_t begin = index * s.extent_bytes;
  const std::size_t end = std::min(begin + s.extent_bytes, s.encoded.size());
  Envelope x;
  x.kind = EnvelopeKind::kBulkExtent;
  x.target_group = s.group;
  x.op_seq = s.epoch;
  x.subject = s.subject;
  x.subject_node = node_;
  x.chunk_index = static_cast<std::uint32_t>(index);
  x.chunk_count = static_cast<std::uint32_t>(s.digests.size());
  x.transfer_id = s.transfer_id;
  x.total_bytes = s.encoded.size();
  x.extent_bytes = static_cast<std::uint32_t>(s.extent_bytes);
  x.payload.assign(s.encoded.begin() + static_cast<std::ptrdiff_t>(begin),
                   s.encoded.begin() + static_cast<std::ptrdiff_t>(end));
  stats_.bulk_extents_sent += 1;
  bulk_lane_->send(node_, s.to, encode_envelope(x));
}

void Mechanisms::pump_bulk_send(BulkSend& s) {
  const std::size_t count = s.digests.size();
  if (s.acked_count >= count) {
    if (!s.marker_sent) {
      s.marker_sent = true;
      sim_.cancel(s.retry_timer);
      Envelope m;
      m.kind = EnvelopeKind::kStateBulkComplete;
      m.target_group = s.group;
      m.op_seq = s.epoch;
      m.subject = s.subject;
      m.subject_node = node_;
      m.delta_base = s.inner.delta_base;
      m.chunk_count = static_cast<std::uint32_t>(count);
      m.transfer_id = s.transfer_id;
      m.total_bytes = s.encoded.size();
      m.extent_bytes = static_cast<std::uint32_t>(s.extent_bytes);
      multicast(m);
    }
    return;
  }
  /// Extents in flight on the lane before waiting for acks.
  constexpr std::size_t kBulkCreditWindow = 4;
  static_assert(kBulkCreditWindow >= 1, "a 0 window would never ship an extent");
  while (s.next < count && s.inflight < kBulkCreditWindow) {
    const std::size_t i = s.next++;
    if (s.acked[i]) continue;  // satisfied from the receiver's stash
    s.sent[i] = true;
    s.inflight += 1;
    ship_bulk_extent(s, i);
  }
  arm_bulk_retry(s.group);
}

void Mechanisms::arm_bulk_retry(GroupId group) {
  auto it = outgoing_bulk_.find(group.value);
  if (it == outgoing_bulk_.end()) return;
  BulkSend& s = it->second;
  if (s.marker_sent) return;
  sim_.cancel(s.retry_timer);
  /// Re-send timeout for the oldest unacked extent.
  constexpr util::Duration kBulkRetryTimeout = util::Duration(10'000'000);  ///< 10 ms
  /// Consecutive retry rounds before the sender gives up and falls back to
  /// the in-band chunked path.
  constexpr std::size_t kBulkMaxRetries = 8;
  const std::uint64_t id = s.transfer_id;
  s.retry_timer = sim_.schedule(kBulkRetryTimeout, [this, group, id] {
    auto cur = outgoing_bulk_.find(group.value);
    if (cur == outgoing_bulk_.end() || cur->second.transfer_id != id) return;
    BulkSend& live = cur->second;
    if (live.marker_sent) return;
    live.retry_rounds += 1;
    stats_.bulk_extent_retries += 1;
    if (live.retry_rounds > kBulkMaxRetries) {
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " bulk transfer " << live.transfer_id
                                         << " exhausted retries; falling back in-band");
      abort_bulk_send(group, /*fallback=*/true);
      return;
    }
    // Re-ship everything in flight; lost acks are answered with re-acks.
    for (std::size_t i = 0; i < live.digests.size(); ++i) {
      if (live.sent[i] && !live.acked[i]) ship_bulk_extent(live, i);
    }
    if (live.streaming) pump_bulk_send(live);
    arm_bulk_retry(group);
  });
}

void Mechanisms::abort_bulk_send(GroupId group, bool fallback) {
  auto it = outgoing_bulk_.find(group.value);
  if (it == outgoing_bulk_.end()) return;
  sim_.cancel(it->second.retry_timer);
  stats_.bulk_transfers_aborted += 1;
  Envelope inner = std::move(it->second.inner);
  outgoing_bulk_.erase(it);
  if (fallback) {
    // Same epoch: the recoverer's epoch window has not consumed it, so the
    // chunked re-publish lands at the cut the get_state reserved.
    stats_.bulk_fallbacks_chunked += 1;
    start_chunked_send(group, inner);
  }
}

void Mechanisms::deliver_bulk_descriptor(const Envelope& e) {
  // Sender-side coordination happens at the descriptor's ordered position.
  auto out = outgoing_bulk_.find(e.target_group.value);
  if (out != outgoing_bulk_.end()) {
    BulkSend& s = out->second;
    if (e.subject_node == node_ && e.transfer_id == s.transfer_id) {
      if (!s.streaming) {
        s.streaming = true;
        pump_bulk_send(s);
      }
    } else if (e.op_seq == s.epoch && !s.streaming) {
      // In active replication every operational member answers the same
      // retrieval; a rival's descriptor ordered before ours means the
      // receiver keyed its reassembly to the rival. Stand down silently —
      // the rival's marker (or its fallback) completes the epoch.
      abort_bulk_send(e.target_group, /*fallback=*/false);
    }
  }
  rec_.record(node_, obs::Layer::kMech, "bulk_descriptor", e.op_seq,
              {{"group", e.target_group.value},
               {"transfer", e.transfer_id},
               {"extents", e.chunk_count},
               {"bytes", e.total_bytes}});

  // Only the recoverer assembles; everyone else needs just the marker.
  LocalReplica* r = local_replica(e.target_group);
  if (r == nullptr || r->id != e.subject || r->phase != Phase::kRecovering) return;
  if (set_state_seen_[e.target_group.value].seen(e.op_seq)) return;  // already applied
  const auto key = std::make_pair(e.target_group.value, e.op_seq);
  if (incoming_bulk_.count(key) > 0) return;  // first descriptor wins

  // A newer-epoch attempt supersedes stalled older ones for us; bank their
  // verified extents for the resume pre-fill below.
  for (auto it = incoming_bulk_.begin(); it != incoming_bulk_.end();) {
    if (it->first.first == key.first && it->second.subject == e.subject &&
        it->first.second < e.op_seq) {
      stats_.bulk_transfers_aborted += 1;
      stash_bulk_reassembly(key.first, it->second);
      it = incoming_bulk_.erase(it);
    } else {
      ++it;
    }
  }

  BulkReassembly& re = incoming_bulk_[key];
  re.transfer_id = e.transfer_id;
  re.sender = e.subject_node;
  re.subject = e.subject;
  re.total_bytes = e.total_bytes;
  re.extent_bytes = e.extent_bytes;
  re.digests = e.extent_digests;
  re.parts.resize(e.chunk_count);

  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().bulk_descriptor(e.target_group, e.subject, sim_.now(),
                                      e.chunk_count, e.total_bytes);
  }

  // Resume: pre-fill from a prior attempt's verified extents. The digest
  // match makes this sound across senders — only byte-identical slices at
  // identical offsets are reused, and the ack tells the (new) sender to skip
  // them.
  auto st = bulk_stash_.find({key.first, e.subject.value});
  if (st != bulk_stash_.end()) {
    for (std::size_t i = 0; i < re.parts.size(); ++i) {
      auto hit = st->second.find(re.digests[i]);
      if (hit == st->second.end()) continue;
      const std::uint64_t offset = static_cast<std::uint64_t>(i) * re.extent_bytes;
      const std::uint64_t expected =
          std::min<std::uint64_t>(re.extent_bytes, re.total_bytes - offset);
      if (hit->second.size() != expected) continue;
      re.parts[i] = hit->second;
      re.received += 1;
      stats_.bulk_extents_resumed += 1;
      Envelope ack;
      ack.kind = EnvelopeKind::kBulkAck;
      ack.target_group = e.target_group;
      ack.op_seq = e.op_seq;
      ack.subject = e.subject;
      ack.subject_node = node_;
      ack.chunk_index = static_cast<std::uint32_t>(i);
      ack.chunk_count = static_cast<std::uint32_t>(re.parts.size());
      ack.transfer_id = re.transfer_id;
      if (bulk_lane_ != nullptr) bulk_lane_->send(node_, re.sender, encode_envelope(ack));
    }
    if (re.received > 0) {
      ETERNAL_LOG(kDebug, kTag,
                  util::to_string(node_) << " bulk transfer " << re.transfer_id << " resumed "
                                         << re.received << "/" << re.parts.size()
                                         << " extents from stash");
    }
    if (re.received == re.parts.size()) {
      if (obs::SpanStore* spans = rec_.spans()) {
        spans->recovery().bulk_streamed(e.target_group, e.subject, sim_.now());
      }
    }
  }
}

void Mechanisms::on_bulk(NodeId from, util::BytesView payload) {
  std::optional<Envelope> env = decode_envelope(payload);
  if (!env) {
    ETERNAL_LOG(kWarn, kTag, "malformed bulk-lane frame; dropped");
    return;
  }
  switch (env->kind) {
    case EnvelopeKind::kBulkExtent: handle_bulk_extent(from, *env); return;
    case EnvelopeKind::kBulkAck: handle_bulk_ack(*env); return;
    default:
      // Ordered kinds have no business on the lane; ignore them so a
      // confused or malicious peer cannot smuggle around the total order.
      return;
  }
}

void Mechanisms::handle_bulk_extent(NodeId from, const Envelope& e) {
  const auto key = std::make_pair(e.target_group.value, e.op_seq);
  auto it = incoming_bulk_.find(key);
  if (it == incoming_bulk_.end()) return;  // unknown/superseded: no ack, sender retries
  BulkReassembly& re = it->second;
  if (re.transfer_id != e.transfer_id || re.sender != from) return;
  if (e.chunk_count != re.parts.size() || e.chunk_index >= re.parts.size() ||
      e.total_bytes != re.total_bytes || e.extent_bytes != re.extent_bytes) {
    return;
  }

  Envelope ack;
  ack.kind = EnvelopeKind::kBulkAck;
  ack.target_group = e.target_group;
  ack.op_seq = e.op_seq;
  ack.subject = re.subject;
  ack.subject_node = node_;
  ack.chunk_index = e.chunk_index;
  ack.chunk_count = e.chunk_count;
  ack.transfer_id = e.transfer_id;

  if (!re.parts[e.chunk_index].empty()) {
    // Duplicate: our earlier ack was lost on the lane. Re-ack, don't re-verify.
    if (bulk_lane_ != nullptr) bulk_lane_->send(node_, from, encode_envelope(ack));
    return;
  }
  if (util::fnv1a(e.payload) != re.digests[e.chunk_index]) {
    stats_.bulk_digest_mismatches += 1;
    ETERNAL_LOG(kWarn, kTag,
                util::to_string(node_) << " bulk extent " << e.chunk_index << " of transfer "
                                       << e.transfer_id << " failed digest verify; dropped");
    return;  // no ack — the sender re-ships it (or exhausts and falls back)
  }
  re.parts[e.chunk_index] = e.payload;
  re.received += 1;
  stats_.bulk_extents_received += 1;
  if (obs::SpanStore* spans = rec_.spans()) {
    spans->recovery().bulk_extent(e.target_group, re.subject, sim_.now(), e.chunk_index,
                                  e.chunk_count, e.payload.size());
  }
  if (bulk_lane_ != nullptr) bulk_lane_->send(node_, from, encode_envelope(ack));
  if (re.received == re.parts.size()) {
    if (obs::SpanStore* spans = rec_.spans()) {
      spans->recovery().bulk_streamed(e.target_group, re.subject, sim_.now());
    }
  }
}

void Mechanisms::handle_bulk_ack(const Envelope& e) {
  auto it = outgoing_bulk_.find(e.target_group.value);
  if (it == outgoing_bulk_.end()) return;
  BulkSend& s = it->second;
  if (s.transfer_id != e.transfer_id) return;
  if (e.chunk_index >= s.acked.size() || s.acked[e.chunk_index]) return;
  s.acked[e.chunk_index] = true;
  s.acked_count += 1;
  if (s.sent[e.chunk_index] && s.inflight > 0) s.inflight -= 1;
  s.retry_rounds = 0;  // forward progress
  // Resume acks can land before our descriptor self-delivers; hold the
  // stream (and the marker) until the ordered start, as the rival-descriptor
  // stand-down is decided there.
  if (s.streaming) pump_bulk_send(s);
}

void Mechanisms::deliver_bulk_marker(const Envelope& e) {
  // Sender bookkeeping at the marker's ordered position: the transfer is
  // done (deliver_set_state below also stands down any same-epoch rival).
  auto out = outgoing_bulk_.find(e.target_group.value);
  if (out != outgoing_bulk_.end() && out->second.transfer_id == e.transfer_id) {
    sim_.cancel(out->second.retry_timer);
    outgoing_bulk_.erase(out);
  }
  if (set_state_seen_[e.target_group.value].seen(e.op_seq)) return;  // duplicate epoch

  // The recoverer substitutes the reassembled inner envelope; every other
  // node synthesizes a skeleton carrying the marker's metadata. Both run
  // deliver_set_state at this same total-order position, so the replicated
  // group table transitions identically everywhere.
  std::optional<Envelope> inner;
  bool incomplete_at_recoverer = false;
  const auto key = std::make_pair(e.target_group.value, e.op_seq);
  auto in = incoming_bulk_.find(key);
  if (in != incoming_bulk_.end() && in->second.transfer_id == e.transfer_id) {
    BulkReassembly& re = in->second;
    if (re.received == re.parts.size()) {
      Bytes encoded;
      encoded.reserve(re.total_bytes);
      for (const Bytes& part : re.parts) {
        encoded.insert(encoded.end(), part.begin(), part.end());
      }
      inner = decode_envelope(encoded);
      if (!inner || inner->kind != EnvelopeKind::kSetState) {
        // Every extent digest verified, so this means the descriptor itself
        // described garbage. Unreachable from our own sender; counted, and
        // recovery is re-served by the coordinator path.
        inner.reset();
        incomplete_at_recoverer = true;
        stats_.state_transfer_failures += 1;
        ETERNAL_LOG(kWarn, kTag, "malformed reassembled bulk envelope; dropped");
      }
    } else {
      // Protocol-unreachable (the marker follows the last ack); defensive.
      incomplete_at_recoverer = true;
      stats_.bulk_transfers_aborted += 1;
      stash_bulk_reassembly(key.first, re);
      ETERNAL_LOG(kWarn, kTag,
                  util::to_string(node_) << " bulk marker for transfer " << e.transfer_id
                                         << " with incomplete reassembly");
    }
    incoming_bulk_.erase(in);
  }

  if (inner.has_value()) {
    stats_.bulk_transfers_completed += 1;
    deliver_set_state(*inner);
    return;
  }

  Envelope skeleton;
  skeleton.kind = EnvelopeKind::kSetState;
  skeleton.target_group = e.target_group;
  skeleton.op_seq = e.op_seq;
  skeleton.subject = e.subject;
  skeleton.subject_node = e.subject_node;
  skeleton.delta_base = e.delta_base;
  LocalReplica* r = local_replica(e.target_group);
  if (r != nullptr && r->id == e.subject && r->phase == Phase::kRecovering) {
    // We are the recoverer but hold no usable image (GC'd reassembly, or the
    // decode failure above). Applying an empty skeleton would install empty
    // state into the servant; instead keep only the replicated-table side
    // consistent (every other node applies the skeleton) and leave the
    // replica recovering. Protocol-unreachable — the marker follows the last
    // verified ack — so this trades a visible stall for silent corruption.
    if (!incomplete_at_recoverer) stats_.state_transfer_failures += 1;
    set_state_seen_[e.target_group.value].test_and_insert(e.op_seq);
    react(table_.apply_state_transfer(skeleton));
    awaiting_get_state_[e.target_group.value].erase(e.subject.value);
    return;
  }
  deliver_set_state(skeleton);
}

void Mechanisms::stash_bulk_reassembly(std::uint32_t group, BulkReassembly& re) {
  auto& stash = bulk_stash_[{group, re.subject.value}];
  for (std::size_t i = 0; i < re.parts.size(); ++i) {
    if (re.parts[i].empty()) continue;
    stash[re.digests[i]] = std::move(re.parts[i]);
  }
}

void Mechanisms::gc_bulk_incoming(std::uint32_t group, ReplicaId subject,
                                  std::uint64_t applied_epoch) {
  for (auto it = incoming_bulk_.begin(); it != incoming_bulk_.end();) {
    if (it->first.first == group && it->second.subject == subject &&
        (applied_epoch == 0 || it->first.second <= applied_epoch)) {
      stats_.bulk_transfers_aborted += 1;
      it = incoming_bulk_.erase(it);
    } else {
      ++it;
    }
  }
  bulk_stash_.erase({group, subject.value});
}

}  // namespace eternal::core
