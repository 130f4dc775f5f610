// Eternal envelope + descriptor + snapshot wire formats, SeqWindow, and the
// MessageLog's checkpoint-overwrite semantics.
#include <gtest/gtest.h>

#include <iterator>
#include <limits>
#include <optional>
#include <set>

#include "core/envelope.hpp"
#include "core/group_table.hpp"
#include "core/message_log.hpp"
#include "core/seq_window.hpp"
#include "core/state_snapshots.hpp"
#include "giop/giop.hpp"
#include "orb/orb.hpp"
#include "sim/ethernet.hpp"
#include "totem/frames.hpp"
#include "totem/seq_store.hpp"
#include "totem/totem.hpp"
#include "util/rng.hpp"
#include "util/seq_map.hpp"

namespace eternal::core {
namespace {

using util::Bytes;
using util::GroupId;
using util::NodeId;
using util::ReplicaId;

TEST(Envelope, FullRoundTrip) {
  Envelope e;
  e.kind = EnvelopeKind::kSetState;
  e.client_group = GroupId{3};
  e.target_group = GroupId{9};
  e.op_seq = 0xDEADBEEF12ULL;
  e.subject = ReplicaId{77};
  e.subject_node = NodeId{4};
  e.control_op = ControlOp::kAddReplica;
  e.delta_base = 0xABCDULL;
  e.payload = Bytes{1, 2, 3};
  e.orb_state = Bytes{4, 5};
  e.infra_state = Bytes{6};
  e.control_data = Bytes{7, 8, 9, 10};

  auto d = decode_envelope(encode_envelope(e));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, e.kind);
  EXPECT_EQ(d->client_group, e.client_group);
  EXPECT_EQ(d->target_group, e.target_group);
  EXPECT_EQ(d->op_seq, e.op_seq);
  EXPECT_EQ(d->subject, e.subject);
  EXPECT_EQ(d->subject_node, e.subject_node);
  EXPECT_EQ(d->control_op, e.control_op);
  EXPECT_EQ(d->delta_base, e.delta_base);
  EXPECT_EQ(d->payload, e.payload);
  EXPECT_EQ(d->orb_state, e.orb_state);
  EXPECT_EQ(d->infra_state, e.infra_state);
  EXPECT_EQ(d->control_data, e.control_data);
}


TEST(Envelope, StateChunkRoundTrip) {
  Envelope e;
  e.kind = EnvelopeKind::kStateChunk;
  e.target_group = GroupId{5};
  e.op_seq = 12;
  e.subject = ReplicaId{3};
  e.subject_node = NodeId{2};
  e.chunk_index = 4;
  e.chunk_count = 9;
  e.payload = Bytes(100, 0xC4);

  auto d = decode_envelope(encode_envelope(e));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->kind, EnvelopeKind::kStateChunk);
  EXPECT_EQ(d->chunk_index, 4u);
  EXPECT_EQ(d->chunk_count, 9u);
  EXPECT_EQ(d->payload, e.payload);
}

TEST(Envelope, StateChunkGeometryValidated) {
  Envelope e;
  e.kind = EnvelopeKind::kStateChunk;
  e.chunk_index = 0;
  e.chunk_count = 0;  // a chunked transfer always has >= 1 chunk
  EXPECT_FALSE(decode_envelope(encode_envelope(e)).has_value());
  e.chunk_index = 3;
  e.chunk_count = 3;  // index out of range
  EXPECT_FALSE(decode_envelope(encode_envelope(e)).has_value());
  e.chunk_index = 2;
  EXPECT_TRUE(decode_envelope(encode_envelope(e)).has_value());
}

TEST(Envelope, InitialMembersRoundTrip) {
  std::vector<InitialMember> members{{ReplicaId{1}, NodeId{10}}, {ReplicaId{2}, NodeId{20}}};
  auto decoded = decode_initial_members(encode_initial_members(members));
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[1].id, ReplicaId{2});
  EXPECT_EQ(decoded[1].node, NodeId{20});
  EXPECT_TRUE(decode_initial_members(Bytes{}).empty());
}

/// One envelope of every kind the decoder accepts, with every blob it can
/// carry filled in.
std::vector<Envelope> envelope_samples() {
  std::vector<Envelope> out;
  Envelope base;
  base.ring = 3;
  base.client_group = GroupId{4};
  base.target_group = GroupId{11};
  base.op_seq = 0x0102030405ULL;
  base.subject = ReplicaId{77};
  base.subject_node = NodeId{6};
  base.control_op = ControlOp::kLaunchReplica;
  base.delta_base = 9;
  base.payload = Bytes{1, 2, 3, 4, 5};
  base.orb_state = Bytes{6, 7};
  base.infra_state = Bytes{8};
  base.control_data = Bytes{9, 10, 11};
  for (EnvelopeKind kind :
       {EnvelopeKind::kRequest, EnvelopeKind::kReply, EnvelopeKind::kGetState,
        EnvelopeKind::kSetState, EnvelopeKind::kCheckpoint, EnvelopeKind::kControl}) {
    Envelope e = base;
    e.kind = kind;
    out.push_back(e);
  }
  Envelope chunk = base;
  chunk.kind = EnvelopeKind::kStateChunk;
  chunk.chunk_index = 2;
  chunk.chunk_count = 5;
  out.push_back(chunk);
  Envelope bulk = base;
  bulk.transfer_id = 42;
  bulk.total_bytes = 100;
  bulk.extent_bytes = 40;
  bulk.chunk_count = 3;
  bulk.kind = EnvelopeKind::kStateBulkDescriptor;
  bulk.extent_digests = {0x1111, 0x2222222222ULL, 0xFFFFFFFFFFFFFFFFULL};
  out.push_back(bulk);
  bulk.extent_digests.clear();
  bulk.kind = EnvelopeKind::kStateBulkComplete;
  out.push_back(bulk);
  bulk.kind = EnvelopeKind::kBulkExtent;
  bulk.chunk_index = 2;
  bulk.payload = Bytes(20, 0xEE);  // the last extent: 100 - 2 * 40
  out.push_back(bulk);
  bulk.kind = EnvelopeKind::kBulkAck;
  bulk.payload.clear();
  out.push_back(bulk);
  return out;
}

// The view borrows every blob from the decoded buffer; owning it (or
// decode_envelope) reproduces the encoded envelope exactly, for every kind.
TEST(EnvelopeView, BorrowsFromTheBufferAndOwnsExactly) {
  for (const Envelope& e : envelope_samples()) {
    const Bytes wire = encode_envelope(e);
    const auto view = decode_envelope_view(wire);
    ASSERT_TRUE(view.has_value()) << static_cast<int>(e.kind);
    for (BytesView blob : {view->payload, view->orb_state, view->infra_state,
                           view->control_data}) {
      if (blob.empty()) continue;
      EXPECT_GE(blob.data(), wire.data());
      EXPECT_LE(blob.data() + blob.size(), wire.data() + wire.size());
    }
    EXPECT_EQ(view->own(), e) << static_cast<int>(e.kind);
    EXPECT_EQ(decode_envelope(wire), e) << static_cast<int>(e.kind);
  }
}

TEST(Envelope, RejectsMalformed) {
  Bytes bad_kind = encode_envelope(Envelope{});
  bad_kind[1] = 99;
  Envelope descriptor = envelope_samples()[7];
  ASSERT_EQ(descriptor.kind, EnvelopeKind::kStateBulkDescriptor);
  descriptor.extent_digests.pop_back();  // digest count must match the grid
  for (const Bytes& wire : {Bytes{}, Bytes{0, 1}, bad_kind, encode_envelope(descriptor)}) {
    EXPECT_FALSE(decode_envelope(wire).has_value());
    EXPECT_FALSE(decode_envelope_view(wire).has_value());
  }
}

TEST(Descriptor, RoundTrip) {
  GroupDescriptor d;
  d.id = GroupId{5};
  d.object_id = "ledger";
  d.type_id = "IDL:Ledger:1.0";
  d.properties.style = ReplicationStyle::kColdPassive;
  d.properties.initial_replicas = 1;
  d.properties.minimum_replicas = 1;
  d.properties.checkpoint_interval = util::Duration(123'456);
  d.properties.fault_monitoring_interval = util::Duration(789);
  d.backup_nodes = {NodeId{2}, NodeId{3}};

  auto decoded = decode_descriptor(encode_descriptor(d));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, d.id);
  EXPECT_EQ(decoded->object_id, "ledger");
  EXPECT_EQ(decoded->properties.style, ReplicationStyle::kColdPassive);
  EXPECT_EQ(decoded->properties.checkpoint_interval, util::Duration(123'456));
  EXPECT_EQ(decoded->backup_nodes.size(), 2u);
}

TEST(SeqWindow, DetectsDuplicatesAndCompacts) {
  SeqWindow w;
  EXPECT_TRUE(w.test_and_insert(0));
  EXPECT_TRUE(w.test_and_insert(1));
  EXPECT_FALSE(w.test_and_insert(0));
  EXPECT_FALSE(w.test_and_insert(1));
  EXPECT_EQ(w.contiguous_prefix(), 2u);
  EXPECT_EQ(w.sparse_size(), 0u);
}

TEST(SeqWindow, OutOfOrderInsertsCompactLater) {
  SeqWindow w;
  EXPECT_TRUE(w.test_and_insert(2));
  EXPECT_TRUE(w.test_and_insert(0));
  EXPECT_EQ(w.contiguous_prefix(), 1u);
  EXPECT_EQ(w.sparse_size(), 1u);
  EXPECT_TRUE(w.test_and_insert(1));
  EXPECT_EQ(w.contiguous_prefix(), 3u);
  EXPECT_EQ(w.sparse_size(), 0u);
  EXPECT_FALSE(w.test_and_insert(2));
}

TEST(SeqWindow, SeenQueries) {
  SeqWindow w;
  w.test_and_insert(0);
  w.test_and_insert(5);
  EXPECT_TRUE(w.seen(0));
  EXPECT_TRUE(w.seen(5));
  EXPECT_FALSE(w.seen(3));
}

TEST(SeqWindow, EncodeDecodePreservesState) {
  SeqWindow w;
  w.test_and_insert(0);
  w.test_and_insert(1);
  w.test_and_insert(7);
  util::CdrWriter enc;
  w.encode(enc);
  util::CdrReader r(enc.bytes(), enc.order());
  SeqWindow d = SeqWindow::decode(r);
  EXPECT_EQ(d, w);
  EXPECT_FALSE(d.test_and_insert(7));
  EXPECT_TRUE(d.test_and_insert(2));
}

/// SeqWindow's reference model: every number below `base` counts as seen
/// (the state a decoded window starts from), plus an explicit set above it.
struct SeqReference {
  std::uint64_t base = 0;
  std::set<std::uint64_t> seen_above;

  bool seen(std::uint64_t s) const { return s < base || seen_above.count(s) > 0; }
  bool test_and_insert(std::uint64_t s) {
    if (seen(s)) return false;
    seen_above.insert(s);
    return true;
  }
  /// The lowest unseen number, saturating at UINT64_MAX.
  std::uint64_t prefix() const {
    std::uint64_t p = base;
    while (p != std::numeric_limits<std::uint64_t>::max() && seen_above.count(p) > 0) ++p;
    return p;
  }
  Bytes encode() const {
    const std::uint64_t p = prefix();
    util::CdrWriter w;
    w.put_u64(p);
    const auto from = seen_above.lower_bound(p);
    w.put_u32(static_cast<std::uint32_t>(std::distance(from, seen_above.end())));
    for (auto it = from; it != seen_above.end(); ++it) w.put_u64(*it);
    return std::move(w).take();
  }
};

SeqWindow window_at(std::uint64_t base) {
  util::CdrWriter w;
  w.put_u64(base);
  w.put_u32(0);
  util::CdrReader r(w.bytes(), w.order());
  return SeqWindow::decode(r);
}

void expect_matches(const SeqWindow& w, const SeqReference& ref,
                    const std::vector<std::uint64_t>& probes) {
  ASSERT_EQ(w.contiguous_prefix(), ref.prefix());
  util::CdrWriter enc;
  w.encode(enc);
  ASSERT_EQ(enc.bytes(), ref.encode());
  for (std::uint64_t p : probes) ASSERT_EQ(w.seen(p), ref.seen(p)) << p;
}

/// Feeds `seqs` to a window and the reference from `base`; every answer,
/// the prefix, seen() over `seqs` and the encoded bytes must agree.
void check_against_reference(std::uint64_t base, const std::vector<std::uint64_t>& seqs) {
  SeqWindow w = window_at(base);
  SeqReference ref{base, {}};
  for (std::uint64_t s : seqs) {
    ASSERT_EQ(w.test_and_insert(s), ref.test_and_insert(s)) << "seq " << s;
    expect_matches(w, ref, {s, s - 1, s + 1, base});
  }
  expect_matches(w, ref, seqs);
}

TEST(SeqWindow, MatchesSetReference) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  util::Rng rng(0x5E9);
  std::vector<std::uint64_t> in_order;
  for (std::uint64_t s = 0; s < 200; ++s) in_order.push_back(s);
  check_against_reference(0, in_order);

  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint64_t> shuffled = in_order;
    for (std::size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1], shuffled[rng.below(i)]);
    }
    check_against_reference(0, shuffled);

    // Mostly in order with duplicates, reordering and gaps.
    std::vector<std::uint64_t> mixed;
    std::uint64_t next = 0;
    for (int i = 0; i < 300; ++i) {
      switch (rng.below(4)) {
        case 0: mixed.push_back(next > 0 ? next - 1 - rng.below(next) : 0); break;
        case 1: mixed.push_back(next + 1 + rng.below(5)); break;
        default: mixed.push_back(next++); break;
      }
    }
    check_against_reference(0, mixed);
  }

  // The top of the sequence space: in order up to and past UINT64_MAX's
  // neighbourhood, shuffled, with duplicates of the maximum itself.
  for (std::uint64_t start : {kMax - 40, kMax - 1, kMax}) {
    std::vector<std::uint64_t> top;
    for (std::uint64_t s = start;; ++s) {
      top.push_back(s);
      if (s == kMax) break;
    }
    check_against_reference(start, top);
    top.push_back(kMax);
    top.push_back(start);
    for (std::size_t i = top.size(); i > 1; --i) std::swap(top[i - 1], top[rng.below(i)]);
    check_against_reference(start, top);
    check_against_reference(start - 5, top);
  }
}

TEST(SeqWindow, MergeMatchesSetUnionReference) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  util::Rng rng(0x3E76);
  // A window and its reference, fed `count` numbers around `base`: in order,
  // duplicates, reordering and gaps.
  const auto build = [&](std::uint64_t base, std::uint64_t span, int count,
                         std::vector<std::uint64_t>& fed) {
    SeqWindow w = window_at(base);
    SeqReference ref{base, {}};
    for (int i = 0; i < count; ++i) {
      const std::uint64_t s = base - std::min<std::uint64_t>(base, 3) +
                              rng.below(std::min<std::uint64_t>(span, kMax - base) + 4);
      fed.push_back(s);
      EXPECT_EQ(w.test_and_insert(s), ref.test_and_insert(s));
    }
    return std::make_pair(w, ref);
  };
  const auto check = [&](std::uint64_t base_a, std::uint64_t base_b, std::uint64_t span,
                         int count) {
    std::vector<std::uint64_t> probes{base_a, base_b, base_a + 1, base_b + 1};
    auto [a, ref_a] = build(base_a, span, count, probes);
    auto [b, ref_b] = build(base_b, span, count, probes);
    SeqReference ref_union{std::max(ref_a.base, ref_b.base), ref_a.seen_above};
    ref_union.seen_above.insert(ref_b.seen_above.begin(), ref_b.seen_above.end());
    SeqWindow ab = a;
    ab.merge(b);
    expect_matches(ab, ref_union, probes);
    SeqWindow ba = b;
    ba.merge(a);
    EXPECT_EQ(ba, ab);  // the union does not depend on the order
    SeqWindow again = ab;
    again.merge(b);
    EXPECT_EQ(again, ab);  // nor on merging a window twice
  };
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t base_a = rng.below(40);
    const std::uint64_t base_b = rng.below(40);
    check(base_a, base_b, 40, static_cast<int>(rng.below(60)));
  }
  // One window far ahead of the other: the larger prefix covers the other's
  // sparse numbers below it.
  check(0, 500, 40, 50);
  check(500, 0, 40, 50);
  // The top of the sequence space, where the prefix saturates.
  for (int round = 0; round < 20; ++round) {
    check(kMax - rng.below(10), kMax - rng.below(10), 10, static_cast<int>(rng.below(20)));
  }
}

TEST(MessageLog, CheckpointOverwritesAndTruncates) {
  MessageLog log;
  Envelope m1, m2;
  m1.op_seq = 1;
  m2.op_seq = 2;
  log.append(m1);
  log.append(m2);
  EXPECT_EQ(log.messages().size(), 2u);

  Envelope ckpt;
  ckpt.kind = EnvelopeKind::kCheckpoint;
  ckpt.op_seq = 10;
  log.set_checkpoint(ckpt);
  // No mark recorded for epoch 10 → everything logged so far is covered.
  EXPECT_TRUE(log.messages().empty());
  ASSERT_TRUE(log.checkpoint().has_value());
  EXPECT_EQ(log.checkpoints_taken(), 1u);
}

TEST(MessageLog, MarkLimitsTruncation) {
  MessageLog log;
  Envelope m1, m2, m3;
  m1.op_seq = 1;
  m2.op_seq = 2;
  m3.op_seq = 3;
  log.append(m1);
  log.mark(/*epoch=*/5);  // the checkpoint's get_state position: covers m1 only
  log.append(m2);
  log.append(m3);

  Envelope ckpt;
  ckpt.op_seq = 5;
  log.set_checkpoint(ckpt);
  ASSERT_EQ(log.messages().size(), 2u);
  EXPECT_EQ(log.messages()[0].op_seq, 2u);
  EXPECT_EQ(log.messages()[1].op_seq, 3u);
}

TEST(MessageLog, LaterMarksRebasedAfterTruncation) {
  MessageLog log;
  Envelope m;
  m.op_seq = 1;
  log.append(m);
  log.mark(5);
  m.op_seq = 2;
  log.append(m);
  log.mark(6);
  m.op_seq = 3;
  log.append(m);

  Envelope ckpt5;
  ckpt5.op_seq = 5;
  log.set_checkpoint(ckpt5);  // drops message 1; mark 6 rebases to cover message 2
  ASSERT_EQ(log.messages().size(), 2u);

  Envelope ckpt6;
  ckpt6.op_seq = 6;
  log.set_checkpoint(ckpt6);
  ASSERT_EQ(log.messages().size(), 1u);
  EXPECT_EQ(log.messages()[0].op_seq, 3u);
}

TEST(MessageLog, TakeFrontReplaysInOrder) {
  MessageLog log;
  for (std::uint64_t i = 1; i <= 3; ++i) {
    Envelope m;
    m.op_seq = i;
    log.append(m);
  }
  EXPECT_EQ(log.take_front().op_seq, 1u);
  EXPECT_EQ(log.take_front().op_seq, 2u);
  EXPECT_EQ(log.take_front().op_seq, 3u);
  EXPECT_TRUE(log.empty());
}

TEST(MessageLog, BytesAccountsCheckpointAndMessages) {
  MessageLog log;
  Envelope m;
  m.payload = Bytes(100, 1);
  log.append(m);
  EXPECT_EQ(log.bytes(), 100u);
  Envelope ckpt;
  ckpt.payload = Bytes(500, 2);
  ckpt.orb_state = Bytes(50, 3);
  log.set_checkpoint(ckpt);
  EXPECT_EQ(log.bytes(), 550u);
}

TEST(MessageLog, DeltaChainsOnBaseAndTruncates) {
  MessageLog log;
  Envelope base;
  base.kind = EnvelopeKind::kCheckpoint;
  base.op_seq = 5;
  log.set_checkpoint(base);
  EXPECT_EQ(log.base_epoch(), 5u);
  EXPECT_EQ(log.tip_epoch(), 5u);

  Envelope m;
  m.op_seq = 1;
  log.append(m);
  log.mark(8);
  m.op_seq = 2;
  log.append(m);

  Envelope delta;
  delta.kind = EnvelopeKind::kCheckpoint;
  delta.op_seq = 8;
  delta.delta_base = 5;
  EXPECT_TRUE(log.set_checkpoint(delta));
  EXPECT_EQ(log.base_epoch(), 5u);
  EXPECT_EQ(log.tip_epoch(), 8u);
  EXPECT_EQ(log.chain_length(), 1u);
  // The delta covers the messages before its mark, exactly like a full one.
  ASSERT_EQ(log.messages().size(), 1u);
  EXPECT_EQ(log.messages()[0].op_seq, 2u);
}

TEST(MessageLog, UnappliableDeltaRejectedWithoutMutation) {
  MessageLog log;
  Envelope delta;
  delta.op_seq = 8;
  delta.delta_base = 5;
  // No base at all: nothing to chain on.
  EXPECT_FALSE(log.set_checkpoint(delta));
  EXPECT_FALSE(log.checkpoint().has_value());

  Envelope base;
  base.op_seq = 5;
  log.set_checkpoint(base);
  Envelope m;
  m.op_seq = 1;
  log.append(m);

  // Base epoch ahead of the delta's: the chain cannot absorb it.
  Envelope future;
  future.op_seq = 9;
  future.delta_base = 7;
  EXPECT_FALSE(log.set_checkpoint(future));
  // Epoch regression: a delta must advance the tip.
  Envelope stale;
  stale.op_seq = 5;
  stale.delta_base = 5;
  EXPECT_FALSE(log.set_checkpoint(stale));
  // Rejection never mutates: messages and chain are untouched.
  EXPECT_EQ(log.messages().size(), 1u);
  EXPECT_EQ(log.chain_length(), 0u);
  EXPECT_EQ(log.tip_epoch(), 5u);
}

TEST(MessageLog, FullCheckpointClearsChain) {
  MessageLog log;
  Envelope base;
  base.op_seq = 5;
  log.set_checkpoint(base);
  for (std::uint64_t epoch = 6; epoch <= 8; ++epoch) {
    Envelope d;
    d.op_seq = epoch;
    d.delta_base = epoch - 1;
    ASSERT_TRUE(log.set_checkpoint(d));
  }
  EXPECT_EQ(log.chain_length(), 3u);
  EXPECT_EQ(log.bytes(), 0u);

  Envelope full;
  full.op_seq = 9;
  log.set_checkpoint(full);
  EXPECT_EQ(log.chain_length(), 0u);
  EXPECT_EQ(log.base_epoch(), 9u);
  EXPECT_EQ(log.tip_epoch(), 9u);
}

TEST(MessageLog, DeltaChainProperty) {
  // Property sweep: under a random mix of appends, marks, full and delta
  // checkpoints, the log's invariants hold — the tip never regresses, the
  // chain epochs are strictly increasing above the base, and a delta is
  // accepted exactly when it extends the reconstructable state.
  util::Rng rng(0xD317A);
  for (int round = 0; round < 50; ++round) {
    MessageLog log;
    std::uint64_t epoch = 0;
    std::uint64_t msg_seq = 0;
    for (int step = 0; step < 120; ++step) {
      const std::uint64_t tip_before = log.tip_epoch();
      const auto pick = rng.below(10);
      if (pick < 5) {
        Envelope m;
        m.op_seq = ++msg_seq;
        log.append(m);
      } else if (pick < 7) {
        log.mark(epoch + 1);
      } else {
        Envelope ckpt;
        ckpt.op_seq = ++epoch;
        if (rng.chance(0.6)) {
          // Sometimes a valid base (the current tip), sometimes garbage.
          // A zero tip makes delta_base 0 — legitimately a full checkpoint.
          ckpt.delta_base = rng.chance(0.7) ? log.tip_epoch() : epoch + 40;
        }
        const bool expect_ok =
            ckpt.delta_base == 0 ||
            (log.checkpoint().has_value() && ckpt.delta_base <= tip_before &&
             ckpt.op_seq > tip_before);
        EXPECT_EQ(log.set_checkpoint(ckpt), expect_ok);
      }
      EXPECT_GE(log.tip_epoch(), tip_before) << "tip regressed";
      std::uint64_t prev = log.base_epoch();
      for (const Envelope& d : log.delta_chain()) {
        EXPECT_GT(d.op_seq, prev) << "chain epochs not strictly increasing";
        EXPECT_LE(d.delta_base, prev) << "chain entry not applicable to its base";
        prev = d.op_seq;
      }
    }
  }
}

TEST(Snapshots, OrbLevelRoundTrip) {
  OrbLevelState s;
  ClientConnState c;
  c.server_group = GroupId{4};
  c.next_group_request_id = 351;
  c.handshake_done = true;
  c.handshake_request = Bytes{1, 2};
  c.handshake_reply = Bytes{3, 4, 5};
  s.client_conns.push_back(c);
  ServerConnState sv;
  sv.client = orb::Endpoint{NodeId{0xFF000001}, 2809};
  sv.handshake_request = Bytes{9, 9};
  s.server_conns.push_back(sv);

  auto d = decode_orb_state(encode_orb_state(s));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, s);
}

TEST(Snapshots, InfraLevelRoundTrip) {
  InfraLevelState s;
  InfraLevelState::RequestsFrom rf;
  rf.client_group = GroupId{2};
  rf.seen.test_and_insert(0);
  rf.seen.test_and_insert(1);
  rf.seen.test_and_insert(9);
  s.requests_seen.push_back(rf);
  InfraLevelState::RepliesFrom pf;
  pf.server_group = GroupId{5};
  pf.seen.test_and_insert(0);
  s.replies_seen.push_back(pf);
  s.outstanding.push_back(InfraLevelState::Outstanding{GroupId{5}, {42, 43}});

  auto d = decode_infra_state(encode_infra_state(s));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(*d, s);
}

TEST(Snapshots, EmptyBlobsDecodeToEmptyState) {
  EXPECT_TRUE(decode_orb_state(Bytes{})->client_conns.empty());
  EXPECT_TRUE(decode_infra_state(Bytes{})->requests_seen.empty());
}


// ------------------------------------------- retained delivery slice lifetime

/// The places the Mechanisms keep a delivered request or reply.
enum class Holder { kQueueItem, kLogEntry, kReplyCache, kOrbEvent };

class RetainedDelivery : public ::testing::TestWithParam<Holder> {};

TEST_P(RetainedDelivery, HolderOutlivesFrameSlotStoreEntryAndReplacement) {
  // A request envelope travels in one shared Totem frame and is kept by one
  // holder only. Then everything else that held the frame lets go: the
  // Ethernet slot is reused, a stale-frame replacement overwrites the store
  // entry, and garbage collection erases it. The holder must still read the
  // original bytes; under ASan, a holder that kept a plain view instead of
  // a slice is a use-after-free here.
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  orb::Orb orb(sim, NodeId{2}, orb::OrbConfig{});
  totem::SeqStore store;

  Envelope e;
  e.kind = EnvelopeKind::kRequest;
  e.client_group = GroupId{4};
  e.target_group = GroupId{6};
  e.op_seq = 11;
  e.payload = giop::encode(giop::CloseConnection{});
  const Bytes iiop = e.payload;

  struct Receiver : sim::Station {
    sim::Ethernet* ether = nullptr;
    totem::SeqStore* store = nullptr;
    void on_frame(NodeId, util::BytesView) override {
      auto frame = totem::decode_frame(*ether->lent_frame());
      ASSERT_TRUE(frame.has_value());
      store->insert(std::move(std::get<totem::DataFrame>(frame->body)));
    }
  } receiver;
  receiver.ether = &ether;
  receiver.store = &store;
  struct Silent : sim::Station {
    void on_frame(NodeId, util::BytesView) override {}
  } sender;
  ether.attach(NodeId{1}, &sender);
  ether.attach(NodeId{2}, &receiver);

  totem::DataFrame header;
  header.seq = 1;
  ether.broadcast(NodeId{1}, totem::encode_data_frame(NodeId{1}, header, encode_envelope(e)));
  sim.run();
  ASSERT_NE(store.find(1), nullptr);

  std::optional<RetainedEnvelope> queue_item;
  MessageLog log;
  util::SeqMap<util::SharedSlice> reply_cache;
  {
    // The delivery: decode a view, keep what this holder keeps.
    const util::SharedSlice delivered = store.find(1)->payload;
    const auto view = decode_envelope_view(delivered);
    ASSERT_TRUE(view.has_value());
    switch (GetParam()) {
      case Holder::kQueueItem: queue_item.emplace(*view, delivered); break;
      case Holder::kLogEntry: log.append(RetainedEnvelope(*view, delivered)); break;
      case Holder::kReplyCache:
        reply_cache.insert_or_assign(view->op_seq, delivered.sub(view->payload));
        break;
      case Holder::kOrbEvent:
        orb.on_message(orb::Endpoint{NodeId{1}}, delivered.sub(view->payload));
        break;
    }
  }

  // The frame's other holders let go.
  header.seq = 2;
  ether.broadcast(NodeId{1},
                  totem::encode_data_frame(NodeId{1}, header, Bytes(64, 0xEE)));  // slot reuse
  totem::DataFrame agreed;
  agreed.seq = 1;
  agreed.payload = util::SharedSlice::copy_of(Bytes(iiop.size(), 0x11));
  *store.find(1) = std::move(agreed);  // stale-frame replacement
  store.erase_below(2);                // garbage collection
  EXPECT_EQ(store.find(1), nullptr);

  switch (GetParam()) {
    case Holder::kQueueItem:
      EXPECT_EQ(queue_item->payload, iiop);
      EXPECT_EQ(queue_item->op_seq, 11u);
      break;
    case Holder::kLogEntry:
      ASSERT_EQ(log.messages().size(), 1u);
      EXPECT_EQ(log.messages()[0].payload, iiop);
      EXPECT_EQ(encode_envelope(log.messages()[0]), encode_envelope(e));
      break;
    case Holder::kReplyCache:
      ASSERT_NE(reply_cache.find(11), nullptr);
      EXPECT_EQ(*reply_cache.find(11), iiop);
      break;
    case Holder::kOrbEvent: break;
  }
  sim.run();  // a pending ORB event decodes the bytes it holds
  EXPECT_EQ(orb.stats().decode_errors, 0u);
}

INSTANTIATE_TEST_SUITE_P(Holders, RetainedDelivery,
                         ::testing::Values(Holder::kQueueItem, Holder::kLogEntry,
                                           Holder::kReplyCache, Holder::kOrbEvent));

// ------------------------------------------------ one encode per ring message

/// Envelopes of every kind, each with payloads of 0-9 bytes (every tail
/// padding), with and without the blobs that make an envelope encode flat,
/// plus messages of several fragments in both shapes.
std::vector<Envelope> wire_identity_cases(std::size_t fragment_capacity) {
  std::vector<Envelope> cases;
  for (std::uint8_t k = 1; k <= 11; ++k) {
    for (std::size_t len = 0; len <= 9; ++len) {
      Envelope e;
      e.kind = static_cast<EnvelopeKind>(k);
      e.ring = k % 3;
      e.client_group = GroupId{3};
      e.target_group = GroupId{static_cast<std::uint32_t>(10 + k)};
      e.op_seq = 1000 * k + len;
      e.subject = ReplicaId{len};
      e.subject_node = NodeId{2};
      e.delta_base = len % 2;
      e.chunk_index = static_cast<std::uint32_t>(len % 2);
      e.chunk_count = 2;
      e.payload = Bytes(len, static_cast<std::uint8_t>(0x30 + len));
      if (e.kind >= EnvelopeKind::kStateBulkDescriptor) {
        e.transfer_id = 77;
        e.total_bytes = 2 * len + 1;
        e.extent_bytes = static_cast<std::uint32_t>(len + 1);
        if (e.kind == EnvelopeKind::kStateBulkDescriptor) e.extent_digests = {11, 22};
      }
      if (len % 3 == 1 && (e.kind == EnvelopeKind::kSetState ||
                           e.kind == EnvelopeKind::kCheckpoint)) {
        e.orb_state = Bytes(len, 0xA1);
        e.infra_state = Bytes(len + 1, 0xA2);
      }
      if (len % 3 == 2 && e.kind == EnvelopeKind::kControl) e.control_data = Bytes(len, 0xC0);
      cases.push_back(std::move(e));
    }
  }
  Envelope big;
  big.kind = EnvelopeKind::kSetState;
  big.target_group = GroupId{5};
  big.op_seq = 9;
  big.payload = Bytes(3 * fragment_capacity + 5, 0x5E);  // moved as the body
  cases.push_back(big);
  big.orb_state = Bytes(7, 0x0B);  // encoded flat
  cases.push_back(big);
  big = Envelope{};
  big.kind = EnvelopeKind::kRequest;
  big.payload = Bytes(2 * fragment_capacity - 72, 0x7A);  // two fragments, the last near full
  cases.push_back(std::move(big));
  return cases;
}

class WireIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(WireIdentity, FramesMatchTheEncodedEnvelopeFragmentedTheOldWay) {
  // The send path lays each envelope out around its moved payload and
  // writes it straight into its Data frames. The oracle is the composition
  // it replaces: encode_envelope, then each fragment (or batch of whole
  // messages, packed) framed by encode_data_frame. Frame headers are taken
  // from the wire; every payload byte, and the grouping of messages into
  // frames, must match the oracle's.
  struct Sniffer : sim::Station {
    std::vector<Bytes> frames;
    void on_frame(NodeId, util::BytesView frame) override {
      std::optional<totem::Frame> decoded = totem::decode_frame(frame);
      if (decoded && decoded->type() == totem::FrameType::kData) {
        frames.emplace_back(frame.begin(), frame.end());
      }
    }
  } sniffer;
  struct Sink : totem::TotemListener {
    std::size_t delivered = 0;
    void on_deliver(const totem::Delivery&) override { ++delivered; }
    void on_view_change(const totem::View&) override {}
  } sink;
  const std::size_t window = GetParam();
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  totem::TotemConfig cfg;
  cfg.max_batch_msgs = window;
  totem::TotemNode node(sim, ether, NodeId{1}, cfg, &sink);
  ether.attach(NodeId{2}, &sniffer);
  node.start({NodeId{1}});
  sim.run_for(util::Duration(500'000));

  const std::size_t cap = node.fragment_capacity();
  const std::vector<Envelope> cases = wire_identity_cases(cap);
  std::vector<Bytes> encoded;  // the oracle's one encode per message
  std::uint64_t first_id = 0;
  for (const Envelope& e : cases) {
    encoded.push_back(encode_envelope(e));
    const std::uint64_t id = node.multicast(to_outbound(Envelope(e)));
    if (first_id == 0) first_id = id;
    ASSERT_EQ(id, first_id + encoded.size() - 1);
  }
  sim.run_for(util::Duration(50'000'000));
  ASSERT_EQ(node.backlog(), 0u);
  ASSERT_EQ(sink.delivered, cases.size());

  // The frames the old send path made of the queue, in order: the messages
  // each carries (first index, count) and its fragment index.
  struct Expected {
    std::size_t first;
    std::size_t count;
    std::uint32_t frag_index;
  };
  std::vector<Expected> expected;
  for (std::size_t i = 0; i < encoded.size();) {
    const std::size_t frags = std::max<std::size_t>(1, (encoded[i].size() + cap - 1) / cap);
    if (frags > 1) {
      for (std::uint32_t f = 0; f < frags; ++f) expected.push_back({i, 1, f});
      ++i;
      continue;
    }
    std::size_t count = 0;
    std::size_t packed = 0;
    while (i + count < encoded.size() && count < std::max<std::size_t>(1, window) &&
           encoded[i + count].size() <= cap) {
      const std::size_t grown = totem::packed_batch_size(packed, encoded[i + count].size());
      if (count > 0 && grown > cap) break;
      packed = grown;
      ++count;
      if (packed > cap) break;
    }
    expected.push_back({i, count, 0});
    i += count;
  }

  ASSERT_EQ(sniffer.frames.size(), expected.size());
  std::size_t batched = 0;
  for (std::size_t n = 0; n < expected.size(); ++n) {
    const Expected& x = expected[n];
    const std::optional<totem::Frame> frame = totem::decode_frame(sniffer.frames[n]);
    ASSERT_TRUE(frame.has_value());
    const auto& f = std::get<totem::DataFrame>(frame->body);
    ASSERT_EQ(f.msg_id, first_id + x.first) << "frame " << n;
    ASSERT_EQ(f.batch_count, x.count) << "frame " << n;
    ASSERT_EQ(f.frag_index, x.frag_index) << "frame " << n;
    Bytes payload;
    if (x.count > 1) {
      payload = totem::pack_batch(std::vector<Bytes>(
          encoded.begin() + static_cast<std::ptrdiff_t>(x.first),
          encoded.begin() + static_cast<std::ptrdiff_t>(x.first + x.count)));
      batched += x.count;
    } else {
      const Bytes& m = encoded[x.first];
      const std::size_t begin = std::size_t{x.frag_index} * cap;
      payload.assign(m.begin() + static_cast<std::ptrdiff_t>(begin),
                     m.begin() + static_cast<std::ptrdiff_t>(std::min(m.size(), begin + cap)));
    }
    const util::SharedBytes oracle = totem::encode_data_frame(frame->sender, f, payload);
    ASSERT_TRUE(std::ranges::equal(oracle.view(), sniffer.frames[n]))
        << "frame " << n << ": message " << x.first << " (kind "
        << static_cast<int>(cases[x.first].kind) << ", " << cases[x.first].payload.size()
        << "-byte payload), fragment " << x.frag_index;
  }
  // The batching window was exercised when there was one.
  if (window > 1) {
    EXPECT_GT(batched, cases.size() / 2);
  } else {
    EXPECT_EQ(batched, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(BatchWindows, WireIdentity, ::testing::Values(1u, 4u));

}  // namespace
}  // namespace eternal::core
