// Deeper Totem protocol behaviour: stats, garbage collection, concurrent
// crashes, interrupted large transfers, withdrawal, backlog handling, view
// metadata.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "sim/ethernet.hpp"
#include "totem/seq_store.hpp"
#include "totem/totem.hpp"

namespace eternal::totem {
namespace {

using sim::Ethernet;
using sim::EthernetConfig;
using sim::Simulator;
using util::Bytes;
using util::Duration;
using util::NodeId;

struct Sink : TotemListener {
  /// A delivery with its payload copied out: Delivery lends the bytes only
  /// for the duration of the callback.
  struct Held {
    NodeId sender;
    util::ViewId view;
    std::uint64_t seq = 0;
    Bytes payload;
  };
  std::vector<Held> delivered;
  std::vector<View> views;
  void on_deliver(const Delivery& d) override {
    delivered.push_back(Held{d.sender, d.view, d.seq, Bytes(d.payload.begin(), d.payload.end())});
  }
  void on_view_change(const View& v) override { views.push_back(v); }
};

struct Ring {
  explicit Ring(std::size_t n, TotemConfig cfg = TotemConfig{}) {
    ether = std::make_unique<Ethernet>(sim, EthernetConfig{});
    for (std::uint32_t i = 1; i <= n; ++i) ids.push_back(NodeId{i});
    sinks.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<TotemNode>(sim, *ether, ids[i], cfg, &sinks[i]));
    }
    for (auto& node : nodes) node->start(ids);
    sim.run_for(Duration(500'000));
  }

  Simulator sim;
  std::unique_ptr<Ethernet> ether;
  std::vector<NodeId> ids;
  std::vector<Sink> sinks;
  std::vector<std::unique_ptr<TotemNode>> nodes;
};

TEST(TotemProtocol, StatsAccumulate) {
  Ring ring(3);
  for (int i = 0; i < 5; ++i) ring.nodes[0]->multicast(Bytes{1, 2, 3});
  ring.sim.run_for(Duration(5'000'000));
  const TotemStats& s = ring.nodes[0]->stats();
  EXPECT_EQ(s.multicasts, 5u);
  EXPECT_EQ(s.fragments_sent, 5u);
  EXPECT_EQ(s.deliveries, 5u);
  EXPECT_GE(s.tokens_handled, 1u);
  EXPECT_GE(s.view_changes, 1u);  // the bootstrap view
  EXPECT_EQ(ring.nodes[1]->stats().deliveries, 5u);
}

TEST(TotemProtocol, BacklogDrainsOverMultipleTokenVisits) {
  TotemConfig cfg;
  cfg.max_frags_per_token = 4;  // tight flow control
  Ring ring(3, cfg);
  Bytes big(20'000, 0x11);  // ~14 fragments -> several visits
  ring.nodes[1]->multicast(big);
  EXPECT_GT(ring.nodes[1]->backlog(), 4u);
  ring.sim.run_for(Duration(30'000'000));
  EXPECT_EQ(ring.nodes[1]->backlog(), 0u);
  ASSERT_EQ(ring.sinks[0].delivered.size(), 1u);
  EXPECT_EQ(ring.sinks[0].delivered[0].payload, big);
}

TEST(TotemProtocol, ViewMetadataOnCrash) {
  Ring ring(4);
  ring.nodes[2]->crash();
  ring.sim.run_for(Duration(30'000'000));
  ASSERT_GE(ring.sinks[0].views.size(), 2u);
  const View& v = ring.sinks[0].views.back();
  EXPECT_GT(v.id.value, 1u);
  EXPECT_NE(v.ring_id, 0u);
  EXPECT_NE(v.ring_id, ring.sinks[0].views.front().ring_id);
  EXPECT_TRUE(v.joined.empty());
  ASSERT_EQ(v.departed.size(), 1u);
  EXPECT_EQ(v.departed[0], NodeId{3});
  EXPECT_FALSE(v.self_rejoined_fresh);
}

TEST(TotemProtocol, TwoSimultaneousCrashesSurvived) {
  Ring ring(5);
  ring.nodes[0]->multicast(util::bytes_of("pre"));
  ring.sim.run_for(Duration(2'000'000));
  ring.nodes[3]->crash();
  ring.nodes[4]->crash();
  ring.sim.run_for(Duration(50'000'000));
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(ring.nodes[static_cast<std::size_t>(i)]->operational()) << i;
    EXPECT_EQ(ring.nodes[static_cast<std::size_t>(i)]->view().members.size(), 3u);
  }
  ring.nodes[1]->multicast(util::bytes_of("post"));
  ring.sim.run_for(Duration(5'000'000));
  EXPECT_EQ(util::text_of(ring.sinks[2].delivered.back().payload), "post");
}

TEST(TotemProtocol, SenderCrashMidLargeTransferDropsPartialEverywhere) {
  TotemConfig cfg;
  cfg.max_frags_per_token = 2;  // force many token visits for the transfer
  Ring ring(3, cfg);
  ring.nodes[0]->multicast(Bytes(50'000, 0xAA));  // ~35 fragments
  ring.sim.run_for(Duration(1'500'000));          // some fragments sequenced
  ring.nodes[0]->crash();
  ring.sim.run_for(Duration(100'000'000));

  // No survivor may deliver a truncated message.
  for (std::size_t i = 1; i < 3; ++i) {
    for (const auto& d : ring.sinks[i].delivered) {
      EXPECT_EQ(d.payload.size(), 50'000u) << "truncated delivery at node " << i;
    }
  }
  // The survivors still form a working ring.
  ring.nodes[1]->multicast(util::bytes_of("alive"));
  ring.sim.run_for(Duration(5'000'000));
  EXPECT_EQ(util::text_of(ring.sinks[2].delivered.back().payload), "alive");
}

TEST(TotemProtocol, WithdrawDropsOnlyMessagesWithNothingSent) {
  TotemConfig cfg;
  cfg.max_frags_per_token = 2;  // the large message takes many token visits
  Ring ring(3, cfg);
  TotemNode& node = *ring.nodes[0];
  const std::uint64_t big = node.multicast(Bytes(50'000, 0xAA));  // ~35 fragments
  const std::uint64_t dropped = node.multicast(util::bytes_of("dropped"));
  const std::uint64_t kept = node.multicast(util::bytes_of("kept"));
  ring.sim.run_for(Duration(1'500'000));  // some of big's fragments sequenced
  ASSERT_GT(node.stats().fragments_sent, 0u);
  EXPECT_FALSE(node.withdraw(big)) << "a partly sent message must stay";
  EXPECT_TRUE(node.withdraw(dropped));
  EXPECT_FALSE(node.withdraw(dropped)) << "already withdrawn";
  EXPECT_FALSE(node.withdraw(kept + 1)) << "never submitted";
  ring.sim.run_for(Duration(100'000'000));
  EXPECT_FALSE(node.withdraw(kept)) << "already sent";
  EXPECT_EQ(node.stats().withdrawn, 1u);
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(ring.sinks[i].delivered.size(), 2u) << "node " << i;
    EXPECT_EQ(ring.sinks[i].delivered[0].payload.size(), 50'000u);
    EXPECT_EQ(util::text_of(ring.sinks[i].delivered[1].payload), "kept");
  }
}

TEST(TotemProtocol, StoreGarbageCollectedByTokenAru) {
  TotemConfig cfg;
  cfg.gc_margin = 8;
  Ring ring(3, cfg);
  for (int i = 0; i < 200; ++i) ring.nodes[0]->multicast(Bytes{static_cast<uint8_t>(i)});
  ring.sim.run_for(Duration(100'000'000));
  // All delivered; retransmit stores pruned behind the aru margin. We can't
  // reach into the store, but a crash+rejoin proves no stale state leaks:
  ring.nodes[2]->crash();
  ring.sim.run_for(Duration(30'000'000));
  ring.nodes[2]->join();
  const bool rejoined = [&] {
    for (int i = 0; i < 300; ++i) {
      ring.sim.run_for(Duration(1'000'000));
      if (ring.nodes[2]->operational()) return true;
    }
    return false;
  }();
  ASSERT_TRUE(rejoined);
  const std::size_t before = ring.sinks[2].delivered.size();
  ring.nodes[0]->multicast(util::bytes_of("fresh"));
  ring.sim.run_for(Duration(5'000'000));
  EXPECT_EQ(ring.sinks[2].delivered.size(), before + 1);
}

TEST(TotemProtocol, JoinerDoesNotReceiveHistory) {
  Ring ring(3);
  for (int i = 0; i < 10; ++i) ring.nodes[0]->multicast(util::bytes_of(std::to_string(i)));
  ring.sim.run_for(Duration(10'000'000));
  ring.nodes[2]->crash();
  ring.sim.run_for(Duration(30'000'000));

  const std::size_t old_count = ring.sinks[2].delivered.size();
  ring.nodes[2]->join();
  for (int i = 0; i < 300 && !ring.nodes[2]->operational(); ++i) {
    ring.sim.run_for(Duration(1'000'000));
  }
  ASSERT_TRUE(ring.nodes[2]->operational());
  ring.sim.run_for(Duration(10'000'000));
  // History is not replayed to the fresh joiner (Eternal's state transfer
  // covers it at the application level).
  EXPECT_EQ(ring.sinks[2].delivered.size(), old_count);
}

TEST(TotemProtocol, FragmentCapacityMatchesEthernet) {
  Ring ring(2);
  const std::size_t cap = ring.nodes[0]->fragment_capacity();
  EXPECT_GT(cap, 1000u);
  EXPECT_LT(cap, ring.ether->max_payload());
  // A payload exactly at capacity travels as one fragment.
  ring.nodes[0]->multicast(Bytes(cap, 1));
  ring.sim.run_for(Duration(5'000'000));
  EXPECT_EQ(ring.nodes[0]->stats().fragments_sent, 1u);
  // One byte more: two fragments.
  ring.nodes[0]->multicast(Bytes(cap + 1, 1));
  ring.sim.run_for(Duration(5'000'000));
  EXPECT_EQ(ring.nodes[0]->stats().fragments_sent, 3u);
}

TEST(TotemProtocol, StartRequiresSelfInMembership) {
  Simulator sim;
  Ethernet ether(sim, EthernetConfig{});
  Sink sink;
  TotemNode node(sim, ether, NodeId{9}, TotemConfig{}, &sink);
  EXPECT_THROW(node.start({NodeId{1}, NodeId{2}}), std::invalid_argument);
}

TEST(TotemProtocol, DoubleStartThrows) {
  Ring ring(2);
  EXPECT_THROW(ring.nodes[0]->start(ring.ids), std::logic_error);
  EXPECT_THROW(ring.nodes[0]->join(), std::logic_error);
}

// ------------------------------------------------------------ frame store
//
// One real endpoint (node 2) on a two-member ring whose other member is the
// test itself: frames go straight into on_frame and whatever the endpoint
// sends is captured, so the store's edge cases can be driven exactly.
struct StoreHarness : sim::Station {
  explicit StoreHarness(TotemConfig cfg = TotemConfig{})
      : ether(sim, EthernetConfig{}), node(sim, ether, NodeId{2}, cfg, &sink) {
    ether.attach(NodeId{1}, this);
    node.start({NodeId{1}, NodeId{2}});
  }

  void on_frame(NodeId, util::BytesView raw) override {
    if (auto f = decode_frame(raw)) sent.push_back(std::move(*f));
  }

  void data(std::uint64_t seq, const std::string& text, bool retransmission = false,
            bool authoritative = false) {
    DataFrame f;
    f.view = node.view().id;
    f.ring_id = node.view().ring_id;
    f.origin = NodeId{1};
    f.seq = seq;
    f.msg_id = seq;
    f.retransmission = retransmission;
    f.authoritative = authoritative;
    f.payload = util::SharedSlice::copy_of(util::bytes_of(text));
    node.on_frame(NodeId{1}, encode_frame(NodeId{1}, f));
  }

  /// Hands node 2 the token; returns the token it passes back.
  TokenFrame token(std::uint64_t next_seq, std::vector<std::uint64_t> rtr) {
    TokenFrame t;
    t.view = node.view().id;
    t.ring_id = node.view().ring_id;
    t.target = NodeId{2};
    t.next_seq = next_seq;
    t.aru = next_seq - 1;
    t.aru_setter = NodeId{1};
    t.rtr = std::move(rtr);
    sent.clear();
    node.on_frame(NodeId{1}, encode_frame(NodeId{1}, t));
    sim.run_for(Duration(100'000));  // the (possibly idle-delayed) pass
    for (const Frame& f : sent) {
      if (const auto* passed = std::get_if<TokenFrame>(&f.body)) return *passed;
    }
    ADD_FAILURE() << "token not passed on";
    return TokenFrame{};
  }

  /// Sequence numbers of the Data frames node 2 retransmitted.
  std::vector<std::uint64_t> retransmitted() const {
    std::vector<std::uint64_t> out;
    for (const Frame& f : sent) {
      if (const auto* d = std::get_if<DataFrame>(&f.body); d && d->retransmission) {
        out.push_back(d->seq);
      }
    }
    return out;
  }

  std::vector<std::uint64_t> delivered_seqs() const {
    std::vector<std::uint64_t> out;
    for (const auto& d : sink.delivered) out.push_back(d.seq);
    return out;
  }

  Simulator sim;
  Ethernet ether;
  Sink sink;
  TotemNode node;
  std::vector<Frame> sent;
};

std::vector<std::uint64_t> seq_range(std::uint64_t first, std::uint64_t last) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = first; s <= last; ++s) out.push_back(s);
  return out;
}

TEST(TotemStore, FrameFarAheadBeyondCapacityWaitsForTheGap) {
  StoreHarness h;
  h.data(1, "m1");
  ASSERT_EQ(h.delivered_seqs(), (std::vector<std::uint64_t>{1}));
  // 3000 sequence numbers ahead: far past the store's current span.
  h.data(3001, "m3001");
  EXPECT_EQ(h.sink.delivered.size(), 1u);
  // Fill the gap top-down, so every insert also lands below the lowest
  // held seq; nothing delivers until seq 2 closes the gap.
  for (std::uint64_t s = 3000; s >= 3; --s) h.data(s, "m" + std::to_string(s));
  EXPECT_EQ(h.sink.delivered.size(), 1u);
  h.data(2, "m2");
  ASSERT_EQ(h.delivered_seqs(), seq_range(1, 3001));
  EXPECT_EQ(util::text_of(h.sink.delivered.back().payload), "m3001");
  EXPECT_EQ(util::text_of(h.sink.delivered[1499].payload), "m1500");
}

TEST(TotemStore, GcBehindAruKeepsMarginAndGcdSeqsStayRequested) {
  TotemConfig cfg;
  cfg.gc_margin = 8;
  StoreHarness h(cfg);
  // Many times the margin, with a token visit every 10 frames: the store
  // keeps wrapping its index over the same few slots.
  for (std::uint64_t s = 1; s <= 200; ++s) {
    h.data(s, "m" + std::to_string(s));
    if (s % 10 == 0) h.token(s + 1, {});
  }
  ASSERT_EQ(h.delivered_seqs(), seq_range(1, 200));
  // aru = 200: seqs 192..200 are retained, 191 and below were collected.
  const TokenFrame passed = h.token(201, {150, 191, 192, 196, 200});
  EXPECT_EQ(h.retransmitted(), (std::vector<std::uint64_t>{192, 196, 200}));
  // A request nobody here can serve any more travels on for other holders.
  EXPECT_EQ(passed.rtr, (std::vector<std::uint64_t>{150, 191}));
}

TEST(TotemStore, CommitDiscardsHeldFramesAboveBase) {
  StoreHarness h;
  for (std::uint64_t s = 1; s <= 5; ++s) h.data(s, "m" + std::to_string(s));
  for (std::uint64_t s : {8, 9, 12, 40}) h.data(s, "held" + std::to_string(s));
  ASSERT_EQ(h.sink.delivered.size(), 5u);
  // A commit continuing a descendant of our ring (same lineage) whose base
  // is 8: everything we hold above it may be reassigned, so it goes.
  CommitFrame commit;
  commit.new_view = util::ViewId{h.node.view().id.value + 1};
  commit.members = {NodeId{1}, NodeId{2}};
  commit.base_seq = 8;
  commit.surviving_ring = h.node.view().ring_id + 1;
  commit.surviving_ancestors = {h.node.view().ring_id};
  h.node.on_frame(NodeId{1}, encode_frame(NodeId{1}, commit));
  h.sim.run_for(Duration(100'000));  // the Ready crosses the medium
  EXPECT_EQ(h.node.stats().stale_frames_discarded, 3u);  // 9, 12, 40
  // The Ready it answers with reports 6 and 7 missing and advertises the
  // one frame it kept (8).
  const ReadyFrame* ready = nullptr;
  for (const Frame& f : h.sent) {
    if (const auto* r = std::get_if<ReadyFrame>(&f.body)) ready = r;
  }
  ASSERT_NE(ready, nullptr);
  EXPECT_EQ(ready->missing, (std::vector<std::uint64_t>{6, 7}));
  EXPECT_EQ(ready->held_seqs, (std::vector<std::uint64_t>{8}));
}

TEST(TotemStore, AuthoritativeRetransmissionReplacesStaleHeldFrame) {
  StoreHarness h;
  h.data(1, "m1");
  h.data(3, "stale");
  // A differing copy that is not authoritative is just a duplicate.
  h.data(3, "other", /*retransmission=*/true, /*authoritative=*/false);
  EXPECT_EQ(h.node.stats().stale_frames_replaced, 0u);
  h.data(3, "agreed", /*retransmission=*/true, /*authoritative=*/true);
  EXPECT_EQ(h.node.stats().stale_frames_replaced, 1u);
  // An identical authoritative copy changes nothing.
  h.data(3, "agreed", /*retransmission=*/true, /*authoritative=*/true);
  EXPECT_EQ(h.node.stats().stale_frames_replaced, 1u);
  h.data(2, "m2");
  ASSERT_EQ(h.delivered_seqs(), seq_range(1, 3));
  EXPECT_EQ(util::text_of(h.sink.delivered[2].payload), "agreed");
}

TEST(TotemSeqStore, IndexWrapsWithoutGrowingUnderSteadyGc) {
  SeqStore store;
  std::size_t first_capacity = 0;
  for (std::uint64_t s = 1; s <= 1000; ++s) {
    DataFrame f;
    f.seq = s;
    f.payload = util::SharedSlice::copy_of(Bytes{static_cast<std::uint8_t>(s)});
    store.insert(std::move(f));
    if (s == 1) first_capacity = store.capacity();
    if (s > 8) store.erase_below(s - 8);
  }
  // 1000 seqs wrapped through the ring it allocated for the first one.
  EXPECT_EQ(store.capacity(), first_capacity);
  EXPECT_LT(store.capacity(), 1000u);
  EXPECT_EQ(store.size(), 9u);
  EXPECT_EQ(store.find(991), nullptr);
  ASSERT_NE(store.find(992), nullptr);
  EXPECT_EQ(store.find(992)->payload, Bytes{static_cast<std::uint8_t>(992)});
  EXPECT_EQ(store.erase_above(995), 5u);
  EXPECT_EQ(store.size(), 4u);
  std::vector<std::uint64_t> walked;
  store.for_each_in(0, 2000, [&](const DataFrame& f) {
    walked.push_back(f.seq);
    return true;
  });
  EXPECT_EQ(walked, seq_range(992, 995));
  store.clear();
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(store.find(992), nullptr);
}

TEST(TotemSeqStore, FarGapGrowsTheRingAndKeepsBothEnds) {
  SeqStore store;
  auto put = [&](std::uint64_t seq) {
    DataFrame f;
    f.seq = seq;
    f.payload = util::SharedSlice::copy_of(Bytes(3, static_cast<std::uint8_t>(seq)));
    store.insert(std::move(f));
  };
  put(5);
  const std::size_t before = store.capacity();
  put(5 + 10 * before);  // gap of ten rings
  EXPECT_GE(store.capacity(), 10 * before);
  put(3);  // below the lowest held seq
  ASSERT_NE(store.find(5 + 10 * before), nullptr);
  ASSERT_NE(store.find(3), nullptr);
  EXPECT_EQ(store.find(4), nullptr);
  EXPECT_EQ(store.find(3)->payload, Bytes(3, 3));
  EXPECT_EQ(store.size(), 3u);
  // Dropping the far frame and then the low ones empties the store; the
  // emptied ring takes new frames at unrelated sequence numbers.
  EXPECT_EQ(store.erase_above(5), 1u);
  store.erase_below(6);
  EXPECT_TRUE(store.empty());
  put(1'000'000);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_NE(store.find(1'000'000), nullptr);
}

}  // namespace
}  // namespace eternal::totem
