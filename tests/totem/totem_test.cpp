// The Totem-like total-order multicast protocol: agreed delivery, self-
// delivery, fragmentation, retransmission under loss, membership changes,
// rejoin, determinism properties, and the output-aware token hold.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "core/deployment.hpp"
#include "obs/trace.hpp"
#include "sim/ethernet.hpp"
#include "support/counter_servant.hpp"
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
  struct Rec {
    NodeId sender;
    std::uint64_t seq;
    Bytes payload;
  };
  std::vector<Rec> delivered;
  std::vector<View> views;
  bool imminent = false;  ///< what output_imminent answers
  void on_deliver(const Delivery& d) override {
    delivered.push_back(Rec{d.sender, d.seq, Bytes(d.payload.begin(), d.payload.end())});
  }
  void on_view_change(const View& v) override { views.push_back(v); }
  bool output_imminent() const override { return imminent; }
};

struct Ring {
  explicit Ring(std::size_t n, double loss = 0.0, std::uint64_t seed = 0x5eed,
                TotemConfig tcfg = TotemConfig{}) {
    EthernetConfig cfg;
    cfg.loss_probability = loss;
    ether = std::make_unique<Ethernet>(sim, cfg, seed);
    for (std::uint32_t i = 1; i <= n; ++i) ids.push_back(NodeId{i});
    sinks.resize(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(std::make_unique<TotemNode>(sim, *ether, ids[i], tcfg,
                                                  &sinks[i]));
    }
    for (auto& node : nodes) node->start(ids);
    sim.run_for(Duration(500'000));
  }

  TotemNode& node(std::size_t i) { return *nodes[i]; }
  Sink& sink(std::size_t i) { return sinks[i]; }

  Simulator sim;
  std::unique_ptr<Ethernet> ether;
  std::vector<NodeId> ids;
  std::vector<Sink> sinks;
  std::vector<std::unique_ptr<TotemNode>> nodes;
};

std::vector<std::string> delivered_texts(const Sink& sink) {
  std::vector<std::string> out;
  for (const auto& rec : sink.delivered) out.push_back(util::text_of(rec.payload));
  return out;
}

TEST(Totem, DeliversToAllMembersIncludingSender) {
  Ring ring(4);
  ring.node(0).multicast(util::bytes_of("hello"));
  ring.sim.run_for(Duration(2'000'000));
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_EQ(ring.sink(i).delivered.size(), 1u) << "node " << i;
    EXPECT_EQ(util::text_of(ring.sink(i).delivered[0].payload), "hello");
    EXPECT_EQ(ring.sink(i).delivered[0].sender, NodeId{1});
  }
}

TEST(Totem, TotalOrderAcrossConcurrentSenders) {
  Ring ring(4);
  for (int round = 0; round < 10; ++round) {
    for (std::size_t i = 0; i < 4; ++i) {
      ring.node(i).multicast(util::bytes_of("m" + std::to_string(i) + "." +
                                            std::to_string(round)));
    }
  }
  ring.sim.run_for(Duration(20'000'000));
  const auto reference = delivered_texts(ring.sink(0));
  EXPECT_EQ(reference.size(), 40u);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(i)), reference) << "node " << i;
  }
  // Sequence numbers are gap-free and increasing.
  for (std::size_t i = 1; i < ring.sink(0).delivered.size(); ++i) {
    EXPECT_GT(ring.sink(0).delivered[i].seq, ring.sink(0).delivered[i - 1].seq);
  }
}

TEST(Totem, SenderFifoPreserved) {
  Ring ring(3);
  for (int i = 0; i < 20; ++i) ring.node(1).multicast(util::bytes_of(std::to_string(i)));
  ring.sim.run_for(Duration(10'000'000));
  const auto texts = delivered_texts(ring.sink(2));
  ASSERT_EQ(texts.size(), 20u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(texts[static_cast<std::size_t>(i)], std::to_string(i));
}

TEST(Totem, LargeMessageFragmentsAndReassembles) {
  Ring ring(3);
  Bytes big(100'000);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = static_cast<std::uint8_t>(i * 31);
  ring.node(0).multicast(big);
  ring.sim.run_for(Duration(60'000'000));
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(ring.sink(i).delivered.size(), 1u) << "node " << i;
    EXPECT_EQ(ring.sink(i).delivered[0].payload, big);
  }
  EXPECT_GT(ring.node(0).stats().fragments_sent, 60u);
}

TEST(Totem, InterleavedLargeMessagesFromTwoSenders) {
  Ring ring(3);
  Bytes a(40'000, 0xAA), b(40'000, 0xBB);
  ring.node(0).multicast(a);
  ring.node(1).multicast(b);
  ring.sim.run_for(Duration(60'000'000));
  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_EQ(ring.sink(i).delivered.size(), 2u);
    // Same order everywhere, payloads intact.
    EXPECT_EQ(ring.sink(i).delivered[0].payload, ring.sink(0).delivered[0].payload);
    EXPECT_EQ(ring.sink(i).delivered[1].payload, ring.sink(0).delivered[1].payload);
  }
}

TEST(Totem, EmptyMessageDelivered) {
  Ring ring(2);
  ring.node(0).multicast(Bytes{});
  ring.sim.run_for(Duration(2'000'000));
  ASSERT_EQ(ring.sink(1).delivered.size(), 1u);
  EXPECT_TRUE(ring.sink(1).delivered[0].payload.empty());
}

TEST(Totem, SingleMemberRingDeliversToSelf) {
  Ring ring(1);
  ring.node(0).multicast(util::bytes_of("solo"));
  ring.sim.run_for(Duration(2'000'000));
  ASSERT_EQ(ring.sink(0).delivered.size(), 1u);
}

TEST(Totem, CrashTriggersViewChangeAndServiceContinues) {
  Ring ring(4);
  ring.node(0).multicast(util::bytes_of("before"));
  ring.sim.run_for(Duration(2'000'000));

  ring.node(3).crash();
  ring.sim.run_for(Duration(30'000'000));  // token timeout + reformation

  for (std::size_t i = 0; i < 3; ++i) {
    ASSERT_GE(ring.sink(i).views.size(), 2u) << "node " << i;
    const View& v = ring.sink(i).views.back();
    EXPECT_EQ(v.members.size(), 3u);
    ASSERT_EQ(v.departed.size(), 1u);
    EXPECT_EQ(v.departed[0], NodeId{4});
  }

  ring.node(1).multicast(util::bytes_of("after"));
  ring.sim.run_for(Duration(5'000'000));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(i)).back(), "after");
  }
}

TEST(Totem, SurvivorsAgreeOnPreCrashMessages) {
  Ring ring(4);
  for (int i = 0; i < 8; ++i) ring.node(i % 4).multicast(util::bytes_of(std::to_string(i)));
  ring.node(2).crash();
  ring.sim.run_for(Duration(50'000'000));
  // All survivors delivered the same set in the same order.
  const auto reference = delivered_texts(ring.sink(0));
  EXPECT_EQ(delivered_texts(ring.sink(1)), reference);
  EXPECT_EQ(delivered_texts(ring.sink(3)), reference);
}

TEST(Totem, CrashedNodeRejoinsFresh) {
  Ring ring(3);
  ring.node(0).multicast(util::bytes_of("old"));
  ring.sim.run_for(Duration(2'000'000));

  ring.node(2).crash();
  ring.sim.run_for(Duration(30'000'000));
  ASSERT_TRUE(ring.node(0).operational());

  ring.node(2).join();
  const bool rejoined = [&] {
    for (int i = 0; i < 200; ++i) {
      ring.sim.run_for(Duration(1'000'000));
      if (ring.node(2).operational()) return true;
    }
    return false;
  }();
  ASSERT_TRUE(rejoined);
  EXPECT_TRUE(ring.sink(2).views.back().self_rejoined_fresh);
  EXPECT_EQ(ring.sink(2).views.back().members.size(), 3u);

  const std::size_t before = ring.sink(2).delivered.size();
  ring.node(0).multicast(util::bytes_of("new"));
  ring.sim.run_for(Duration(5'000'000));
  ASSERT_EQ(ring.sink(2).delivered.size(), before + 1);
  EXPECT_EQ(util::text_of(ring.sink(2).delivered.back().payload), "new");
}

TEST(Totem, MulticastWhileDownThrows) {
  Ring ring(2);
  ring.node(1).crash();
  EXPECT_THROW(ring.node(1).multicast(Bytes{1}), std::logic_error);
}

bool is_subsequence(const std::vector<std::string>& sub,
                    const std::vector<std::string>& full) {
  std::size_t i = 0;
  for (const std::string& item : full) {
    if (i < sub.size() && sub[i] == item) ++i;
  }
  return i == sub.size();
}

TEST(Totem, RecoversFromFrameLoss) {
  // Under sustained frame loss the retransmission path fills most gaps; a
  // member whose gather gossip is unlucky can even be evicted and rejoin.
  // The guarantees that survive all of that (as in real Totem):
  //   - no two members ever deliver messages in conflicting orders
  //     (everyone's sequence is a subsequence of the longest one);
  //   - messages can only be dropped when their *sender* was evicted before
  //     any survivor received them — never silently for live senders.
  Ring ring(3, /*loss=*/0.05, /*seed=*/0xF00D);
  for (int i = 0; i < 30; ++i) {
    ring.node(static_cast<std::size_t>(i) % 3).multicast(util::bytes_of(std::to_string(i)));
    ring.sim.run_for(Duration(1'000'000));
  }
  ring.sim.run_for(Duration(400'000'000));

  std::vector<std::vector<std::string>> all;
  for (std::size_t i = 0; i < 3; ++i) all.push_back(delivered_texts(ring.sink(i)));
  const auto& longest =
      *std::max_element(all.begin(), all.end(),
                        [](const auto& a, const auto& b) { return a.size() < b.size(); });
  EXPECT_GE(longest.size(), 20u) << "loss recovery must deliver the vast majority";
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(is_subsequence(all[i], longest)) << "node " << i << " diverged";
  }
  // Each message is delivered at most once everywhere.
  for (std::size_t i = 0; i < 3; ++i) {
    std::set<std::string> unique(all[i].begin(), all[i].end());
    EXPECT_EQ(unique.size(), all[i].size()) << "node " << i << " delivered a duplicate";
  }
}

// ---- property sweeps ----

class TotemOrderProperty : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(TotemOrderProperty, AgreedDeliveryHoldsAcrossSizesAndLoss) {
  const int nodes = std::get<0>(GetParam());
  const double loss = std::get<1>(GetParam());
  Ring ring(static_cast<std::size_t>(nodes), loss, 0xBEEF + static_cast<std::uint64_t>(nodes));
  for (int i = 0; i < 24; ++i) {
    ring.node(static_cast<std::size_t>(i % nodes)).multicast(util::bytes_of(std::to_string(i)));
    if (i % 4 == 3) ring.sim.run_for(Duration(500'000));
  }
  ring.sim.run_for(Duration(300'000'000));
  const auto reference = delivered_texts(ring.sink(0));
  EXPECT_EQ(reference.size(), 24u);
  for (int i = 1; i < nodes; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(static_cast<std::size_t>(i))), reference)
        << nodes << " nodes, loss " << loss;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, TotemOrderProperty,
                         ::testing::Combine(::testing::Values(2, 3, 5, 8),
                                            ::testing::Values(0.0, 0.02)));

TEST(TotemBackpressure, ProportionalControllerEngagesAndRingStaysAgreed) {
  // A member starved by frame loss builds an undelivered gap; the ring
  // throttles to that member's drain rate — and agreed delivery must still
  // hold once the medium heals.
  TotemConfig tcfg;
  tcfg.backpressure_gap = 16;
  Ring ring(4, 0.25, 0xBEEF, tcfg);

  constexpr int kRounds = 60;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < 4; ++i) {
      ring.node(i).multicast(util::bytes_of("m" + std::to_string(i) + "." +
                                            std::to_string(round)));
    }
  }
  ring.sim.run_for(Duration(400'000'000));
  ring.ether->set_loss_probability(0.0);
  ring.sim.run_for(Duration(400'000'000));

  std::uint64_t sets = 0, throttled = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    sets += ring.node(i).stats().backpressure_sets;
    throttled += ring.node(i).stats().backpressure_throttled;
  }
  EXPECT_GE(sets, 1u) << "controller never engaged — raise loss or load";
  EXPECT_GE(throttled, 1u);

  const auto reference = delivered_texts(ring.sink(0));
  EXPECT_EQ(reference.size(), 4u * kRounds);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(i)), reference) << "node " << i;
  }
}

/// Stands between the segment and one member. While `cut`, no Data frame
/// (original or retransmission) reaches the member; tokens and membership
/// frames still do, so it keeps its ring position while delivering nothing.
struct DataCutStation : sim::Station {
  TotemNode* node = nullptr;
  bool cut = true;
  void on_frame(NodeId from, util::BytesView frame) override {
    if (cut) {
      const std::optional<Frame> f = decode_frame(frame);
      if (f && std::holds_alternative<DataFrame>(f->body)) return;
    }
    node->on_frame(from, frame);
  }
};

TEST(TotemBackpressure, ZeroDrainMemberWritesTheBudgetFloor) {
  // A member that gets every token but no Data frame drains nothing, so its
  // drain-rate term is 0 while its gap keeps growing. The budget it writes
  // must stay at the floor of 1 (a 0 in the token means "unlimited"), the
  // ring must keep delivering under it, and once reconnected the member
  // must catch up and agree.
  TotemConfig tcfg;
  tcfg.backpressure_gap = 16;
  Ring ring(4, 0.0, 0xD1A1, tcfg);
  obs::TraceBuffer trace(1 << 16);
  ring.sim.recorder().attach_trace(&trace);
  DataCutStation cut;
  cut.node = &ring.node(3);
  ring.ether->attach(ring.ids[3], &cut);

  const auto delivered_by_connected = [&ring] {
    std::size_t total = 0;
    for (std::size_t i = 0; i < 3; ++i) total += ring.sink(i).delivered.size();
    return total;
  };
  constexpr int kRounds = 40;
  std::size_t at_half = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (std::size_t i = 0; i < 3; ++i) {
      ring.node(i).multicast(util::bytes_of("m" + std::to_string(i) + "." +
                                            std::to_string(round)));
    }
    ring.sim.run_for(Duration(2'000'000));
    if (round == kRounds / 2) at_half = delivered_by_connected();
  }
  EXPECT_EQ(ring.sink(3).delivered.size(), 0u) << "the cut member delivered";
  EXPECT_GT(at_half, 0u);
  EXPECT_GT(delivered_by_connected(), at_half) << "the ring stopped delivering";

  std::size_t budgets = 0, at_floor = 0;
  for (const obs::TraceEvent& ev : trace.snapshot()) {
    if (ev.kind != "backpressure") continue;
    budgets += 1;
    EXPECT_EQ(ev.node, ring.ids[3]) << "only the cut member is congested";
    EXPECT_GE(ev.seq, 1u) << "a 0 budget would lift the limit";
    at_floor += ev.seq == 1 ? 1 : 0;
  }
  EXPECT_GE(budgets, 1u) << "the cut member never imposed a budget";
  EXPECT_GE(at_floor, 1u) << "the drain-rate term never reached the floor";

  cut.cut = false;
  ring.sim.run_for(Duration(400'000'000));
  const auto reference = delivered_texts(ring.sink(0));
  EXPECT_EQ(reference.size(), 3u * kRounds);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(i)), reference) << "node " << i;
  }
}

TEST(Totem, DeterministicAcrossRuns) {
  auto run = [] {
    Ring ring(4, 0.01, 0x1234);
    for (int i = 0; i < 16; ++i) {
      ring.node(static_cast<std::size_t>(i % 4)).multicast(util::bytes_of(std::to_string(i)));
    }
    ring.sim.run_for(Duration(100'000'000));
    return delivered_texts(ring.sink(2));
  };
  EXPECT_EQ(run(), run());
}


// ------------------------------------------------------- output-aware hold

/// A station off the ring that sees every frame on the segment and keeps
/// the tokens: when each arrived, from whom, for whom, in which view.
struct TokenProbe : sim::Station {
  struct Seen {
    util::TimePoint at;
    NodeId from;
    NodeId target;
    ViewId view;
  };
  explicit TokenProbe(Ring& ring) : sim(&ring.sim) { ring.ether->attach(NodeId{99}, this); }
  Simulator* sim;
  std::vector<Seen> tokens;
  void on_frame(NodeId from, util::BytesView frame) override {
    const std::optional<Frame> f = decode_frame(frame);
    if (!f) return;
    if (const auto* token = std::get_if<TokenFrame>(&f->body)) {
      tokens.push_back(Seen{sim->now(), from, token->target, token->view});
    }
  }
  std::size_t sent_by(NodeId node) const {
    return static_cast<std::size_t>(std::count_if(
        tokens.begin(), tokens.end(), [node](const Seen& t) { return t.from == node; }));
  }
};

/// Steps `ring` until node `i` keeps the token for its listener's output.
bool step_until_holding(Ring& ring, std::size_t i) {
  for (int n = 0; n < 100'000; ++n) {
    if (ring.node(i).holding_for_output()) return true;
    if (!ring.sim.step()) return false;
  }
  return false;
}

TEST(TotemOutputHold, HeldTokenLeavesAtTheInstantOfTheWakingMulticast) {
  Ring ring(4);
  TokenProbe probe(ring);
  ring.sink(0).imminent = true;
  ASSERT_TRUE(step_until_holding(ring, 0));
  EXPECT_EQ(ring.node(0).stats().output_holds, 1u);

  // Some time into the hold the reply is submitted; the token leaves in the
  // same virtual instant, right behind the Data frame carrying it.
  ring.sim.run_for(Duration(57'000));
  ASSERT_TRUE(ring.node(0).holding_for_output());
  ring.sink(0).imminent = false;
  const util::TimePoint woken = ring.sim.now();
  const std::uint64_t frames_before = ring.ether->stats().frames_sent;
  const std::size_t tokens_before = probe.sent_by(NodeId{1});
  ring.node(0).multicast(util::bytes_of("reply"));
  EXPECT_TRUE(ring.node(0).holding_for_output()) << "the wake must not run inline";
  ring.sim.run_until(woken);  // only the events of this same instant
  EXPECT_FALSE(ring.node(0).holding_for_output());
  EXPECT_EQ(ring.ether->stats().frames_sent, frames_before + 2) << "the Data frame and the token";
  EXPECT_EQ(ring.node(0).backlog(), 0u);

  ring.sim.run_for(Duration(1'000'000));
  ASSERT_GT(probe.sent_by(NodeId{1}), tokens_before);
  const auto pass = std::find_if(probe.tokens.begin(), probe.tokens.end(),
                                 [&](const TokenProbe::Seen& t) {
                                   return t.from == NodeId{1} && t.at > woken;
                                 });
  ASSERT_NE(pass, probe.tokens.end());
  EXPECT_EQ(pass->target, NodeId{2});
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(i)), std::vector<std::string>{"reply"}) << "node " << i;
  }
}

TEST(TotemOutputHold, CapReleasesAHoldThatNoMulticastEnds) {
  Ring ring(4);
  ring.sink(0).imminent = true;
  ASSERT_TRUE(step_until_holding(ring, 0));
  ring.sink(0).imminent = false;
  const util::TimePoint held = ring.sim.now();
  const std::uint64_t frames_before = ring.ether->stats().frames_sent;

  ring.sim.run_until(held + Duration(199'999));
  EXPECT_TRUE(ring.node(0).holding_for_output());
  EXPECT_EQ(ring.ether->stats().frames_sent, frames_before) << "the token left before the cap";
  ring.sim.run_until(held + Duration(200'000));
  EXPECT_FALSE(ring.node(0).holding_for_output());
  EXPECT_EQ(ring.ether->stats().frames_sent, frames_before + 1) << "the cap passes the token";

  // The ring carries on: a later message from another member delivers.
  ring.node(2).multicast(util::bytes_of("after"));
  ring.sim.run_for(Duration(2'000'000));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(i)), std::vector<std::string>{"after"}) << "node " << i;
  }
  EXPECT_EQ(ring.node(0).stats().output_holds, 1u);
}

TEST(TotemOutputHold, CrashDuringAHoldLeavesNoStalePass) {
  Ring ring(4);
  TokenProbe probe(ring);
  ring.sink(0).imminent = true;
  ASSERT_TRUE(step_until_holding(ring, 0));
  const ViewId old_view = ring.node(0).view().id;

  // The holder crashes and at once starts rejoining, well inside the cap:
  // neither the cap nor a multicast may pass the old visit's token.
  ring.node(0).crash();
  EXPECT_FALSE(ring.node(0).holding_for_output());
  ring.node(0).join();
  ring.sim.run_for(Duration(300'000));
  for (const TokenProbe::Seen& t : probe.tokens) {
    if (t.from == NodeId{1}) {
      EXPECT_NE(t.view, old_view) << "a stale pass at " << t.at.count();
    }
  }

  // The survivors reform (the rejoiner with them) and agree.
  ring.sink(0).imminent = false;
  ring.sim.run_for(Duration(60'000'000));
  for (std::size_t i = 0; i < 4; ++i) ASSERT_TRUE(ring.node(i).operational()) << "node " << i;
  ring.node(1).multicast(util::bytes_of("after"));
  ring.sim.run_for(Duration(5'000'000));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(i)).back(), "after") << "node " << i;
  }
}

TEST(TotemOutputHold, GatherDuringAHoldLeavesNoStalePass) {
  Ring ring(4);
  TokenProbe probe(ring);
  Sink joiner_sink;
  TotemNode joiner(ring.sim, *ring.ether, NodeId{5}, TotemConfig{}, &joiner_sink);
  ring.sink(0).imminent = true;
  ASSERT_TRUE(step_until_holding(ring, 0));
  const ViewId old_view = ring.node(0).view().id;

  // A new member asks to join; its request reaches the holder inside the cap
  // and sends the ring into gather.
  joiner.join();
  ring.sim.run_for(Duration(100'000));
  EXPECT_FALSE(ring.node(0).operational());
  EXPECT_FALSE(ring.node(0).holding_for_output());
  const util::TimePoint gathered = ring.sim.now();
  ring.sim.run_for(Duration(60'000'000));
  for (const TokenProbe::Seen& t : probe.tokens) {
    if (t.at > gathered) {
      EXPECT_NE(t.view, old_view) << "a stale pass at " << t.at.count();
    }
  }
  ASSERT_TRUE(joiner.operational());
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(ring.node(i).operational()) << "node " << i;
    EXPECT_EQ(ring.node(i).view().members.size(), 5u) << "node " << i;
  }
  ring.sink(0).imminent = false;
  ring.node(0).multicast(util::bytes_of("after"));
  ring.sim.run_for(Duration(5'000'000));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(delivered_texts(ring.sink(i)).back(), "after") << "node " << i;
  }
  EXPECT_EQ(delivered_texts(joiner_sink).back(), "after");
}

TEST(TotemOutputHold, NoTokenLossTimerFiresUnderRepeatedHolds) {
  // Two members keep the token on every visit, one until the cap and one
  // until its next multicast: every rotation holds, and no member's 5 ms
  // token-loss timer may take that for a lost token.
  Ring ring(4);
  ring.sink(0).imminent = true;
  ring.sink(2).imminent = true;
  int sent = 0;
  for (int round = 0; round < 200; ++round) {
    ring.sim.run_for(Duration(437'000));
    if (ring.node(2).holding_for_output()) {
      ring.node(2).multicast(util::bytes_of("m" + std::to_string(sent++)));
    }
  }
  ring.sink(0).imminent = false;
  ring.sink(2).imminent = false;
  ring.sim.run_for(Duration(2'000'000));
  EXPECT_GT(ring.node(0).stats().output_holds, 100u);
  EXPECT_GT(sent, 20);
  const std::vector<std::string> reference = delivered_texts(ring.sink(0));
  EXPECT_EQ(reference.size(), static_cast<std::size_t>(sent));
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ring.sink(i).views.size(), 1u) << "node " << i << " reformed";
    EXPECT_EQ(delivered_texts(ring.sink(i)), reference) << "node " << i;
  }
}

/// A deployed system: the sole replier's endpoint holds for its two-way
/// replies only.
struct HoldRig {
  explicit HoldRig(core::ReplicationStyle style, std::vector<NodeId> placement) {
    core::SystemConfig cfg;
    cfg.nodes = 4;
    sys = std::make_unique<core::System>(cfg);
    core::FtProperties props;
    props.style = style;
    props.initial_replicas = placement.size();
    props.minimum_replicas = 1;
    group = sys->deploy("svc", "IDL:Svc:1.0", props, placement, [this](NodeId) {
      return std::make_shared<test_support::CounterServant>(sys->sim());
    });
    sys->deploy_client("app", NodeId{4}, {group});
    ref = sys->client(NodeId{4}, group);
  }

  bool invoke() {
    bool done = false;
    ref.invoke("inc", test_support::CounterServant::encode_i32(1),
               [&done](const orb::ReplyOutcome&) { done = true; });
    return sys->run_until([&done] { return done; }, Duration(100'000'000));
  }

  std::uint64_t holds() {
    std::uint64_t total = 0;
    for (NodeId n : sys->all_nodes()) total += sys->totem(n).stats().output_holds;
    return total;
  }

  std::unique_ptr<core::System> sys;
  util::GroupId group;
  orb::ObjectRef ref;
};

TEST(TotemOutputHold, PassivePrimaryHoldsForTwoWayRepliesOnly) {
  HoldRig rig(core::ReplicationStyle::kWarmPassive, {NodeId{1}, NodeId{2}});
  // A oneway holds its engine slot for a grace period but never answers: no
  // endpoint may keep the token for it.
  const std::uint64_t before = rig.holds();
  for (int i = 0; i < 5; ++i) {
    rig.ref.oneway("note", test_support::CounterServant::encode_i32(0));
    rig.sys->run_for(Duration(2'000'000));
  }
  EXPECT_EQ(rig.holds(), before);

  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rig.invoke());
  EXPECT_GE(rig.sys->totem(NodeId{1}).stats().output_holds, 5u) << "the primary";
  EXPECT_EQ(rig.sys->totem(NodeId{2}).stats().output_holds, 0u) << "the backup";
  for (NodeId n : rig.sys->all_nodes()) EXPECT_EQ(rig.sys->totem(n).view().id.value, 1u);
}

TEST(TotemOutputHold, ActiveGroupHoldsOnlyWithOneOperationalReplica) {
  HoldRig rig(core::ReplicationStyle::kActive, {NodeId{1}, NodeId{2}, NodeId{3}});
  // Three busy replicas race one reply; none of them holds for it.
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rig.invoke());
  EXPECT_EQ(rig.holds(), 0u);

  rig.sys->kill_replica(NodeId{2}, rig.group);
  rig.sys->kill_replica(NodeId{3}, rig.group);
  ASSERT_TRUE(rig.sys->run_until(
      [&] { return rig.sys->mech(NodeId{1}).groups().find(rig.group)->members.size() == 1; },
      Duration(100'000'000)));
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(rig.invoke());
  EXPECT_GE(rig.sys->totem(NodeId{1}).stats().output_holds, 5u) << "the sole replier";
}

// ------------------------------------------------ shared frame buffer lifetime

/// Keeps every delivery's slice, as the Mechanisms' queue items, log entries
/// and reply cache do.
struct RetainingSink : TotemListener {
  std::vector<util::SharedSlice> kept;
  void on_deliver(const Delivery& d) override { kept.push_back(d.payload); }
  void on_view_change(const View&) override {}
};

TEST(TotemSharedFrames, MembersShareOneBufferPerFrame) {
  Simulator sim;
  Ethernet ether(sim, EthernetConfig{});
  std::vector<NodeId> ids{NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  std::vector<RetainingSink> sinks(ids.size());
  std::vector<std::unique_ptr<TotemNode>> nodes;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    nodes.push_back(std::make_unique<TotemNode>(sim, ether, ids[i], TotemConfig{}, &sinks[i]));
  }
  for (auto& node : nodes) node->start(ids);
  sim.run_for(Duration(500'000));
  nodes[2]->multicast(util::bytes_of("one buffer"));
  sim.run_for(Duration(2'000'000));
  // The sender's self-delivery and every receiver's delivery are slices of
  // the one buffer the sender encoded: the same bytes at the same address.
  for (const RetainingSink& sink : sinks) {
    ASSERT_EQ(sink.kept.size(), 1u);
    EXPECT_EQ(util::text_of(sink.kept[0]), "one buffer");
    EXPECT_EQ(sink.kept[0].data(), sinks[0].kept[0].data());
  }
}

TEST(TotemSharedFrames, RetainedDeliveriesOutliveSlotReuseAndGarbageCollection) {
  TotemConfig cfg;
  cfg.gc_margin = 2;  // frames leave the stores a few sequence numbers later
  Simulator sim;
  Ethernet ether(sim, EthernetConfig{});
  std::vector<NodeId> ids{NodeId{1}, NodeId{2}, NodeId{3}};
  std::vector<RetainingSink> sinks(ids.size());
  std::vector<std::unique_ptr<TotemNode>> nodes;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    nodes.push_back(std::make_unique<TotemNode>(sim, ether, ids[i], cfg, &sinks[i]));
  }
  for (auto& node : nodes) node->start(ids);
  sim.run_for(Duration(500'000));
  nodes[0]->multicast(util::bytes_of("first"));
  sim.run_for(Duration(1'000'000));
  nodes[1]->multicast(Bytes(3000, 0x42));  // fragmented: one reassembled buffer
  sim.run_for(Duration(2'000'000));
  for (const RetainingSink& sink : sinks) ASSERT_EQ(sink.kept.size(), 2u);
  // Hundreds of later frames reuse every Ethernet in-flight slot, and the
  // aru advances far enough for every store to erase the early frames.
  for (int i = 0; i < 200; ++i) {
    nodes[static_cast<std::size_t>(i) % 3]->multicast(util::bytes_of("filler-" + std::to_string(i)));
    sim.run_for(Duration(100'000));
  }
  sim.run_for(Duration(5'000'000));
  for (const RetainingSink& sink : sinks) {
    ASSERT_EQ(sink.kept.size(), 202u);
    EXPECT_EQ(util::text_of(sink.kept[0]), "first");
    EXPECT_EQ(sink.kept[1], Bytes(3000, 0x42));
  }
}

TEST(TotemSharedFrames, RetainedSliceOutlivesStaleFrameReplacementAndErase) {
  // The store-level operations a frame goes through after delivery: a
  // differing authoritative copy replaces it, then GC erases the slot.
  SeqStore store;
  DataFrame original;
  original.seq = 5;
  const util::SharedBytes wire = encode_data_frame(NodeId{1}, original, util::bytes_of("stale"));
  auto decoded = decode_frame(wire);
  ASSERT_TRUE(decoded.has_value());
  DataFrame& held = store.insert(std::move(std::get<DataFrame>(decoded->body)));
  const util::SharedSlice kept = held.payload;

  DataFrame agreed;
  agreed.seq = 5;
  agreed.payload = util::SharedSlice::copy_of(util::bytes_of("agreed"));
  held = std::move(agreed);  // the replacement handle_data performs
  EXPECT_EQ(util::text_of(store.find(5)->payload), "agreed");
  store.erase_below(6);
  EXPECT_TRUE(store.empty());
  EXPECT_EQ(util::text_of(kept), "stale");
  EXPECT_EQ(kept.owner().use_count(), 2u);  // `wire` and `kept`
}

}  // namespace
}  // namespace eternal::totem
