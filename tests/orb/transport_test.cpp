// The point-to-point TCP fabric used by the unreplicated baseline.
#include <gtest/gtest.h>

#include <stdexcept>

#include "orb/transport.hpp"

namespace eternal::orb {
namespace {

using util::Bytes;
using util::Duration;
using util::NodeId;

struct Recorder : MessageSink {
  std::vector<std::pair<Endpoint, Bytes>> messages;
  std::vector<util::TimePoint> times;
  sim::Simulator* sim = nullptr;
  void on_message(const Endpoint& from, util::BytesView iiop) override {
    messages.emplace_back(from, Bytes(iiop.begin(), iiop.end()));
    if (sim != nullptr) times.push_back(sim->now());
  }
};

struct TcpTest : ::testing::Test {
  sim::Simulator sim;
  TcpNetwork net{sim};
  Recorder a, b;
  Transport* ta = nullptr;
  Transport* tb = nullptr;

  void SetUp() override {
    a.sim = b.sim = &sim;
    ta = &net.bind(Endpoint{NodeId{1}, 1000}, a);
    tb = &net.bind(Endpoint{NodeId{2}, 2000}, b);
  }
};

TEST_F(TcpTest, UnicastDelivery) {
  ta->send(Endpoint{NodeId{2}, 2000}, Bytes{1, 2, 3});
  sim.run();
  ASSERT_EQ(b.messages.size(), 1u);
  EXPECT_EQ(b.messages[0].first, (Endpoint{NodeId{1}, 1000}));
  EXPECT_EQ(b.messages[0].second, (Bytes{1, 2, 3}));
  EXPECT_TRUE(a.messages.empty());
  EXPECT_EQ(net.messages_sent(), 1u);
}

TEST_F(TcpTest, UnknownDestinationDropped) {
  ta->send(Endpoint{NodeId{9}, 9}, Bytes{1});
  sim.run();
  EXPECT_EQ(net.messages_sent(), 0u);
}

TEST_F(TcpTest, PerLinkFifoOrdering) {
  for (std::uint8_t i = 0; i < 10; ++i) ta->send(Endpoint{NodeId{2}, 2000}, Bytes{i});
  sim.run();
  ASSERT_EQ(b.messages.size(), 10u);
  for (std::uint8_t i = 0; i < 10; ++i) EXPECT_EQ(b.messages[i].second[0], i);
}

TEST_F(TcpTest, LargeMessagesTakeLonger) {
  ta->send(Endpoint{NodeId{2}, 2000}, Bytes(100, 1));
  sim.run();
  const auto small_at = b.times.at(0);
  ta->send(Endpoint{NodeId{2}, 2000}, Bytes(100'000, 1));
  const auto start = sim.now();
  sim.run();
  const auto big_latency = b.times.at(1) - start;
  EXPECT_GT(big_latency, small_at);  // 100 kB at 100 Mbps >> 100 B latency
  // Roughly bandwidth-bound: ~8 ms for 100 kB.
  EXPECT_GT(big_latency, Duration(6'000'000));
  EXPECT_LT(big_latency, Duration(12'000'000));
}

TEST_F(TcpTest, UnbindStopsDelivery) {
  net.unbind(Endpoint{NodeId{2}, 2000});
  ta->send(Endpoint{NodeId{2}, 2000}, Bytes{1});
  sim.run();
  EXPECT_TRUE(b.messages.empty());
}

TEST_F(TcpTest, GroupEndpointHelpers) {
  const Endpoint g = group_endpoint(util::GroupId{7});
  EXPECT_TRUE(is_group_endpoint(g));
  EXPECT_FALSE(is_group_endpoint(Endpoint{NodeId{3}, 2809}));
  EXPECT_EQ(g.host.value, kGroupHostBase + 7);
  EXPECT_EQ(group_of(g).value, 7u);
}

TEST_F(TcpTest, PairEndpointNamesBothGroupsAndNeverAliases) {
  using util::GroupId;
  const Endpoint p = pair_endpoint(GroupId{3}, GroupId{9});
  const auto groups = pair_of(p);
  ASSERT_TRUE(groups.has_value());
  EXPECT_EQ(groups->first.value, 3u);
  EXPECT_EQ(groups->second.value, 9u);
  EXPECT_NE(p, pair_endpoint(GroupId{9}, GroupId{3}));
  EXPECT_FALSE(is_group_endpoint(p));
  // Neither a group endpoint nor a plain host reads as a pair.
  EXPECT_FALSE(pair_of(group_endpoint(GroupId{3})).has_value());
  EXPECT_FALSE(pair_of(Endpoint{NodeId{3}, 9}).has_value());
  // The largest ids that fit, and the recovery mechanisms' client group 0.
  const auto top = pair_of(pair_endpoint(GroupId{(1u << 24) - 1}, GroupId{0xFFFF}));
  ASSERT_TRUE(top.has_value());
  EXPECT_EQ(top->first.value, (1u << 24) - 1);
  EXPECT_EQ(top->second.value, 0xFFFFu);
  EXPECT_EQ(pair_of(pair_endpoint(GroupId{0}, GroupId{5}))->first.value, 0u);
  // An id that does not fit throws rather than truncate into another pair.
  EXPECT_THROW(pair_endpoint(GroupId{1u << 24}, GroupId{1}), std::out_of_range);
  EXPECT_THROW(pair_endpoint(GroupId{1}, GroupId{0x10000}), std::out_of_range);
}

}  // namespace
}  // namespace eternal::orb
