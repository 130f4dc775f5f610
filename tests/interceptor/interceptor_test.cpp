// The Interceptor: the ORB's socket-level tap — capture of outbound IIOP,
// injection of inbound IIOP, and transparency (the ORB can't tell).
#include <gtest/gtest.h>

#include "interceptor/interceptor.hpp"
#include "orb/sync_servant.hpp"

namespace eternal::interceptor {
namespace {

using orb::Endpoint;
using util::Bytes;
using util::Duration;
using util::NodeId;

struct CaptureAll : Diversion {
  std::vector<std::pair<Endpoint, Bytes>> captured;
  void on_outbound(const Endpoint& to, Bytes iiop) override {
    captured.emplace_back(to, std::move(iiop));
  }
};

struct Fixture : ::testing::Test {
  sim::Simulator sim;
  orb::Orb orb{sim, NodeId{1}, orb::OrbConfig{}};
  Interceptor tap{orb};
  CaptureAll diversion;

  Fixture() {
    orb.plug_transport(tap);
    tap.divert_to(diversion);
  }
};

TEST_F(Fixture, CapturesOutboundRequests) {
  giop::Ior ior;
  ior.type_id = "IDL:X:1.0";
  ior.host = NodeId{9};
  ior.object_key = util::bytes_of("x");
  ior.orb_vendor = 0;  // avoid the handshake for a single clean capture
  orb.resolve(ior).invoke("op", Bytes{1, 2}, [](const orb::ReplyOutcome&) {});

  ASSERT_EQ(diversion.captured.size(), 1u);
  EXPECT_EQ(diversion.captured[0].first, (Endpoint{NodeId{9}, 2809}));
  auto info = giop::inspect(diversion.captured[0].second);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->type, giop::MsgType::kRequest);
  EXPECT_EQ(info->operation, "op");
  EXPECT_EQ(tap.stats().captured, 1u);
}

TEST_F(Fixture, InjectsInboundIntoOrb) {
  // Activate a servant, inject a request as if it arrived from the wire,
  // and observe the ORB's reply being captured on the way out.
  class Echo : public orb::SyncServant {
   public:
    using orb::SyncServant::SyncServant;

   protected:
    Bytes serve(const std::string&, util::BytesView args) override {
      return Bytes(args.begin(), args.end());
    }
  };
  orb.root_poa().activate("echo", std::make_shared<Echo>(sim), "IDL:Echo:1.0");

  giop::Request req;
  req.request_id = 5;
  req.object_key = util::bytes_of("echo");
  req.operation = "do";
  req.body = Bytes{42};
  tap.inject(Endpoint{NodeId{7}, 2809}, util::SharedSlice::copy_of(giop::encode(req)));
  sim.run_until(sim.now() + Duration(10'000'000));

  ASSERT_EQ(diversion.captured.size(), 1u);
  auto info = giop::inspect(diversion.captured[0].second);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->type, giop::MsgType::kReply);
  EXPECT_EQ(info->request_id, 5u);
  EXPECT_EQ(diversion.captured[0].first, (Endpoint{NodeId{7}, 2809}));
  EXPECT_EQ(tap.stats().injected, 1u);
}

TEST_F(Fixture, UnattachedDiversionDropsSilently) {
  Interceptor lonely(orb);
  lonely.send(Endpoint{NodeId{2}, 2809}, Bytes{1});
  EXPECT_EQ(lonely.stats().captured, 1u);  // counted, nowhere to go
}

}  // namespace
}  // namespace eternal::interceptor
