// The mini-ORB over the plain TCP fabric (no Eternal anywhere): invocation
// round trips, per-connection request_id behaviour, reply matching and
// discard, the vendor handshake, code-set selection, POA serialization,
// exceptions, oneways.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "giop/giop.hpp"
#include "orb/orb.hpp"
#include "orb/sync_servant.hpp"
#include "orb/transport.hpp"
#include "sim/simulator.hpp"

namespace eternal::orb {
namespace {

using util::Bytes;
using util::Duration;
using util::NodeId;

class EchoServant : public SyncServant {
 public:
  explicit EchoServant(sim::Simulator& sim, Duration exec = Duration(100'000))
      : SyncServant(sim), exec_(exec) {}
  int calls = 0;

 protected:
  Bytes serve(const std::string& operation, util::BytesView args) override {
    ++calls;
    if (operation == "fail") throw UserException{"IDL:Test/Boom:1.0"};
    return Bytes(args.begin(), args.end());
  }
  Duration execution_time(const std::string&) const override { return exec_; }

 private:
  Duration exec_;
};

struct OrbPair {
  explicit OrbPair(OrbConfig client_cfg = OrbConfig{}, OrbConfig server_cfg = OrbConfig{})
      : client(sim, NodeId{1}, client_cfg), server(sim, NodeId{2}, server_cfg) {
    client.plug_transport(net.bind(client.local_endpoint(), client));
    server.plug_transport(net.bind(server.local_endpoint(), server));
    servant = std::make_shared<EchoServant>(sim);
    ior = server.root_poa().activate("echo", servant, "IDL:Echo:1.0");
    ref = client.resolve(ior);
  }

  ReplyOutcome call(const std::string& op, Bytes args) {
    ReplyOutcome out;
    bool done = false;
    ref.invoke(op, std::move(args), [&](const ReplyOutcome& o) {
      out = o;
      done = true;
    });
    sim.run_until(sim.now() + Duration(1'000'000'000));
    EXPECT_TRUE(done);
    return out;
  }

  sim::Simulator sim;
  TcpNetwork net{sim};
  Orb client;
  Orb server;
  std::shared_ptr<EchoServant> servant;
  giop::Ior ior;
  ObjectRef ref;
};

TEST(Orb, TwoWayInvocationRoundTrip) {
  OrbPair pair;
  const ReplyOutcome out = pair.call("echo", util::bytes_of("payload"));
  EXPECT_EQ(out.status, giop::ReplyStatus::kNoException);
  EXPECT_EQ(util::text_of(out.body), "payload");
  EXPECT_EQ(pair.servant->calls, 1);
}

TEST(Orb, UserExceptionPropagates) {
  OrbPair pair;
  const ReplyOutcome out = pair.call("fail", Bytes{1});
  EXPECT_EQ(out.status, giop::ReplyStatus::kUserException);
}

TEST(Orb, UnknownObjectYieldsSystemException) {
  OrbPair pair;
  giop::Ior bogus = pair.ior;
  bogus.object_key = util::bytes_of("no-such-object");
  ObjectRef ref = pair.client.resolve(bogus);
  ReplyOutcome out;
  bool done = false;
  ref.invoke("echo", Bytes{}, [&](const ReplyOutcome& o) {
    out = o;
    done = true;
  });
  pair.sim.run_until(pair.sim.now() + Duration(1'000'000'000));
  ASSERT_TRUE(done);
  EXPECT_EQ(out.status, giop::ReplyStatus::kSystemException);
}

TEST(Orb, OnewayDeliversWithoutReply) {
  OrbPair pair;
  pair.ref.oneway("note", util::bytes_of("x"));
  pair.sim.run_until(pair.sim.now() + Duration(10'000'000));
  EXPECT_EQ(pair.servant->calls, 1);
  EXPECT_EQ(pair.client.stats().oneways_sent, 1u);
  EXPECT_EQ(pair.client.outstanding_requests(), 0u);
}

TEST(Orb, RequestIdsIncrementPerConnection) {
  OrbPair pair;
  for (int i = 0; i < 5; ++i) pair.call("echo", Bytes{1});
  auto next = testing::OrbProbe::next_request_id(pair.client,
                                                 Endpoint{NodeId{2}, 2809});
  ASSERT_TRUE(next.has_value());
  // Same-vendor ORBs handshake first (consuming id 0), then 5 requests.
  EXPECT_EQ(*next, 6u);
}

TEST(Orb, MismatchedReplyIsDiscarded) {
  // The §4.2.1 behaviour in isolation: a reply whose request_id matches no
  // outstanding request must be dropped by the client ORB.
  sim::Simulator sim;
  Orb client(sim, NodeId{1}, OrbConfig{});
  TcpNetwork net{sim};
  client.plug_transport(net.bind(client.local_endpoint(), client));

  // Forge a connection by invoking a never-answering endpoint.
  giop::Ior ior;
  ior.type_id = "IDL:Void:1.0";
  ior.host = NodeId{9};
  ior.port = 2809;
  ior.object_key = util::bytes_of("void");
  ior.orb_vendor = 0;  // different vendor: no handshake
  bool replied = false;
  client.resolve(ior).invoke("op", Bytes{}, [&](const ReplyOutcome&) { replied = true; });
  sim.run_until(sim.now() + Duration(1'000'000));

  giop::Reply bogus;
  bogus.request_id = 12345;  // nothing outstanding with this id
  client.on_message(Endpoint{NodeId{9}, 2809}, giop::encode(bogus));
  sim.run_until(sim.now() + Duration(1'000'000));

  EXPECT_FALSE(replied);
  EXPECT_EQ(client.stats().replies_discarded_request_id, 1u);
  EXPECT_EQ(client.outstanding_requests(), 1u);  // still waiting (forever)
}

TEST(Orb, SameVendorNegotiatesShortKey) {
  OrbPair pair;
  pair.call("echo", Bytes{1});
  const Endpoint server_ep{NodeId{2}, 2809};
  auto key = testing::OrbProbe::negotiated_short_key(pair.client, server_ep);
  ASSERT_TRUE(key.has_value());
  EXPECT_EQ((*key)[0], 0xFE);  // short-key prefix
  EXPECT_EQ(pair.client.stats().handshakes_initiated, 1u);
  EXPECT_EQ(pair.server.stats().handshakes_served, 1u);
  EXPECT_TRUE(testing::OrbProbe::server_handshaken(pair.server, Endpoint{NodeId{1}, 2809}));
}

TEST(Orb, DifferentVendorSkipsHandshake) {
  OrbConfig server_cfg;
  server_cfg.vendor_id = 0x12345678;
  OrbPair pair(OrbConfig{}, server_cfg);
  const ReplyOutcome out = pair.call("echo", util::bytes_of("interop"));
  EXPECT_EQ(out.status, giop::ReplyStatus::kNoException);
  EXPECT_EQ(pair.client.stats().handshakes_initiated, 0u);
  EXPECT_FALSE(testing::OrbProbe::negotiated_short_key(pair.client, Endpoint{NodeId{2}, 2809})
                   .has_value());
}

TEST(Orb, ShortcutsDisabledByConfig) {
  OrbConfig client_cfg;
  client_cfg.vendor_shortcuts = false;
  OrbPair pair(client_cfg);
  const ReplyOutcome out = pair.call("echo", Bytes{1});
  EXPECT_EQ(out.status, giop::ReplyStatus::kNoException);
  EXPECT_EQ(pair.client.stats().handshakes_initiated, 0u);
}

TEST(Orb, UnknownShortKeyDiscarded) {
  // A short-key request on a connection the server never handshook (§4.2.2).
  OrbPair pair;
  giop::Request req;
  req.request_id = 7;
  req.object_key = Bytes{0xFE, 0, 0, 0, 1};
  req.operation = "echo";
  pair.server.on_message(Endpoint{NodeId{77}, 2809}, giop::encode(req));
  pair.sim.run_until(pair.sim.now() + Duration(1'000'000));
  EXPECT_EQ(pair.server.stats().requests_discarded_unknown_key, 1u);
  EXPECT_EQ(pair.servant->calls, 0);
}

TEST(Orb, CodeSetChosenFromIorComponent) {
  // Client prefers its native char set when the server's IOR advertises it.
  OrbConfig client_cfg;
  client_cfg.code_sets.native_char = giop::CodeSet::kUtf8;
  OrbConfig server_cfg;
  server_cfg.vendor_id = 0x12345678;  // different vendor: pure IOR-driven path
  server_cfg.code_sets.native_char = giop::CodeSet::kUtf8;
  OrbPair pair(client_cfg, server_cfg);
  pair.call("echo", Bytes{1});
  auto cs = testing::OrbProbe::client_char_code_set(pair.client, Endpoint{NodeId{2}, 2809});
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(*cs, giop::CodeSet::kUtf8);
}

TEST(Orb, CodeSetFallsBackToIso) {
  OrbConfig client_cfg;
  client_cfg.code_sets.native_char = giop::CodeSet::kUtf8;
  OrbConfig server_cfg;
  server_cfg.vendor_id = 0x12345678;
  server_cfg.code_sets.native_char = giop::CodeSet::kEbcdic;  // no overlap with client
  OrbPair pair(client_cfg, server_cfg);
  pair.call("echo", Bytes{1});
  auto cs = testing::OrbProbe::client_char_code_set(pair.client, Endpoint{NodeId{2}, 2809});
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(*cs, giop::CodeSet::kIso8859_1);
}

TEST(Orb, PoaSerializesConcurrentRequests) {
  OrbPair pair;
  int done = 0;
  for (int i = 0; i < 3; ++i) {
    pair.ref.invoke("echo", Bytes{static_cast<std::uint8_t>(i)},
                    [&](const ReplyOutcome&) { ++done; });
  }
  // Single-threaded POA: ~3 x 100 us execution, serialized.
  pair.sim.run_until(pair.sim.now() + Duration(150'000));
  EXPECT_LT(pair.servant->calls, 3);
  pair.sim.run_until(pair.sim.now() + Duration(2'000'000'000));
  EXPECT_EQ(done, 3);
  EXPECT_EQ(pair.servant->calls, 3);
}

TEST(Orb, DeactivatedObjectStopsServing) {
  OrbPair pair;
  pair.call("echo", Bytes{1});
  pair.server.root_poa().deactivate("echo");
  EXPECT_FALSE(pair.server.root_poa().is_active("echo"));
  const ReplyOutcome out = pair.call("echo", Bytes{2});
  EXPECT_EQ(out.status, giop::ReplyStatus::kSystemException);
}

TEST(Orb, ReservedObjectIdRejected) {
  OrbPair pair;
  EXPECT_THROW(pair.server.root_poa().activate("\xFEkey", pair.servant, "IDL:X:1.0"),
               std::invalid_argument);
  EXPECT_THROW(pair.server.root_poa().activate("\xFDkey", pair.servant, "IDL:X:1.0"),
               std::invalid_argument);
}

TEST(Orb, ResetConnectionsDropsOrbState) {
  OrbPair pair;
  pair.call("echo", Bytes{1});
  const Endpoint server_ep{NodeId{2}, 2809};
  ASSERT_TRUE(testing::OrbProbe::next_request_id(pair.client, server_ep).has_value());
  pair.client.reset_connections();
  EXPECT_FALSE(testing::OrbProbe::next_request_id(pair.client, server_ep).has_value());
  // A fresh "process" renegotiates from scratch and counts from zero again.
  pair.call("echo", Bytes{2});
  auto next = testing::OrbProbe::next_request_id(pair.client, server_ep);
  ASSERT_TRUE(next.has_value());
  EXPECT_EQ(*next, 2u);  // handshake (0) + one request (1)
  EXPECT_EQ(pair.client.stats().handshakes_initiated, 2u);
}

TEST(Orb, InvokeOnNilReferenceThrows) {
  ObjectRef nil;
  EXPECT_THROW(nil.invoke("op", Bytes{}, nullptr), std::logic_error);
  EXPECT_THROW(nil.oneway("op", Bytes{}), std::logic_error);
}

TEST(Orb, MalformedInboundCountsDecodeError) {
  OrbPair pair;
  pair.server.on_message(Endpoint{NodeId{1}, 2809}, util::bytes_of("garbage"));
  pair.sim.run_until(pair.sim.now() + Duration(1'000'000));
  EXPECT_EQ(pair.server.stats().decode_errors, 1u);
}

// ---- The server path on a shared inbound frame (the Interceptor's path):
// the ORB reads the message in place and the dispatched request keeps the
// frame's buffer, so these outcomes must match the copying path above.

/// Records what the server ORB writes.
struct CaptureTransport : Transport {
  std::vector<Bytes> sent;
  void send(const Endpoint&, Bytes iiop) override { sent.push_back(std::move(iiop)); }
};

struct SharedFrameRig {
  SharedFrameRig() {
    server.plug_transport(wire);
    server.root_poa().activate("echo", servant, "IDL:Echo:1.0");
  }

  /// Hands the server `frame` in a shared buffer of its own, keeps no
  /// reference to it, and runs the simulation to quiescence.
  void inject(const Bytes& frame) {
    server.on_message(client, util::SharedSlice::copy_of(frame));
    sim.run();
  }

  giop::Message last_sent() const {
    EXPECT_FALSE(wire.sent.empty());
    std::optional<giop::Message> msg = giop::decode(wire.sent.back());
    EXPECT_TRUE(msg.has_value());
    return msg.value_or(giop::Message{});
  }

  static giop::Request request(const std::string& key, std::uint32_t rid, Bytes body) {
    giop::Request req;
    req.request_id = rid;
    req.object_key = util::bytes_of(key);
    req.operation = "echo";
    req.body = std::move(body);
    return req;
  }

  sim::Simulator sim;
  Orb server{sim, NodeId{2}, OrbConfig{}};
  CaptureTransport wire;
  std::shared_ptr<EchoServant> servant = std::make_shared<EchoServant>(sim);
  const Endpoint client{NodeId{1}, 2809};
};

TEST(OrbSharedFrame, RequestIsServedAndAnswered) {
  SharedFrameRig rig;
  rig.inject(giop::encode(SharedFrameRig::request("echo", 5, util::bytes_of("args"))));
  ASSERT_EQ(rig.wire.sent.size(), 1u);
  const giop::Message sent = rig.last_sent();
  const giop::Reply& reply = sent.as_reply();
  EXPECT_EQ(reply.request_id, 5u);
  EXPECT_EQ(reply.reply_status, giop::ReplyStatus::kNoException);
  EXPECT_EQ(util::text_of(reply.body), "args");
  EXPECT_EQ(rig.server.stats().requests_dispatched, 1u);
}

TEST(OrbSharedFrame, UnknownShortKeyIsDiscarded) {
  SharedFrameRig rig;
  giop::Request req = SharedFrameRig::request("echo", 7, Bytes{1});
  req.object_key = Bytes{0xFE, 0, 0, 0, 1};
  rig.inject(giop::encode(req));
  EXPECT_EQ(rig.server.stats().requests_discarded_unknown_key, 1u);
  EXPECT_EQ(rig.servant->calls, 0);
  EXPECT_TRUE(rig.wire.sent.empty());
}

TEST(OrbSharedFrame, CodeSetContextIsRecorded) {
  SharedFrameRig rig;
  util::CdrWriter w;
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u32(static_cast<std::uint32_t>(giop::CodeSet::kUtf8));
  w.put_u32(static_cast<std::uint32_t>(giop::CodeSet::kUtf16));
  giop::Request req = SharedFrameRig::request("echo", 1, Bytes{1});
  req.service_context.push_back(giop::ServiceContext{giop::kCodeSetsContextId, w.bytes()});
  rig.inject(giop::encode(req));
  EXPECT_EQ(testing::OrbProbe::server_char_code_set(rig.server, rig.client),
            giop::CodeSet::kUtf8);
  EXPECT_EQ(rig.servant->calls, 1);
}

TEST(OrbSharedFrame, TruncatedCodeSetContextIsIgnored) {
  // Nine bytes: the order flag and one code set but not the second. The
  // request is still served and the connection keeps its default.
  SharedFrameRig rig;
  giop::Request req = SharedFrameRig::request("echo", 1, Bytes{1});
  req.service_context.push_back(
      giop::ServiceContext{giop::kCodeSetsContextId, Bytes{1, 0, 0, 0, 1, 0, 1, 5, 0}});
  rig.inject(giop::encode(req));
  EXPECT_EQ(testing::OrbProbe::server_char_code_set(rig.server, rig.client),
            giop::CodeSet::kIso8859_1);
  EXPECT_EQ(rig.servant->calls, 1);
}

TEST(OrbSharedFrame, InactiveKeyAnswersObjectNotExist) {
  SharedFrameRig rig;
  rig.inject(giop::encode(SharedFrameRig::request("gone", 9, Bytes{})));
  ASSERT_EQ(rig.wire.sent.size(), 1u);
  const giop::Message sent = rig.last_sent();
  const giop::Reply& reply = sent.as_reply();
  EXPECT_EQ(reply.request_id, 9u);
  EXPECT_EQ(reply.reply_status, giop::ReplyStatus::kSystemException);
  util::CdrReader r(reply.body, static_cast<util::ByteOrder>(reply.body[0] & 1));
  (void)r.get_u8();
  EXPECT_EQ(r.get_string(), "IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0");
  EXPECT_EQ(rig.server.stats().requests_dispatched, 0u);
}

TEST(OrbSharedFrame, LocateRequestIsAnswered) {
  SharedFrameRig rig;
  giop::LocateRequest here{11, util::bytes_of("echo")};
  giop::LocateRequest absent{12, util::bytes_of("gone")};
  rig.inject(giop::encode(here));
  rig.inject(giop::encode(absent));
  ASSERT_EQ(rig.wire.sent.size(), 2u);
  const auto first = giop::decode(rig.wire.sent[0]);
  const auto second = giop::decode(rig.wire.sent[1]);
  ASSERT_TRUE(first && second);
  EXPECT_EQ(std::get<giop::LocateReply>(first->body), (giop::LocateReply{11, 1}));
  EXPECT_EQ(std::get<giop::LocateReply>(second->body), (giop::LocateReply{12, 0}));
}

TEST(OrbSharedFrame, MalformedFrameCountsDecodeError) {
  SharedFrameRig rig;
  Bytes frame = giop::encode(SharedFrameRig::request("echo", 1, Bytes{1, 2, 3}));
  frame.pop_back();  // the size field no longer matches
  rig.inject(frame);
  EXPECT_EQ(rig.server.stats().decode_errors, 1u);
  EXPECT_EQ(rig.servant->calls, 0);
  EXPECT_TRUE(rig.wire.sent.empty());
}

TEST(OrbSharedFrame, ArgsOutliveEveryOtherHolderOfTheFrame) {
  // The servant reads its arguments 100 us after dispatch. By then the
  // injector's reference and the dispatch event's are gone: only the
  // request record still holds the frame's buffer.
  SharedFrameRig rig;
  const Bytes args = util::bytes_of("arguments that outlive the frame's other holders");
  util::SharedSlice frame =
      util::SharedSlice::copy_of(giop::encode(SharedFrameRig::request("echo", 3, args)));
  const util::SharedBytes* buffer = &frame.owner();
  rig.server.on_message(rig.client, frame);
  EXPECT_EQ(buffer->use_count(), 2u);  // ours and the dispatch event's
  rig.sim.run_until(rig.sim.now() + Duration(50'000));  // dispatched, executing
  EXPECT_EQ(rig.servant->calls, 0);
  EXPECT_EQ(buffer->use_count(), 2u);  // ours and the request record's
  frame = util::SharedSlice{};
  rig.sim.run();
  EXPECT_EQ(rig.servant->calls, 1);
  ASSERT_EQ(rig.wire.sent.size(), 1u);
  EXPECT_EQ(rig.last_sent().as_reply().body, args);
}

}  // namespace
}  // namespace eternal::orb
