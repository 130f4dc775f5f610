// Allocation budget of the per-operation hot path.
//
// This binary replaces the global operator new with a counting one, then
// asserts how many heap allocations the primitives every replicated
// invocation passes through may make once their reusable buffers have
// grown: scheduling and firing events, putting frames on the wire, encoding
// Totem frames and Eternal envelopes, receiving a Data frame at every ring
// member out of its one shared buffer, decoding envelopes as views, retaining
// delivered bytes as slices, filtering duplicates, inspecting GIOP headers,
// handing messages to Totem and the ORB, encoding small CDR bodies, looking
// up a group's ring, the POA's ticket gate, dispatching a request through
// the ORB and POA to a servant and its reply back out, the capacity-keeping
// run and send queues, sequencing a request through its replica's execution
// engine, remembering and withdrawing an active replica's redundant output
// copy (never encoded), sending a message (one allocation per Data frame,
// fragments included), passing and receiving the Totem token, a client
// connection's request-id translations and reply cache, a client ORB's
// two-way call (its GIOP encode) and reply (nothing), and recording a typed
// trace event. A change that puts an allocation back on
// one of these paths fails here instead of only moving the benchmark's
// allocs_per_op.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <vector>

#include "core/envelope.hpp"
#include "core/exec/engine.hpp"
#include "core/placement.hpp"
#include "core/raced_stream.hpp"
#include "core/seq_window.hpp"
#include "giop/giop.hpp"
#include "obs/trace.hpp"
#include "orb/orb.hpp"
#include "orb/sync_servant.hpp"
#include "sim/ethernet.hpp"
#include "sim/simulator.hpp"
#include "totem/frames.hpp"
#include "totem/totem.hpp"
#include "util/cdr.hpp"
#include "util/fifo.hpp"
#include "util/seq_map.hpp"
#include "util/shared_bytes.hpp"

namespace {

std::uint64_t g_allocs = 0;
/// Allocations of at least g_large_from bytes (frame- and message-sized).
std::size_t g_large_from = static_cast<std::size_t>(-1);
std::uint64_t g_large = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  if (n >= g_large_from) ++g_large;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, ((n == 0 ? 1 : n) + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_aligned_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace eternal {
namespace {

using util::Bytes;
using util::Duration;
using util::NodeId;

/// Heap allocations `fn` makes.
template <typename Fn>
std::uint64_t allocs_of(Fn&& fn) {
  const std::uint64_t before = g_allocs;
  fn();
  return g_allocs - before;
}

TEST(AllocBudget, CounterSeesAllocations) {
  EXPECT_EQ(allocs_of([] { Bytes b(100); }), 1u);
}

TEST(AllocBudget, ScheduleFireCancelAllocatesNothing) {
  sim::Simulator sim;
  int fired = 0;
  // Captures the size of the hot path's: a pointer and a few ids.
  auto round = [&] {
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t a = i, b = i * 2, c = i * 3;
      const sim::EventId id =
          sim.schedule(Duration(i), [&fired, a, b, c] { fired += (a + b + c) != 0 ? 1 : 0; });
      if (i % 3 == 0) sim.cancel(id);
      // A re-armed timer: cancel the previous occupant, schedule afresh.
      sim.cancel(sim.schedule(Duration(5'000'000), [&fired] { ++fired; }));
    }
    sim.run();
  };
  round();  // warm-up: the slab, free list and queue grow to their span
  EXPECT_EQ(allocs_of(round), 0u);
  EXPECT_GT(fired, 0);
}

TEST(AllocBudget, BroadcastAllocatesNothingBeyondThePayload) {
  struct Sink : sim::Station {
    std::uint64_t bytes = 0;
    void on_frame(NodeId, util::BytesView payload) override { bytes += payload.size(); }
  };
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  Sink stations[4];
  for (std::uint32_t i = 0; i < 4; ++i) ether.attach(NodeId{i + 1}, &stations[i]);
  auto round = [&] {
    for (int i = 0; i < 16; ++i) {
      Bytes frame(200, 0x5A);  // the one allocation: the frame's bytes
      ether.broadcast(NodeId{1}, std::move(frame));
    }
    sim.run();
  };
  round();
  EXPECT_EQ(allocs_of(round), 16u);
  EXPECT_EQ(stations[1].bytes, 2u * 16u * 200u);
}

TEST(AllocBudget, FrameAndEnvelopeEncodersAllocateOnce) {
  totem::DataFrame data;
  data.view = util::ViewId{3};
  data.ring_id = 77;
  data.origin = NodeId{2};
  data.seq = 1234;
  const Bytes payload(300, 0xAB);
  data.payload = util::SharedSlice::copy_of(payload);
  EXPECT_EQ(allocs_of([&] { (void)totem::encode_frame(NodeId{2}, data); }), 1u);
  // The shared form keeps its reference count inside the one allocation.
  EXPECT_EQ(allocs_of([&] { (void)totem::encode_data_frame(NodeId{2}, data, payload); }), 1u);
  // The send path's form: the payload is written in place from the queue.
  const totem::Outbound queued(Bytes(8, 0x11), Bytes(payload), Bytes(4, 0x22));
  EXPECT_EQ(allocs_of([&] {
              (void)totem::encode_data_frame(NodeId{2}, data, queued.size(), [&](std::uint8_t* out) {
                queued.copy(0, queued.size(), out);
              });
            }),
            1u);

  totem::TokenFrame token;
  token.view = util::ViewId{3};
  token.next_seq = 99;
  EXPECT_EQ(allocs_of([&] { (void)totem::encode_frame(NodeId{2}, token); }), 1u);
  token.rtr = {4, 5, 9};
  EXPECT_EQ(allocs_of([&] { (void)totem::encode_frame(NodeId{2}, token); }), 1u);

  // Membership frames are sized by upper bound; odd and even element counts
  // exercise every alignment case.
  for (std::uint32_t n = 0; n < 6; ++n) {
    std::vector<NodeId> nodes;
    std::vector<std::uint64_t> seqs;
    for (std::uint32_t i = 0; i < n; ++i) {
      nodes.push_back(NodeId{i + 1});
      seqs.push_back(1000 + i);
    }
    const totem::JoinFrame join{nodes, 7, 3, 99};
    const totem::CommitFrame commit{util::ViewId{4}, nodes, 12, 99, seqs};
    const totem::ReadyFrame ready{util::ViewId{4}, seqs, seqs, seqs};
    const totem::InstallFrame install{util::ViewId{4}, nodes, 13};
    EXPECT_EQ(allocs_of([&] { (void)totem::encode_frame(NodeId{1}, join); }), 1u) << n;
    EXPECT_EQ(allocs_of([&] { (void)totem::encode_frame(NodeId{1}, commit); }), 1u) << n;
    EXPECT_EQ(allocs_of([&] { (void)totem::encode_frame(NodeId{1}, ready); }), 1u) << n;
    EXPECT_EQ(allocs_of([&] { (void)totem::encode_frame(NodeId{1}, install); }), 1u) << n;
  }

  core::Envelope e;
  e.kind = core::EnvelopeKind::kRequest;
  e.client_group = util::GroupId{7};
  e.target_group = util::GroupId{9};
  e.op_seq = 5;
  e.payload = Bytes(150, 0xEE);
  EXPECT_EQ(allocs_of([&] { (void)core::encode_envelope(e); }), 1u);
  // As a Totem message a request envelope moves its payload in unencoded.
  core::Envelope moved = e;
  EXPECT_EQ(allocs_of([&] { (void)core::to_outbound(std::move(moved)); }), 0u);
  e.kind = core::EnvelopeKind::kStateBulkDescriptor;
  e.extent_digests = {1, 2, 3};
  e.orb_state = Bytes(13, 1);
  EXPECT_EQ(allocs_of([&] { (void)core::encode_envelope(e); }), 1u);
  // An envelope with digests or other blobs is encoded flat, once.
  moved = e;
  EXPECT_EQ(allocs_of([&] { (void)core::to_outbound(std::move(moved)); }), 1u);
}

TEST(AllocBudget, GiopEncodeAllocatesOnceAndInspectNever) {
  giop::Request req;
  req.service_context.push_back({giop::kCodeSetsContextId, Bytes(8, 1)});
  req.service_context.push_back({giop::kVendorHandshakeContextId, Bytes(8, 2)});
  req.request_id = 42;
  req.object_key = util::bytes_of("some-object");
  req.operation = "transfer_funds";
  req.body = Bytes(64, 0x5A);
  Bytes wire;
  EXPECT_EQ(allocs_of([&] { wire = giop::encode(req); }), 1u);

  std::uint64_t offer = 0;
  bool handshake = false;
  EXPECT_EQ(allocs_of([&] {
              auto info = giop::inspect(wire);
              info->for_each_context([&](std::uint32_t id, util::BytesView data) {
                if (id != giop::kVendorHandshakeContextId) return true;
                for (std::uint8_t b : data) offer = offer << 8 | b;
                return false;
              });
              handshake = info->has_context(giop::kVendorHandshakeContextId);
            }),
            0u);
  EXPECT_EQ(offer, 0x0202020202020202u);
  EXPECT_TRUE(handshake);

  giop::Reply reply;
  reply.request_id = 42;
  reply.body = Bytes(16, 1);
  EXPECT_EQ(allocs_of([&] { wire = giop::encode(reply); }), 1u);
  EXPECT_EQ(allocs_of([&] { (void)giop::inspect(wire); }), 0u);
}

TEST(AllocBudget, EnvelopeViewDecodeAllocatesNothing) {
  core::Envelope e;
  e.kind = core::EnvelopeKind::kRequest;
  e.client_group = util::GroupId{7};
  e.target_group = util::GroupId{9};
  e.op_seq = 5;
  e.payload = Bytes(150, 0xEE);
  const Bytes request = core::encode_envelope(e);
  std::uint64_t sum = 0;
  EXPECT_EQ(allocs_of([&] {
              const auto view = core::decode_envelope_view(request);
              sum += view->op_seq + view->payload.size();
            }),
            0u);
  EXPECT_EQ(sum, 155u);
  // Owning it copies the one non-empty blob.
  EXPECT_EQ(allocs_of([&] { (void)core::decode_envelope(request); }), 1u);

  e.kind = core::EnvelopeKind::kStateBulkDescriptor;
  e.transfer_id = 3;
  e.total_bytes = 100;
  e.extent_bytes = 40;
  e.chunk_count = 3;
  e.extent_digests = {11, 22, 33};
  e.orb_state = Bytes(13, 1);
  const Bytes descriptor = core::encode_envelope(e);
  EXPECT_EQ(allocs_of([&] { ASSERT_TRUE(core::decode_envelope_view(descriptor)); }), 0u);
  // Digests, payload and orb_state.
  EXPECT_EQ(allocs_of([&] { (void)core::decode_envelope(descriptor); }), 3u);
}

TEST(AllocBudget, InOrderDuplicateFilterAllocatesNothing) {
  core::SeqWindow window;
  bool fresh = true;
  bool dup = false;
  EXPECT_EQ(allocs_of([&] {
              for (std::uint64_t s = 0; s < 1000; ++s) {
                fresh &= window.test_and_insert(s);
                dup |= window.test_and_insert(s);
              }
            }),
            0u);
  EXPECT_TRUE(fresh);
  EXPECT_FALSE(dup);
  EXPECT_EQ(window.contiguous_prefix(), 1000u);
}

TEST(AllocBudget, SingleFragmentMulticastMovesThePayload) {
  struct Sink : totem::TotemListener {
    std::size_t delivered = 0;
    void on_deliver(const totem::Delivery&) override { ++delivered; }
    void on_view_change(const totem::View&) override {}
  };
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  Sink sink;
  totem::TotemNode node(sim, ether, NodeId{1}, totem::TotemConfig{}, &sink);
  node.start({NodeId{1}});
  sim.run_for(Duration(500'000));
  constexpr std::size_t kMessages = 8;
  std::vector<core::Envelope> envelopes;
  auto round = [&] {
    envelopes.assign(kMessages, core::Envelope{});
    for (core::Envelope& e : envelopes) e.payload = Bytes(200, 0x3C);
    const std::uint64_t allocs = allocs_of([&] {
      for (core::Envelope& e : envelopes) node.multicast(core::to_outbound(std::move(e)));
    });
    sim.run_for(Duration(50'000));
    return allocs;
  };
  round();
  // Copying or encoding the payloads would cost 8; the send queue keeps its
  // capacity.
  EXPECT_EQ(round(), 0u);
  EXPECT_EQ(sink.delivered, 2 * kMessages);
}

/// A single-member ring whose store recycles its blocks within a test.
struct LoneRing {
  struct Sink : totem::TotemListener {
    std::size_t delivered = 0;
    std::size_t bytes = 0;
    void on_deliver(const totem::Delivery& d) override {
      ++delivered;
      bytes += d.payload.size();
    }
    void on_view_change(const totem::View&) override {}
  };
  static totem::TotemConfig config() {
    totem::TotemConfig cfg;
    cfg.gc_margin = 8;
    return cfg;
  }
  sim::Simulator sim;
  sim::Ethernet ether{sim, sim::EthernetConfig{}};
  Sink sink;
  totem::TotemNode node{sim, ether, NodeId{1}, config(), &sink};
  LoneRing() {
    node.start({NodeId{1}});
    sim.run_for(Duration(500'000));
  }
};

/// A reply envelope around GIOP bytes the ORB has already encoded.
core::Envelope reply_envelope(std::uint64_t op_seq) {
  giop::Reply reply;
  reply.request_id = static_cast<std::uint32_t>(op_seq);
  reply.body = Bytes(9, 0x4D);
  core::Envelope e;
  e.kind = core::EnvelopeKind::kReply;
  e.client_group = util::GroupId{7};
  e.target_group = util::GroupId{9};
  e.op_seq = op_seq;
  e.payload = giop::encode(reply);
  return e;
}

TEST(AllocBudget, WithdrawnReplyCopyIsNeverEncoded) {
  // An active replica's reply copy that a sibling's copy beats to delivery:
  // multicast, then withdrawn before the token comes. Past the ORB's GIOP
  // encode it costs nothing: no envelope, no frame.
  LoneRing ring;
  constexpr std::size_t kCopies = 8;
  std::vector<core::Envelope> copies;
  std::vector<std::uint64_t> handles(kCopies);
  std::uint64_t seq = 0;
  auto round = [&] {
    copies.clear();
    for (std::size_t i = 0; i < kCopies; ++i) copies.push_back(reply_envelope(seq++));
    const std::uint64_t allocs = allocs_of([&] {
      for (std::size_t i = 0; i < kCopies; ++i) {
        handles[i] = ring.node.multicast(core::to_outbound(std::move(copies[i])));
      }
      for (std::uint64_t h : handles) EXPECT_TRUE(ring.node.withdraw(h));
    });
    ring.sim.run_for(Duration(50'000));
    return allocs;
  };
  round();  // warm-up: the send queue grows
  EXPECT_EQ(round(), 0u);
  EXPECT_EQ(ring.node.stats().withdrawn, 2 * kCopies);
  EXPECT_EQ(ring.node.stats().fragments_sent, 0u);
  EXPECT_EQ(ring.sink.delivered, 0u);
}

TEST(AllocBudget, SentUnfragmentedMessageCostsItsFrameOnly) {
  // From multicast to self-delivery: the message's one allocation is the
  // Data frame its bytes are written into.
  LoneRing ring;
  constexpr std::size_t kMessages = 8;
  std::vector<core::Envelope> envelopes;
  std::uint64_t seq = 0;
  auto round = [&] {
    envelopes.clear();
    for (std::size_t i = 0; i < kMessages; ++i) envelopes.push_back(reply_envelope(seq++));
    return allocs_of([&] {
      for (core::Envelope& e : envelopes) ring.node.multicast(core::to_outbound(std::move(e)));
      ring.sim.run_for(Duration(50'000));
    });
  };
  for (int i = 0; i < 24; ++i) round();  // warm-up: three store blocks, queue, slots
  std::uint64_t allocs = 0;
  for (int i = 0; i < 8; ++i) allocs += round();
  EXPECT_EQ(allocs, 8 * kMessages) << "one Data frame per message";
  EXPECT_EQ(ring.sink.delivered, 32 * kMessages);
  EXPECT_EQ(ring.node.stats().fragments_sent, 32 * kMessages);
}

TEST(AllocBudget, FragmentedMessageCostsOneAllocationPerFrame) {
  // A message of N fragments stays one queue entry: multicast copies
  // nothing, and each fragment's frame is filled from its byte range of the
  // queued body. The send allocates N frames and nothing else of fragment
  // size; the one other large allocation is the self-delivery's reassembled
  // message.
  LoneRing ring;
  const std::size_t cap = ring.node.fragment_capacity();
  constexpr std::size_t kFragments = 4;
  core::Envelope e = reply_envelope(1);
  e.payload.resize(kFragments * cap - 100, 0x6A);
  const std::size_t bytes = core::encoded_size(e);
  ASSERT_LE(bytes, kFragments * cap);
  // Even the last fragment's frame counts as large below.
  ASSERT_GE(bytes - (kFragments - 1) * cap + totem::data_frame_overhead(), cap);
  auto send = [&](std::uint64_t& multicast_allocs, std::uint64_t& large_allocs) {
    totem::Outbound message = core::to_outbound(core::Envelope(e));
    multicast_allocs = allocs_of([&] { ring.node.multicast(std::move(message)); });
    EXPECT_EQ(ring.node.backlog(), kFragments);
    g_large_from = cap;  // the last fragment's frame is larger, its payload smaller
    g_large = 0;
    ring.sim.run_for(Duration(200'000));
    g_large_from = static_cast<std::size_t>(-1);
    large_allocs = g_large;
  };
  std::uint64_t multicast_allocs = 0;
  std::uint64_t large_allocs = 0;
  send(multicast_allocs, large_allocs);  // warm-up: the store's block
  send(multicast_allocs, large_allocs);
  EXPECT_EQ(multicast_allocs, 0u);
  EXPECT_EQ(large_allocs, kFragments + 1) << "N frames plus the reassembled message";
  EXPECT_EQ(ring.node.stats().fragments_sent, 2 * kFragments);
  ASSERT_EQ(ring.sink.delivered, 2u);
  EXPECT_EQ(ring.sink.bytes, 2 * bytes);
}

TEST(AllocBudget, ClientTwoWayCallCostsItsGiopEncodeAndItsReplyNothing) {
  // A client ORB's steady-state two-way invocation on a connection whose
  // vendor handshake is done: the request is encoded from views of the
  // object key (replaced by the negotiated short key), operation and
  // arguments, and the awaited reply is filed in the connection's
  // capacity-keeping map. The reply's handler gets a slice of the inbound
  // message.
  struct Wire : orb::Transport {
    Bytes last;
    void send(const orb::Endpoint&, Bytes iiop) override { last = std::move(iiop); }
  };
  sim::Simulator sim;
  orb::Orb client(sim, NodeId{1}, orb::OrbConfig{});
  orb::Orb server(sim, NodeId{2}, orb::OrbConfig{});
  Wire to_server;
  Wire to_client;
  client.plug_transport(to_server);
  server.plug_transport(to_client);
  giop::Ior ior;
  ior.host = NodeId{2};
  ior.object_key = util::bytes_of("counter");
  ior.orb_vendor = orb::OrbConfig{}.vendor_id;
  ior.code_sets = orb::OrbConfig{}.code_sets;
  const orb::ObjectRef ref = client.resolve(ior);
  const orb::Endpoint server_ep{ior.host, ior.port};

  std::uint64_t reply_bytes = 0;
  // First contact queues the call behind the handshake the server answers.
  ref.invoke("inc", Bytes(8, 1), [&](const orb::ReplyOutcome& out) { reply_bytes += out.body.size(); });
  server.on_message(client.local_endpoint(), util::BytesView(to_server.last));
  sim.run();
  client.on_message(server_ep, util::BytesView(to_client.last));
  sim.run();
  ASSERT_TRUE(orb::testing::OrbProbe::negotiated_short_key(client, server_ep).has_value());

  std::uint64_t invoke_allocs = 0;
  std::uint64_t reply_allocs = 0;
  auto reply_to_last = [&] {
    const std::optional<giop::Inspection> request = giop::inspect(to_server.last);
    ASSERT_TRUE(request.has_value());
    giop::Reply reply;
    reply.request_id = request->request_id;
    reply.body = Bytes(9, 2);
    const util::SharedSlice wire = util::SharedSlice::copy_of(giop::encode(reply));
    reply_allocs += allocs_of([&] {
      client.on_message(server_ep, wire);
      sim.run();
    });
  };
  auto call = [&] {
    Bytes args(8, 1);
    orb::ReplyHandler handler = [&reply_bytes](const orb::ReplyOutcome& out) {
      reply_bytes += out.body.size();
    };
    invoke_allocs += allocs_of([&] { ref.invoke("inc", std::move(args), std::move(handler)); });
    reply_to_last();
  };
  reply_to_last();  // the call the handshake held back
  for (int i = 0; i < 4; ++i) call();  // warm-up: the pending map and event slab
  invoke_allocs = reply_allocs = 0;
  reply_bytes = 0;
  constexpr int kCalls = 16;
  for (int i = 0; i < kCalls; ++i) call();
  EXPECT_EQ(invoke_allocs, static_cast<std::uint64_t>(kCalls)) << "the GIOP encode only";
  EXPECT_EQ(reply_allocs, 0u);
  EXPECT_EQ(reply_bytes, 9u * kCalls);
  EXPECT_EQ(client.outstanding_requests(), 0u);
  EXPECT_EQ(client.stats().replies_discarded_request_id, 0u);
  // The request carried the negotiated short key, not the full one.
  const std::optional<giop::Inspection> last = giop::inspect(to_server.last);
  ASSERT_TRUE(last.has_value());
  EXPECT_TRUE(std::ranges::equal(
      last->object_key, *orb::testing::OrbProbe::negotiated_short_key(client, server_ep)));
}

TEST(AllocBudget, RacedCopyEmitWithdrawAndDeliverAllocateNothing) {
  // An active replica's reply copies: each is multicast and remembered on
  // its stream (emit); a sibling's copy of the same reply delivers first and
  // withdraws this node's unsent one (deliver-and-withdraw). A plain
  // withdraw drops queued messages outright. Only these steps are counted,
  // not the payloads the multicasts move into the send queue.
  struct Sink : totem::TotemListener {
    void on_deliver(const totem::Delivery&) override {}
    void on_view_change(const totem::View&) override {}
  };
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  Sink sink;
  totem::TotemNode node(sim, ether, NodeId{1}, totem::TotemConfig{}, &sink);
  node.start({NodeId{1}});
  sim.run_for(Duration(500'000));
  core::RacedStream stream;
  constexpr std::size_t kCopies = 8;
  std::uint64_t seq = 0;
  std::uint64_t withdrawn = 0;
  std::vector<std::uint64_t> handles(kCopies);
  auto round = [&](std::uint64_t& emit, std::uint64_t& deliver, std::uint64_t& withdraw) {
    for (std::uint64_t& h : handles) h = node.multicast(Bytes(200, 0x5A));
    emit += allocs_of([&] {
      for (std::size_t i = 0; i < kCopies; ++i) stream.queued(seq + i, handles[i]);
    });
    deliver += allocs_of([&] {
      for (std::size_t i = 0; i < kCopies; ++i) {
        stream.deliver(seq + i, [&](std::uint64_t h) { withdrawn += node.withdraw(h) ? 1 : 0; });
      }
    });
    seq += kCopies;
    for (std::uint64_t& h : handles) h = node.multicast(Bytes(200, 0x5A));
    withdraw += allocs_of([&] {  // newest first: erases behind queued messages
      for (auto h = handles.rbegin(); h != handles.rend(); ++h) {
        withdrawn += node.withdraw(*h) ? 1 : 0;
      }
    });
  };
  std::uint64_t emit = 0;
  std::uint64_t deliver = 0;
  std::uint64_t withdraw = 0;
  round(emit, deliver, withdraw);  // warm-up: the stream's FIFO grows
  emit = deliver = withdraw = 0;
  round(emit, deliver, withdraw);
  EXPECT_EQ(emit, 0u);
  EXPECT_EQ(deliver, 0u);
  EXPECT_EQ(withdraw, 0u);
  EXPECT_EQ(withdrawn, 4 * kCopies);
  EXPECT_EQ(node.backlog(), 0u);
  EXPECT_EQ(node.stats().withdrawn, 4 * kCopies);
  EXPECT_TRUE(stream.delivered(seq - 1));
}

TEST(AllocBudget, OrbKeepsOneCopyOfAnInjectedMessage) {
  sim::Simulator sim;
  orb::Orb orb(sim, NodeId{1}, orb::OrbConfig{});
  const Bytes close = giop::encode(giop::CloseConnection{});
  const util::SharedSlice shared = util::SharedSlice::copy_of(close);
  const orb::Endpoint from{NodeId{2}};
  orb.on_message(from, shared);
  sim.run();  // warm-up: the event slab grows
  // A shared slice (the Interceptor's path): the event holds a reference.
  EXPECT_EQ(allocs_of([&] { orb.on_message(from, shared); }), 0u);
  EXPECT_EQ(shared.owner().use_count(), 2u);  // ours and the pending event's
  sim.run();
  EXPECT_EQ(shared.owner().use_count(), 1u);
  // A plain view (TcpNetwork's path): one copy, into the buffer the event
  // then references.
  EXPECT_EQ(allocs_of([&] { orb.on_message(from, util::BytesView(close)); }), 1u);
  sim.run();
}

TEST(AllocBudget, OrbDispatchOfATwoWayRequestAllocatesOnlyTheRecordAndTheReply) {
  // A request in a shared buffer (the Interceptor's path) goes through the
  // ORB's dispatch event, the POA, a SyncServant's modelled execution and
  // execution gate, and back out as a reply. The request is read in place:
  // what is allocated is the request record, the servant's encoded result
  // and the framed reply.
  struct Counter : orb::SyncServant {
    using orb::SyncServant::SyncServant;
    std::int64_t value = 0;
    Bytes serve(const std::string&, util::BytesView args) override {
      value += static_cast<std::int64_t>(args.size());
      util::CdrWriter w;
      w.put_u8(static_cast<std::uint8_t>(w.order()));
      w.put_i64(value);
      return std::move(w).take();
    }
  };
  struct Wire : orb::Transport {
    std::uint64_t replies = 0;
    void send(const orb::Endpoint&, Bytes iiop) override {
      replies += giop::inspect(iiop).has_value() ? 1 : 0;
    }
  };
  sim::Simulator sim;
  orb::Orb orb(sim, NodeId{1}, orb::OrbConfig{});
  Wire wire;
  orb.plug_transport(wire);
  auto servant = std::make_shared<Counter>(sim);
  orb.root_poa().activate("counter", servant, "IDL:Counter:1.0");
  giop::Request request;
  request.request_id = 4;
  request.object_key = util::bytes_of("counter");
  request.operation = "increment";
  request.body = Bytes(24, 0x11);
  const util::SharedSlice frame = giop::encode_shared(request);
  const orb::Endpoint from{NodeId{2}};
  auto round = [&] {
    orb.on_message(from, frame);
    sim.run();
  };
  round();  // warm-up: the event slab and the server connection
  EXPECT_EQ(allocs_of(round), 3u);
  EXPECT_EQ(wire.replies, 2u);
  EXPECT_EQ(servant->value, 48);
  EXPECT_EQ(frame.owner().use_count(), 1u);  // the record released the frame
}

TEST(AllocBudget, ReplicaQueueAndSendQueueFifoAllocateNothingInSteadyState) {
  // A replica's run queue: items the size of the Mechanisms' queue item (a
  // retained envelope plus span bookkeeping) pass through a queue that holds
  // zero to two of them, with the covered-prefix and mid-queue erases of
  // recovery and withdrawal mixed in.
  struct Item {
    std::optional<core::RetainedEnvelope> env;
    std::uint64_t trace = 0;
    std::uint64_t span = 0;
    bool admit_blocked = false;
  };
  core::Envelope e;
  e.kind = core::EnvelopeKind::kRequest;
  e.payload = Bytes(64, 0x2B);
  const util::SharedSlice delivered = util::SharedSlice::copy_of(core::encode_envelope(e));
  const core::RetainedEnvelope retained(*core::decode_envelope_view(delivered), delivered);
  util::Fifo<Item> run_queue;
  std::uint64_t popped = 0;
  auto replica_round = [&] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      run_queue.push_back(Item{retained, i, i, false});
      if (i % 2 == 0) run_queue.push_back(Item{retained, i, i, false});
      Item item = std::move(run_queue.front());
      run_queue.pop_front();
      popped += item.env.has_value() && item.trace <= i ? 1 : 0;
      if (run_queue.size() > 1) run_queue.erase(run_queue.begin() + 1, run_queue.end());
      if (i % 8 == 7) run_queue.erase(run_queue.begin(), run_queue.end());
    }
  };
  replica_round();  // warm-up: the vector grows to its working depth
  EXPECT_EQ(allocs_of(replica_round), 0u);
  EXPECT_EQ(popped, 128u);
  EXPECT_EQ(delivered.owner().use_count(), 2u + run_queue.size());

  // A Totem node's send queue: zero to two messages wait for each token
  // visit. Only the multicasts are counted (they move their payloads in).
  struct Sink : totem::TotemListener {
    void on_deliver(const totem::Delivery&) override {}
    void on_view_change(const totem::View&) override {}
  };
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  Sink sink;
  totem::TotemNode node(sim, ether, NodeId{1}, totem::TotemConfig{}, &sink);
  node.start({NodeId{1}});
  sim.run_for(Duration(500'000));
  std::vector<Bytes> payloads;
  auto send_round = [&] {
    std::uint64_t allocs = 0;
    for (int i = 0; i < 64; ++i) {
      payloads.assign(1 + i % 2, Bytes(100, 0x6E));
      allocs += allocs_of([&] {
        for (Bytes& p : payloads) node.multicast(std::move(p));
      });
      sim.run_for(Duration(50'000));
    }
    return allocs;
  };
  send_round();
  EXPECT_EQ(send_round(), 0u);
  EXPECT_EQ(node.backlog(), 0u);
}

TEST(AllocBudget, ReceivingADataFrameAtFourStationsAllocatesNothing) {
  // Four ring members behind forwarding seams (as a benchmark harness wraps
  // them); a fifth station puts Data frames on the segment. Only the seams'
  // Data-frame calls are counted: decode, store, delivery and the listener.
  struct Sink : totem::TotemListener {
    std::uint64_t delivered = 0;
    util::SharedSlice last;  // keeping a delivery is a reference, not a copy
    void on_deliver(const totem::Delivery& d) override {
      delivered += 1;
      last = d.payload;
    }
    void on_view_change(const totem::View&) override {}
  };
  struct Seam : sim::Station {
    totem::TotemNode* node = nullptr;
    std::uint64_t data_allocs = 0;
    void on_frame(NodeId from, util::BytesView frame) override {
      const bool data = frame.size() > 1 && frame[1] == static_cast<std::uint8_t>(
                                                            totem::FrameType::kData);
      const std::uint64_t before = g_allocs;
      node->on_frame(from, frame);
      if (data) data_allocs += g_allocs - before;
    }
  };
  struct Silent : sim::Station {
    void on_frame(NodeId, util::BytesView) override {}
  };
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  totem::TotemConfig cfg;
  cfg.gc_margin = 8;  // GC recycles the store's blocks within the test
  Sink sinks[4];
  Seam seams[4];
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  const std::vector<NodeId> members{NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  for (std::uint32_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, ether, members[i], cfg, &sinks[i]));
  }
  for (std::uint32_t i = 0; i < 4; ++i) {
    nodes[i]->start(members);
    seams[i].node = nodes[i].get();
    ether.attach(members[i], &seams[i]);
  }
  Silent sender;
  ether.attach(NodeId{9}, &sender);
  sim.run_for(Duration(500'000));

  std::uint64_t seq = 0;
  const Bytes payload(200, 0x6D);
  auto send = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      totem::DataFrame f;
      f.view = nodes[0]->view().id;
      f.ring_id = nodes[0]->view().ring_id;
      f.origin = NodeId{9};
      f.seq = ++seq;
      f.msg_id = seq;
      ether.broadcast(NodeId{9}, totem::encode_data_frame(NodeId{9}, f, payload));
      sim.run_for(Duration(200'000));  // tokens circulate: aru and GC advance
    }
  };
  send(256);  // warm-up: last-heard map, store blocks, event slab
  for (Seam& s : seams) s.data_allocs = 0;
  send(128);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(seams[i].data_allocs, 0u) << "station " << i;
    EXPECT_EQ(sinks[i].delivered, seq) << "station " << i;
    EXPECT_EQ(sinks[i].last, payload);
  }
}

TEST(AllocBudget, PassingAndReceivingTheTokenAtFourStationsAllocatesNothing) {
  // An idle four-member ring: every event is a token pass (encode, put on
  // the segment) or its receipt at the other three members (decode, handle,
  // re-arm the loss timer). Once the pass buffers and the segment's slots
  // have grown, a rotation allocates nothing.
  struct Sink : totem::TotemListener {
    void on_deliver(const totem::Delivery&) override {}
    void on_view_change(const totem::View&) override {}
  };
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  Sink sinks[4];
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  const std::vector<NodeId> members{NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  for (std::uint32_t i = 0; i < 4; ++i) {
    nodes.push_back(
        std::make_unique<totem::TotemNode>(sim, ether, members[i], totem::TotemConfig{}, &sinks[i]));
  }
  for (auto& node : nodes) node->start(members);
  sim.run_for(Duration(5'000'000));  // warm-up: the ring forms and the token circulates
  const std::uint64_t tokens_before = nodes[0]->stats().tokens_handled;
  EXPECT_EQ(allocs_of([&] { sim.run_for(Duration(10'000'000)); }), 0u);
  // A hop is the 20 µs idle hold plus the frame's wire time: about 50 µs.
  EXPECT_GT(nodes[0]->stats().tokens_handled - tokens_before, 40u);
  for (const auto& node : nodes) EXPECT_EQ(node->view().members.size(), 4u);
}

TEST(AllocBudget, HeldThenWokenTokenPassAllocatesNothing) {
  // A member whose listener reports imminent output keeps the idle token
  // until its next multicast, or until the cap. Keeping it, the wake event,
  // the rest of the visit and the pass allocate nothing: a woken cycle's one
  // allocation is its Data frame's shared buffer, as for any send, and a
  // cycle the cap ends allocates nothing at all.
  struct Sink : totem::TotemListener {
    bool imminent = false;
    void on_deliver(const totem::Delivery&) override {}
    void on_view_change(const totem::View&) override {}
    bool output_imminent() const override { return imminent; }
  };
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  totem::TotemConfig cfg;
  cfg.gc_margin = 8;  // GC recycles the store's blocks within the test
  Sink sinks[4];
  sinks[0].imminent = true;
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  const std::vector<NodeId> members{NodeId{1}, NodeId{2}, NodeId{3}, NodeId{4}};
  for (std::uint32_t i = 0; i < 4; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, ether, members[i], cfg, &sinks[i]));
  }
  for (auto& node : nodes) node->start(members);
  totem::TotemNode& holder = *nodes[0];
  const auto until_held = [&] {
    while (!holder.holding_for_output()) ASSERT_TRUE(sim.step());
  };

  // Warm-up: three of the store's 64-frame blocks, so the counted cycles
  // only reuse blocks, queue capacity and segment slots.
  constexpr int kWarm = 192, kWoken = 64, kCapped = 32;
  std::vector<Bytes> payloads(kWarm + kWoken, Bytes(100, 0x52));  // built before counting
  for (int i = 0; i < kWarm; ++i) {
    until_held();
    holder.multicast(std::move(payloads[i]));
    sim.run_for(Duration(300'000));
  }
  std::uint64_t woken = 0;
  for (int i = kWarm; i < kWarm + kWoken; ++i) {
    until_held();
    woken += allocs_of([&] {
      holder.multicast(std::move(payloads[i]));
      sim.run_until(sim.now());  // the wake, the send and the pass
    });
    EXPECT_FALSE(holder.holding_for_output());
  }
  EXPECT_EQ(woken, static_cast<std::uint64_t>(kWoken)) << "one Data frame buffer per cycle";
  std::uint64_t capped = 0;
  for (int i = 0; i < kCapped; ++i) {
    until_held();
    capped += allocs_of([&] { sim.run_for(Duration(200'000)); });
  }
  EXPECT_EQ(capped, 0u);
  EXPECT_EQ(holder.stats().output_holds,
            static_cast<std::uint64_t>(kWarm + kWoken + kCapped));
  for (const auto& node : nodes) EXPECT_EQ(node->view().id.value, 1u);
}

TEST(AllocBudget, InvocationBookkeepingAllocatesNothingInSteadyState) {
  // A client connection's per-invocation bookkeeping: the group → local
  // request-id translation, inserted at capture and retired at the reply's
  // first delivery, and the bounded reply cache the reply enters. Eight
  // invocations are outstanding at a time, and their replies arrive in
  // swapped pairs (1, 0, 3, 2, ...): half retire from the front, half from
  // behind it.
  constexpr std::size_t kReplyCacheCap = 1024;  // Mechanisms' per-connection cap
  util::SeqMap<std::uint32_t> group_to_local;
  util::SeqMap<util::SharedSlice> reply_cache;
  const util::SharedSlice reply = util::SharedSlice::copy_of(Bytes(64, 0x2B));
  std::uint64_t next_rid = 0;
  std::uint64_t translated = 0;
  auto invocations = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t rid = next_rid++;
      group_to_local.insert_or_assign(rid, static_cast<std::uint32_t>(rid + 7));
      if (rid < 8) continue;
      const std::uint64_t replied = (rid - 8) ^ 1;
      if (const std::optional<std::uint32_t> local = group_to_local.take(replied)) {
        translated += *local == replied + 7 ? 1 : 0;
      }
      reply_cache.insert_or_assign(replied, reply);
      reply_cache.trim(kReplyCacheCap);
    }
  };
  invocations(3 * kReplyCacheCap);  // warm-up: both vectors reach their span
  EXPECT_EQ(allocs_of([&] { invocations(4 * kReplyCacheCap); }), 0u);
  EXPECT_EQ(reply_cache.size(), kReplyCacheCap);
  EXPECT_EQ(group_to_local.size(), 8u);
  EXPECT_EQ(translated, next_rid - 8);
  EXPECT_EQ(reply.owner().use_count(), 1u + kReplyCacheCap);  // evictions release
}

TEST(AllocBudget, DeliveryToQueueItemToOrbEventAllocatesNothing) {
  // What the Mechanisms do with a delivered request: decode the envelope as
  // a view, retain it (the run-queue item) and hand its IIOP bytes to the
  // ORB, whose dispatch event holds the reference.
  sim::Simulator sim;
  orb::Orb orb(sim, NodeId{1}, orb::OrbConfig{});
  core::Envelope e;
  e.kind = core::EnvelopeKind::kRequest;
  e.client_group = util::GroupId{7};
  e.target_group = util::GroupId{9};
  e.op_seq = 5;
  e.payload = giop::encode(giop::CloseConnection{});
  const util::SharedSlice delivered = util::SharedSlice::copy_of(core::encode_envelope(e));
  const orb::Endpoint from{NodeId{2}};
  std::optional<core::RetainedEnvelope> item;
  auto deliver = [&] {
    const auto view = core::decode_envelope_view(delivered);
    item.emplace(*view, delivered);
    orb.on_message(from, item->payload);
  };
  deliver();
  sim.run();  // warm-up: the event slab grows
  EXPECT_EQ(allocs_of(deliver), 0u);
  EXPECT_EQ(item->payload, e.payload);
  EXPECT_EQ(item->op_seq, 5u);
  sim.run();
}

TEST(AllocBudget, SmallUnsizedCdrEncodeAllocatesOnce) {
  // A reply body such as the benchmark servant's (flag byte, aligned i64).
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(allocs_of([&] {
                util::CdrWriter w;
                w.put_u8(static_cast<std::uint8_t>(w.order()));
                w.put_i64(i);
                ASSERT_EQ(std::move(w).take().size(), 16u);
              }),
              1u);
  }
}

TEST(AllocBudget, PoaTicketGateAllocatesNothingInSteadyState) {
  orb::TicketGate gate;
  // In order: every completion only advances the gate.
  EXPECT_EQ(allocs_of([&] {
              for (std::uint64_t t = 0; t < 1000; ++t) gate.complete(t);
            }),
            0u);
  EXPECT_EQ(gate.next(), 1000u);
  // Out of order within a window of 4: the first round grows the list of
  // early completions; later rounds reuse its capacity.
  auto round = [&](std::uint64_t base) {
    for (std::uint64_t t : {3, 1, 2, 0}) gate.complete(base + t);
  };
  round(1000);
  EXPECT_EQ(allocs_of([&] {
              for (std::uint64_t b = 1004; b < 2000; b += 4) round(b);
            }),
            0u);
  EXPECT_EQ(gate.next(), 2000u);
}

TEST(AllocBudget, RepeatedRingLookupAllocatesNothing) {
  core::RingPlacementConfig cfg;
  cfg.rings = 4;
  const core::RingPlacement placement(cfg);
  std::uint64_t sum = 0;
  auto lookups = [&] {
    for (std::uint32_t g = 1; g <= 64; ++g) sum += placement.ring_of(util::GroupId{g});
  };
  lookups();  // first lookups fill the memo table
  EXPECT_EQ(allocs_of(lookups), 0u);
  EXPECT_GT(sum, 0u);
}

TEST(AllocBudget, EngineAdmitAndInOrderFinishAllocateNothing) {
  core::exec::ReplicaEngine engine(4);
  const orb::Endpoint client{NodeId{7}};
  std::uint64_t op_seq = 0;
  std::size_t emitted = 0;
  Bytes reply_bytes(64);
  // One request through the engine: admit, then its reply, which is next
  // in order and so emitted inline. The reply payload is moved in and out,
  // never copied.
  auto one_request = [&] {
    core::exec::Fom& fom =
        engine.admit(util::GroupId{2}, op_seq++, client, true, util::TimePoint{});
    core::exec::Reply reply;
    reply.op_seq = fom.op_seq;
    reply.payload = std::move(reply_bytes);
    engine.finish(fom.position, util::TimePoint{}, std::move(reply),
                  [&](core::exec::Reply& out) {
                    reply_bytes = std::move(out.payload);
                    ++emitted;
                  });
  };
  one_request();  // warm-up: the in-flight vector grows
  EXPECT_EQ(allocs_of([&] {
              for (int i = 0; i < 32; ++i) one_request();
            }),
            0u);
  EXPECT_EQ(emitted, 33u);
  EXPECT_EQ(engine.stats().replies_parked, 0u);
  EXPECT_TRUE(engine.idle());
}

TEST(AllocBudget, EngineBarrierAdmitAndFinishAllocateNothing) {
  core::exec::ReplicaEngine engine(4);
  core::exec::Fom op;
  op.kind = core::exec::FomKind::kCheckpoint;
  op.reply_to = orb::Endpoint{NodeId{0xFE000002}, 2809};
  // One fabricated state op through the engine: admitted as the barrier at
  // quiescence, matched by its reply, then retired.
  auto one_state_op = [&] {
    op.op_seq += 1;
    engine.admit_barrier(op);
    if (engine.match(op.reply_to, op.op_seq) != nullptr) op = engine.finish_barrier();
  };
  one_state_op();
  EXPECT_EQ(allocs_of([&] {
              for (int i = 0; i < 32; ++i) one_state_op();
            }),
            0u);
  EXPECT_EQ(op.op_seq, 33u);
  EXPECT_TRUE(engine.idle());
}

TEST(AllocBudget, SixFieldTraceRecordIntoAWrappedBufferAllocatesNothing) {
  obs::TraceBuffer trace(16);
  obs::Recorder rec;
  rec.attach_trace(&trace);
  std::uint64_t seq = 0;
  // The widest record the stack makes: Totem's per-frame "deliver".
  auto deliver = [&] {
    ++seq;
    rec.record(NodeId{1}, obs::Layer::kTotem, "deliver", seq,
               {{"ring", 4},
                {"view", 2},
                {"origin", 3},
                {"digest", seq * 0x9E3779B97F4A7C15ULL},
                {"size", 200},
                obs::when(seq % 2 == 0, {"batch", 2})});
  };
  for (int i = 0; i < 20; ++i) deliver();  // fill and wrap the ring
  ASSERT_GT(trace.dropped(), 0u);
  EXPECT_EQ(allocs_of([&] {
              for (int i = 0; i < 64; ++i) deliver();
            }),
            0u);
  EXPECT_EQ(trace.snapshot().back().fields.size(), 6u);
}

}  // namespace
}  // namespace eternal
