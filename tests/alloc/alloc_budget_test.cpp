// Allocation budget of the per-operation hot path.
//
// This binary replaces the global operator new with a counting one, then
// asserts how many heap allocations the primitives every replicated
// invocation passes through may make once their reusable buffers have
// grown: scheduling and firing events, putting frames on the wire, encoding
// Totem frames and Eternal envelopes, inspecting GIOP headers and looking up
// a group's ring. A change that puts an allocation back on one of these
// paths fails here instead of only moving the benchmark's allocs_per_op.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/envelope.hpp"
#include "core/placement.hpp"
#include "giop/giop.hpp"
#include "sim/ethernet.hpp"
#include "sim/simulator.hpp"
#include "totem/frames.hpp"

namespace {

std::uint64_t g_allocs = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocs;
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
  data.payload = Bytes(300, 0xAB);
  EXPECT_EQ(allocs_of([&] { (void)totem::encode_frame(NodeId{2}, data); }), 1u);

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
  e.kind = core::EnvelopeKind::kStateBulkDescriptor;
  e.extent_digests = {1, 2, 3};
  e.orb_state = Bytes(13, 1);
  EXPECT_EQ(allocs_of([&] { (void)core::encode_envelope(e); }), 1u);
}

TEST(AllocBudget, GiopEncodeAllocatesOnceAndInspectNever) {
  giop::Request req;
  req.service_context.push_back({giop::kCodeSetsContextId, Bytes(8, 1)});
  req.service_context.push_back({giop::kTraceContextId, Bytes(8, 2)});
  req.request_id = 42;
  req.object_key = util::bytes_of("some-object");
  req.operation = "transfer_funds";
  req.body = Bytes(64, 0x5A);
  Bytes wire;
  EXPECT_EQ(allocs_of([&] { wire = giop::encode(req); }), 1u);

  std::uint64_t trace = 0;
  bool handshake = true;
  EXPECT_EQ(allocs_of([&] {
              auto info = giop::inspect(wire);
              trace = info->trace_context();
              handshake = info->has_context(giop::kVendorHandshakeContextId);
            }),
            0u);
  EXPECT_EQ(trace, 0x0202020202020202u);
  EXPECT_FALSE(handshake);

  giop::Reply reply;
  reply.request_id = 42;
  reply.body = Bytes(16, 1);
  EXPECT_EQ(allocs_of([&] { wire = giop::encode(reply); }), 1u);
  EXPECT_EQ(allocs_of([&] { (void)giop::inspect(wire); }), 0u);
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

}  // namespace
}  // namespace eternal
