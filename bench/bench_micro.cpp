// Micro-benchmarks (google-benchmark): the wire-format and transport
// building blocks — CDR marshaling, GIOP framing/inspection, Any state
// values, Eternal envelopes, the per-op event/frame/placement primitives,
// and Totem multicast throughput/latency across the 1518-byte
// fragmentation knee.
#include <benchmark/benchmark.h>

#include "core/envelope.hpp"
#include "core/placement.hpp"
#include "giop/giop.hpp"
#include "sim/ethernet.hpp"
#include "sim/simulator.hpp"
#include "totem/totem.hpp"
#include "util/any.hpp"
#include "util/cdr.hpp"

namespace {

using namespace eternal;

void BM_CdrEncodePrimitives(benchmark::State& state) {
  for (auto _ : state) {
    util::CdrWriter w;
    for (int i = 0; i < 64; ++i) {
      w.put_u32(static_cast<std::uint32_t>(i));
      w.put_u64(static_cast<std::uint64_t>(i) << 32);
      w.put_f64(3.25 * i);
    }
    benchmark::DoNotOptimize(w.bytes().data());
  }
  state.SetItemsProcessed(state.iterations() * 192);
}
BENCHMARK(BM_CdrEncodePrimitives);

void BM_CdrRoundTripString(benchmark::State& state) {
  const std::string text(static_cast<std::size_t>(state.range(0)), 'x');
  for (auto _ : state) {
    util::CdrWriter w;
    w.put_string(text);
    util::CdrReader r(w.bytes(), w.order());
    benchmark::DoNotOptimize(r.get_string().size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CdrRoundTripString)->Arg(16)->Arg(256)->Arg(4096);

void BM_GiopEncodeRequest(benchmark::State& state) {
  giop::Request req;
  req.request_id = 42;
  req.object_key = util::bytes_of("some-object");
  req.operation = "transfer_funds";
  req.body.assign(static_cast<std::size_t>(state.range(0)), 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(giop::encode(req).data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GiopEncodeRequest)->Arg(64)->Arg(1024)->Arg(16384);

void BM_GiopInspect(benchmark::State& state) {
  giop::Request req;
  req.request_id = 42;
  req.object_key = util::bytes_of("some-object");
  req.operation = "transfer_funds";
  req.body.assign(1024, 0x5A);
  const util::Bytes wire = giop::encode(req);
  for (auto _ : state) {
    auto info = giop::inspect(wire);
    benchmark::DoNotOptimize(info->request_id);
  }
}
BENCHMARK(BM_GiopInspect);

void BM_AnyStateRoundTrip(benchmark::State& state) {
  util::Any::Struct s;
  s.emplace_back("value", util::Any::of_long(7));
  s.emplace_back("pad",
                 util::Any::of_octets(util::Bytes(static_cast<std::size_t>(state.range(0)), 1)));
  const util::Any any = util::Any::of_struct(std::move(s));
  for (auto _ : state) {
    const util::Bytes wire = any.to_bytes();
    benchmark::DoNotOptimize(util::Any::from_bytes(wire).field("value").as_long());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AnyStateRoundTrip)->Arg(100)->Arg(10'000)->Arg(100'000);

void BM_EnvelopeRoundTrip(benchmark::State& state) {
  core::Envelope e;
  e.kind = core::EnvelopeKind::kRequest;
  e.client_group = util::GroupId{7};
  e.target_group = util::GroupId{9};
  e.op_seq = 123456;
  e.payload.assign(512, 0xEE);
  for (auto _ : state) {
    const util::Bytes wire = core::encode_envelope(e);
    benchmark::DoNotOptimize(core::decode_envelope(wire)->op_seq);
  }
}
BENCHMARK(BM_EnvelopeRoundTrip);

/// The delivery path's decode: header fields plus views into the buffer.
void BM_DecodeEnvelopeView(benchmark::State& state) {
  core::Envelope e;
  e.kind = core::EnvelopeKind::kRequest;
  e.client_group = util::GroupId{7};
  e.target_group = util::GroupId{9};
  e.op_seq = 123456;
  e.payload.assign(static_cast<std::size_t>(state.range(0)), 0xEE);
  const util::Bytes wire = core::encode_envelope(e);
  for (auto _ : state) {
    const auto view = core::decode_envelope_view(wire);
    benchmark::DoNotOptimize(view->op_seq + view->payload.size());
  }
}
BENCHMARK(BM_DecodeEnvelopeView)->Arg(512)->Arg(16384);

/// One event scheduled and fired, with the small capture every hot-path
/// event carries (a pointer and a couple of ids).
void BM_SimulatorScheduleFire(benchmark::State& state) {
  sim::Simulator sim;
  std::uint64_t sum = 0;
  for (auto _ : state) {
    const std::uint64_t a = 1, b = 2;
    sim.schedule(util::Duration(10), [&sum, a, b] { sum += a + b; });
    sim.step();
  }
  benchmark::DoNotOptimize(sum);
}
BENCHMARK(BM_SimulatorScheduleFire);

/// Token-timer pattern: every received frame cancels the pending timeout
/// and arms a new one; the stale queue entries drain as time advances.
void BM_SimulatorCancelRearm(benchmark::State& state) {
  sim::Simulator sim;
  int timeouts = 0;
  sim::EventId timer = sim.schedule(util::Duration(5'000'000), [&] { ++timeouts; });
  for (auto _ : state) {
    sim.cancel(timer);
    timer = sim.schedule(util::Duration(5'000'000), [&] { ++timeouts; });
    sim.run_for(util::Duration(1'000));
  }
  benchmark::DoNotOptimize(timeouts);
}
BENCHMARK(BM_SimulatorCancelRearm);

/// One frame broadcast on a 4-station segment and delivered to the 3 others.
void BM_EthernetBroadcast(benchmark::State& state) {
  struct Sink : sim::Station {
    std::uint64_t bytes = 0;
    void on_frame(util::NodeId, util::BytesView payload) override { bytes += payload.size(); }
  };
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  Sink stations[4];
  for (std::uint32_t i = 0; i < 4; ++i) ether.attach(util::NodeId{i + 1}, &stations[i]);
  const util::Bytes frame(200, 0x5A);
  for (auto _ : state) {
    ether.broadcast(util::NodeId{1}, frame);
    sim.run();
  }
  benchmark::DoNotOptimize(stations[1].bytes);
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(frame.size()));
}
BENCHMARK(BM_EthernetBroadcast);

void BM_TotemEncodeDataFrame(benchmark::State& state) {
  totem::DataFrame f;
  f.view = util::ViewId{3};
  f.ring_id = 77;
  f.origin = util::NodeId{2};
  f.seq = 1234;
  f.payload = util::SharedSlice::copy_of(util::Bytes(static_cast<std::size_t>(state.range(0)), 0xAB));
  for (auto _ : state) {
    benchmark::DoNotOptimize(totem::encode_frame(util::NodeId{2}, f).data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TotemEncodeDataFrame)->Arg(200)->Arg(1400);

/// Group → ring lookups over 16 groups on 2 rings (fleet_steady's layout).
void BM_RingOf(benchmark::State& state) {
  core::RingPlacementConfig cfg;
  cfg.rings = 2;
  const core::RingPlacement placement(cfg);
  std::uint32_t sink = 0;
  for (auto _ : state) {
    for (std::uint32_t g = 1; g <= 16; ++g) sink += placement.ring_of(util::GroupId{g});
  }
  benchmark::DoNotOptimize(sink);
  state.SetItemsProcessed(state.iterations() * 16);
}
BENCHMARK(BM_RingOf);

/// Totem agreed-delivery of one message of the given size across a 4-node
/// ring: reports *virtual* latency per message (fragmentation knee at the
/// Ethernet frame size) and real host time per simulated delivery.
void BM_TotemMulticastDelivery(benchmark::State& state) {
  struct Counter : totem::TotemListener {
    std::uint64_t delivered = 0;
    void on_deliver(const totem::Delivery&) override { delivered += 1; }
    void on_view_change(const totem::View&) override {}
  };

  const std::size_t size = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  sim::Ethernet ether(sim, sim::EthernetConfig{});
  Counter counters[4];
  std::vector<std::unique_ptr<totem::TotemNode>> nodes;
  std::vector<util::NodeId> ring;
  for (std::uint32_t i = 1; i <= 4; ++i) ring.push_back(util::NodeId{i});
  for (std::uint32_t i = 1; i <= 4; ++i) {
    nodes.push_back(std::make_unique<totem::TotemNode>(sim, ether, util::NodeId{i},
                                                       totem::TotemConfig{},
                                                       &counters[i - 1]));
  }
  for (auto& n : nodes) n->start(ring);
  sim.run_for(util::Duration(1'000'000));

  std::uint64_t messages = 0;
  double virtual_latency_ns = 0;
  for (auto _ : state) {
    const std::uint64_t before = counters[3].delivered;
    const util::TimePoint sent = sim.now();
    nodes[0]->multicast(util::Bytes(size, 0x77));
    while (counters[3].delivered == before) {
      if (!sim.step()) break;
    }
    virtual_latency_ns += static_cast<double>((sim.now() - sent).count());
    messages += 1;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(messages * size));
  state.counters["virt_latency_us"] =
      benchmark::Counter(virtual_latency_ns / 1e3 / static_cast<double>(messages));
}
BENCHMARK(BM_TotemMulticastDelivery)->Arg(100)->Arg(1400)->Arg(1600)->Arg(15000)->Arg(150000);

}  // namespace

BENCHMARK_MAIN();
