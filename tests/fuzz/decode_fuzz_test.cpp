// Decoder robustness sweeps: every wire decoder in the system must reject
// arbitrary byte soup (and mutated valid messages) without crashing,
// throwing through, or over-reading — these parsers sit directly on the
// (simulated) network.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "core/envelope.hpp"
#include "core/group_table.hpp"
#include "core/stable_storage.hpp"
#include "core/state_snapshots.hpp"
#include "giop/giop.hpp"
#include "giop/ior.hpp"
#include "orb/orb.hpp"
#include "orb/sync_servant.hpp"
#include "sim/simulator.hpp"
#include "totem/frames.hpp"
#include "util/any.hpp"
#include "util/cdr.hpp"
#include "util/rng.hpp"

namespace eternal {
namespace {

using util::Bytes;
using util::BytesView;
using util::Rng;

// Iteration budget for every fuzz sweep: ETERNAL_FUZZ_ITERS overrides the
// default so CI tiers can bound the work (and soak runs can raise it)
// without recompiling.
int fuzz_iters() {
  static const int iters = [] {
    if (const char* env = std::getenv("ETERNAL_FUZZ_ITERS")) {
      const long v = std::strtol(env, nullptr, 10);
      if (v > 0) return static_cast<int>(v);
    }
    return 500;
  }();
  return iters;
}

Bytes random_bytes(Rng& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next());
  return out;
}

class DecodeFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecodeFuzz, RandomBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int i = 0; i < fuzz_iters(); ++i) {
    const Bytes junk = random_bytes(rng, 256);
    (void)giop::decode(junk);
    (void)giop::inspect(junk);
    (void)giop::is_giop(junk);
    (void)giop::decode_ior(junk);
    (void)totem::decode_frame(junk);
    (void)core::decode_envelope(junk);
    (void)core::decode_descriptor(junk);
    (void)core::decode_orb_state(junk);
    (void)core::decode_infra_state(junk);
    (void)core::decode_initial_members(junk);
    try {
      (void)util::Any::from_bytes(junk);
    } catch (const util::CdrError&) {
      // the documented failure mode
    }
  }
}

/// Returns its arguments; reads them when its modelled execution ends.
class EchoServant : public orb::SyncServant {
 public:
  using orb::SyncServant::SyncServant;

 protected:
  Bytes serve(const std::string&, BytesView args) override {
    return Bytes(args.begin(), args.end());
  }
};

/// Counts and drops what an ORB writes.
struct DropTransport : orb::Transport {
  std::uint64_t sent = 0;
  void send(const orb::Endpoint&, Bytes) override { ++sent; }
};

/// Valid frames of every kind the ORB's inbound path reads: a request for an
/// active object with a context, a handshake offer to the in-ORB session
/// service, a short-key request, a reply and a locate request.
std::vector<Bytes> valid_giop_frames() {
  std::vector<Bytes> frames;
  giop::Request req;
  req.request_id = 7;
  req.object_key = util::bytes_of("object-key");
  req.operation = "operation_name";
  req.service_context.push_back(giop::ServiceContext{1, Bytes{1, 2, 3, 4}});
  req.body = Bytes(64, 0x5A);
  frames.push_back(giop::encode(req));

  giop::Request offer;
  offer.request_id = 8;
  offer.object_key = Bytes{0xFD};
  offer.operation = "_negotiate_session";
  util::CdrWriter w;
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u32(0xE7E41001);
  w.put_u32(static_cast<std::uint32_t>(giop::CodeSet::kUtf8));
  w.put_u32(static_cast<std::uint32_t>(giop::CodeSet::kUtf16));
  w.put_octets(util::bytes_of("object-key"));
  offer.service_context.push_back(
      giop::ServiceContext{giop::kVendorHandshakeContextId, std::move(w).take()});
  frames.push_back(giop::encode(offer));

  giop::Request short_key = req;
  short_key.request_id = 9;
  short_key.object_key = Bytes{0xFE, 0, 0, 0, 1};
  short_key.service_context.clear();
  frames.push_back(giop::encode(short_key));

  giop::Reply reply;
  reply.request_id = 3;
  reply.body = Bytes(16, 0x33);
  frames.push_back(giop::encode(reply));
  frames.push_back(giop::encode(giop::LocateRequest{4, util::bytes_of("object-key")}));
  return frames;
}

TEST_P(DecodeFuzz, MutatedValidGiopNeverCrashes) {
  // Each mutated frame also goes through a live ORB's inbound path, which
  // reads it in place and keeps a dispatched request's arguments as a view
  // into it: frames are injected in shared buffers nobody else keeps, and
  // several are in flight at once.
  Rng rng(GetParam() ^ 0xFACE);
  const std::vector<Bytes> valid = valid_giop_frames();
  sim::Simulator sim;
  orb::Orb orb(sim, util::NodeId{2}, orb::OrbConfig{});
  DropTransport wire;
  orb.plug_transport(wire);
  orb.root_poa().activate("object-key", std::make_shared<EchoServant>(sim), "IDL:Echo:1.0");
  std::uint64_t rejected = 0;

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid[static_cast<std::size_t>(i) % valid.size()];
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = giop::decode(mutated);
    if (decoded && decoded->type() == giop::MsgType::kRequest) {
      // If it still decodes, the fields must at least be self-consistent
      // enough to re-encode without throwing.
      (void)giop::encode(decoded->as_request());
    }
    rejected += giop::inspect(mutated).has_value() ? 0 : 1;
    orb.on_message(orb::Endpoint{util::NodeId{1 + rng.below(3)}},
                   util::SharedSlice::copy_of(mutated));
    if (i % 8 == 7) sim.run();
  }
  sim.run();
  // Every frame inspect() rejects is a decode error; a malformed handshake
  // offer counts as one too.
  EXPECT_GE(orb.stats().decode_errors, rejected);
}

TEST_P(DecodeFuzz, MutatedValidTotemFramesNeverCrash) {
  Rng rng(GetParam() ^ 0x70CE);
  totem::DataFrame data;
  data.view = util::ViewId{3};
  data.seq = 99;
  data.payload = util::SharedSlice::copy_of(Bytes(48, 0xAB));
  const Bytes valid = totem::encode_frame(util::NodeId{2}, data);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    const auto copied = totem::decode_frame(mutated);
    // The shared-buffer form (the receive path off the Ethernet) accepts
    // exactly the same frames and slices the payload from inside the buffer.
    const util::SharedBytes shared = util::SharedBytes::copy_of(mutated);
    const auto sliced = totem::decode_frame(shared);
    ASSERT_EQ(copied.has_value(), sliced.has_value());
    if (!sliced || sliced->type() != totem::FrameType::kData) continue;
    const auto& c = std::get<totem::DataFrame>(copied->body);
    const auto& s = std::get<totem::DataFrame>(sliced->body);
    EXPECT_EQ(s.payload, c.payload.view());
    if (!s.payload.empty()) {
      EXPECT_GE(s.payload.data(), shared.data());
      EXPECT_LE(s.payload.end(), shared.data() + shared.size());
    }
  }
}

TEST_P(DecodeFuzz, MutatedValidBatchedFramesNeverCrash) {
  Rng rng(GetParam() ^ 0xBA7C);
  std::vector<Bytes> msgs;
  for (std::size_t i = 0; i < 6; ++i) msgs.push_back(random_bytes(rng, 64));
  totem::DataFrame data;
  data.view = util::ViewId{3};
  data.seq = 99;
  data.batch_count = static_cast<std::uint32_t>(msgs.size());
  data.payload = util::SharedSlice::copy_of(totem::pack_batch(msgs));
  const Bytes valid = totem::encode_frame(util::NodeId{2}, data);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    const util::SharedBytes shared = util::SharedBytes::copy_of(mutated);
    auto decoded = totem::decode_frame(shared);
    if (!decoded || decoded->type() != totem::FrameType::kData) continue;
    // A frame that survives decode must unpack cleanly or be rejected —
    // never crash or over-read (this is the deliver path's exact sequence).
    const auto& d = std::get<totem::DataFrame>(decoded->body);
    if (d.batch_count < 2) continue;
    std::uint32_t visited = 0;
    const bool ok = totem::unpack_batch(d.payload, d.batch_count, [&](BytesView m) {
      visited += 1;
      if (!m.empty()) {
        EXPECT_GE(m.data(), d.payload.begin());
        EXPECT_LE(m.data() + m.size(), d.payload.end());
      }
    });
    EXPECT_EQ(visited, ok ? d.batch_count : 0u);
  }
}

TEST_P(DecodeFuzz, RandomBlobsNeverCrashBatchUnpack) {
  Rng rng(GetParam() ^ 0xB10B);
  for (int i = 0; i < fuzz_iters(); ++i) {
    const Bytes blob = random_bytes(rng, 256);
    for (const auto count : {static_cast<std::uint32_t>(rng.below(300)),
                             static_cast<std::uint32_t>(rng.next())}) {
      std::uint32_t visited = 0;
      const bool ok = totem::unpack_batch(blob, count, [&](BytesView) { visited += 1; });
      EXPECT_EQ(ok, totem::batch_well_formed(blob, count));
      EXPECT_EQ(visited, ok ? count : 0u);
    }
  }
}

TEST_P(DecodeFuzz, MutatedValidEnvelopesNeverCrash) {
  Rng rng(GetParam() ^ 0xE7E4);
  core::Envelope env;
  env.kind = core::EnvelopeKind::kSetState;
  env.payload = Bytes(128, 1);
  env.orb_state = Bytes(32, 2);
  env.infra_state = Bytes(16, 3);
  const Bytes valid = core::encode_envelope(env);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    (void)core::decode_envelope(mutated);
  }
}

// The ring field rides every envelope (multi-ring routing, core/placement):
// delivery indexes per-ring endpoint tables with it, so any envelope that
// survives decode must carry ring < kMaxRings — in-range values round-trip
// exactly, out-of-range ones are rejected whole.
TEST_P(DecodeFuzz, RingFieldRoundTripsAndStaysBounded) {
  Rng rng(GetParam() ^ 0x4174);
  core::Envelope env;
  env.kind = core::EnvelopeKind::kRequest;
  env.client_group = util::GroupId{3};
  env.target_group = util::GroupId{9};
  env.op_seq = 12;
  env.payload = Bytes(64, 0x5A);

  for (std::uint32_t ring = 0; ring < core::kMaxRings; ++ring) {
    env.ring = ring;
    auto decoded = core::decode_envelope(core::encode_envelope(env));
    ASSERT_TRUE(decoded.has_value()) << "ring " << ring;
    EXPECT_EQ(decoded->ring, ring);
  }

  env.ring = core::kMaxRings;
  EXPECT_FALSE(core::decode_envelope(core::encode_envelope(env)).has_value());
  for (int i = 0; i < fuzz_iters(); ++i) {
    env.ring = core::kMaxRings + static_cast<std::uint32_t>(rng.next());
    if (env.ring < core::kMaxRings) continue;  // wrapped back in range
    EXPECT_FALSE(core::decode_envelope(core::encode_envelope(env)).has_value())
        << "ring " << env.ring;
  }

  // Byte-soup sweep: whatever mutation does to the wire image, a surviving
  // envelope never smuggles an out-of-range ring id through.
  env.ring = 1;
  const Bytes valid = core::encode_envelope(env);
  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    if (auto decoded = core::decode_envelope(mutated)) {
      ASSERT_LT(decoded->ring, core::kMaxRings);
    }
  }
}

TEST_P(DecodeFuzz, MutatedChunkEnvelopesNeverCrash) {
  Rng rng(GetParam() ^ 0xC4A4);
  core::Envelope chunk;
  chunk.kind = core::EnvelopeKind::kStateChunk;
  chunk.op_seq = 40;
  chunk.delta_base = 7;
  chunk.chunk_index = 3;
  chunk.chunk_count = 9;
  chunk.payload = Bytes(96, 0xC4);
  const Bytes valid = core::encode_envelope(chunk);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = core::decode_envelope(mutated);
    // A surviving chunk must carry a consistent geometry — the reassembly
    // path indexes parts[chunk_index] of a chunk_count-sized vector.
    if (decoded && decoded->kind == core::EnvelopeKind::kStateChunk) {
      ASSERT_GT(decoded->chunk_count, 0u);
      ASSERT_LT(decoded->chunk_index, decoded->chunk_count);
    }
  }
}

// Invariants the bulk-transfer machinery relies on for any envelope that
// survives decode — the reassembly path sizes vectors from chunk_count,
// indexes parts[chunk_index], and slices the image by extent geometry, so a
// decoder that let an inconsistent frame through would be an out-of-bounds
// write waiting on a hostile (or corrupted) lane message.
void assert_bulk_geometry(const core::Envelope& e) {
  ASSERT_LE(static_cast<std::uint8_t>(e.kind),
            static_cast<std::uint8_t>(core::EnvelopeKind::kBulkAck));
  if (e.kind != core::EnvelopeKind::kStateBulkDescriptor &&
      e.kind != core::EnvelopeKind::kStateBulkComplete &&
      e.kind != core::EnvelopeKind::kBulkExtent &&
      e.kind != core::EnvelopeKind::kBulkAck) {
    return;
  }
  ASSERT_NE(e.transfer_id, 0u);
  ASSERT_GE(e.chunk_count, 1u);
  if (e.kind != core::EnvelopeKind::kBulkAck) {
    ASSERT_GE(e.extent_bytes, 1u);
    ASSERT_GE(e.total_bytes, 1u);
    // The byte count must fill the extent grid: more would overflow the
    // last extent, fewer would leave whole extents empty.
    const std::uint64_t grid =
        static_cast<std::uint64_t>(e.chunk_count) * e.extent_bytes;
    const std::uint64_t prefix =
        static_cast<std::uint64_t>(e.chunk_count - 1) * e.extent_bytes;
    ASSERT_LE(e.total_bytes, grid);
    ASSERT_GT(e.total_bytes, prefix);
  }
  if (e.kind == core::EnvelopeKind::kStateBulkDescriptor) {
    ASSERT_EQ(e.extent_digests.size(), e.chunk_count);
  }
  if (e.kind == core::EnvelopeKind::kBulkExtent ||
      e.kind == core::EnvelopeKind::kBulkAck) {
    ASSERT_LT(e.chunk_index, e.chunk_count);
  }
  if (e.kind == core::EnvelopeKind::kBulkExtent) {
    const std::uint64_t expect =
        std::min<std::uint64_t>(e.extent_bytes,
                                e.total_bytes -
                                    static_cast<std::uint64_t>(e.chunk_index) *
                                        e.extent_bytes);
    ASSERT_EQ(e.payload.size(), expect);
  }
}

TEST_P(DecodeFuzz, MutatedBulkDescriptorsNeverCrash) {
  Rng rng(GetParam() ^ 0xB01D);
  core::Envelope desc;
  desc.kind = core::EnvelopeKind::kStateBulkDescriptor;
  desc.op_seq = 40;
  desc.transfer_id = (7ull << 32) | 3;
  desc.total_bytes = 5000;
  desc.extent_bytes = 1024;
  desc.chunk_count = 5;
  for (std::uint32_t i = 0; i < desc.chunk_count; ++i) {
    desc.extent_digests.push_back(0x1234'5678'9abc'def0ull + i);
  }
  const Bytes valid = core::encode_envelope(desc);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = core::decode_envelope(mutated);
    if (decoded) assert_bulk_geometry(*decoded);
  }
  // Truncations sweep the digest list specifically: a count that promises
  // more digests than the frame carries must be rejected, not over-read.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    auto decoded = core::decode_envelope(
        Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)));
    if (decoded) assert_bulk_geometry(*decoded);
  }
}

TEST_P(DecodeFuzz, MutatedBulkExtentFramesNeverCrash) {
  Rng rng(GetParam() ^ 0xB0EF);
  core::Envelope extent;
  extent.kind = core::EnvelopeKind::kBulkExtent;
  extent.op_seq = 40;
  extent.transfer_id = (7ull << 32) | 3;
  extent.total_bytes = 5000;
  extent.extent_bytes = 1024;
  extent.chunk_index = 4;  // the short tail extent: 5000 - 4*1024 = 904 bytes
  extent.chunk_count = 5;
  extent.payload = Bytes(904, 0xEE);
  const Bytes valid = core::encode_envelope(extent);

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    auto decoded = core::decode_envelope(mutated);
    if (decoded) assert_bulk_geometry(*decoded);
  }
}

TEST_P(DecodeFuzz, MutatedBulkAcksAndMarkersNeverCrash) {
  Rng rng(GetParam() ^ 0xB0AC);
  core::Envelope ack;
  ack.kind = core::EnvelopeKind::kBulkAck;
  ack.transfer_id = (2ull << 32) | 9;
  ack.chunk_index = 2;
  ack.chunk_count = 5;
  core::Envelope marker;
  marker.kind = core::EnvelopeKind::kStateBulkComplete;
  marker.op_seq = 40;
  marker.transfer_id = (7ull << 32) | 3;
  marker.total_bytes = 5000;
  marker.extent_bytes = 1024;
  marker.chunk_count = 5;
  for (const Bytes& valid :
       {core::encode_envelope(ack), core::encode_envelope(marker)}) {
    for (int i = 0; i < fuzz_iters(); ++i) {
      Bytes mutated = valid;
      const std::size_t flips = 1 + rng.below(4);
      for (std::size_t f = 0; f < flips; ++f) {
        mutated[rng.below(mutated.size())] ^=
            static_cast<std::uint8_t>(1 + rng.below(255));
      }
      auto decoded = core::decode_envelope(mutated);
      if (decoded) assert_bulk_geometry(*decoded);
    }
    for (std::size_t cut = 0; cut < valid.size(); ++cut) {
      auto decoded = core::decode_envelope(
          Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)));
      if (decoded) assert_bulk_geometry(*decoded);
    }
  }
}

// Adversarial geometry: hand-built bulk envelopes with deliberately
// inconsistent fields must all be rejected whole — each one encodes an
// overlap, overflow, or truncation the reassembly path cannot survive.
TEST(DecodeFuzzBulk, InconsistentBulkGeometryIsRejected) {
  auto reject = [](const core::Envelope& e, const char* why) {
    // encode_envelope happily serializes garbage (it is the decoder's job
    // to refuse it): round-trip and expect rejection.
    EXPECT_FALSE(core::decode_envelope(core::encode_envelope(e)).has_value()) << why;
  };
  core::Envelope good;
  good.kind = core::EnvelopeKind::kStateBulkDescriptor;
  good.transfer_id = 1;
  good.total_bytes = 5000;
  good.extent_bytes = 1024;
  good.chunk_count = 5;
  good.extent_digests.assign(5, 0xD1);
  ASSERT_TRUE(core::decode_envelope(core::encode_envelope(good)).has_value());

  core::Envelope e = good;
  e.transfer_id = 0;
  reject(e, "transfer id zero");
  e = good;
  e.chunk_count = 0;
  e.extent_digests.clear();
  reject(e, "zero extents");
  e = good;
  e.total_bytes = 0;
  reject(e, "zero bytes");
  e = good;
  e.extent_bytes = 0;
  reject(e, "zero extent width");
  e = good;
  e.total_bytes = 5 * 1024 + 1;  // one byte past the extent grid
  reject(e, "total overflows the grid");
  e = good;
  e.total_bytes = 4 * 1024;  // fits in 4 extents yet claims 5
  reject(e, "empty tail extent");
  e = good;
  e.extent_digests.pop_back();  // digest list shorter than extent count
  reject(e, "truncated digest list");
  e = good;
  e.extent_digests.push_back(0xD1);  // longer than extent count
  reject(e, "oversized digest list");

  core::Envelope x;
  x.kind = core::EnvelopeKind::kBulkExtent;
  x.transfer_id = 1;
  x.total_bytes = 5000;
  x.extent_bytes = 1024;
  x.chunk_index = 1;
  x.chunk_count = 5;
  x.payload = Bytes(1024, 0xEE);
  ASSERT_TRUE(core::decode_envelope(core::encode_envelope(x)).has_value());
  e = x;
  e.chunk_index = 5;  // one past the end
  reject(e, "extent index out of range");
  e = x;
  e.payload = Bytes(1025, 0xEE);  // spills into the next extent
  reject(e, "extent payload overlaps its neighbour");
  e = x;
  e.payload = Bytes(1023, 0xEE);
  reject(e, "short mid extent");
  e = x;
  e.chunk_index = 4;  // tail extent must carry exactly the remainder
  reject(e, "tail extent with full-width payload");

  core::Envelope a;
  a.kind = core::EnvelopeKind::kBulkAck;
  a.transfer_id = 1;
  a.chunk_index = 0;
  a.chunk_count = 5;
  ASSERT_TRUE(core::decode_envelope(core::encode_envelope(a)).has_value());
  e = a;
  e.chunk_index = 5;
  reject(e, "ack index out of range");
  e = a;
  e.transfer_id = 0;
  reject(e, "ack for transfer id zero");
}

TEST_P(DecodeFuzz, RandomBytesNeverCrashSegmentScan) {
  Rng rng(GetParam() ^ 0x5E60);
  for (int i = 0; i < fuzz_iters(); ++i) {
    const Bytes junk = random_bytes(rng, 512);
    const auto scan = core::scan_segment_bytes(junk);
    // The reported valid prefix can never exceed the input.
    ASSERT_LE(scan.valid_bytes, junk.size());
    ASSERT_EQ(scan.torn, scan.valid_bytes < junk.size());
  }
}

TEST_P(DecodeFuzz, MutatedSegmentEntriesNeverCrashOrOverread) {
  Rng rng(GetParam() ^ 0x5E61);
  // Hand-build two valid entries (layout documented in stable_storage.cpp:
  // [u32 magic][u64 gen][u32 len][payload][u64 fnv1a], all little-endian).
  auto entry = [](std::uint64_t gen, const Bytes& payload) {
    Bytes out;
    auto le32 = [&out](std::uint32_t v) {
      for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto le64 = [&out](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    le32(0xE7E45E60u);
    le64(gen);
    le32(static_cast<std::uint32_t>(payload.size()));
    out.insert(out.end(), payload.begin(), payload.end());
    le64(util::fnv1a(payload));
    return out;
  };
  Bytes valid = entry(1, Bytes(40, 0xAA));
  const Bytes second = entry(1, Bytes(24, 0xBB));
  valid.insert(valid.end(), second.begin(), second.end());

  for (int i = 0; i < fuzz_iters(); ++i) {
    Bytes mutated = valid;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    const auto scan = core::scan_segment_bytes(mutated);
    ASSERT_LE(scan.entries.size(), 2u);  // a flip can only tear, never invent
    ASSERT_LE(scan.valid_bytes, mutated.size());
  }

  // Truncations: the scan must degrade to a (possibly empty) valid prefix.
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    const auto scan = core::scan_segment_bytes(
        Bytes(valid.begin(), valid.begin() + static_cast<std::ptrdiff_t>(cut)));
    ASSERT_LE(scan.valid_bytes, cut);
  }
}

TEST_P(DecodeFuzz, TruncationsNeverCrash) {
  Rng rng(GetParam() ^ 0x7123);
  giop::Reply reply;
  reply.request_id = 1;
  reply.body = Bytes(100, 9);
  const Bytes g = giop::encode(reply);
  const Bytes t = totem::encode_frame(util::NodeId{1}, totem::TokenFrame{});
  const Bytes e = core::encode_envelope(core::Envelope{});
  for (std::size_t cut = 0; cut < g.size(); ++cut) {
    (void)giop::decode(Bytes(g.begin(), g.begin() + static_cast<std::ptrdiff_t>(cut)));
  }
  for (std::size_t cut = 0; cut < t.size(); ++cut) {
    (void)totem::decode_frame(Bytes(t.begin(), t.begin() + static_cast<std::ptrdiff_t>(cut)));
  }
  for (std::size_t cut = 0; cut < e.size(); ++cut) {
    (void)core::decode_envelope(Bytes(e.begin(), e.begin() + static_cast<std::ptrdiff_t>(cut)));
  }
}

// ---- envelope decoder equivalence ------------------------------------------
//
// decode_envelope builds the owning Envelope from the borrowing view. The
// reference below is the field-by-field owning decoder that preceded the
// view, kept verbatim: on every input the two must accept and reject alike
// and, when they accept, produce the same Envelope.

constexpr std::uint16_t kEnvelopeMagic = 0xE7E4;

std::optional<core::Envelope> reference_decode_envelope(util::BytesView data) {
  using core::ControlOp;
  using core::EnvelopeKind;
  try {
    if (data.size() < 4) return std::nullopt;
    util::CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    core::Envelope e;
    e.kind = static_cast<EnvelopeKind>(r.get_u8());
    if (static_cast<std::uint8_t>(e.kind) < 1 || static_cast<std::uint8_t>(e.kind) > 11) {
      return std::nullopt;
    }
    if (r.get_u16() != kEnvelopeMagic) return std::nullopt;
    e.ring = r.get_u32();
    if (e.ring >= core::kMaxRings) return std::nullopt;
    e.client_group = util::GroupId{r.get_u32()};
    e.target_group = util::GroupId{r.get_u32()};
    e.op_seq = r.get_u64();
    e.subject = util::ReplicaId{r.get_u64()};
    e.subject_node = util::NodeId{r.get_u32()};
    e.control_op = static_cast<ControlOp>(r.get_u8());
    e.delta_base = r.get_u64();
    e.chunk_index = r.get_u32();
    e.chunk_count = r.get_u32();
    if (e.kind == EnvelopeKind::kStateChunk &&
        (e.chunk_count < 1 || e.chunk_index >= e.chunk_count)) {
      return std::nullopt;
    }
    if (e.kind >= EnvelopeKind::kStateBulkDescriptor) {
      e.transfer_id = r.get_u64();
      e.total_bytes = r.get_u64();
      e.extent_bytes = r.get_u32();
      const std::uint32_t n_digests = r.get_count(8);
      e.extent_digests.reserve(n_digests);
      for (std::uint32_t i = 0; i < n_digests; ++i) {
        e.extent_digests.push_back(r.get_u64());
      }
      if (e.transfer_id == 0 || e.chunk_count < 1) return std::nullopt;
      if (e.kind != EnvelopeKind::kBulkAck) {
        if (e.extent_bytes < 1 || e.total_bytes < 1) return std::nullopt;
        const std::uint64_t grid =
            static_cast<std::uint64_t>(e.chunk_count) * e.extent_bytes;
        const std::uint64_t prefix =
            static_cast<std::uint64_t>(e.chunk_count - 1) * e.extent_bytes;
        if (e.total_bytes > grid || e.total_bytes <= prefix) return std::nullopt;
      }
      if (e.kind == EnvelopeKind::kStateBulkDescriptor) {
        if (e.extent_digests.size() != e.chunk_count) return std::nullopt;
      }
      if (e.kind == EnvelopeKind::kBulkExtent || e.kind == EnvelopeKind::kBulkAck) {
        if (e.chunk_index >= e.chunk_count) return std::nullopt;
      }
    }
    e.payload = r.get_octets();
    e.orb_state = r.get_octets();
    e.infra_state = r.get_octets();
    e.control_data = r.get_octets();
    if (e.kind == EnvelopeKind::kBulkExtent) {
      const std::uint64_t offset =
          static_cast<std::uint64_t>(e.chunk_index) * e.extent_bytes;
      const std::uint64_t expected =
          std::min<std::uint64_t>(e.extent_bytes, e.total_bytes - offset);
      if (e.payload.size() != expected) return std::nullopt;
    }
    return e;
  } catch (const util::CdrError&) {
    return std::nullopt;
  }
}

/// encode_envelope's wire layout in a chosen byte order (encode_envelope
/// itself always writes the host's), so big-endian senders are covered.
Bytes encode_envelope_in(util::ByteOrder order, const core::Envelope& e) {
  util::CdrWriter w(order);
  w.put_u8(static_cast<std::uint8_t>(order));
  w.put_u8(static_cast<std::uint8_t>(e.kind));
  w.put_u16(kEnvelopeMagic);
  w.put_u32(e.ring);
  w.put_u32(e.client_group.value);
  w.put_u32(e.target_group.value);
  w.put_u64(e.op_seq);
  w.put_u64(e.subject.value);
  w.put_u32(e.subject_node.value);
  w.put_u8(static_cast<std::uint8_t>(e.control_op));
  w.put_u64(e.delta_base);
  w.put_u32(e.chunk_index);
  w.put_u32(e.chunk_count);
  if (e.kind >= core::EnvelopeKind::kStateBulkDescriptor) {
    w.put_u64(e.transfer_id);
    w.put_u64(e.total_bytes);
    w.put_u32(e.extent_bytes);
    w.put_u32(static_cast<std::uint32_t>(e.extent_digests.size()));
    for (std::uint64_t d : e.extent_digests) w.put_u64(d);
  }
  w.put_octets(e.payload);
  w.put_octets(e.orb_state);
  w.put_octets(e.infra_state);
  w.put_octets(e.control_data);
  return std::move(w).take();
}

/// Valid wire images of every envelope kind, in both byte orders.
std::vector<Bytes> valid_envelope_images() {
  core::Envelope base;
  base.ring = 2;
  base.client_group = util::GroupId{3};
  base.target_group = util::GroupId{9};
  base.op_seq = 0x1122334455ULL;
  base.subject = util::ReplicaId{5};
  base.subject_node = util::NodeId{4};
  base.control_op = core::ControlOp::kAddReplica;
  base.delta_base = 17;
  base.payload = Bytes(40, 0x5A);
  base.orb_state = Bytes(7, 1);
  base.infra_state = Bytes(3, 2);
  base.control_data = Bytes(5, 3);
  std::vector<core::Envelope> samples;
  for (std::uint8_t k = 1; k <= 7; ++k) {
    core::Envelope e = base;
    e.kind = static_cast<core::EnvelopeKind>(k);
    if (e.kind == core::EnvelopeKind::kStateChunk) {
      e.chunk_index = 1;
      e.chunk_count = 4;
    }
    samples.push_back(e);
  }
  core::Envelope bulk = base;
  bulk.transfer_id = 8;
  bulk.total_bytes = 100;
  bulk.extent_bytes = 40;
  bulk.chunk_count = 3;
  bulk.kind = core::EnvelopeKind::kStateBulkDescriptor;
  bulk.extent_digests = {1, 0xABCDEF0123456789ULL, 3};
  samples.push_back(bulk);
  bulk.extent_digests.clear();
  bulk.kind = core::EnvelopeKind::kStateBulkComplete;
  samples.push_back(bulk);
  bulk.kind = core::EnvelopeKind::kBulkExtent;
  bulk.chunk_index = 1;
  samples.push_back(bulk);  // payload 40 = the second full extent
  bulk.kind = core::EnvelopeKind::kBulkAck;
  bulk.payload.clear();
  samples.push_back(bulk);

  std::vector<Bytes> out;
  for (const core::Envelope& e : samples) {
    for (util::ByteOrder order : {util::ByteOrder::kBig, util::ByteOrder::kLittle}) {
      out.push_back(encode_envelope_in(order, e));
    }
  }
  return out;
}

void expect_same_decode(const Bytes& wire) {
  const std::optional<core::Envelope> want = reference_decode_envelope(wire);
  const std::optional<core::Envelope> got = core::decode_envelope(wire);
  ASSERT_EQ(core::decode_envelope_view(wire).has_value(), want.has_value())
      << util::to_hex(wire);
  ASSERT_EQ(got.has_value(), want.has_value()) << util::to_hex(wire);
  if (want) {
    ASSERT_TRUE(*got == *want) << util::to_hex(wire);
  }
}

TEST(EnvelopeDecodeEquivalence, ValidImagesOfEveryKindAndOrder) {
  for (const Bytes& wire : valid_envelope_images()) {
    ASSERT_TRUE(reference_decode_envelope(wire).has_value()) << util::to_hex(wire);
    expect_same_decode(wire);
  }
  // The host-order encoder writes the same image as the test encoder.
  const core::Envelope e = *reference_decode_envelope(valid_envelope_images()[15]);
  EXPECT_EQ(core::encode_envelope(e), encode_envelope_in(util::host_byte_order(), e));
}

TEST_P(DecodeFuzz, EnvelopeDecodeMatchesReference) {
  Rng rng(GetParam() ^ 0xD1FF);
  const std::vector<Bytes> valid = valid_envelope_images();
  for (int i = 0; i < fuzz_iters(); ++i) {
    expect_same_decode(random_bytes(rng, 256));
    const Bytes& image = valid[rng.below(valid.size())];
    Bytes mutated = image;
    const std::size_t flips = 1 + rng.below(3);
    for (std::size_t f = 0; f < flips; ++f) {
      mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    }
    expect_same_decode(mutated);
    // Truncated and extended copies of the intact image.
    const std::size_t cut = rng.below(image.size() + 1);
    expect_same_decode(Bytes(image.begin(), image.begin() + static_cast<std::ptrdiff_t>(cut)));
    Bytes longer = image;
    longer.push_back(static_cast<std::uint8_t>(rng.next()));
    expect_same_decode(longer);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecodeFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 0xDEAD, 0xBEEF, 0xE7E4));

}  // namespace
}  // namespace eternal
