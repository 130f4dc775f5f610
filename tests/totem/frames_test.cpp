// Totem frame wire formats.
#include <gtest/gtest.h>

#include "totem/frames.hpp"
#include "util/rng.hpp"

namespace eternal::totem {
namespace {

using util::Bytes;
using util::NodeId;
using util::Rng;
using util::ViewId;

TEST(TotemFrames, DataRoundTrip) {
  DataFrame f;
  f.view = ViewId{7};
  f.origin = NodeId{3};
  f.seq = 12345;
  f.msg_id = 99;
  f.frag_index = 2;
  f.frag_count = 5;
  f.retransmission = true;
  f.payload = util::SharedSlice::copy_of(Bytes{1, 2, 3, 4});

  auto decoded = decode_frame(encode_frame(NodeId{8}, f));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->sender, NodeId{8});
  ASSERT_EQ(decoded->type(), FrameType::kData);
  const auto& d = std::get<DataFrame>(decoded->body);
  EXPECT_EQ(d.view, ViewId{7});
  EXPECT_EQ(d.origin, NodeId{3});
  EXPECT_EQ(d.seq, 12345u);
  EXPECT_EQ(d.msg_id, 99u);
  EXPECT_EQ(d.frag_index, 2u);
  EXPECT_EQ(d.frag_count, 5u);
  EXPECT_TRUE(d.retransmission);
  EXPECT_EQ(d.payload, (Bytes{1, 2, 3, 4}));
}

TEST(TotemFrames, TokenRoundTrip) {
  TokenFrame f;
  f.view = ViewId{2};
  f.target = NodeId{4};
  f.round = 17;
  f.next_seq = 100;
  f.aru = 95;
  f.aru_setter = NodeId{1};
  f.rtr = {96, 97, 99};

  auto decoded = decode_frame(encode_frame(NodeId{1}, f));
  ASSERT_TRUE(decoded.has_value());
  const auto& t = std::get<TokenFrame>(decoded->body);
  EXPECT_EQ(t.target, NodeId{4});
  EXPECT_EQ(t.round, 17u);
  EXPECT_EQ(t.next_seq, 100u);
  EXPECT_EQ(t.aru, 95u);
  EXPECT_EQ(t.aru_setter, NodeId{1});
  EXPECT_EQ(t.rtr, (std::vector<std::uint64_t>{96, 97, 99}));
}

TEST(TotemFrames, MembershipFramesRoundTrip) {
  JoinFrame join;
  join.alive = {NodeId{1}, NodeId{3}};
  join.highest_seq = 55;
  join.highest_view = 4;
  auto dj = decode_frame(encode_frame(NodeId{3}, join));
  ASSERT_TRUE(dj.has_value());
  EXPECT_EQ(std::get<JoinFrame>(dj->body).alive.size(), 2u);
  EXPECT_EQ(std::get<JoinFrame>(dj->body).highest_seq, 55u);

  CommitFrame commit;
  commit.new_view = ViewId{5};
  commit.members = {NodeId{1}, NodeId{2}};
  commit.base_seq = 60;
  auto dc = decode_frame(encode_frame(NodeId{1}, commit));
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(std::get<CommitFrame>(dc->body).base_seq, 60u);

  ReadyFrame ready;
  ready.new_view = ViewId{5};
  ready.missing = {58, 59};
  auto dr = decode_frame(encode_frame(NodeId{2}, ready));
  ASSERT_TRUE(dr.has_value());
  EXPECT_EQ(std::get<ReadyFrame>(dr->body).missing.size(), 2u);

  InstallFrame install;
  install.new_view = ViewId{5};
  install.members = {NodeId{1}, NodeId{2}};
  install.next_seq = 61;
  auto di = decode_frame(encode_frame(NodeId{1}, install));
  ASSERT_TRUE(di.has_value());
  EXPECT_EQ(std::get<InstallFrame>(di->body).next_seq, 61u);

  auto dq = decode_frame(encode_frame(NodeId{9}, JoinRequestFrame{}));
  ASSERT_TRUE(dq.has_value());
  EXPECT_EQ(dq->type(), FrameType::kJoinRequest);
  EXPECT_EQ(dq->sender, NodeId{9});
}

TEST(TotemFrames, AuthoritativeRetransmissionRoundTrips) {
  DataFrame f;
  f.view = ViewId{7};
  f.origin = NodeId{3};
  f.seq = 88;
  f.retransmission = true;
  f.authoritative = true;
  f.payload = util::SharedSlice::copy_of(Bytes{9, 9, 9});

  auto decoded = decode_frame(encode_frame(NodeId{3}, f));
  ASSERT_TRUE(decoded.has_value());
  const auto& d = std::get<DataFrame>(decoded->body);
  EXPECT_TRUE(d.retransmission);
  EXPECT_TRUE(d.authoritative);

  // The flag defaults off and round-trips off.
  f.authoritative = false;
  auto plain = decode_frame(encode_frame(NodeId{3}, f));
  ASSERT_TRUE(plain.has_value());
  EXPECT_FALSE(std::get<DataFrame>(plain->body).authoritative);
}

TEST(TotemFrames, ReadyHeldDigestsRoundTrip) {
  ReadyFrame ready;
  ready.new_view = ViewId{6};
  ready.missing = {71};
  ready.held_seqs = {72, 73, 75};
  ready.held_digests = {0xDEADBEEFULL, 0x12345678ULL, 0xFFFFFFFFFFFFFFFFULL};

  auto decoded = decode_frame(encode_frame(NodeId{4}, ready));
  ASSERT_TRUE(decoded.has_value());
  const auto& r = std::get<ReadyFrame>(decoded->body);
  EXPECT_EQ(r.missing, (std::vector<std::uint64_t>{71}));
  EXPECT_EQ(r.held_seqs, (std::vector<std::uint64_t>{72, 73, 75}));
  EXPECT_EQ(r.held_digests,
            (std::vector<std::uint64_t>{0xDEADBEEFULL, 0x12345678ULL,
                                        0xFFFFFFFFFFFFFFFFULL}));
}

TEST(TotemFrames, ReadyHeldVectorSizeMismatchRejected) {
  // The encoder writes whatever it is handed; the decoder rejects parallel
  // vectors of different lengths (a malformed or corrupted report).
  ReadyFrame bad;
  bad.new_view = ViewId{6};
  bad.held_seqs = {72, 73};
  bad.held_digests = {0xAAULL};
  EXPECT_FALSE(decode_frame(encode_frame(NodeId{4}, bad)).has_value());
}

TEST(TotemFrames, MalformedInputRejected) {
  EXPECT_FALSE(decode_frame(Bytes{}).has_value());
  EXPECT_FALSE(decode_frame(Bytes{1, 2, 3}).has_value());
  Bytes garbage(64, 0xFF);
  EXPECT_FALSE(decode_frame(garbage).has_value());

  // Corrupt the magic of a valid frame.
  Bytes valid = encode_frame(NodeId{1}, JoinRequestFrame{});
  valid[2] ^= 0xFF;
  EXPECT_FALSE(decode_frame(valid).has_value());
}

TEST(TotemFrames, TruncatedFrameRejected) {
  Bytes valid = encode_frame(NodeId{1}, DataFrame{.payload = util::SharedSlice::copy_of(Bytes(100, 1))});
  valid.resize(valid.size() / 2);
  EXPECT_FALSE(decode_frame(valid).has_value());
}

TEST(TotemFrames, DataOverheadIsStable) {
  const std::size_t overhead = data_frame_overhead();
  EXPECT_GT(overhead, 0u);
  EXPECT_LT(overhead, 128u);
  DataFrame f;
  f.payload = util::SharedSlice::copy_of(Bytes(500, 1));
  EXPECT_EQ(encode_frame(NodeId{1}, f).size(), overhead + 500);
}

TEST(TotemFrames, SharedEncodingMatchesPlainEncoding) {
  DataFrame f;
  f.view = ViewId{4};
  f.ring_id = 0x1234567890;
  f.origin = NodeId{6};
  f.seq = 77;
  f.msg_id = 5;
  f.frag_index = 1;
  f.frag_count = 3;
  f.authoritative = true;
  const Bytes payload{8, 6, 7, 5, 3, 0, 9};
  f.payload = util::SharedSlice::copy_of(payload);
  const util::SharedBytes shared = encode_data_frame(NodeId{6}, f, payload);
  EXPECT_EQ(Bytes(shared.data(), shared.data() + shared.size()), encode_frame(NodeId{6}, f));
}

TEST(TotemFrames, SharedDecodeSlicesTheFrameInsteadOfCopying) {
  DataFrame f;
  f.seq = 3;
  const Bytes payload(40, 0x5A);
  const util::SharedBytes wire = encode_data_frame(NodeId{1}, f, payload);
  ASSERT_EQ(wire.use_count(), 1u);
  {
    auto decoded = decode_frame(wire);
    ASSERT_TRUE(decoded.has_value());
    const auto& d = std::get<DataFrame>(decoded->body);
    // The payload points into the frame buffer and holds a reference to it.
    EXPECT_EQ(d.payload.data(), wire.data() + data_frame_overhead());
    EXPECT_EQ(d.payload, payload);
    EXPECT_EQ(wire.use_count(), 2u);
    // The view form of the same bytes copies into a buffer of its own.
    auto copied = decode_frame(wire.view());
    ASSERT_TRUE(copied.has_value());
    const auto& c = std::get<DataFrame>(copied->body);
    EXPECT_NE(c.payload.data(), d.payload.data());
    EXPECT_EQ(c.payload, payload);
    EXPECT_EQ(wire.use_count(), 2u);
  }
  EXPECT_EQ(wire.use_count(), 1u);
}

TEST(TotemFrames, SliceOutlivesTheDecodedFrameAndItsBuffer) {
  util::SharedSlice kept;
  {
    DataFrame f;
    f.seq = 9;
    const Bytes payload{1, 2, 3};
    const util::SharedBytes wire = encode_data_frame(NodeId{1}, f, payload);
    auto decoded = decode_frame(wire);
    ASSERT_TRUE(decoded.has_value());
    kept = std::get<DataFrame>(decoded->body).payload;
  }  // the wire reference and the decoded frame are gone; the slice is not
  EXPECT_EQ(kept, (Bytes{1, 2, 3}));
  EXPECT_EQ(kept.owner().use_count(), 1u);
}

// ------------------------------------------------------------- batch framing

/// unpack_batch visits views into the blob; copy them out for comparison.
/// nullopt when the blob is rejected.
std::optional<std::vector<Bytes>> unpack(BytesView packed, std::uint32_t count) {
  std::vector<Bytes> out;
  const bool ok = unpack_batch(packed, count, [&](BytesView m) {
    out.emplace_back(m.begin(), m.end());
  });
  if (!ok) {
    EXPECT_TRUE(out.empty()) << "a rejected batch must visit nothing";
    return std::nullopt;
  }
  return out;
}

DataFrame batched_frame(const std::vector<Bytes>& msgs) {
  DataFrame f;
  f.view = ViewId{3};
  f.origin = NodeId{2};
  f.seq = 41;
  f.msg_id = 7;
  f.batch_count = static_cast<std::uint32_t>(msgs.size());
  f.payload = util::SharedSlice::copy_of(pack_batch(msgs));
  return f;
}

TEST(TotemBatchFraming, BatchedFrameRoundTrips) {
  const std::vector<Bytes> msgs = {Bytes{1, 2, 3}, Bytes{}, Bytes(41, 0xAB),
                                   Bytes{9}};
  auto decoded = decode_frame(encode_frame(NodeId{2}, batched_frame(msgs)));
  ASSERT_TRUE(decoded.has_value());
  const auto& d = std::get<DataFrame>(decoded->body);
  EXPECT_EQ(d.batch_count, 4u);
  auto unpacked = unpack(d.payload, d.batch_count);
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(*unpacked, msgs);
}

TEST(TotemBatchFraming, SingleMessageIsWireIdenticalToUnbatched) {
  // A batch of one encodes as a plain frame: byte-identical wire format, so
  // enabling batching changes nothing until two messages actually coalesce.
  DataFrame plain;
  plain.view = ViewId{3};
  plain.origin = NodeId{2};
  plain.seq = 41;
  plain.msg_id = 7;
  plain.payload = util::SharedSlice::copy_of(Bytes{5, 6, 7});
  DataFrame one = plain;  // batch_count stays 1; payload is the raw message
  EXPECT_EQ(encode_frame(NodeId{2}, one), encode_frame(NodeId{2}, plain));
}

TEST(TotemBatchFraming, RandomRoundTripProperty) {
  Rng rng(0xBA7C);
  for (int iter = 0; iter < 200; ++iter) {
    std::vector<Bytes> msgs;
    const std::size_t count = rng.between(2, 32);
    for (std::size_t i = 0; i < count; ++i) {
      Bytes m(rng.below(120));
      for (auto& b : m) b = static_cast<std::uint8_t>(rng.next());
      msgs.push_back(std::move(m));
    }
    const Bytes blob = pack_batch(msgs);
    auto unpacked = unpack(blob, static_cast<std::uint32_t>(msgs.size()));
    ASSERT_TRUE(unpacked.has_value()) << "iter " << iter;
    EXPECT_EQ(*unpacked, msgs) << "iter " << iter;
  }
}

TEST(TotemBatchFraming, MaxSizeBatchFitsOneEthernetFrame) {
  // Pack to just under a 1500-byte MTU payload budget using the size
  // predictor, then verify the prediction matched the encoder exactly.
  const std::size_t budget = 1500 - data_frame_overhead();
  std::vector<Bytes> msgs;
  std::size_t packed = 0;
  Rng rng(0x517E);
  while (true) {
    const std::size_t len = rng.below(64);
    const std::size_t grown = packed_batch_size(packed, len);
    if (grown > budget) break;
    msgs.push_back(Bytes(len, static_cast<std::uint8_t>(msgs.size())));
    packed = grown;
  }
  ASSERT_GE(msgs.size(), 2u);
  const Bytes blob = pack_batch(msgs);
  EXPECT_EQ(blob.size(), packed);  // predictor == encoder
  EXPECT_LE(data_frame_overhead() + blob.size(), 1500u);
  auto unpacked = unpack(blob, static_cast<std::uint32_t>(msgs.size()));
  ASSERT_TRUE(unpacked.has_value());
  EXPECT_EQ(*unpacked, msgs);
}

TEST(TotemBatchFraming, MalformedBatchRejected) {
  const std::vector<Bytes> msgs = {Bytes{1, 2, 3}, Bytes(50, 4), Bytes{5}};
  const Bytes blob = pack_batch(msgs);

  // Wrong count: too many or too few messages claimed.
  EXPECT_FALSE(unpack(blob, 2).has_value());   // trailing garbage
  EXPECT_FALSE(unpack(blob, 4).has_value());   // runs off the end
  EXPECT_FALSE(unpack(blob, 0).has_value());   // 0 leaves the blob unread
  // A count no blob of this size could hold (guards the decoder's reserve).
  EXPECT_FALSE(unpack(blob, 0xFFFFFFFF).has_value());

  // Truncations at every boundary.
  for (std::size_t cut = 0; cut < blob.size(); ++cut) {
    Bytes t(blob.begin(), blob.begin() + static_cast<std::ptrdiff_t>(cut));
    EXPECT_FALSE(unpack(t, 3).has_value()) << "cut=" << cut;
  }

  // A length field pointing past the end of the blob.
  Bytes corrupt = blob;
  corrupt[0] = 0xFF;
  EXPECT_FALSE(unpack(corrupt, 3).has_value());
}

TEST(TotemBatchFraming, DecoderRejectsImpossibleBatchCounts) {
  DataFrame f = batched_frame({Bytes{1}, Bytes{2}});
  Bytes wire = encode_frame(NodeId{2}, f);

  // batch_count == 0 is never valid on the wire.
  DataFrame zero = f;
  zero.batch_count = 0;
  EXPECT_FALSE(decode_frame(encode_frame(NodeId{2}, zero)).has_value());

  // A batch_count the payload could not possibly hold is rejected at frame
  // decode, before unpack_batch ever runs.
  DataFrame huge = f;
  huge.batch_count = 1'000'000;
  EXPECT_FALSE(decode_frame(encode_frame(NodeId{2}, huge)).has_value());

  // The valid frame still decodes (sanity for the two rejections above).
  EXPECT_TRUE(decode_frame(wire).has_value());
}

}  // namespace
}  // namespace eternal::totem
