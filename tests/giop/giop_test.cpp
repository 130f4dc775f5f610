// GIOP framing: every message type, both byte orders, inspection, and
// malformed-input rejection.
#include <gtest/gtest.h>

#include "giop/giop.hpp"

namespace eternal::giop {
namespace {

using util::ByteOrder;
using util::Bytes;

Request sample_request() {
  Request m;
  m.service_context.push_back(ServiceContext{kCodeSetsContextId, Bytes{1, 2, 3}});
  m.service_context.push_back(ServiceContext{kVendorHandshakeContextId, Bytes{9}});
  m.request_id = 350;
  m.response_expected = true;
  m.object_key = util::bytes_of("bank-account-17");
  m.operation = "withdraw";
  m.body = Bytes{0xAA, 0xBB, 0xCC};
  return m;
}

TEST(Giop, RequestRoundTrip) {
  const Request m = sample_request();
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  ASSERT_EQ(decoded->type(), MsgType::kRequest);
  EXPECT_EQ(decoded->as_request(), m);
}

class GiopOrders : public ::testing::TestWithParam<ByteOrder> {};

TEST_P(GiopOrders, RequestRoundTripsInBothByteOrders) {
  const Request m = sample_request();
  const Bytes wire = encode(m, GetParam());
  // Byte-order flag is the 7th header byte.
  EXPECT_EQ(wire[6], static_cast<std::uint8_t>(GetParam()));
  auto decoded = decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->as_request(), m);
}

TEST_P(GiopOrders, ReplyRoundTripsInBothByteOrders) {
  Reply m;
  m.request_id = 351;
  m.reply_status = ReplyStatus::kUserException;
  m.body = Bytes{5, 6, 7, 8};
  auto decoded = decode(encode(m, GetParam()));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->as_reply(), m);
}

INSTANTIATE_TEST_SUITE_P(Orders, GiopOrders,
                         ::testing::Values(ByteOrder::kBig, ByteOrder::kLittle));

TEST(Giop, AllSimpleTypesRoundTrip) {
  {
    CancelRequest m{77};
    auto d = decode(encode(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(std::get<CancelRequest>(d->body), m);
  }
  {
    LocateRequest m{12, util::bytes_of("key")};
    auto d = decode(encode(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(std::get<LocateRequest>(d->body), m);
  }
  {
    LocateReply m{12, 1};
    auto d = decode(encode(m));
    ASSERT_TRUE(d.has_value());
    EXPECT_EQ(std::get<LocateReply>(d->body), m);
  }
  EXPECT_EQ(decode(encode(CloseConnection{}))->type(), MsgType::kCloseConnection);
  EXPECT_EQ(decode(encode(MessageError{}))->type(), MsgType::kMessageError);
}

TEST(Giop, HeaderIsGiopMagicAndVersion) {
  const Bytes wire = encode(sample_request());
  ASSERT_GE(wire.size(), 12u);
  EXPECT_EQ(wire[0], 'G');
  EXPECT_EQ(wire[1], 'I');
  EXPECT_EQ(wire[2], 'O');
  EXPECT_EQ(wire[3], 'P');
  EXPECT_EQ(wire[4], 1);  // major
  EXPECT_TRUE(is_giop(wire));
}

TEST(Giop, MessageSizeFieldMatchesBody) {
  const Bytes wire = encode(sample_request());
  util::CdrReader r(wire, static_cast<ByteOrder>(wire[6] & 1));
  (void)r.get_raw(8);
  EXPECT_EQ(r.get_u32(), wire.size() - 12);
}

TEST(Giop, RejectsMalformedInput) {
  EXPECT_FALSE(decode(Bytes{}).has_value());
  EXPECT_FALSE(decode(util::bytes_of("NOPE")).has_value());
  EXPECT_FALSE(is_giop(Bytes{1, 2, 3}));

  Bytes truncated = encode(sample_request());
  truncated.resize(truncated.size() - 3);
  EXPECT_FALSE(decode(truncated).has_value());  // size mismatch

  Bytes bad_type = encode(sample_request());
  bad_type[7] = 99;
  EXPECT_FALSE(decode(bad_type).has_value());

  Bytes bad_version = encode(sample_request());
  bad_version[4] = 9;
  EXPECT_FALSE(decode(bad_version).has_value());
}

TEST(Giop, RejectsBadReplyStatus) {
  Bytes wire = encode(Reply{{}, 1, ReplyStatus::kNoException, {}});
  // Reply status is the last u32 before the (empty) body; corrupt it.
  wire[wire.size() - 4] = 0x7F;
  EXPECT_FALSE(decode(wire).has_value());
}

TEST(Giop, InspectExtractsHeaderFields) {
  const Bytes wire = encode(sample_request());  // inspect lends views into it
  auto info = inspect(wire);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->type, MsgType::kRequest);
  EXPECT_EQ(info->request_id, 350u);
  EXPECT_EQ(info->operation, "withdraw");
  EXPECT_EQ(util::text_of(info->object_key), "bank-account-17");
  EXPECT_TRUE(info->response_expected);
  EXPECT_TRUE(info->has_context(kCodeSetsContextId));
  EXPECT_TRUE(info->has_context(kVendorHandshakeContextId));
  EXPECT_FALSE(info->has_context(0x999));
}

TEST(Giop, InspectReply) {
  Reply m;
  m.request_id = 42;
  auto info = inspect(encode(m));
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->type, MsgType::kReply);
  EXPECT_EQ(info->request_id, 42u);
}

TEST(Giop, OnewayRequestPreservesFlag) {
  Request m = sample_request();
  m.response_expected = false;
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_FALSE(decoded->as_request().response_expected);
}

TEST(Giop, LargeBodyRoundTrip) {
  Request m = sample_request();
  m.body.assign(200'000, 0xE7);
  auto decoded = decode(encode(m));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->as_request().body.size(), 200'000u);
}

// set_request_id patches the 4 id bytes in place. Its output must equal what
// decoding, changing request_id and re-encoding produces — for Requests and
// Replies, with and without service contexts (which move the id's offset and
// alignment), in both byte orders and under each GIOP 1.x minor version. This
// codec writes the 1.0 layout under minor 0 for every version it reads, so
// the re-encoded reference gets the input's minor byte put back: the patch
// keeps the sender's version.
TEST(Giop, SetRequestIdMatchesDecodeAndReencode) {
  Request plain = sample_request();
  plain.service_context.clear();
  Request handshake = sample_request();
  handshake.service_context.push_back(
      ServiceContext{kVendorHandshakeContextId, Bytes(8, 0x42)});
  Reply reply;
  reply.request_id = 351;
  reply.reply_status = ReplyStatus::kNoException;
  reply.body = Bytes{5, 6, 7};
  Reply context_reply = reply;
  context_reply.service_context.push_back(ServiceContext{kCodeSetsContextId, Bytes{1, 2, 3}});

  for (const ByteOrder order : {ByteOrder::kBig, ByteOrder::kLittle}) {
    const std::vector<Bytes> originals = {encode(sample_request(), order), encode(plain, order),
                                          encode(handshake, order), encode(reply, order),
                                          encode(context_reply, order)};
    for (const Bytes& original : originals) {
      for (const std::uint8_t minor : {0, 1, 2}) {
        for (const std::uint32_t rid : {0u, 7u, 350u, 0x01020304u, 0xFFFFFFFFu}) {
          Bytes input = original;
          input[5] = minor;
          Bytes patched = input;
          ASSERT_TRUE(set_request_id(patched, rid));

          std::optional<Message> msg = decode(input);
          ASSERT_TRUE(msg.has_value());
          Bytes expected;
          if (auto* req = std::get_if<Request>(&msg->body)) {
            req->request_id = rid;
            expected = encode(*req, msg->order);
          } else {
            auto& rep = std::get<Reply>(msg->body);
            rep.request_id = rid;
            expected = encode(rep, msg->order);
          }
          expected[5] = minor;
          EXPECT_EQ(patched, expected)
              << "order " << int(order) << " minor " << int(minor) << " rid " << rid;
          EXPECT_EQ(inspect(patched)->request_id, rid);
          // The copy-on-write form patches a fresh buffer, not its input.
          EXPECT_EQ(copy_with_request_id(input, rid), patched);
        }
      }
    }
  }
}

TEST(Giop, SetRequestIdLeavesOtherMessagesAlone) {
  for (Bytes wire : {encode(CancelRequest{77}), encode(LocateReply{5, 1}),
                     encode(CloseConnection{}), Bytes{1, 2, 3}}) {
    const Bytes before = wire;
    EXPECT_EQ(copy_with_request_id(wire, 99), before);
    EXPECT_FALSE(set_request_id(wire, 99));
    EXPECT_EQ(wire, before);
  }
}

TEST(Giop, InspectReportsRequestIdOffset) {
  const Bytes wire = encode(CancelRequest{77});
  auto info = inspect(wire);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->request_id_at, 12u);  // right after the frame header
  Reply m;
  m.request_id = 9;
  m.service_context.push_back(ServiceContext{kCodeSetsContextId, Bytes{1}});
  const Bytes reply = encode(m, ByteOrder::kBig);
  info = inspect(reply);
  ASSERT_TRUE(info.has_value());
  // count(4) + id(4) + length(4) + 1 data byte, padded to 4 = offset 12+16.
  EXPECT_EQ(info->request_id_at, 28u);
  EXPECT_EQ(reply[31], 9u);
}

}  // namespace
}  // namespace eternal::giop
