// GIOP 1.0 message formats (the IIOP wire protocol).
//
// This is the protocol the mini-ORB speaks and the protocol Eternal's
// Interceptor captures, parses and replays. Faithful framing matters here:
// the paper's ORB/POA-level state recovery works *only* because the GIOP
// request_id and the ServiceContext list are visible in the byte stream
// outside the ORB (paper §4.2.1–4.2.2).
//
// Framing (CORBA 2.3 §15.4): a 12-byte header
//   'G' 'I' 'O' 'P'  version(2)  byte_order(1)  msg_type(1)  msg_size(4)
// followed by a CDR-encoded message header and body; CDR alignment is
// relative to the start of the 12-byte header.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/bytes.hpp"
#include "util/cdr.hpp"
#include "util/ids.hpp"
#include "util/shared_bytes.hpp"

namespace eternal::giop {

using util::ByteOrder;
using util::Bytes;
using util::BytesView;

/// GIOP message types (CORBA 2.3 §15.4.1).
enum class MsgType : std::uint8_t {
  kRequest = 0,
  kReply = 1,
  kCancelRequest = 2,
  kLocateRequest = 3,
  kLocateReply = 4,
  kCloseConnection = 5,
  kMessageError = 6,
};

/// Reply status (CORBA 2.3 §15.4.3).
enum class ReplyStatus : std::uint32_t {
  kNoException = 0,
  kUserException = 1,
  kSystemException = 2,
  kLocationForward = 3,
};

/// One ServiceContext entry: a tagged, opaque blob a client-side ORB sends
/// to (or receives from) its peer ORB.
struct ServiceContext {
  std::uint32_t context_id = 0;
  Bytes data;
  bool operator==(const ServiceContext&) const = default;
};
using ServiceContextList = std::vector<ServiceContext>;

/// Standard code-set negotiation context (CONV_FRAME::CodeSetContext).
constexpr std::uint32_t kCodeSetsContextId = 1;
/// Vendor-specific handshake context used by our mini-ORB to negotiate a
/// short object key on first contact (modelled on VisiBroker 4.0, §4.2.2).
constexpr std::uint32_t kVendorHandshakeContextId = 0x45544552;  // 'ETER'

/// GIOP Request message.
struct Request {
  ServiceContextList service_context;
  std::uint32_t request_id = 0;
  bool response_expected = true;
  Bytes object_key;
  std::string operation;
  Bytes body;  ///< already-CDR-encoded in/inout arguments
  bool operator==(const Request&) const = default;
};

/// A Request's fields as views of bytes the encoder does not own: a client
/// ORB encodes each invocation from its connection's keys and the caller's
/// arguments without first gathering copies of them into a Request.
struct RequestView {
  std::span<const ServiceContext> service_context;
  std::uint32_t request_id = 0;
  bool response_expected = true;
  BytesView object_key;
  std::string_view operation;
  BytesView body;  ///< already-CDR-encoded in/inout arguments
};

/// GIOP Reply message.
struct Reply {
  ServiceContextList service_context;
  std::uint32_t request_id = 0;
  ReplyStatus reply_status = ReplyStatus::kNoException;
  Bytes body;  ///< return value / exception body
  bool operator==(const Reply&) const = default;
};

/// GIOP CancelRequest message.
struct CancelRequest {
  std::uint32_t request_id = 0;
  bool operator==(const CancelRequest&) const = default;
};

/// GIOP LocateRequest message.
struct LocateRequest {
  std::uint32_t request_id = 0;
  Bytes object_key;
  bool operator==(const LocateRequest&) const = default;
};

/// GIOP LocateReply message.
struct LocateReply {
  std::uint32_t request_id = 0;
  std::uint32_t locate_status = 0;  // UNKNOWN_OBJECT=0, OBJECT_HERE=1, OBJECT_FORWARD=2
  bool operator==(const LocateReply&) const = default;
};

/// GIOP CloseConnection / MessageError carry no header beyond the 12 bytes.
struct CloseConnection {
  bool operator==(const CloseConnection&) const = default;
};
struct MessageError {
  bool operator==(const MessageError&) const = default;
};

/// A decoded GIOP message.
struct Message {
  ByteOrder order = ByteOrder::kLittle;
  std::variant<Request, Reply, CancelRequest, LocateRequest, LocateReply, CloseConnection,
               MessageError>
      body;

  MsgType type() const noexcept { return static_cast<MsgType>(body.index()); }

  const Request& as_request() const { return std::get<Request>(body); }
  const Reply& as_reply() const { return std::get<Reply>(body); }
};

/// Encodes a message with full GIOP framing, in the given byte order.
/// encode(const Request&) is encode(const RequestView&) of its fields.
Bytes encode(const RequestView& m, ByteOrder order = util::host_byte_order());
Bytes encode(const Request& m, ByteOrder order = util::host_byte_order());
Bytes encode(const Reply& m, ByteOrder order = util::host_byte_order());
Bytes encode(const CancelRequest& m, ByteOrder order = util::host_byte_order());
Bytes encode(const LocateRequest& m, ByteOrder order = util::host_byte_order());
Bytes encode(const LocateReply& m, ByteOrder order = util::host_byte_order());
Bytes encode(const CloseConnection& m, ByteOrder order = util::host_byte_order());
Bytes encode(const MessageError& m, ByteOrder order = util::host_byte_order());

/// Encodes a Request into a fresh shared buffer, byte for byte what encode()
/// returns: the body is copied once, straight into place.
util::SharedSlice encode_shared(const Request& m, ByteOrder order = util::host_byte_order());

/// Decodes a framed GIOP message; nullopt on malformed input.
std::optional<Message> decode(BytesView data);

/// In-place view of a framed message's header fields, used by Eternal's
/// interceptor to discover ORB/POA-level state without copying anything.
/// The views (and the service contexts has_context reads) point into the
/// inspected buffer and are valid only while it is alive and unchanged; the
/// scalar fields are plain values.
struct Inspection {
  MsgType type = MsgType::kRequest;
  ByteOrder order = ByteOrder::kLittle;
  std::uint32_t request_id = 0;   ///< 0 for types without one
  /// Offset of the 4-byte request_id within the message; 0 for types
  /// without one.
  std::size_t request_id_at = 0;
  BytesView object_key;           ///< Request / LocateRequest only
  std::string_view operation;     ///< Request only
  bool response_expected = true;  ///< Request only
  std::uint32_t status = 0;       ///< Reply: reply_status; LocateReply: locate_status
  BytesView body;                 ///< Request / Reply: the bytes after the header

  bool has_context(std::uint32_t context_id) const noexcept;
  /// Copies the service-context list out (Request / Reply only).
  ServiceContextList service_contexts() const;

  /// Calls `fn(context_id, data)` for each service context in wire order,
  /// `data` a view into the inspected buffer, until `fn` returns false.
  /// Allocates nothing.
  template <typename Fn>
  void for_each_context(Fn&& fn) const {
    if (contexts_at_ == 0) return;
    // inspect() validated the list, so this re-walk cannot run off the end.
    util::CdrReader r(message_, order);
    (void)r.get_raw_view(contexts_at_);
    const std::uint32_t n = r.get_u32();
    for (std::uint32_t i = 0; i < n; ++i) {
      const std::uint32_t id = r.get_u32();
      if (!fn(id, r.get_octets_view())) return;
    }
  }

 private:
  friend std::optional<Inspection> inspect(BytesView data);

  BytesView message_;            ///< the whole framed message
  std::size_t contexts_at_ = 0;  ///< offset of the context count, 0 = none
};

/// Parses a framed message's header in place; allocates nothing. nullopt on
/// malformed input — exactly the inputs decode() rejects.
std::optional<Inspection> inspect(BytesView data);

/// Returns true when `data` starts with a well-formed GIOP header whose
/// message size matches the buffer.
bool is_giop(BytesView data) noexcept;

/// Sets the request_id of a framed Request or Reply in place; every other
/// byte, the GIOP version included, is left as it was. Any other (or
/// malformed) message is left unchanged and false is returned.
bool set_request_id(std::span<std::uint8_t> framed, std::uint32_t request_id);

/// A copy of `framed` in a fresh shared buffer with its request_id set as
/// set_request_id does: copy-on-write for bytes others still reference.
util::SharedSlice copy_with_request_id(BytesView framed, std::uint32_t request_id);

}  // namespace eternal::giop
