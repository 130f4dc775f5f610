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
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/bytes.hpp"
#include "util/cdr.hpp"
#include "util/ids.hpp"

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
/// Causal-trace context: Eternal's mechanisms stamp each replicated
/// invocation (and its reply) with a 64-bit trace id so the span store
/// (obs/spans.hpp) can stitch one tree across interception, Totem ordering,
/// delivery and reply. ORBs ignore unknown context ids, so carriage is
/// transparent to the application; it is attached only while a SpanStore is
/// attached to the run's Recorder.
constexpr std::uint32_t kTraceContextId = 0x45545243;  // 'ETRC'

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
Bytes encode(const Request& m, ByteOrder order = util::host_byte_order());
Bytes encode(const Reply& m, ByteOrder order = util::host_byte_order());
Bytes encode(const CancelRequest& m, ByteOrder order = util::host_byte_order());
Bytes encode(const LocateRequest& m, ByteOrder order = util::host_byte_order());
Bytes encode(const LocateReply& m, ByteOrder order = util::host_byte_order());
Bytes encode(const CloseConnection& m, ByteOrder order = util::host_byte_order());
Bytes encode(const MessageError& m, ByteOrder order = util::host_byte_order());

/// Decodes a framed GIOP message; nullopt on malformed input.
std::optional<Message> decode(BytesView data);

/// In-place view of a framed message's header fields, used by Eternal's
/// interceptor to discover ORB/POA-level state without copying anything.
/// The views (and the service contexts has_context/trace_context read) point
/// into the inspected buffer and are valid only while it is alive and
/// unchanged; the scalar fields are plain values.
struct Inspection {
  MsgType type = MsgType::kRequest;
  ByteOrder order = ByteOrder::kLittle;
  std::uint32_t request_id = 0;   ///< 0 for types without one
  BytesView object_key;           ///< Request / LocateRequest only
  std::string_view operation;     ///< Request only
  bool response_expected = true;  ///< Request only
  std::uint32_t status = 0;       ///< Reply: reply_status; LocateReply: locate_status
  BytesView body;                 ///< Request / Reply: the bytes after the header

  bool has_context(std::uint32_t context_id) const noexcept;
  /// The kTraceContextId trace id carried, or 0 when absent or malformed.
  std::uint64_t trace_context() const noexcept;
  /// Copies the service-context list out (Request / Reply only).
  ServiceContextList service_contexts() const;

 private:
  friend std::optional<Inspection> inspect(BytesView data);
  template <typename Fn>
  void for_each_context(Fn&& fn) const;

  BytesView message_;            ///< the whole framed message
  std::size_t contexts_at_ = 0;  ///< offset of the context count, 0 = none
};

/// Parses a framed message's header in place; allocates nothing. nullopt on
/// malformed input — exactly the inputs decode() rejects.
std::optional<Inspection> inspect(BytesView data);

/// Returns true when `data` starts with a well-formed GIOP header whose
/// message size matches the buffer.
bool is_giop(BytesView data) noexcept;

/// Returns `framed` re-encoded with its kTraceContextId service context set
/// (replaced if present) to the 8-byte little-endian `trace_id`. Only
/// Request and Reply messages carry service contexts; any other (or
/// malformed) input is returned unchanged.
Bytes with_trace_context(BytesView framed, std::uint64_t trace_id);

}  // namespace eternal::giop
