#include "giop/giop.hpp"

namespace eternal::giop {

namespace {

using util::CdrError;
using util::CdrReader;
using util::CdrWriter;

constexpr std::uint8_t kVersionMajor = 1;
constexpr std::uint8_t kVersionMinor = 0;
constexpr std::size_t kFrameHeaderSize = 12;

constexpr std::size_t kSizeOffset = 8;  // message-size field within the header

/// Starts a message: a writer sized for the 12-byte GIOP header plus
/// `body_bound` (an upper bound on the body), holding the header with a
/// placeholder size.
CdrWriter begin_message(MsgType type, ByteOrder order, std::size_t body_bound) {
  CdrWriter w(order, kFrameHeaderSize + body_bound);
  w.put_u8('G');
  w.put_u8('I');
  w.put_u8('O');
  w.put_u8('P');
  w.put_u8(kVersionMajor);
  w.put_u8(kVersionMinor);
  w.put_u8(static_cast<std::uint8_t>(order));
  w.put_u8(static_cast<std::uint8_t>(type));
  w.put_u32(0);  // patched in end_message
  return w;
}

Bytes end_message(CdrWriter&& w) {
  w.patch_u32(kSizeOffset, static_cast<std::uint32_t>(w.size() - kFrameHeaderSize));
  return std::move(w).take();
}

// Upper bounds on encoded sizes: every aligned field may need up to 3 bytes
// of padding in front of it.
constexpr std::size_t kPad = 3;

std::size_t octets_bound(std::size_t n) { return kPad + 4 + n; }

std::size_t contexts_bound(const ServiceContextList& contexts) {
  std::size_t n = kPad + 4;
  for (const auto& sc : contexts) n += kPad + 4 + octets_bound(sc.data.size());
  return n;
}

void put_contexts(CdrWriter& w, const ServiceContextList& contexts) {
  w.put_u32(static_cast<std::uint32_t>(contexts.size()));
  for (const auto& sc : contexts) {
    w.put_u32(sc.context_id);
    w.put_octets(sc.data);
  }
}

/// Validates the service-context list at the reader's position and steps
/// over it.
void skip_contexts(CdrReader& r) {
  const std::uint32_t n = r.get_count(8);  // id + length minimum
  for (std::uint32_t i = 0; i < n; ++i) {
    (void)r.get_u32();
    (void)r.get_octets_view();
  }
}

struct FrameInfo {
  ByteOrder order;
  MsgType type;
  std::uint32_t size;
};

std::optional<FrameInfo> read_frame_header(CdrReader& r, BytesView data) {
  if (data.size() < kFrameHeaderSize) return std::nullopt;
  if (data[0] != 'G' || data[1] != 'I' || data[2] != 'O' || data[3] != 'P') return std::nullopt;
  (void)r.get_raw_view(4);
  const std::uint8_t major = r.get_u8();
  (void)r.get_u8();  // minor
  if (major != kVersionMajor) return std::nullopt;
  const auto order = static_cast<ByteOrder>(r.get_u8() & 1);
  const auto type_raw = r.get_u8();
  if (type_raw > static_cast<std::uint8_t>(MsgType::kMessageError)) return std::nullopt;
  // The size field must be read in the *message's* byte order, which we only
  // now know; CdrReader was constructed with a guess. Re-read with a scoped
  // reader over the 4 size bytes.
  CdrReader size_reader(data.subspan(8, 4), order);
  const std::uint32_t size = size_reader.get_u32();
  (void)r.get_u32();  // consume the bytes in the primary reader
  return FrameInfo{order, static_cast<MsgType>(type_raw), size};
}

}  // namespace

bool is_giop(BytesView data) noexcept {
  try {
    CdrReader r(data, ByteOrder::kLittle);
    auto info = read_frame_header(r, data);
    return info && data.size() == kFrameHeaderSize + info->size;
  } catch (const CdrError&) {
    return false;
  }
}

Bytes encode(const Request& m, ByteOrder order) {
  CdrWriter w = begin_message(
      MsgType::kRequest, order,
      contexts_bound(m.service_context) + kPad + 4 + 1 + octets_bound(m.object_key.size()) +
          octets_bound(m.operation.size() + 1) + octets_bound(0) + m.body.size());
  put_contexts(w, m.service_context);
  w.put_u32(m.request_id);
  w.put_bool(m.response_expected);
  w.put_octets(m.object_key);
  w.put_string(m.operation);
  w.put_octets(Bytes{});  // deprecated Principal
  w.put_raw(m.body);
  return end_message(std::move(w));
}

Bytes encode(const Reply& m, ByteOrder order) {
  CdrWriter w = begin_message(MsgType::kReply, order,
                              contexts_bound(m.service_context) + 2 * (kPad + 4) +
                                  m.body.size());
  put_contexts(w, m.service_context);
  w.put_u32(m.request_id);
  w.put_u32(static_cast<std::uint32_t>(m.reply_status));
  w.put_raw(m.body);
  return end_message(std::move(w));
}

Bytes encode(const CancelRequest& m, ByteOrder order) {
  CdrWriter w = begin_message(MsgType::kCancelRequest, order, 4);
  w.put_u32(m.request_id);
  return end_message(std::move(w));
}

Bytes encode(const LocateRequest& m, ByteOrder order) {
  CdrWriter w = begin_message(MsgType::kLocateRequest, order,
                              4 + octets_bound(m.object_key.size()));
  w.put_u32(m.request_id);
  w.put_octets(m.object_key);
  return end_message(std::move(w));
}

Bytes encode(const LocateReply& m, ByteOrder order) {
  CdrWriter w = begin_message(MsgType::kLocateReply, order, 8);
  w.put_u32(m.request_id);
  w.put_u32(m.locate_status);
  return end_message(std::move(w));
}

Bytes encode(const CloseConnection&, ByteOrder order) {
  CdrWriter w = begin_message(MsgType::kCloseConnection, order, 0);
  return end_message(std::move(w));
}

Bytes encode(const MessageError&, ByteOrder order) {
  CdrWriter w = begin_message(MsgType::kMessageError, order, 0);
  return end_message(std::move(w));
}

std::optional<Message> decode(BytesView data) {
  std::optional<Inspection> info = inspect(data);
  if (!info) return std::nullopt;
  Message out;
  out.order = info->order;
  switch (info->type) {
    case MsgType::kRequest: {
      Request m;
      m.service_context = info->service_contexts();
      m.request_id = info->request_id;
      m.response_expected = info->response_expected;
      m.object_key.assign(info->object_key.begin(), info->object_key.end());
      m.operation = info->operation;
      m.body.assign(info->body.begin(), info->body.end());
      out.body = std::move(m);
      return out;
    }
    case MsgType::kReply: {
      Reply m;
      m.service_context = info->service_contexts();
      m.request_id = info->request_id;
      m.reply_status = static_cast<ReplyStatus>(info->status);
      m.body.assign(info->body.begin(), info->body.end());
      out.body = std::move(m);
      return out;
    }
    case MsgType::kCancelRequest:
      out.body = CancelRequest{info->request_id};
      return out;
    case MsgType::kLocateRequest:
      out.body = LocateRequest{info->request_id,
                               Bytes(info->object_key.begin(), info->object_key.end())};
      return out;
    case MsgType::kLocateReply:
      out.body = LocateReply{info->request_id, info->status};
      return out;
    case MsgType::kCloseConnection:
      out.body = CloseConnection{};
      return out;
    case MsgType::kMessageError:
      out.body = MessageError{};
      return out;
  }
  return std::nullopt;
}

template <typename Fn>
void Inspection::for_each_context(Fn&& fn) const {
  if (contexts_at_ == 0) return;
  // inspect() validated the list, so this re-walk cannot run off the end.
  CdrReader r(message_, order);
  (void)r.get_raw_view(contexts_at_);
  const std::uint32_t n = r.get_u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t id = r.get_u32();
    if (!fn(id, r.get_octets_view())) return;
  }
}

bool Inspection::has_context(std::uint32_t context_id) const noexcept {
  bool found = false;
  for_each_context([&](std::uint32_t id, BytesView) {
    found = id == context_id;
    return !found;
  });
  return found;
}

std::uint64_t Inspection::trace_context() const noexcept {
  std::uint64_t trace = 0;
  for_each_context([&](std::uint32_t id, BytesView data) {
    if (id != kTraceContextId || data.size() != 8) return true;
    for (std::size_t i = 0; i < 8; ++i) trace |= std::uint64_t{data[i]} << (8 * i);
    return false;
  });
  return trace;
}

ServiceContextList Inspection::service_contexts() const {
  std::size_t count = 0;
  for_each_context([&](std::uint32_t, BytesView) { return ++count, true; });
  ServiceContextList out;
  out.reserve(count);
  for_each_context([&](std::uint32_t id, BytesView data) {
    out.push_back(ServiceContext{id, Bytes(data.begin(), data.end())});
    return true;
  });
  return out;
}

std::optional<Inspection> inspect(BytesView data) {
  try {
    CdrReader r(data, ByteOrder::kLittle);
    auto frame = read_frame_header(r, data);
    if (!frame) return std::nullopt;
    if (data.size() != kFrameHeaderSize + frame->size) return std::nullopt;
    // Re-create the reader with the correct order, positioned after the
    // frame header (alignment stays relative to the message start).
    CdrReader body(data, frame->order);
    (void)body.get_raw_view(kFrameHeaderSize);

    Inspection out;
    out.type = frame->type;
    out.order = frame->order;
    out.message_ = data;
    switch (frame->type) {
      case MsgType::kRequest:
        out.contexts_at_ = body.position();
        skip_contexts(body);
        out.request_id = body.get_u32();
        out.response_expected = body.get_bool();
        out.object_key = body.get_octets_view();
        out.operation = body.get_string_view();
        (void)body.get_octets_view();  // Principal
        out.body = body.get_raw_view(body.remaining());
        return out;
      case MsgType::kReply:
        out.contexts_at_ = body.position();
        skip_contexts(body);
        out.request_id = body.get_u32();
        out.status = body.get_u32();
        if (out.status > static_cast<std::uint32_t>(ReplyStatus::kLocationForward)) {
          return std::nullopt;
        }
        out.body = body.get_raw_view(body.remaining());
        return out;
      case MsgType::kCancelRequest:
        out.request_id = body.get_u32();
        return out;
      case MsgType::kLocateRequest:
        out.request_id = body.get_u32();
        out.object_key = body.get_octets_view();
        return out;
      case MsgType::kLocateReply:
        out.request_id = body.get_u32();
        out.status = body.get_u32();
        return out;
      case MsgType::kCloseConnection:
      case MsgType::kMessageError:
        return out;
    }
    return std::nullopt;
  } catch (const CdrError&) {
    return std::nullopt;
  }
}

namespace {

ServiceContext make_trace_context(std::uint64_t trace_id) {
  ServiceContext sc;
  sc.context_id = kTraceContextId;
  sc.data.reserve(8);
  for (int i = 0; i < 8; ++i)
    sc.data.push_back(static_cast<std::uint8_t>((trace_id >> (8 * i)) & 0xff));
  return sc;
}

void set_trace_context(ServiceContextList& contexts, std::uint64_t trace_id) {
  for (auto& sc : contexts) {
    if (sc.context_id == kTraceContextId) {
      sc = make_trace_context(trace_id);
      return;
    }
  }
  contexts.push_back(make_trace_context(trace_id));
}

}  // namespace

Bytes with_trace_context(BytesView framed, std::uint64_t trace_id) {
  std::optional<Message> msg = decode(framed);
  if (msg) {
    if (auto* req = std::get_if<Request>(&msg->body)) {
      set_trace_context(req->service_context, trace_id);
      return encode(*req, msg->order);
    }
    if (auto* rep = std::get_if<Reply>(&msg->body)) {
      set_trace_context(rep->service_context, trace_id);
      return encode(*rep, msg->order);
    }
  }
  return Bytes(framed.begin(), framed.end());
}

}  // namespace eternal::giop
