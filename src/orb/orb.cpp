#include "orb/orb.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"

namespace eternal::orb {

namespace {

constexpr const char* kTag = "orb";

/// Reserved object key of the in-ORB session-negotiation service.
const util::Bytes kHandshakeKey{0xFD};
/// First byte of every negotiated short object key.
constexpr std::uint8_t kShortKeyPrefix = 0xFE;

/// An object key as the string its POA table is keyed by.
std::string_view key_chars(util::BytesView key) {
  return std::string_view(reinterpret_cast<const char*>(key.data()), key.size());
}

bool is_short_key(util::BytesView key) noexcept {
  return !key.empty() && key[0] == kShortKeyPrefix;
}

bool supports(const giop::CodeSetComponent& sets, giop::CodeSet cs) noexcept {
  if (sets.native_char == cs) return true;
  return std::find(sets.conversion_char.begin(), sets.conversion_char.end(), cs) !=
         sets.conversion_char.end();
}

/// CDR payload of the vendor handshake ServiceContext (client → server).
util::Bytes encode_handshake_offer(std::uint32_t vendor, giop::CodeSet char_cs,
                                   giop::CodeSet wchar_cs, util::BytesView full_key) {
  util::CdrWriter w;
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u32(vendor);
  w.put_u32(static_cast<std::uint32_t>(char_cs));
  w.put_u32(static_cast<std::uint32_t>(wchar_cs));
  w.put_octets(full_key);
  return std::move(w).take();
}

struct HandshakeOffer {
  std::uint32_t vendor = 0;
  giop::CodeSet char_cs = giop::CodeSet::kIso8859_1;
  giop::CodeSet wchar_cs = giop::CodeSet::kUtf16;
  util::Bytes full_key;
};

std::optional<HandshakeOffer> decode_handshake_offer(util::BytesView data) {
  try {
    if (data.empty()) return std::nullopt;
    util::CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    HandshakeOffer offer;
    offer.vendor = r.get_u32();
    offer.char_cs = static_cast<giop::CodeSet>(r.get_u32());
    offer.wchar_cs = static_cast<giop::CodeSet>(r.get_u32());
    offer.full_key = r.get_octets();
    return offer;
  } catch (const util::CdrError&) {
    return std::nullopt;
  }
}

/// CDR payload of the handshake reply body (server → client).
util::Bytes encode_handshake_answer(util::BytesView short_key, giop::CodeSet char_cs,
                                    giop::CodeSet wchar_cs) {
  util::CdrWriter w;
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_octets(short_key);
  w.put_u32(static_cast<std::uint32_t>(char_cs));
  w.put_u32(static_cast<std::uint32_t>(wchar_cs));
  return std::move(w).take();
}

struct HandshakeAnswer {
  util::Bytes short_key;
  giop::CodeSet char_cs = giop::CodeSet::kIso8859_1;
  giop::CodeSet wchar_cs = giop::CodeSet::kUtf16;
};

std::optional<HandshakeAnswer> decode_handshake_answer(util::BytesView data) {
  try {
    if (data.empty()) return std::nullopt;
    util::CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
    (void)r.get_u8();
    HandshakeAnswer ans;
    ans.short_key = r.get_octets();
    ans.char_cs = static_cast<giop::CodeSet>(r.get_u32());
    ans.wchar_cs = static_cast<giop::CodeSet>(r.get_u32());
    return ans;
  } catch (const util::CdrError&) {
    return std::nullopt;
  }
}

util::Bytes encode_codeset_context(giop::CodeSet char_cs, giop::CodeSet wchar_cs) {
  util::CdrWriter w;
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u32(static_cast<std::uint32_t>(char_cs));
  w.put_u32(static_cast<std::uint32_t>(wchar_cs));
  return std::move(w).take();
}

}  // namespace

// ------------------------------------------------------------------ ObjectRef

void ObjectRef::invoke(const std::string& operation, util::Bytes args,
                       ReplyHandler on_reply) const {
  if (orb_ == nullptr) throw std::logic_error("ObjectRef: invoke on nil reference");
  orb_->send_invocation(ior_, operation, std::move(args), true, std::move(on_reply));
}

void ObjectRef::oneway(const std::string& operation, util::Bytes args) const {
  if (orb_ == nullptr) throw std::logic_error("ObjectRef: oneway on nil reference");
  orb_->send_invocation(ior_, operation, std::move(args), false, nullptr);
}

// ------------------------------------------------------------------------ Poa

giop::Ior Poa::activate(const std::string& object_id, std::shared_ptr<Servant> servant,
                        const std::string& type_id) {
  if (servant == nullptr) throw std::invalid_argument("Poa: null servant");
  if (!object_id.empty() && (static_cast<std::uint8_t>(object_id[0]) == 0xFD ||
                             static_cast<std::uint8_t>(object_id[0]) == 0xFE)) {
    throw std::invalid_argument("Poa: object id uses reserved prefix");
  }
  ActiveObject obj;
  obj.servant = std::move(servant);
  objects_[object_id] = std::move(obj);

  giop::Ior ior;
  ior.type_id = type_id;
  ior.host = orb_.node();
  ior.port = orb_.config().port;
  ior.object_key = util::bytes_of(object_id);
  ior.orb_vendor = orb_.config().vendor_id;
  ior.code_sets = orb_.config().code_sets;
  return ior;
}

void Poa::deactivate(const std::string& object_id) { objects_.erase(object_id); }

bool Poa::is_active(std::string_view object_id) const {
  return objects_.find(object_id) != objects_.end();
}

Poa::ActiveObject* Poa::find(std::string_view object_id) {
  auto it = objects_.find(object_id);
  return it == objects_.end() ? nullptr : &it->second;
}

void Poa::dispatch(ServerRequestPtr request) {
  ActiveObject* obj = find(request->object_id_);
  if (obj == nullptr) {
    ETERNAL_LOG(kDebug, kTag, "POA: no active object for key; OBJECT_NOT_EXIST");
    if (request->response_expected_) {
      util::CdrWriter w;
      w.put_u8(static_cast<std::uint8_t>(w.order()));
      w.put_string("IDL:omg.org/CORBA/OBJECT_NOT_EXIST:1.0");
      orb_.send_reply(request->reply_to_, request->request_id_,
                      giop::ReplyStatus::kSystemException, std::move(w).take());
    }
    return;
  }
  const std::size_t max_inflight =
      std::max<std::size_t>(1, orb_.config().poa_max_inflight);
  if (obj->inflight >= max_inflight) {
    // SINGLE_THREAD_MODEL (max_inflight == 1) or a full admission window:
    // serialize the overflow per object.
    obj->queue.push_back(std::move(request));
    return;
  }
  obj->inflight += 1;
  request->ticket_ = obj->next_ticket++;
  orb_.stats_.requests_dispatched += 1;
  obj->servant->invoke(std::move(request));
}

bool ServerRequest::at_execution_front() const {
  const Poa::ActiveObject* obj = poa_->find(object_id_);
  // Deactivated mid-flight: nothing is left to order against.
  return obj == nullptr || obj->gate.next() == ticket_;
}

void ServerRequest::park(std::function<void()> body) {
  // Only reached when at_execution_front() found the object behind others.
  poa_->find(object_id_)->parked.emplace(ticket_, std::move(body));
}

void ServerRequest::complete(bool user_exception, util::Bytes body) {
  if (completed_) return;
  completed_ = true;
  if (response_expected_) {
    poa_->orb_.send_reply(reply_to_, request_id_,
                          user_exception ? giop::ReplyStatus::kUserException
                                         : giop::ReplyStatus::kNoException,
                          std::move(body));
  }
  poa_->finish_ticket(object_id_, ticket_);
}

void TicketGate::complete(std::uint64_t ticket) {
  if (ticket == next_) {
    next_ += 1;
    // Absorb the out-of-order completions the gate now reaches.
    auto reached = ahead_.begin();
    while (reached != ahead_.end() && *reached == next_) {
      next_ += 1;
      ++reached;
    }
    ahead_.erase(ahead_.begin(), reached);
  } else if (ticket > next_) {
    const auto at = std::lower_bound(ahead_.begin(), ahead_.end(), ticket);
    if (at == ahead_.end() || *at != ticket) ahead_.insert(at, ticket);
  }
}

void Poa::finish_ticket(std::string_view object_id, std::uint64_t ticket) {
  ActiveObject* obj = find(object_id);
  if (obj == nullptr) return;  // deactivated mid-flight
  if (obj->inflight > 0) obj->inflight -= 1;
  obj->gate.complete(ticket);
  if (!obj->queue.empty() &&
      obj->inflight < std::max<std::size_t>(1, orb_.config().poa_max_inflight)) {
    ServerRequestPtr next = std::move(obj->queue.front());
    obj->queue.pop_front();
    dispatch(std::move(next));
    obj = find(object_id);
  }
  if (obj == nullptr || !obj->parked.contains(obj->gate.next())) return;
  // One parked body per simulator event: a long stall releasing a backlog
  // drains deterministically (FIFO at this instant) without re-entrancy.
  orb_.sim_.defer([this, key = std::string(object_id)] {
    ActiveObject* later = find(key);
    if (later == nullptr) return;
    auto front = later->parked.find(later->gate.next());
    if (front == later->parked.end()) return;
    std::function<void()> body = std::move(front->second);
    later->parked.erase(front);
    body();
  });
}

// ------------------------------------------------------------------------ Orb

Orb::Orb(sim::Simulator& sim, NodeId node, OrbConfig config)
    : sim_(sim),
      node_(node),
      config_(config),
      rec_(sim.recorder()),
      ctr_rid_discards_(rec_.counter("orb.replies_discarded_request_id")),
      ctr_key_discards_(rec_.counter("orb.requests_discarded_unknown_key")),
      hist_rtt_(rec_.histogram("orb.reply_rtt_ns")),
      poa_(*this) {}

Orb::~Orb() = default;

std::size_t Orb::outstanding_requests() const {
  std::size_t n = 0;
  for (const auto& [endpoint, conn] : client_conns_) n += conn.pending.size();
  return n;
}

Orb::ClientConnection& Orb::connection_to(const Endpoint& server, const giop::Ior& ior) {
  auto [it, inserted] = client_conns_.try_emplace(server);
  ClientConnection& conn = it->second;
  if (inserted) {
    // Connection setup: decide the vendor shortcut and the code sets, from
    // the IOR alone (paper §4.2.2: code sets come from the published IOR).
    if (config_.vendor_shortcuts && ior.orb_vendor == config_.vendor_id) {
      conn.handshake = HandshakeState::kRequired;
    } else {
      conn.handshake = HandshakeState::kNotNeeded;
    }
    conn.char_code_set = supports(ior.code_sets, config_.code_sets.native_char)
                             ? config_.code_sets.native_char
                             : giop::CodeSet::kIso8859_1;
    conn.wchar_code_set = ior.code_sets.native_wchar;
  }
  return conn;
}

void Orb::send_invocation(const giop::Ior& ior, const std::string& operation,
                          util::Bytes args, bool response_expected, ReplyHandler handler) {
  if (transport_ == nullptr) throw std::logic_error("Orb: no transport plugged");
  const Endpoint server{ior.host, ior.port};
  ClientConnection& conn = connection_to(server, ior);

  switch (conn.handshake) {
    case HandshakeState::kRequired:
    case HandshakeState::kPending: {
      const bool start = conn.handshake == HandshakeState::kRequired;
      conn.awaiting_handshake.push_back(QueuedInvocation{
          ior.object_key, operation, std::move(args), response_expected, std::move(handler)});
      if (start) begin_handshake(server, conn, ior);
      return;
    }
    case HandshakeState::kNotNeeded:
    case HandshakeState::kDone:
      transmit_invocation(server, conn, ior.object_key, operation, args, response_expected,
                          std::move(handler));
      return;
  }
}

void Orb::begin_handshake(const Endpoint& to, ClientConnection& conn, const giop::Ior& ior) {
  conn.handshake = HandshakeState::kPending;
  conn.handshake_request_id = conn.next_request_id++;
  conn.negotiated_full_key = ior.object_key;

  giop::Request request;
  request.request_id = conn.handshake_request_id;
  request.response_expected = true;
  request.object_key = kHandshakeKey;
  request.operation = "_negotiate_session";
  request.service_context.push_back(giop::ServiceContext{
      giop::kVendorHandshakeContextId,
      encode_handshake_offer(config_.vendor_id, config_.code_sets.native_char,
                             config_.code_sets.native_wchar, ior.object_key)});
  stats_.handshakes_initiated += 1;
  stats_.requests_sent += 1;
  conn.first_request_sent = true;
  transport_->send(to, giop::encode(request));
}

void Orb::transmit_invocation(const Endpoint& to, ClientConnection& conn,
                              util::BytesView object_key, std::string_view operation,
                              util::BytesView args, bool response_expected,
                              ReplyHandler handler) {
  giop::RequestView request;
  request.request_id = conn.next_request_id++;
  request.response_expected = response_expected;
  request.operation = operation;
  request.body = args;

  // Vendor shortcut: after the handshake, the negotiated short key replaces
  // the full key it covers (this is the §4.2.2 hazard carrier).
  const bool shortcut = conn.handshake == HandshakeState::kDone &&
                        std::ranges::equal(object_key, conn.negotiated_full_key) &&
                        !conn.negotiated_short_key.empty();
  request.object_key = shortcut ? util::BytesView(conn.negotiated_short_key) : object_key;

  // Code-set ServiceContext rides only on the connection's first request.
  giop::ServiceContext code_sets;
  if (!conn.first_request_sent) {
    conn.first_request_sent = true;
    code_sets = giop::ServiceContext{
        giop::kCodeSetsContextId, encode_codeset_context(conn.char_code_set, conn.wchar_code_set)};
    request.service_context = std::span(&code_sets, 1);
  }

  if (response_expected) {
    conn.pending.insert_or_assign(request.request_id, PendingReply{std::move(handler), sim_.now()});
    stats_.requests_sent += 1;
  } else {
    stats_.oneways_sent += 1;
  }
  transport_->send(to, giop::encode(request));
}

void Orb::on_message(const Endpoint& from, BytesView iiop) {
  on_message(from, util::SharedSlice::copy_of(iiop));
}

void Orb::on_message(const Endpoint& from, util::SharedSlice iiop) {
  // Model the ORB's demarshal/dispatch CPU cost as a scheduling delay. The
  // event keeps the message alive by its reference until it runs; the
  // message is then read in place, and a dispatched request keeps the
  // reference for as long as its servant works on it.
  constexpr util::Duration kDispatchOverhead = util::Duration(10'000);  ///< 10 us per message
  sim_.schedule(kDispatchOverhead, [this, from, iiop = std::move(iiop)] {
    const std::optional<giop::Inspection> msg = giop::inspect(iiop);
    if (!msg) {
      stats_.decode_errors += 1;
      return;
    }
    switch (msg->type) {
      case giop::MsgType::kRequest:
        handle_request(from, iiop, *msg);
        break;
      case giop::MsgType::kReply:
        handle_reply(from, iiop, *msg);
        break;
      case giop::MsgType::kLocateRequest: {
        // GIOP object location: OBJECT_HERE when the POA has it active.
        giop::LocateReply reply;
        reply.request_id = msg->request_id;
        reply.locate_status = poa_.is_active(key_chars(msg->object_key)) ? 1u : 0u;
        transport_->send(from, giop::encode(reply));
        break;
      }
      default:
        break;  // Cancel/LocateReply/Close are accepted and ignored
    }
  });
}

void Orb::handle_request(const Endpoint& from, const util::SharedSlice& message,
                         const giop::Inspection& request) {
  // In-ORB session negotiation service.
  if (std::ranges::equal(request.object_key, kHandshakeKey)) {
    serve_handshake(from, request);
    return;
  }

  ServerConnection& sconn = server_conns_[from];

  // Record the peer's code-set choice (first-request ServiceContext); a
  // context too short to hold both code sets is ignored.
  request.for_each_context([&](std::uint32_t id, util::BytesView data) {
    if (id == giop::kCodeSetsContextId && data.size() >= 12) {
      util::CdrReader r(data, static_cast<util::ByteOrder>(data[0] & 1));
      (void)r.get_u8();
      sconn.char_code_set = static_cast<giop::CodeSet>(r.get_u32());
      sconn.wchar_code_set = static_cast<giop::CodeSet>(r.get_u32());
    }
    return true;
  });

  // Vendor shortcut resolution: a short key from a client this ORB never
  // handshook with is uninterpretable — the request is discarded (§4.2.2).
  util::BytesView object_key = request.object_key;
  if (is_short_key(object_key)) {
    auto it = sconn.short_to_full.find(key_chars(object_key));
    if (it == sconn.short_to_full.end()) {
      stats_.requests_discarded_unknown_key += 1;
      ctr_key_discards_.add();
      rec_.record(node_, obs::Layer::kOrb, "request_discard", request.request_id,
                  {{"reason", "unknown_short_key"}});
      ETERNAL_LOG(kDebug, kTag,
                  util::to_string(node_) << " discarding request with unknown short key");
      return;
    }
    object_key = it->second;
  }

  poa_.dispatch(std::make_shared<ServerRequest>(
      poa_, key_chars(object_key), request.operation, message.sub(request.body), from,
      request.request_id, request.response_expected));
}

void Orb::serve_handshake(const Endpoint& from, const giop::Inspection& request) {
  std::optional<HandshakeOffer> offer;
  request.for_each_context([&](std::uint32_t id, util::BytesView data) {
    if (id != giop::kVendorHandshakeContextId) return true;
    offer = decode_handshake_offer(data);
    return false;
  });
  if (!offer) {
    stats_.decode_errors += 1;
    return;
  }

  ServerConnection& sconn = server_conns_[from];
  sconn.handshaken = true;
  sconn.char_code_set =
      supports(config_.code_sets, offer->char_cs) ? offer->char_cs : giop::CodeSet::kIso8859_1;
  sconn.wchar_code_set = offer->wchar_cs;

  // Deterministic short-key assignment: a replayed handshake on a recovered
  // replica reproduces the same key the original negotiation produced.
  util::Bytes short_key{kShortKeyPrefix};
  util::CdrWriter idw;
  idw.put_u32(sconn.next_short_id++);
  util::append(short_key, idw.bytes());
  sconn.short_to_full[std::string(key_chars(short_key))] = offer->full_key;

  giop::Reply reply;
  reply.request_id = request.request_id;
  reply.reply_status = giop::ReplyStatus::kNoException;
  reply.service_context.push_back(
      giop::ServiceContext{giop::kVendorHandshakeContextId, util::Bytes{}});
  reply.body = encode_handshake_answer(short_key, sconn.char_code_set, sconn.wchar_code_set);
  stats_.handshakes_served += 1;
  stats_.replies_sent += 1;
  transport_->send(from, giop::encode(reply));
}

void Orb::handle_reply(const Endpoint& from, const util::SharedSlice& message,
                       const giop::Inspection& reply) {
  auto conn_it = client_conns_.find(from);
  if (conn_it == client_conns_.end()) {
    stats_.replies_discarded_request_id += 1;
    ctr_rid_discards_.add();
    rec_.record(node_, obs::Layer::kOrb, "reply_discard", reply.request_id,
                {{"reason", "unknown_connection"}});
    return;
  }
  ClientConnection& conn = conn_it->second;

  if (conn.handshake == HandshakeState::kPending &&
      reply.request_id == conn.handshake_request_id) {
    complete_handshake(from, conn, reply.body);
    return;
  }

  std::optional<PendingReply> pending = conn.pending.take(reply.request_id);
  if (!pending) {
    // The Fig. 4 failure mode: the reply is valid but its request_id matches
    // no outstanding request on this connection, so the ORB drops it.
    stats_.replies_discarded_request_id += 1;
    ctr_rid_discards_.add();
    rec_.record(node_, obs::Layer::kOrb, "reply_discard", reply.request_id,
                {{"reason", "no_matching_request"}});
    ETERNAL_LOG(kDebug, kTag,
                util::to_string(node_) << " discarding reply with request_id "
                                       << reply.request_id << " (no matching request)");
    return;
  }
  stats_.replies_received += 1;
  hist_rtt_.observe(static_cast<std::uint64_t>((sim_.now() - pending->sent).count()));
  if (pending->handler) {
    const ReplyOutcome outcome{static_cast<giop::ReplyStatus>(reply.status),
                               message.sub(reply.body)};
    pending->handler(outcome);
  }
}

void Orb::complete_handshake(const Endpoint& from, ClientConnection& conn,
                             util::BytesView answer_body) {
  std::optional<HandshakeAnswer> answer = decode_handshake_answer(answer_body);
  if (!answer) {
    stats_.decode_errors += 1;
    return;
  }
  conn.handshake = HandshakeState::kDone;
  conn.negotiated_short_key = answer->short_key;
  conn.char_code_set = answer->char_cs;
  conn.wchar_code_set = answer->wchar_cs;
  stats_.replies_received += 1;

  while (!conn.awaiting_handshake.empty()) {
    QueuedInvocation inv = std::move(conn.awaiting_handshake.front());
    conn.awaiting_handshake.pop_front();
    transmit_invocation(from, conn, inv.object_key, inv.operation, inv.args,
                        inv.response_expected, std::move(inv.handler));
  }
}

void Orb::send_reply(const Endpoint& to, std::uint32_t request_id, giop::ReplyStatus status,
                     util::Bytes body) {
  giop::Reply reply;
  reply.request_id = request_id;
  reply.reply_status = status;
  reply.body = std::move(body);
  stats_.replies_sent += 1;
  transport_->send(to, giop::encode(reply));
}

// -------------------------------------------------------------------- testing

namespace testing {

std::optional<std::uint32_t> OrbProbe::next_request_id(const Orb& orb, const Endpoint& server) {
  auto it = orb.client_conns_.find(server);
  if (it == orb.client_conns_.end()) return std::nullopt;
  return it->second.next_request_id;
}

std::optional<util::Bytes> OrbProbe::negotiated_short_key(const Orb& orb,
                                                          const Endpoint& server) {
  auto it = orb.client_conns_.find(server);
  if (it == orb.client_conns_.end() ||
      it->second.handshake != Orb::HandshakeState::kDone) {
    return std::nullopt;
  }
  return it->second.negotiated_short_key;
}

std::optional<giop::CodeSet> OrbProbe::client_char_code_set(const Orb& orb,
                                                            const Endpoint& server) {
  auto it = orb.client_conns_.find(server);
  if (it == orb.client_conns_.end()) return std::nullopt;
  return it->second.char_code_set;
}

bool OrbProbe::server_handshaken(const Orb& orb, const Endpoint& client) {
  auto it = orb.server_conns_.find(client);
  return it != orb.server_conns_.end() && it->second.handshaken;
}

std::optional<giop::CodeSet> OrbProbe::server_char_code_set(const Orb& orb,
                                                            const Endpoint& client) {
  auto it = orb.server_conns_.find(client);
  if (it == orb.server_conns_.end()) return std::nullopt;
  return it->second.char_code_set;
}

}  // namespace testing

}  // namespace eternal::orb
