// The mini-ORB and POA.
//
// This models a commercial, *unmodified* CORBA 2.x ORB as the paper treats
// one: a black box whose only externally visible behaviour is the IIOP byte
// stream at its socket boundary. The internals that the paper identifies as
// ORB/POA-level state are deliberately private members here:
//
//   - per-connection GIOP request_id counters (§4.2.1): the client side
//     increments them per request; replies whose request_id matches no
//     outstanding request are *discarded*;
//   - client-server handshake results (§4.2.2): with a same-vendor peer the
//     ORB negotiates a short object key on first contact (modelled on
//     VisiBroker 4.0) and uses it for every subsequent request — a server
//     ORB that never saw the handshake discards such requests;
//   - code-set negotiation: chosen from the server's published IOR component
//     on connection setup and remembered per connection;
//   - POA state: activation map, per-object single-threaded dispatch queues.
//
// Eternal never calls private accessors; it learns ORB state only by parsing
// the intercepted IIOP stream (see core/orb_state_observer). The
// `testing::OrbProbe` friend exists solely so tests can assert replica
// consistency claims.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "giop/giop.hpp"
#include "giop/ior.hpp"
#include "obs/trace.hpp"
#include "orb/servant.hpp"
#include "orb/transport.hpp"
#include "sim/simulator.hpp"
#include "util/fifo.hpp"
#include "util/seq_map.hpp"
#include "util/shared_bytes.hpp"

namespace eternal::orb {

namespace testing {
class OrbProbe;
}

class Orb;
class Poa;

/// Outcome of a two-way invocation, delivered to the client's ReplyHandler.
/// The body is a slice of the inbound reply message, not a copy: a handler
/// that keeps it (or a sub-slice) keeps that message's buffer alive, and a
/// view taken from it is valid only while such a slice is held.
struct ReplyOutcome {
  giop::ReplyStatus status = giop::ReplyStatus::kNoException;
  util::SharedSlice body;
};
using ReplyHandler = std::function<void(const ReplyOutcome&)>;

/// ORB configuration. vendor_id plays the role of "which vendor's ORB is
/// this" — same-vendor peers may use the short-object-key shortcut.
struct OrbConfig {
  std::uint32_t vendor_id = 0xE7E41001;  ///< "Eternal test ORB"
  giop::CodeSetComponent code_sets;
  bool vendor_shortcuts = true;  ///< negotiate short keys with same-vendor peers
  std::uint16_t port = 2809;
  /// POA dispatches admitted concurrently per object. 1 models the CORBA
  /// SINGLE_THREAD_MODEL default (the seed behaviour). Larger values admit
  /// several invocations whose modelled execution overlaps; their bodies
  /// still run in admission-ticket order (see ServerRequest::run_when_clear),
  /// so state mutations and replies keep the serialized order. Eternal's
  /// execution engine admits as many request FOMs per replica hosted here.
  std::size_t poa_max_inflight = 1;
};

/// Externally observable ORB behaviour counters. The discard counters are
/// the measurable symptoms of unsynchronized ORB/POA-level state.
struct OrbStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t oneways_sent = 0;
  std::uint64_t replies_sent = 0;
  std::uint64_t replies_received = 0;
  std::uint64_t replies_discarded_request_id = 0;   ///< §4.2.1 hazard (Fig. 4)
  std::uint64_t requests_discarded_unknown_key = 0; ///< §4.2.2 hazard
  std::uint64_t requests_dispatched = 0;
  std::uint64_t handshakes_initiated = 0;
  std::uint64_t handshakes_served = 0;
  std::uint64_t decode_errors = 0;
};

/// Client-side object reference (stub). Copyable; all copies share the ORB's
/// connection to the target.
class ObjectRef {
 public:
  ObjectRef() = default;

  /// Two-way invocation. `args` is the CDR-encoded parameter area.
  void invoke(const std::string& operation, util::Bytes args, ReplyHandler on_reply) const;

  /// Oneway invocation: no reply expected, fire and forget.
  void oneway(const std::string& operation, util::Bytes args) const;

  const giop::Ior& ior() const noexcept { return ior_; }
  bool valid() const noexcept { return orb_ != nullptr; }

 private:
  friend class Orb;
  ObjectRef(Orb* orb, giop::Ior ior) : orb_(orb), ior_(std::move(ior)) {}

  Orb* orb_ = nullptr;
  giop::Ior ior_;
};

/// Completion order of one object's admitted dispatches: the lowest ticket
/// not yet completed (the execution gate), plus the tickets above it that
/// completed out of order, ascending. An in-order completion — the common
/// case — only advances the gate, and the out-of-order list reuses its
/// capacity, so steady state allocates nothing.
class TicketGate {
 public:
  std::uint64_t next() const noexcept { return next_; }
  /// Records `ticket` as completed and advances next() past every
  /// consecutively completed ticket.
  void complete(std::uint64_t ticket);

 private:
  std::uint64_t next_ = 0;
  std::vector<std::uint64_t> ahead_;
};

/// A map keyed by object key strings that is searched with a view of the
/// key (heterogeneous lookup), so no string is built per message.
struct KeyHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view key) const noexcept {
    return std::hash<std::string_view>{}(key);
  }
};
template <typename V>
using KeyMap = std::unordered_map<std::string, V, KeyHash, std::equal_to<>>;

/// The Portable Object Adapter: activation map + per-object single-threaded
/// dispatch (its queues and activation table are ORB/POA-level state).
class Poa {
 public:
  /// Activates a servant under `object_id`; returns the IOR to publish.
  /// Object ids must not begin with reserved prefix bytes 0xFD/0xFE.
  giop::Ior activate(const std::string& object_id, std::shared_ptr<Servant> servant,
                     const std::string& type_id);

  /// Removes an object; subsequent requests for it are discarded.
  void deactivate(const std::string& object_id);

  bool is_active(std::string_view object_id) const;

 private:
  friend class Orb;
  friend class ServerRequest;
  friend class testing::OrbProbe;
  explicit Poa(Orb& orb) : orb_(orb) {}

  struct ActiveObject {
    std::shared_ptr<Servant> servant;
    std::size_t inflight = 0;        ///< admitted, not yet completed
    std::uint64_t next_ticket = 0;   ///< admission order of dispatches
    TicketGate gate;                 ///< completion order of the tickets
    std::map<std::uint64_t, std::function<void()>> parked;  ///< gated bodies
    util::Fifo<ServerRequestPtr> queue;  ///< awaiting an admission slot
  };
  ActiveObject* find(std::string_view object_id);
  /// Admits `request` on its object (or queues it behind a full admission
  /// window); an unknown object answers OBJECT_NOT_EXIST.
  void dispatch(ServerRequestPtr request);
  /// Completion of the dispatch holding `ticket`: frees its admission slot,
  /// admits queued work, advances the execution gate past every
  /// consecutively completed ticket and releases parked bodies.
  void finish_ticket(std::string_view object_id, std::uint64_t ticket);

  Orb& orb_;
  KeyMap<ActiveObject> objects_;
};

/// The ORB. One per simulated processor.
class Orb : public MessageSink {
 public:
  Orb(sim::Simulator& sim, NodeId node, OrbConfig config);
  ~Orb() override;

  Orb(const Orb&) = delete;
  Orb& operator=(const Orb&) = delete;

  /// Connects the ORB to its socket layer (TcpNetwork port or Eternal
  /// Interceptor). Must be called before any invocation.
  void plug_transport(Transport& transport) { transport_ = &transport; }

  NodeId node() const noexcept { return node_; }
  Endpoint local_endpoint() const noexcept { return Endpoint{node_, config_.port}; }
  const OrbConfig& config() const noexcept { return config_; }

  Poa& root_poa() noexcept { return poa_; }

  /// Builds a client stub from an IOR.
  ObjectRef resolve(const giop::Ior& ior) { return ObjectRef(this, ior); }

  /// Inbound IIOP from the socket layer: lent bytes, copied once into a
  /// buffer of their own and then handled like a shared message.
  void on_message(const Endpoint& from, BytesView iiop) override;

  /// Inbound IIOP that arrived in a shared buffer (the Interceptor's path):
  /// the scheduled dispatch event holds the reference, not a copy.
  void on_message(const Endpoint& from, util::SharedSlice iiop);

  const OrbStats& stats() const noexcept { return stats_; }

  /// Models death of the hosting process: every per-connection state item
  /// (request_id counters, pending replies, handshake/code-set results) is
  /// lost, exactly as when an ORB instance dies with its process and a fresh
  /// one starts. POA activations are managed separately via the POA.
  void reset_connections() {
    client_conns_.clear();
    server_conns_.clear();
  }
  /// The same for one process's share: drops the connections to the peers `gone` selects.
  void reset_connections(const std::function<bool(const Endpoint&)>& gone) {
    std::erase_if(client_conns_, [&](const auto& kv) { return gone(kv.first); });
    std::erase_if(server_conns_, [&](const auto& kv) { return gone(kv.first); });
  }

  /// Number of requests awaiting replies across all connections (tests/
  /// examples use this to detect the Fig. 4 "waits forever" condition).
  std::size_t outstanding_requests() const;

 private:
  friend class Poa;
  friend class ServerRequest;
  friend class ObjectRef;
  friend class testing::OrbProbe;

  // ---- client side ----
  struct PendingReply {
    ReplyHandler handler;
    util::TimePoint sent{};  ///< for the request→reply latency histogram
  };
  enum class HandshakeState { kNotNeeded, kRequired, kPending, kDone };
  /// An invocation issued before its connection's handshake completed: it
  /// keeps copies of what transmit_invocation later encodes from.
  struct QueuedInvocation {
    util::Bytes object_key;
    std::string operation;
    util::Bytes args;
    bool response_expected = true;
    ReplyHandler handler;
  };
  struct ClientConnection {
    std::uint32_t next_request_id = 0;  ///< the §4.2.1 counter
    bool first_request_sent = false;
    HandshakeState handshake = HandshakeState::kNotNeeded;
    std::uint32_t handshake_request_id = 0;
    util::Bytes negotiated_full_key;   ///< key the handshake covered
    util::Bytes negotiated_short_key;  ///< assigned by the server ORB
    giop::CodeSet char_code_set = giop::CodeSet::kIso8859_1;
    giop::CodeSet wchar_code_set = giop::CodeSet::kUtf16;
    /// Request id → its awaited reply. Ids are issued in ascending order,
    /// so a connection in steady state inserts and retires without
    /// allocating.
    util::SeqMap<PendingReply> pending;
    std::deque<QueuedInvocation> awaiting_handshake;
  };

  // ---- server side ----
  struct ServerConnection {
    bool handshaken = false;
    giop::CodeSet char_code_set = giop::CodeSet::kIso8859_1;
    giop::CodeSet wchar_code_set = giop::CodeSet::kUtf16;
    KeyMap<util::Bytes> short_to_full;
    std::uint32_t next_short_id = 1;
  };

  void send_invocation(const giop::Ior& ior, const std::string& operation, util::Bytes args,
                       bool response_expected, ReplyHandler handler);
  /// Encodes and sends one invocation straight from views of its object key
  /// (replaced by the connection's negotiated short key when that covers
  /// it), operation and arguments.
  void transmit_invocation(const Endpoint& to, ClientConnection& conn, util::BytesView object_key,
                           std::string_view operation, util::BytesView args,
                           bool response_expected, ReplyHandler handler);
  void begin_handshake(const Endpoint& to, ClientConnection& conn, const giop::Ior& ior);
  /// The server path: `request` inspects `message`, whose buffer the
  /// dispatched ServerRequest keeps.
  void handle_request(const Endpoint& from, const util::SharedSlice& message,
                      const giop::Inspection& request);
  /// The client path: a matched reply's handler gets a slice of `message`.
  void handle_reply(const Endpoint& from, const util::SharedSlice& message,
                    const giop::Inspection& reply);
  void serve_handshake(const Endpoint& from, const giop::Inspection& request);
  void complete_handshake(const Endpoint& from, ClientConnection& conn,
                          util::BytesView answer);
  void send_reply(const Endpoint& to, std::uint32_t request_id, giop::ReplyStatus status,
                  util::Bytes body);
  ClientConnection& connection_to(const Endpoint& server, const giop::Ior& ior);

  sim::Simulator& sim_;
  NodeId node_;
  OrbConfig config_;

  // Observability (src/obs/): the request→reply latency histogram; the two
  // discard symptoms (§4.2.1, §4.2.2) are counted in stats_ and traced.
  obs::Recorder& rec_;
  obs::Histogram& hist_rtt_;

  Transport* transport_ = nullptr;
  Poa poa_;
  std::unordered_map<Endpoint, ClientConnection> client_conns_;
  std::unordered_map<Endpoint, ServerConnection> server_conns_;
  OrbStats stats_;
};

namespace testing {

/// Test-only window into ORB/POA-level state, used to *verify* the paper's
/// consistency claims. Production code (Eternal included) must not use it.
class OrbProbe {
 public:
  static std::optional<std::uint32_t> next_request_id(const Orb& orb, const Endpoint& server);
  static std::optional<util::Bytes> negotiated_short_key(const Orb& orb,
                                                         const Endpoint& server);
  static std::optional<giop::CodeSet> client_char_code_set(const Orb& orb,
                                                           const Endpoint& server);
  static bool server_handshaken(const Orb& orb, const Endpoint& client);
  static std::optional<giop::CodeSet> server_char_code_set(const Orb& orb,
                                                           const Endpoint& client);
};

}  // namespace testing

}  // namespace eternal::orb
