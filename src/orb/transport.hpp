// The ORB's socket-level boundary.
//
// A real ORB writes IIOP to TCP sockets. Our mini-ORB writes IIOP to a
// `Transport` and receives inbound bytes through `MessageSink`. This is the
// exact seam where Eternal's Interceptor sits (paper footnote 1: "located
// outside the ORB, at the ORB's socket-level interface to the operating
// system"):
//   - without Eternal, the Transport is a TcpNetwork endpoint (simulated
//     switched point-to-point links) — the unreplicated baseline;
//   - with Eternal, the Transport is the Interceptor, which diverts the
//     bytes to the Replication Mechanisms for multicasting via Totem.
// The ORB itself cannot tell the difference — that is the transparency claim.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"

namespace eternal::orb {

using util::Bytes;
using util::BytesView;
using util::NodeId;

/// A (host, port) pair. Group endpoints (used by Eternal to address a
/// replicated object as a single logical peer) use the reserved host range.
struct Endpoint {
  NodeId host;
  std::uint16_t port = 2809;
  auto operator<=>(const Endpoint&) const = default;
};

/// Reserved host range for object-group endpoints.
constexpr std::uint32_t kGroupHostBase = 0xFF000000;

/// Builds the logical endpoint Eternal uses to represent a replicated
/// object group as one peer.
inline Endpoint group_endpoint(util::GroupId group) {
  return Endpoint{NodeId{kGroupHostBase + group.value}, 2809};
}
inline bool is_group_endpoint(const Endpoint& e) noexcept {
  return e.host.value >= kGroupHostBase;
}
inline util::GroupId group_of(const Endpoint& group_endpoint) noexcept {
  return util::GroupId{group_endpoint.host.value - kGroupHostBase};
}

/// The endpoint of the one ORB connection from `client` to `server`, the
/// peer a server group's replicas see that client group as: the client id
/// in the low 24 bits of a reserved host range, the server id in the port.
/// An id that does not fit throws rather than alias another endpoint.
constexpr std::uint32_t kPairHostBase = 0xFD000000;
inline Endpoint pair_endpoint(util::GroupId client, util::GroupId server) {
  if (client.value >= (1u << 24) || server.value > 0xFFFF)
    throw std::out_of_range("pair_endpoint: group id does not fit");
  return Endpoint{NodeId{kPairHostBase + client.value}, static_cast<std::uint16_t>(server.value)};
}
/// The (client, server) groups a pair endpoint names; nullopt for any other.
inline std::optional<std::pair<util::GroupId, util::GroupId>> pair_of(const Endpoint& e) {
  if (e.host.value - kPairHostBase >= (1u << 24)) return std::nullopt;
  return std::pair{util::GroupId{e.host.value - kPairHostBase}, util::GroupId{e.port}};
}

/// Receives inbound IIOP messages (the ORB implements this).
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void on_message(const Endpoint& from, BytesView iiop) = 0;
};

/// Where the ORB writes outbound IIOP messages.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual void send(const Endpoint& to, Bytes iiop) = 0;
};

/// Simulated switched TCP/IP fabric for the unreplicated baseline: unicast,
/// reliable, per-link FIFO, same frame-size/bandwidth arithmetic as the
/// shared Ethernet so baseline-vs-Eternal comparisons are apples-to-apples.
/// TcpNetwork link parameters.
struct TcpConfig {
  double bandwidth_bps = 100e6;
  std::size_t mtu_bytes = 1460;  ///< TCP payload per segment
  /// Sender stack + switch + receiver stack per message (TCP pays the OS
  /// stack twice plus a store-and-forward switch; cf. the 25 us per-frame
  /// stack cost in EthernetConfig::propagation).
  util::Duration base_latency = util::Duration(60'000);  ///< 60 us
};

class TcpNetwork {
 public:
  explicit TcpNetwork(sim::Simulator& sim, TcpConfig config = TcpConfig{});
  ~TcpNetwork();

  /// Binds a sink to an endpoint and returns a Transport that sends *from*
  /// that endpoint. The Transport's lifetime is owned by the network.
  Transport& bind(const Endpoint& local, MessageSink& sink);

  void unbind(const Endpoint& local);

  /// Delivery delay for a message of `bytes` over one link.
  util::Duration transfer_time(std::size_t bytes) const;

  std::uint64_t messages_sent() const noexcept { return messages_sent_; }

 private:
  class Port;
  void send_from(const Endpoint& from, const Endpoint& to, Bytes iiop);

  sim::Simulator& sim_;
  TcpConfig config_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Port>> ports_;
  std::unordered_map<std::uint64_t, util::TimePoint> link_free_at_;
  std::uint64_t messages_sent_ = 0;

  static std::uint64_t key_of(const Endpoint& e) noexcept {
    return (static_cast<std::uint64_t>(e.host.value) << 16) | e.port;
  }
};

}  // namespace eternal::orb

template <>
struct std::hash<eternal::orb::Endpoint> {
  std::size_t operator()(const eternal::orb::Endpoint& e) const noexcept {
    return std::hash<std::uint64_t>{}((static_cast<std::uint64_t>(e.host.value) << 16) ^
                                      e.port);
  }
};
