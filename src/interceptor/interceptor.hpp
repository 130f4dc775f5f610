// The Eternal Interceptor.
//
// Paper §2 / footnote 1: Eternal's interceptor is an IIOP message
// interceptor located *outside* the ORB, at the ORB's socket-level interface
// to the operating system. The ORB believes it is writing IIOP to TCP; the
// interceptor diverts every outgoing message to the Replication Mechanisms
// (for multicasting via Totem) and injects inbound messages back into the
// ORB. Neither the application nor the ORB is modified — the interceptor
// simply *is* the Transport the ORB was plugged with.
#pragma once

#include <cstdint>

#include "orb/orb.hpp"
#include "orb/transport.hpp"

namespace eternal::interceptor {

/// Receives the diverted outbound IIOP stream (implemented by the
/// Replication Mechanisms).
class Diversion {
 public:
  virtual ~Diversion() = default;
  virtual void on_outbound(const orb::Endpoint& to, util::Bytes iiop) = 0;
};

/// Interception counters.
struct InterceptorStats {
  std::uint64_t captured = 0;  ///< outbound messages diverted
  std::uint64_t injected = 0;  ///< inbound messages delivered into the ORB
};

/// The socket-level tap. Plug an ORB with this instead of a TcpNetwork port
/// and its entire IIOP stream flows through Eternal.
class Interceptor final : public orb::Transport {
 public:
  explicit Interceptor(orb::Orb& orb) : orb_(orb) {}

  /// Attaches the Replication Mechanisms. Until attached, captured
  /// messages are dropped (the node is not yet part of the system).
  void divert_to(Diversion& diversion) { diversion_ = &diversion; }

  /// orb::Transport: the ORB's outbound path.
  void send(const orb::Endpoint& to, util::Bytes iiop) override {
    stats_.captured += 1;
    if (diversion_ != nullptr) diversion_->on_outbound(to, std::move(iiop));
  }

  /// Inbound path: the mechanisms deliver a message into the ORB as if it
  /// had arrived from `from` over TCP. The ORB keeps the slice's reference
  /// until it dispatches the message; nothing is copied.
  void inject(const orb::Endpoint& from, util::SharedSlice iiop) {
    stats_.injected += 1;
    orb_.on_message(from, std::move(iiop));
  }

  orb::Orb& orb() noexcept { return orb_; }
  const InterceptorStats& stats() const noexcept { return stats_; }

 private:
  orb::Orb& orb_;
  Diversion* diversion_ = nullptr;
  InterceptorStats stats_;
};

}  // namespace eternal::interceptor
