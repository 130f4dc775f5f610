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

#include "obs/trace.hpp"
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

  /// Publishes interception counts through the observability recorder. The
  /// interceptor sits on the per-message hot path, so it contributes
  /// *metrics only* — cached counters, one add per message — and never
  /// trace-buffer events, which would crowd out the protocol events the
  /// InvariantChecker needs.
  void bind_recorder(obs::Recorder& rec) {
    ctr_captured_ = &rec.counter("intercept.captured");
    ctr_injected_ = &rec.counter("intercept.injected");
  }

  /// orb::Transport: the ORB's outbound path.
  void send(const orb::Endpoint& to, util::Bytes iiop) override {
    stats_.captured += 1;
    if (ctr_captured_ != nullptr) ctr_captured_->add();
    if (diversion_ != nullptr) diversion_->on_outbound(to, std::move(iiop));
  }

  /// Inbound path: the mechanisms deliver a message into the ORB as if it
  /// had arrived from `from` over TCP. The ORB keeps the slice's reference
  /// until it dispatches the message; nothing is copied.
  void inject(const orb::Endpoint& from, util::SharedSlice iiop) {
    stats_.injected += 1;
    if (ctr_injected_ != nullptr) ctr_injected_->add();
    orb_.on_message(from, std::move(iiop));
  }

  orb::Orb& orb() noexcept { return orb_; }
  const InterceptorStats& stats() const noexcept { return stats_; }

 private:
  orb::Orb& orb_;
  Diversion* diversion_ = nullptr;
  InterceptorStats stats_;
  obs::Counter* ctr_captured_ = nullptr;
  obs::Counter* ctr_injected_ = nullptr;
};

}  // namespace eternal::interceptor
