// Server-side application programming model.
//
// A Servant is the implementation of a CORBA object. The POA hands it a
// ServerRequest; the servant must eventually complete it with `reply()` or
// `reply_exception()`. Completion may happen synchronously inside
// `invoke()`, or later from a scheduled event (modelling execution time), or
// after nested invocations on other objects (multi-tier scenarios).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "orb/transport.hpp"
#include "util/bytes.hpp"
#include "util/shared_bytes.hpp"
#include "util/time.hpp"

namespace eternal::orb {

class Poa;

/// An in-progress invocation on a servant: the POA's one record of a
/// dispatch. It holds a reference to the inbound GIOP frame's shared buffer
/// and args() views the request body in it, so the arguments stay readable
/// until the record is released, whoever else held the frame.
class ServerRequest {
 public:
  ServerRequest(Poa& poa, std::string_view object_id, std::string_view operation,
                util::SharedSlice args, const Endpoint& reply_to, std::uint32_t request_id,
                bool response_expected)
      : poa_(&poa),
        object_id_(object_id),
        operation_(operation),
        args_(std::move(args)),
        reply_to_(reply_to),
        request_id_(request_id),
        response_expected_(response_expected) {}

  const std::string& operation() const noexcept { return operation_; }
  util::BytesView args() const noexcept { return args_.view(); }

  /// Runs `body` once every invocation admitted earlier on the same object
  /// has completed, so overlapped dispatches (POA admission window > 1)
  /// mutate state in admission order. At the front of that order — the
  /// common case — the body runs right here; only a body that must wait is
  /// stored. Servants with order-sensitive state run their serve+reply step
  /// through this.
  template <typename Body>
  void run_when_clear(Body&& body) {
    if (at_execution_front()) {
      body();
    } else {
      park(std::function<void()>(std::forward<Body>(body)));
    }
  }

  /// Completes the invocation normally with an encoded result.
  void reply(util::Bytes result) { complete(false, std::move(result)); }

  /// Completes the invocation with a user exception (repository id encoded
  /// by the caller into `body`).
  void reply_exception(util::Bytes body) { complete(true, std::move(body)); }

  bool completed() const noexcept { return completed_; }

 private:
  friend class Poa;

  bool at_execution_front() const;
  void park(std::function<void()> body);
  /// Sends the reply (two-way only) and frees the admission slot; late
  /// duplicate completions are ignored.
  void complete(bool user_exception, util::Bytes body);

  Poa* poa_;
  std::string object_id_;  ///< the full object key the request resolved to
  std::string operation_;
  util::SharedSlice args_;
  Endpoint reply_to_;
  std::uint32_t request_id_;
  bool response_expected_;
  std::uint64_t ticket_ = 0;  ///< admission order on the object
  bool completed_ = false;
};

using ServerRequestPtr = std::shared_ptr<ServerRequest>;

/// Base class for application object implementations.
class Servant {
 public:
  virtual ~Servant() = default;

  /// Handles one invocation. Must (eventually) complete `request`.
  virtual void invoke(ServerRequestPtr request) = 0;
};

}  // namespace eternal::orb
