// Middle-tier test servant (paper footnote 2: middle tiers play both the
// client and the server role). On any invocation it forwards the operation
// to a backend object and completes the original request when the backend's
// reply arrives — during which time it is non-quiescent.
#pragma once

#include <utility>

#include "core/checkpointable.hpp"
#include "orb/orb.hpp"
#include "orb/servant.hpp"
#include "util/any.hpp"

namespace eternal::test_support {

class ForwarderServant : public orb::Servant {
 public:
  ForwarderServant(orb::ObjectRef backend, std::string forward_op)
      : backend_(std::move(backend)), forward_op_(std::move(forward_op)) {}

  std::uint64_t forwarded() const noexcept { return forwarded_; }

  void invoke(orb::ServerRequestPtr request) override {
    // Checkpointable interface: the middle tier's own application state is
    // just its forward counter.
    if (request->operation() == core::kGetStateOp) {
      request->reply(util::Any::of_ulonglong(forwarded_).to_bytes());
      return;
    }
    if (request->operation() == core::kSetStateOp) {
      forwarded_ = util::Any::from_bytes(request->args()).as_ulonglong();
      request->reply(util::Bytes{});
      return;
    }
    ++forwarded_;
    util::Bytes args(request->args().begin(), request->args().end());
    backend_.invoke(forward_op_, std::move(args), [request](const orb::ReplyOutcome& out) {
      if (out.status == giop::ReplyStatus::kNoException) {
        request->reply(out.body);
      } else {
        request->reply_exception(out.body);
      }
    });
  }

 private:
  orb::ObjectRef backend_;
  std::string forward_op_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace eternal::test_support
