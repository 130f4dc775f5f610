#include "core/exec/engine.hpp"

#include <algorithm>

namespace eternal::core::exec {

Fom& ReplicaEngine::admit(util::GroupId client_group, std::uint64_t op_seq,
                          const orb::Endpoint& reply_to, bool response_expected,
                          util::TimePoint at) {
  Fom& fom = inflight_.emplace_back();
  fom.position = next_position_++;
  fom.enter(FomPhase::kDecode, at);
  fom.client_group = client_group;
  fom.op_seq = op_seq;
  fom.reply_to = reply_to;
  fom.response_expected = response_expected;
  stats_.admitted += 1;
  stats_.max_inflight = std::max(stats_.max_inflight, inflight_.size());
  return fom;
}

Fom* ReplicaEngine::match(const orb::Endpoint& reply_to, std::uint64_t op_seq) {
  for (Fom& fom : inflight_) {
    if (fom.response_expected && fom.reply_to == reply_to && fom.op_seq == op_seq) {
      return &fom;
    }
  }
  if (barrier_ && barrier_->reply_to == reply_to && barrier_->op_seq == op_seq) {
    return &*barrier_;
  }
  return nullptr;
}

Fom* ReplicaEngine::find(std::uint64_t position) {
  for (Fom& fom : inflight_) {
    if (fom.position == position) return &fom;
  }
  return nullptr;
}

void ReplicaEngine::reset() {
  inflight_.clear();
  parked_.clear();
  barrier_.reset();
  next_retire_ = next_position_;
}

void ReplicaEngine::account(const Fom& fom, util::TimePoint at) {
  stats_.decode_time += fom.entered_at(FomPhase::kExecute) - fom.entered_at(FomPhase::kDecode);
  if (fom.phase == FomPhase::kReply) {
    stats_.execute_time +=
        fom.entered_at(FomPhase::kLog) - fom.entered_at(FomPhase::kExecute);
    stats_.log_time += fom.entered_at(FomPhase::kReply) - fom.entered_at(FomPhase::kLog);
  } else {
    // Oneway grace retirement (kDone without a reply): execution residency
    // runs to the retirement instant, grace window included.
    stats_.execute_time += at - fom.entered_at(FomPhase::kExecute);
  }
}

bool ReplicaEngine::settle(std::uint64_t position, util::TimePoint at,
                           std::optional<Reply>& reply) {
  const auto it = std::find_if(inflight_.begin(), inflight_.end(),
                               [position](const Fom& f) { return f.position == position; });
  if (it != inflight_.end()) {
    account(*it, at);
    inflight_.erase(it);
  }
  if (position == next_retire_) {
    next_retire_ += 1;
    stats_.retired += 1;
    return true;
  }
  stats_.replies_parked += 1;
  const auto slot = std::lower_bound(
      parked_.begin(), parked_.end(), position,
      [](const Parked& p, std::uint64_t pos) { return p.position < pos; });
  parked_.insert(slot, Parked{position, at, std::move(reply)});
  stats_.max_parked = std::max(stats_.max_parked, parked_.size());
  return false;
}

}  // namespace eternal::core::exec
