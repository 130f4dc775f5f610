// Checkpoint-and-messages log (paper §3.3).
//
// For passive replication Eternal logs each checkpoint and the ordered
// messages that follow it; the next checkpoint *overwrites* the previous one
// and truncates the message tail. A promoted (warm) or restarted (cold)
// primary is fed the checkpoint and the logged messages, in that order.
#pragma once

#include <deque>
#include <map>
#include <optional>
#include <vector>

#include "core/envelope.hpp"

namespace eternal::core {

class MessageLog {
 public:
  /// Records the totally-ordered position of a checkpoint's get_state()
  /// (paper §5.1(i)): the state that checkpoint will carry reflects exactly
  /// the messages logged *before* this point, so truncation must stop here.
  void mark(std::uint64_t epoch) { marks_[epoch] = messages_.size(); }

  /// Installs a new checkpoint, discarding the previous checkpoint and the
  /// messages the checkpointed state covers (checkpoint-overwrite
  /// semantics, §3.3). Messages logged after the checkpoint's get_state
  /// position are retained — they are not reflected in the state.
  ///
  /// A delta checkpoint (delta_base != 0) chains onto the existing base
  /// instead of overwriting it, provided the chain can absorb it
  /// (delta_base <= tip_epoch() and the epoch advances); returns false —
  /// without mutating the log — when it cannot, so the caller can fall back
  /// to keeping its previous state or forcing a full checkpoint. A full
  /// checkpoint always succeeds and clears any delta chain.
  bool set_checkpoint(Envelope checkpoint) {
    if (checkpoint.delta_base != 0) {
      if (!checkpoint_ || checkpoint.delta_base > tip_epoch() ||
          checkpoint.op_seq <= tip_epoch()) {
        return false;
      }
      truncate_covered(checkpoint.op_seq);
      delta_chain_.push_back(std::move(checkpoint));
      ++checkpoints_taken_;
      return true;
    }
    truncate_covered(checkpoint.op_seq);
    delta_chain_.clear();
    checkpoint_ = std::move(checkpoint);
    ++checkpoints_taken_;
    return true;
  }

  /// Appends an ordered message that followed the current checkpoint. The
  /// entry is a retained slice of the delivered bytes, not a copy.
  void append(RetainedEnvelope message) { messages_.push_back(std::move(message)); }

  const std::optional<Envelope>& checkpoint() const noexcept { return checkpoint_; }
  const std::deque<RetainedEnvelope>& messages() const noexcept { return messages_; }

  /// Delta checkpoints chained on top of the base, oldest first. Restoring
  /// the logged state means: apply checkpoint(), then each chain entry in
  /// order, then replay messages().
  const std::vector<Envelope>& delta_chain() const noexcept { return delta_chain_; }
  std::size_t chain_length() const noexcept { return delta_chain_.size(); }

  /// Epoch of the full base checkpoint (0 when none).
  std::uint64_t base_epoch() const noexcept {
    return checkpoint_ ? checkpoint_->op_seq : 0;
  }

  /// Epoch of the newest state the log can reconstruct: the last chained
  /// delta, else the base checkpoint, else 0.
  std::uint64_t tip_epoch() const noexcept {
    if (!delta_chain_.empty()) return delta_chain_.back().op_seq;
    return base_epoch();
  }

  bool empty() const noexcept { return messages_.empty(); }

  /// Removes and returns the oldest logged message (replay order).
  RetainedEnvelope take_front() {
    RetainedEnvelope e = std::move(messages_.front());
    messages_.pop_front();
    for (auto& [epoch, pos] : marks_) {
      if (pos > 0) pos -= 1;
    }
    return e;
  }

  void clear() {
    checkpoint_.reset();
    delta_chain_.clear();
    messages_.clear();
    marks_.clear();
  }

  /// Approximate retained size (accounting for the checkpoint-interval
  /// experiment).
  std::size_t bytes() const noexcept {
    std::size_t total = 0;
    if (checkpoint_) total += checkpoint_->payload.size() + checkpoint_->orb_state.size() +
                              checkpoint_->infra_state.size();
    for (const Envelope& e : delta_chain_) {
      total += e.payload.size() + e.orb_state.size() + e.infra_state.size();
    }
    for (const RetainedEnvelope& e : messages_) total += e.payload.size();
    return total;
  }

  std::uint64_t checkpoints_taken() const noexcept { return checkpoints_taken_; }

 private:
  /// Drops the logged messages covered by a checkpoint at `epoch` (up to its
  /// recorded get_state mark) and rebases the surviving marks.
  void truncate_covered(std::uint64_t epoch) {
    std::size_t covered = messages_.size();
    auto it = marks_.find(epoch);
    if (it != marks_.end()) covered = it->second;
    messages_.erase(messages_.begin(),
                    messages_.begin() + static_cast<std::ptrdiff_t>(covered));
    std::map<std::uint64_t, std::size_t> rebased;
    for (const auto& [mark_epoch, pos] : marks_) {
      if (mark_epoch > epoch) rebased[mark_epoch] = pos >= covered ? pos - covered : 0;
    }
    marks_ = std::move(rebased);
  }

  std::optional<Envelope> checkpoint_;
  std::vector<Envelope> delta_chain_;  ///< deltas over checkpoint_, oldest first
  std::deque<RetainedEnvelope> messages_;
  std::map<std::uint64_t, std::size_t> marks_;  ///< epoch → log position
  std::uint64_t checkpoints_taken_ = 0;
};

}  // namespace eternal::core
