// Request execution as run-to-completion state machines (FOMs).
//
// Agreed delivery never upcalls the servant: it only enqueues an execution
// FOM at its total-order position into the replica's run queue. A per-replica locality scheduler (exec::ReplicaEngine) drains
// the queue through explicit phases — decode → execute → log → reply — and
// emits replies strictly in total-order position even when execution
// completes out of order. The model follows motr's fop/fom + reqh split:
// the delivery path stays non-blocking, and a long-running servant
// operation only occupies its own FOM, not the whole replica.
#pragma once

#include <cstddef>
#include <cstdint>

#include "orb/transport.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace eternal::core::exec {

/// The phase table of one request FOM. Phases are traversed in order; a FOM
/// yields between phases (execution runs inside the servant until its
/// modelled completion instant) and parks in kReply until every earlier
/// position has emitted.
enum class FomPhase : std::uint8_t {
  kDecode,   ///< agreed envelope parsed back into a GIOP request
  kExecute,  ///< injected into the ORB; servant working (non-quiescent)
  kLog,      ///< effect recorded (zero-cost hop under active replication)
  kReply,    ///< reply built; awaiting its total-order emission slot
  kDone,     ///< retired through the in-order reply sequencer
};

inline const char* to_string(FomPhase p) {
  switch (p) {
    case FomPhase::kDecode: return "decode";
    case FomPhase::kExecute: return "execute";
    case FomPhase::kLog: return "log";
    case FomPhase::kReply: return "reply";
    case FomPhase::kDone: return "done";
  }
  return "?";
}

/// What a FOM runs: a request (an admission slot and a reply position) or a
/// fabricated state operation (§5), which runs as the engine's barrier.
enum class FomKind : std::uint8_t {
  kRequest,      ///< a delivered client request
  kGetState,     ///< _get_state / _get_delta: publishes the state at its epoch
  kSetState,     ///< _set_state / _apply_delta that completes a recovery
  kCheckpoint,   ///< _set_state / _apply_delta of a checkpoint
  kRestoreStep,  ///< a restore-chain step with more of its chain queued
};

/// One in-flight state machine. A request's `position` is assigned at
/// admission, strictly in run-queue (total-order) order, and is the key the
/// in-order reply sequencer retires by.
struct Fom {
  std::uint64_t position = 0;
  FomKind kind = FomKind::kRequest;
  FomPhase phase = FomPhase::kDecode;
  util::GroupId client_group{};   ///< issuing client group (reply envelope)
  std::uint64_t op_seq = 0;       ///< group-consistent request id (state ops: epoch)
  orb::Endpoint reply_to{};       ///< endpoint the ORB addresses the reply to
  bool response_expected = true;  ///< false: oneway, retired by grace timer
  std::uint64_t trace = 0;        ///< causal trace id (obs/spans.hpp)
  std::uint64_t exec_span = 0;    ///< open "execute" span, closed at kLog
  util::ReplicaId subject{};      ///< get_state: the recoverer (0: periodic checkpoint)
  std::uint64_t delta_since = 0;  ///< get_state: _get_delta base epoch (0: full)
  /// Phase-entry instants, indexed by FomPhase. The engine folds the
  /// per-phase residencies into ReplicaEngine::Stats at retirement; the
  /// critical-path analyzer (src/obs/critpath.hpp) reads the matching spans.
  util::TimePoint entered[5] = {};

  util::TimePoint entered_at(FomPhase p) const noexcept {
    return entered[static_cast<std::size_t>(p)];
  }

  /// Advances to `next` and stamps its entry instant.
  void enter(FomPhase next, util::TimePoint at) noexcept {
    phase = next;
    entered[static_cast<std::size_t>(next)] = at;
  }
};

}  // namespace eternal::core::exec
