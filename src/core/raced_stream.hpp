// One output stream that several replicas race to multicast.
//
// Under active replication every replica produces every output: a server
// group's replies to a client group, a replicated client group's requests to
// a server group, a group's small recovery set_states. Agreed delivery makes
// the first copy in the total order the one every member acts on; the others
// are duplicates. A RacedStream is one node's view of such a stream: the
// duplicate filter over the copies delivered here, plus this node's own
// copies still queued, unsent, in the Totem send queue — so that the first
// delivered copy can withdraw them before they cost the ring a frame.
//
// Withdrawing is safe because agreed delivery at this node implies delivery
// at every member that survives the configuration, the stream's consumer
// included: a copy delivered here has reached everyone a withheld copy
// would have reached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/seq_window.hpp"

namespace eternal::core {

class RacedStream {
 public:
  /// True when a copy of `seq` has already been delivered here: a replica
  /// about to multicast its own copy keeps it off the ring instead.
  bool delivered(std::uint64_t seq) const { return seen_.seen(seq); }

  /// Remembers this node's copy of `seq`, queued in Totem under `handle`
  /// (0: nothing was queued). Copies are remembered in submission order.
  void queued(std::uint64_t seq, std::uint64_t handle) {
    if (handle != 0) unsent_.push_back({seq, handle});
  }

  /// Records a delivered copy of `seq`; false for a duplicate. The first
  /// delivery passes the handle of this node's own copy of `seq`, if it
  /// still holds one, to `withdraw` (which fails harmlessly when that copy
  /// is the one being delivered), and forgets every older copy: those
  /// delivered before it. The consumed prefix is dropped once it is at
  /// least half the vector, which keeps its capacity: a stream in steady
  /// state allocates nothing, and one that never drains stays bounded.
  template <typename Withdraw>
  bool deliver(std::uint64_t seq, Withdraw&& withdraw) {
    if (!seen_.test_and_insert(seq)) return false;
    while (head_ < unsent_.size() && unsent_[head_].seq <= seq) {
      const Copy copy = unsent_[head_++];
      if (copy.seq == seq) withdraw(copy.handle);
    }
    if (2 * head_ >= unsent_.size()) {
      unsent_.erase(unsent_.begin(), unsent_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
    return true;
  }

  /// The duplicate filter: infrastructure-level state (§4.3), transferred
  /// with a recovering replica's state.
  const SeqWindow& window() const noexcept { return seen_; }
  /// Installs a transferred filter as a union with this node's own: the
  /// snapshot was taken at get_state, and every copy delivered here since
  /// then (before the set_state) must stay a duplicate.
  void restore(const SeqWindow& window) { seen_.merge(window); }

 private:
  struct Copy {
    std::uint64_t seq;
    std::uint64_t handle;
  };
  SeqWindow seen_;
  std::vector<Copy> unsent_;  ///< a FIFO from head_: this node's queued copies
  std::size_t head_ = 0;
};

}  // namespace eternal::core
