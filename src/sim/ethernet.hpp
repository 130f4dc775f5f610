// Simulated shared 100 Mbps Ethernet segment.
//
// This is the physical substrate under Totem. It models exactly the effects
// the paper's Figure 6 depends on:
//   - a single shared medium: frames serialize, one at a time, at the
//     configured bandwidth;
//   - a hard maximum frame size (1518 bytes on the wire) — the transport
//     layer above must fragment anything larger into multiple frames;
//   - broadcast delivery to every attached, live station;
//   - optional per-receiver loss and network partitions for fault-injection
//     experiments.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/simulator.hpp"
#include "util/bytes.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace eternal::sim {

using util::Bytes;
using util::BytesView;
using util::NodeId;

/// Physical-layer parameters. Defaults model the paper's testbed
/// (100 Mbps Ethernet, 1518-byte frames).
struct EthernetConfig {
  double bandwidth_bps = 100e6;          ///< shared medium bandwidth
  std::size_t max_frame_bytes = 1518;    ///< max on-wire frame (incl. MAC header)
  std::size_t frame_header_bytes = 18;   ///< MAC header + FCS per frame
  std::size_t frame_gap_bytes = 20;      ///< preamble + inter-frame gap
  /// Wire propagation plus the receiver's protocol-stack traversal (a
  /// frame is not usable the instant its last bit arrives; the 2001-era
  /// UDP/IP stack cost dominates). Keeping this comparable with
  /// TcpConfig::base_latency keeps baseline-vs-Eternal comparisons fair.
  util::Duration propagation = util::Duration(25'000);  ///< 25 us
  double loss_probability = 0.0;         ///< independent per-receiver loss
};

/// A NIC: anything that can receive frames off the segment.
class Station {
 public:
  virtual ~Station() = default;
  /// Called when a frame addressed to the segment arrives at this station.
  virtual void on_frame(NodeId from, BytesView payload) = 0;
};

/// Per-station and segment-wide traffic counters, used by the
/// resource-usage columns of the replication-style benchmark.
struct EthernetStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;      ///< on-wire bytes including framing
  std::uint64_t payload_bytes = 0;   ///< payload bytes only
  std::uint64_t frames_dropped = 0;  ///< loss-injected drops (receiver-side)
};

/// The shared segment. Stations attach under a NodeId; `broadcast` queues a
/// frame for transmission; delivery events fire on the simulator.
class Ethernet {
 public:
  Ethernet(Simulator& sim, EthernetConfig config, std::uint64_t loss_seed = 0x5eed);

  const EthernetConfig& config() const noexcept { return config_; }

  /// Largest payload that fits one frame.
  std::size_t max_payload() const noexcept {
    return config_.max_frame_bytes - config_.frame_header_bytes;
  }

  /// Attaches (or re-attaches after a crash) a station.
  void attach(NodeId node, Station* station);

  /// Detaches a station (processor crash). Its queued frames still occupy
  /// the medium (they were already on the wire) but are not delivered to it.
  void detach(NodeId node);

  bool attached(NodeId node) const noexcept { return stations_.count(node) > 0; }

  /// Queues `payload` (must fit one frame) for broadcast. Delivery happens
  /// to every other attached station in the sender's partition component,
  /// after medium-serialization plus propagation. The sender does NOT
  /// receive its own frame (Totem handles self-delivery logically).
  void broadcast(NodeId from, Bytes payload);

  /// Places each listed node into partition component `component`.
  /// Frames cross only within a component. Component 0 is the default.
  void set_partition(const std::vector<NodeId>& nodes, int component);

  /// Heals all partitions (everyone back to component 0).
  void heal_partition();

  /// Sets the independent per-receiver frame-loss probability.
  void set_loss_probability(double p) noexcept { config_.loss_probability = p; }

  /// Per-receiver loss override: frames addressed to `node` are dropped with
  /// probability `p` regardless of the segment-wide setting (a flaky NIC /
  /// flapping member). 0 removes the override.
  void set_receiver_loss(NodeId node, double p);

  /// Drops the next `n` frames outright, before any receiver sees them (a
  /// deterministic blackout burst for chaos scenarios). Additive.
  void drop_next_frames(std::uint64_t n) noexcept { drop_next_ += n; }

  const EthernetStats& stats() const noexcept { return stats_; }

  /// Time the medium needs to carry one frame with `payload_bytes` payload.
  util::Duration frame_tx_time(std::size_t payload_bytes) const noexcept;

 private:
  int component_of(NodeId node) const noexcept;
  /// Hands the frame in `slot` to `to` (if still attached) and releases the
  /// slot after its last receiver.
  void deliver(std::uint32_t slot, NodeId from, NodeId to);

  /// A frame on the wire: its bytes plus the arrival events still to fire.
  /// Slots are reused once every receiver has had the frame, so the
  /// per-receiver events carry only an index.
  struct InFlight {
    Bytes payload;
    std::uint32_t receivers = 0;
  };

  Simulator& sim_;
  EthernetConfig config_;
  util::Rng rng_;
  std::unordered_map<NodeId, Station*> stations_;
  std::unordered_map<NodeId, int> partition_;
  std::unordered_map<NodeId, double> receiver_loss_;
  std::uint64_t drop_next_ = 0;
  TimePoint medium_free_at_{};
  EthernetStats stats_;
  std::vector<InFlight> in_flight_;        ///< grows on demand, then reused
  std::vector<std::uint32_t> free_slots_;  ///< unoccupied in_flight_ indices
};

}  // namespace eternal::sim
