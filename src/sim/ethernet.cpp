#include "sim/ethernet.hpp"

#include <stdexcept>

#include "util/log.hpp"

namespace eternal::sim {

Ethernet::Ethernet(Simulator& sim, EthernetConfig config, std::uint64_t loss_seed)
    : sim_(sim), config_(config), rng_(loss_seed) {
  if (config_.max_frame_bytes <= config_.frame_header_bytes) {
    throw std::invalid_argument("Ethernet: frame header larger than frame");
  }
}

void Ethernet::attach(NodeId node, Station* station) {
  if (station == nullptr) throw std::invalid_argument("Ethernet: null station");
  stations_[node] = station;
}

void Ethernet::detach(NodeId node) { stations_.erase(node); }

int Ethernet::component_of(NodeId node) const noexcept {
  auto it = partition_.find(node);
  return it == partition_.end() ? 0 : it->second;
}

util::Duration Ethernet::frame_tx_time(std::size_t payload_bytes) const noexcept {
  const std::size_t wire_bytes =
      payload_bytes + config_.frame_header_bytes + config_.frame_gap_bytes;
  const double seconds = static_cast<double>(wire_bytes) * 8.0 / config_.bandwidth_bps;
  return util::Duration(static_cast<std::int64_t>(seconds * 1e9));
}

void Ethernet::broadcast(NodeId from, Bytes payload) {
  if (payload.size() > max_payload()) {
    throw std::length_error("Ethernet: payload exceeds max frame; fragment above this layer");
  }
  if (!attached(from)) return;  // a crashed node cannot transmit

  // Serialize on the shared medium: the frame starts when the medium frees.
  const TimePoint start = std::max(sim_.now(), medium_free_at_);
  const util::Duration tx = frame_tx_time(payload.size());
  medium_free_at_ = start + tx;
  const TimePoint arrival = medium_free_at_ + config_.propagation;

  stats_.frames_sent += 1;
  stats_.bytes_sent += payload.size() + config_.frame_header_bytes + config_.frame_gap_bytes;
  stats_.payload_bytes += payload.size();

  // Blackout burst: the frame occupied the medium but nobody receives it.
  if (drop_next_ > 0) {
    drop_next_ -= 1;
    stats_.frames_dropped += 1;
    return;
  }

  const int sender_component = component_of(from);
  // Snapshot recipients now; attachment changes before `arrival` are checked
  // again at delivery time (a station that crashed mid-flight gets nothing).
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(in_flight_.size());
    in_flight_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  for (const auto& [node, station] : stations_) {
    if (node == from) continue;
    if (component_of(node) != sender_component) continue;
    auto loss_it = receiver_loss_.find(node);
    const double loss =
        loss_it != receiver_loss_.end() ? loss_it->second : config_.loss_probability;
    if (loss > 0 && rng_.chance(loss)) {
      stats_.frames_dropped += 1;
      continue;
    }
    in_flight_[slot].receivers += 1;
    sim_.schedule_at(arrival, [this, slot, from, to = node] { deliver(slot, from, to); });
  }
  if (in_flight_[slot].receivers == 0) {
    free_slots_.push_back(slot);
  } else {
    in_flight_[slot].payload = std::move(payload);
  }
}

void Ethernet::deliver(std::uint32_t slot, NodeId from, NodeId to) {
  if (auto it = stations_.find(to); it != stations_.end()) {  // else crashed before arrival
    it->second->on_frame(from, in_flight_[slot].payload);
  }
  // on_frame may broadcast and grow in_flight_: the lent bytes survive (a
  // moved Bytes keeps its buffer), but the slot reference must be re-read.
  InFlight& frame = in_flight_[slot];
  if (--frame.receivers == 0) {
    frame.payload = Bytes{};
    free_slots_.push_back(slot);
  }
}

void Ethernet::set_partition(const std::vector<NodeId>& nodes, int component) {
  for (NodeId n : nodes) partition_[n] = component;
}

void Ethernet::set_receiver_loss(NodeId node, double p) {
  if (p <= 0.0) {
    receiver_loss_.erase(node);
  } else {
    receiver_loss_[node] = p;
  }
}

void Ethernet::heal_partition() { partition_.clear(); }

}  // namespace eternal::sim
