#include "core/placement.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>

#include "util/bytes.hpp"

namespace eternal::core {

namespace {

/// Finalizing avalanche (splitmix64's mixer). FNV-1a alone is far too
/// regular here: circle inputs differ only in a couple of trailing bytes,
/// so their raw FNV values form near-arithmetic progressions and every
/// group hash lands clockwise-adjacent to the same ring's points — the
/// placement degenerates to "everything on ring 0" without this step.
std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// FNV-1a over host-order u32s: the bytes CdrWriter::put_u32 would write for
/// them, hashed in place.
template <std::size_t N>
std::uint64_t hash_words(const std::array<std::uint32_t, N>& words) {
  std::uint8_t bytes[sizeof words];
  std::memcpy(bytes, words.data(), sizeof bytes);
  return util::fnv1a(bytes);
}

std::uint64_t point_hash(std::uint32_t ring, std::uint32_t vnode) {
  return mix(hash_words(std::array{0x52494E47u, ring, vnode}));  // "RING": domain-separate from groups
}

std::uint64_t group_hash(util::GroupId group) {
  return mix(hash_words(std::array{0x47525550u, group.value}));  // "GRUP"
}

}  // namespace

RingPlacement::RingPlacement(RingPlacementConfig config) : config_(std::move(config)) {
  if (config_.rings == 0) {
    throw std::invalid_argument("RingPlacement: need at least one ring");
  }
  if (config_.virtual_points == 0) {
    throw std::invalid_argument("RingPlacement: need at least one virtual point");
  }
  for (const auto& [group, ring] : config_.pins) {
    if (ring >= config_.rings) {
      throw std::out_of_range("RingPlacement: pin of group " + std::to_string(group) +
                              " names ring " + std::to_string(ring) + " of " +
                              std::to_string(config_.rings) +
                              " — no replica joins that ring");
    }
  }
  circle_.reserve(config_.rings * config_.virtual_points);
  for (std::uint32_t r = 0; r < config_.rings; ++r) {
    for (std::uint32_t v = 0; v < config_.virtual_points; ++v) {
      circle_.emplace_back(point_hash(r, v), r);
    }
  }
  // Ties (astronomically unlikely) resolve to the lower ring index on every
  // node identically — the sort is total.
  std::sort(circle_.begin(), circle_.end());
}

std::uint32_t RingPlacement::ring_of(util::GroupId group) const {
  const bool cacheable = group.value < kMemoLimit;
  if (cacheable && group.value < memo_.size() && memo_[group.value] != kUnset) {
    return memo_[group.value];
  }
  const std::uint32_t ring = place(group);
  if (cacheable) {
    if (group.value >= memo_.size()) memo_.resize(std::size_t{group.value} + 1, kUnset);
    memo_[group.value] = ring;
  }
  return ring;
}

std::uint32_t RingPlacement::place(util::GroupId group) const {
  auto pin = config_.pins.find(group.value);
  if (pin != config_.pins.end()) return pin->second;
  if (config_.rings == 1) return 0;
  const std::uint64_t h = group_hash(group);
  auto it = std::lower_bound(circle_.begin(), circle_.end(),
                             std::make_pair(h, std::uint32_t{0}));
  if (it == circle_.end()) it = circle_.begin();  // wrap past the last point
  return it->second;
}

void RingPlacement::pin(util::GroupId group, std::uint32_t ring) {
  if (ring >= config_.rings) {
    throw std::out_of_range("RingPlacement: pin of group " +
                            std::to_string(group.value) + " names ring " +
                            std::to_string(ring) + " of " +
                            std::to_string(config_.rings) +
                            " — no replica joins that ring");
  }
  config_.pins[group.value] = ring;
  memo_.clear();
}

}  // namespace eternal::core
