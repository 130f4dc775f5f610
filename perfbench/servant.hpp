// The benchmark's own replicated object: a checkpointable counter.
//
//   "inc" (i32 delta) → i64 new value
//   "get" ()          → i64 value
// State: { value: long long, pad: octets } — `pad` sets the application-level
// state size each workload asks for.
//
// Service times are seeded: each operation takes base × (0.5 + u) with u in
// [0, 1) hashed from (seed, current value, operation). The hash depends only
// on replicated state, so every replica of a group — recovered ones too —
// draws the same time for the same operation, and a run replays exactly for
// its seed while different seeds see different (mean-preserving) timings.
#pragma once

#include <cstdint>
#include <string>

#include "core/checkpointable.hpp"
#include "util/any.hpp"
#include "util/cdr.hpp"
#include "util/time.hpp"

namespace perfbench {

namespace eu = eternal::util;

inline std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class BenchCounter final : public eternal::core::CheckpointableServant {
 public:
  BenchCounter(eternal::sim::Simulator& sim, std::size_t state_bytes, eu::Duration op_time,
               std::uint64_t seed)
      : eternal::core::CheckpointableServant(sim),
        pad_(state_bytes, 0xA5),
        op_time_(op_time),
        seed_(seed) {}

  std::int64_t value() const noexcept { return value_; }

  static eu::Bytes encode_i32(std::int32_t v) {
    eu::CdrWriter w;
    w.put_u8(static_cast<std::uint8_t>(w.order()));
    w.put_i32(v);
    return std::move(w).take();
  }

  /// Reply body of inc/get. Throws util::CdrError on malformed bytes.
  static std::int64_t decode_value(eu::BytesView body) {
    if (body.empty()) throw eu::CdrError("empty reply");
    eu::CdrReader r(body, static_cast<eu::ByteOrder>(body[0] & 1));
    (void)r.get_u8();
    return r.get_i64();
  }

  eu::Any get_state() override {
    eu::Any::Struct s;
    s.emplace_back("value", eu::Any::of_ulonglong(static_cast<std::uint64_t>(value_)));
    s.emplace_back("pad", eu::Any::of_octets(pad_));
    return eu::Any::of_struct(std::move(s));
  }

  void set_state(const eu::Any& state) override {
    value_ = static_cast<std::int64_t>(state.field("value").as_ulonglong());
    pad_ = state.field("pad").as_octets();
  }

 protected:
  eu::Bytes serve_app(const std::string& operation, eu::BytesView args) override {
    if (operation == "inc") {
      eu::CdrReader r(args, static_cast<eu::ByteOrder>(args.empty() ? 0 : args[0] & 1));
      (void)r.get_u8();
      value_ += r.get_i32();
      return encode_value();
    }
    if (operation == "get") return encode_value();
    throw eternal::orb::UserException{"IDL:BadOperation:1.0"};
  }

  eu::Duration app_execution_time(const std::string& operation) const override {
    return jittered(op_time_, operation.size());
  }

  eu::Duration state_op_time() const override {
    return jittered(eu::Duration(20'000), 0x5747E);
  }

 private:
  eu::Duration jittered(eu::Duration base, std::uint64_t salt) const {
    const std::uint64_t h = mix64(seed_ ^ mix64(static_cast<std::uint64_t>(value_) + salt));
    const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
    return eu::Duration(
        static_cast<std::int64_t>(static_cast<double>(base.count()) * (0.5 + u)));
  }

  eu::Bytes encode_value() const {
    eu::CdrWriter w;
    w.put_u8(static_cast<std::uint8_t>(w.order()));
    w.put_i64(value_);
    return std::move(w).take();
  }

  std::int64_t value_ = 0;
  eu::Bytes pad_;
  eu::Duration op_time_;
  std::uint64_t seed_;
};

}  // namespace perfbench
