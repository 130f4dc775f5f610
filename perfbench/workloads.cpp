#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>

#include <unistd.h>

#include "core/deployment.hpp"
#include "core/stable_storage.hpp"
#include "obs/critpath.hpp"
#include "obs/invariants.hpp"
#include "obs/spans.hpp"
#include "orb/transport.hpp"
#include "servant.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

using eternal::core::FtProperties;
using eternal::core::ReplicationStyle;
using eternal::core::System;
using eternal::core::SystemConfig;
using eternal::util::Bytes;
using eternal::util::BytesView;
using eternal::util::GroupId;
using eternal::util::NodeId;
using eternal::util::Rng;
namespace orb = eternal::orb;
namespace obs = eternal::obs;
namespace sim = eternal::sim;
namespace totem = eternal::totem;
namespace core = eternal::core;
namespace interceptor = eternal::interceptor;

constexpr Duration kUs{1'000};
constexpr Duration kMs{1'000'000};
constexpr Duration kOpTime = 20 * kUs;         // mean servant service time
constexpr Duration kThinkMax = 100 * kUs;      // packet-driver think-time jitter
constexpr Duration kDrainLimit = 2'000 * kMs;  // replies still missing after this fail
constexpr std::size_t kCorpusCap = 4'096;

Duration scaled(Duration d, double scale) {
  return Duration(static_cast<std::int64_t>(static_cast<double>(d.count()) * scale));
}

Duration uniform(Rng& rng, Duration lo, Duration hi) {
  return lo + Duration(static_cast<std::int64_t>(rng.below(
                  static_cast<std::uint64_t>((hi - lo).count()) + 1)));
}

FtProperties active_props() {
  FtProperties p;
  p.style = ReplicationStyle::kActive;
  p.initial_replicas = 3;
  p.minimum_replicas = 1;
  p.fault_monitoring_interval = 5 * kMs;
  return p;
}

// ------------------------------------------------------------------- seams

/// Ethernet station → TotemNode::on_frame.
class StationSeam final : public sim::Station {
 public:
  StationSeam(totem::TotemNode& target, SeamClock* clock, std::vector<Bytes>* corpus)
      : target_(target), clock_(clock), corpus_(corpus) {}
  void on_frame(NodeId from, BytesView payload) override {
    SeamClock::Scope seam(clock_, Seam::kTotemRx);
    if (corpus_ != nullptr && corpus_->size() < kCorpusCap) {
      corpus_->emplace_back(payload.begin(), payload.end());
    }
    target_.on_frame(from, payload);
  }

 private:
  totem::TotemNode& target_;
  SeamClock* clock_;
  std::vector<Bytes>* corpus_;
};

/// Interceptor diversion → Mechanisms::on_outbound.
class DiversionSeam final : public interceptor::Diversion {
 public:
  DiversionSeam(core::Mechanisms& target, SeamClock* clock) : target_(target), clock_(clock) {}
  void on_outbound(const orb::Endpoint& to, Bytes iiop) override {
    SeamClock::Scope seam(clock_, Seam::kCapture);
    target_.on_outbound(to, std::move(iiop));
  }

 private:
  core::Mechanisms& target_;
  SeamClock* clock_;
};

/// Orb transport → Interceptor::send; also sizes the GIOP stream.
class TransportSeam final : public orb::Transport {
 public:
  TransportSeam(interceptor::Interceptor& target, SeamClock* clock, GiopSizes& sizes,
                std::vector<Bytes>* corpus)
      : target_(target), clock_(clock), sizes_(sizes), corpus_(corpus) {}
  void send(const orb::Endpoint& to, Bytes iiop) override {
    SeamClock::Scope seam(clock_, Seam::kOrbSend);
    // GIOP header: magic(4) version(2) flags(1) message type(1).
    if (iiop.size() > 7 && iiop[7] == 0) {
      sizes_.requests += 1;
      sizes_.request_bytes += iiop.size();
    } else if (iiop.size() > 7 && iiop[7] == 1) {
      sizes_.replies += 1;
      sizes_.reply_bytes += iiop.size();
    }
    if (corpus_ != nullptr && corpus_->size() < kCorpusCap) corpus_->push_back(iiop);
    target_.send(to, std::move(iiop));
  }

 private:
  interceptor::Interceptor& target_;
  SeamClock* clock_;
  GiopSizes& sizes_;
  std::vector<Bytes>* corpus_;
};

// --------------------------------------------------------------------- rig

/// Every integer field of Counts: the window is the field-by-field
/// difference of two snapshots, and the run signature hashes these.
constexpr std::uint64_t Counts::*kCountFields[] = {
    &Counts::events,          &Counts::frames,           &Counts::wire_bytes,
    &Counts::totem_msgs,      &Counts::data_frames,      &Counts::retransmissions,
    &Counts::tokens,          &Counts::throttled,        &Counts::view_changes,
    &Counts::dispatches,      &Counts::orb_discards,     &Counts::dead_orb_discards,
    &Counts::captured,        &Counts::injected,         &Counts::mech_multicasts,
    &Counts::replies_delivered, &Counts::duplicate_replies, &Counts::enqueued_in_recovery,
    &Counts::recoveries,      &Counts::promotions,       &Counts::log_replayed,
    &Counts::checkpoints,     &Counts::misrouted,        &Counts::storage_appends,
    &Counts::storage_syncs,   &Counts::storage_bytes,    &Counts::storage_failures,
    &Counts::max_state_bytes, &Counts::busiest_ring_ops,
};
// A field added to Counts but not to the list above would escape both.
static_assert(sizeof(Counts) ==
              sizeof(kCountFields) / sizeof(kCountFields[0]) * sizeof(std::uint64_t) +
                  2 * sizeof(double));

class Rig {
 public:
  Rig(SystemConfig cfg, const RunOptions& opts) : opts_(opts) {
    if (opts.traced) {
      cfg.trace_capacity = std::size_t{1} << 24;
      cfg.span_capacity = std::size_t{1} << 23;
    }
    cfg.seed = opts.seed;
    sys_ = std::make_unique<System>(cfg);
  }

  ~Rig() {
    if (!storage_root_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(storage_root_, ec);
    }
  }

  System& sys() { return *sys_; }
  sim::Simulator& sim() { return sys_->sim(); }
  TimePoint now() { return sys_->sim().now(); }
  History& history() { return history_; }
  GroupId group(std::size_t g) const { return groups_.at(g).id; }
  std::size_t groups() const { return groups_.size(); }
  SeamClock* seams() { return opts_.seams ? &seams_ : nullptr; }

  static std::string fresh_storage_dir(const RunOptions& opts) {
    static std::uint64_t serial = 0;
    return (std::filesystem::path(opts.scratch_dir) /
            ("storage-" + std::to_string(::getpid()) + "-" + std::to_string(++serial)))
        .string();
  }
  void own_storage(std::string root) { storage_root_ = std::move(root); }

  std::size_t add_group(const std::string& name, const FtProperties& props,
                        std::vector<NodeId> placement, std::vector<NodeId> backups,
                        std::size_t state_bytes) {
    const std::size_t index = groups_.size();
    const GroupId id = sys_->deploy(
        name, "IDL:BenchCounter:1.0", props, placement,
        [this, index, state_bytes](NodeId n) {
          auto s =
              std::make_shared<BenchCounter>(sys_->sim(), state_bytes, kOpTime, opts_.seed);
          servants_[{index, n.value}] = s;
          return s;
        },
        std::move(backups));
    groups_.push_back(Group{id, props.style, {}});
    history_ = History(groups_.size());
    return index;
  }

  /// Deploys the clients on `node`: one singleton client group per server
  /// group. (One client group invoking several server groups that share a
  /// server node gets replies mixed up across those groups at this commit;
  /// see README.)
  void add_client(NodeId node) {
    for (Group& g : groups_) {
      sys_->deploy_client("client-" + std::to_string(g.id.value), node, {g.id});
      g.ref = sys_->client(node, g.id);
    }
  }

  /// Issues one operation on group `g`; `done` gets the latency of a normal
  /// reply.
  void invoke(std::size_t g, OpKind kind, std::function<void(Duration)> done) {
    const TimePoint at = now();
    const std::size_t op = history_.begin(g, kind, at);
    groups_[g].ref.invoke(
        kind == OpKind::kInc ? "inc" : "get",
        kind == OpKind::kInc ? BenchCounter::encode_i32(1) : Bytes{},
        [this, g, op, at, done = std::move(done)](const orb::ReplyOutcome& out) {
          if (history_.ops(g)[op].replied) {
            violations_.push_back("group " + std::to_string(g) + ": op " +
                                  std::to_string(op) + " answered twice");
            return;
          }
          bool ok = out.status == eternal::giop::ReplyStatus::kNoException;
          std::int64_t value = 0;
          if (ok) {
            try {
              value = BenchCounter::decode_value(out.body);
            } catch (const eternal::util::CdrError&) {
              ok = false;
            }
          }
          history_.complete(g, op, now(), ok, value);
          if (ok && done) done(now() - at);
        });
  }

  void run_for(Duration d) {
    const std::int64_t t0 = wall_ns();
    sys_->run_for(d);
    sim_ns_ += wall_ns() - t0;
  }

  void run_to(TimePoint t) {
    if (t > now()) run_for(t - now());
  }

  bool run_until(const std::function<bool()>& pred, Duration timeout, Duration poll) {
    const TimePoint deadline = now() + timeout;
    while (!pred()) {
      if (now() >= deadline) return false;
      run_for(std::min(poll, deadline - now()));
    }
    return true;
  }

  /// Runs until every issued op has an answer (or the drain limit passes).
  void drain() {
    run_until(
        [this] {
          for (std::size_t g = 0; g < history_.groups(); ++g) {
            for (const OpRecord& r : history_.ops(g)) {
              if (!r.replied) return false;
            }
          }
          return true;
        },
        kDrainLimit, kMs);
  }

  /// Waits for the replica of group `g` launched on `node` at `launch` to be
  /// operational with its recovery backlog drained; returns that instant,
  /// or nullopt (recorded as a violation) when it never gets there.
  std::optional<TimePoint> wait_recovered(NodeId node, std::size_t g, TimePoint launch) {
    core::Mechanisms& m = sys_->mech(node);
    const GroupId id = group(g);
    // Event by event, so the drained instant is exact.
    const TimePoint deadline = now() + 5'000 * kMs;
    bool ok = false;
    const std::int64_t t0 = wall_ns();
    while (now() < deadline) {
      const auto& recs = m.recoveries();
      if (!recs.empty() && recs.back().group == id && recs.back().launched >= launch &&
          m.queued_messages(id) == 0) {
        ok = true;
        break;
      }
      if (!sim().step()) break;
    }
    sim_ns_ += wall_ns() - t0;
    if (!ok) {
      violations_.push_back("group " + std::to_string(g) + ": replica on node " +
                            std::to_string(node.value) + " never recovered");
      return std::nullopt;
    }
    return now();
  }

  /// Kills the replica of group `g` on `node` and runs until `observer`'s
  /// group table has dropped it. Until then the dead process's ORB object
  /// still receives the messages in flight to it; what it discards there is
  /// booked apart from orb.discards (the process is gone).
  void kill_and_wait(NodeId node, std::size_t g, NodeId observer) {
    const std::uint64_t before = discards_at(node);
    sys_->kill_replica(node, group(g));
    const bool removed = run_until(
        [&] {
          const core::GroupEntry* e = sys_->mech(observer).groups().find(group(g));
          return e != nullptr && e->replica_on(node) == nullptr;
        },
        1'000 * kMs, 100 * kUs);
    dead_discards_ += discards_at(node) - before;
    if (!removed) {
      violations_.push_back("group " + std::to_string(g) + ": killed replica on node " +
                            std::to_string(node.value) + " never removed");
    }
  }

  /// Records a correctness violation found by a workload.
  void note(std::string violation) { violations_.push_back(std::move(violation)); }

  /// Crashes a processor (System::crash_node). Its ORB object lingers and may
  /// still discard messages already in flight to it; those are booked as
  /// dead-process discards, like kill_and_wait's.
  void crash(NodeId node) {
    crashed_.emplace_back(node, discards_at(node));
    sys_->crash_node(node);
  }

  /// Starts the measured window: wraps the seams, snapshots every counter.
  void begin_measure() {
    if (opts_.seams) install_seams();
    start_ = snapshot();
    start_time_ = now();
    start_cpu_ = cpu_ns();
    start_allocs_ = alloc_count();
    sim_ns_ = 0;
  }

  /// Ends the measured window and runs every client-visible check.
  void finish(RunResult& res) {
    res.measured_cpu_s = static_cast<double>(cpu_ns() - start_cpu_) / 1e9;
    res.measured_allocs = alloc_count() - start_allocs_;
    res.sim_incl_ns = sim_ns_;
    for (std::size_t s = 0; s < static_cast<std::size_t>(Seam::kCount); ++s) {
      res.seams[s] = seams_.totals(static_cast<Seam>(s));
    }
    fill_counts(res.counts);
    res.giop = giop_sizes_;
    res.attempted = history_.attempted();
    res.failed = history_.failed();
    for (std::size_t g = 0; g < history_.groups(); ++g) {
      for (const OpRecord& r : history_.ops(g)) res.completed += r.ok ? 1 : 0;
    }

    std::vector<std::vector<ReplicaValue>> replicas(groups_.size());
    for (std::size_t g = 0; g < groups_.size(); ++g) replicas[g] = live_replicas(g);
    res.violations = violations_;
    for (std::string& v : check_history(history_, replicas)) res.violations.push_back(v);
    if (res.counts.orb_discards != 0) {
      std::string where;
      for (NodeId n : sys_->all_nodes()) {
        if (discards_at(n) != 0) {
          where += " node " + std::to_string(n.value) + ": " + std::to_string(discards_at(n));
        }
      }
      res.violations.push_back("ORB discarded " + std::to_string(res.counts.orb_discards) +
                               " message(s);" + where);
    }
    if (res.counts.storage_failures != 0) {
      res.violations.push_back(std::to_string(res.counts.storage_failures) +
                               " stable-storage failure(s)");
    }
    if (res.counts.misrouted != 0) {
      res.violations.push_back(std::to_string(res.counts.misrouted) + " misrouted envelope(s)");
    }
    if (opts_.traced) collect_trace(res);
  }

 private:
  struct Group {
    GroupId id;
    ReplicationStyle style;
    orb::ObjectRef ref;
  };

  void install_seams() {
    TraceOutputs* capture = nullptr;  // corpora land in the traced result
    if (opts_.traced) {
      corpora_ = std::make_unique<TraceOutputs>();
      capture = corpora_.get();
    }
    for (NodeId n : sys_->all_nodes()) {
      transport_seams_.push_back(std::make_unique<TransportSeam>(
          sys_->tap(n), seams(), giop_sizes_, capture ? &capture->giop_corpus : nullptr));
      sys_->orb(n).plug_transport(*transport_seams_.back());
      diversion_seams_.push_back(std::make_unique<DiversionSeam>(sys_->mech(n), seams()));
      sys_->tap(n).divert_to(*diversion_seams_.back());
      for (std::size_t r = 0; r < sys_->rings(); ++r) {
        station_seams_.push_back(std::make_unique<StationSeam>(
            sys_->totem(n, r), seams(), capture ? &capture->frame_corpus : nullptr));
        sys_->ethernet(r).attach(n, station_seams_.back().get());
      }
    }
  }

  std::uint64_t discards_at(NodeId n) {
    const orb::OrbStats& o = sys_->orb(n).stats();
    return o.replies_discarded_request_id + o.requests_discarded_unknown_key + o.decode_errors;
  }

  /// Cumulative counters of every layer, summed over nodes and rings (views
  /// installed: the most any node saw).
  Counts snapshot() {
    Counts s;
    s.events = sim().events_executed();
    for (std::size_t r = 0; r < sys_->rings(); ++r) {
      const auto& es = sys_->ethernet(r).stats();
      s.frames += es.frames_sent;
      s.wire_bytes += es.bytes_sent;
    }
    for (NodeId n : sys_->all_nodes()) {
      std::uint64_t views = 0;
      for (std::size_t r = 0; r < sys_->rings(); ++r) {
        const totem::TotemStats& t = sys_->totem(n, r).stats();
        s.totem_msgs += t.multicasts;
        s.data_frames += t.fragments_sent;
        s.retransmissions += t.retransmissions;
        s.tokens += t.tokens_handled;
        s.throttled += t.backpressure_throttled;
        views += t.view_changes;
      }
      s.view_changes = std::max(s.view_changes, views);
      s.dispatches += sys_->orb(n).stats().requests_dispatched;
      s.orb_discards += discards_at(n);
      s.captured += sys_->tap(n).stats().captured;
      s.injected += sys_->tap(n).stats().injected;
      const core::MechanismsStats& m = sys_->mech(n).stats();
      s.mech_multicasts += m.multicasts;
      s.replies_delivered += m.replies_delivered;
      s.duplicate_replies += m.duplicate_replies_suppressed;
      s.enqueued_in_recovery += m.enqueued_during_recovery;
      s.recoveries += m.recoveries_completed;
      s.promotions += m.promotions;
      s.log_replayed += m.log_replayed_messages;
      s.checkpoints += m.checkpoints_taken;
      s.misrouted += m.envelopes_misrouted;
      s.storage_failures += m.storage_append_failures + m.storage_persist_failures;
      if (const core::StableStorage* st = sys_->mech(n).storage()) {
        s.storage_appends += st->appends();
        s.storage_syncs += st->syncs();
        s.storage_bytes += st->bytes_written();
      }
    }
    return s;
  }

  void fill_counts(Counts& c) {
    for (const auto& [node, before] : crashed_) dead_discards_ += discards_at(node) - before;
    crashed_.clear();
    const Counts end = snapshot();
    for (auto field : kCountFields) c.*field = end.*field - start_.*field;
    // Whole run, set-up included: these must be 0 from the first event on.
    c.orb_discards = end.orb_discards - dead_discards_;
    c.dead_orb_discards = dead_discards_;
    c.misrouted = end.misrouted;
    c.storage_failures = end.storage_failures;
    c.virtual_s = static_cast<double>((now() - start_time_).count()) / 1e9;
    const double bps = sys_->config().ethernet.bandwidth_bps;
    c.medium_busy_frac = static_cast<double>(c.wire_bytes) * 8.0 / bps /
                         (c.virtual_s * static_cast<double>(sys_->rings()));
    for (NodeId n : sys_->all_nodes()) {
      for (const core::RecoveryRecord& rec : sys_->mech(n).recoveries()) {
        if (rec.launched >= start_time_) {
          c.max_state_bytes = std::max<std::uint64_t>(c.max_state_bytes, rec.app_state_bytes);
        }
      }
    }
    std::vector<std::uint64_t> ring_ops(sys_->rings(), 0);
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      ring_ops[sys_->ring_of(groups_[g].id)] += history_.ops(g).size();
    }
    c.busiest_ring_ops = *std::max_element(ring_ops.begin(), ring_ops.end());
  }

  /// False once crash_node took the processor down (its objects linger).
  bool alive(NodeId n) { return !sys_->totem(n, 0).is_down(); }

  /// Final values of every live replica of group `g`: active members and
  /// passive primaries execute (must equal N), passive backups hold a
  /// checkpoint.
  std::vector<ReplicaValue> live_replicas(std::size_t g) {
    std::vector<ReplicaValue> out;
    const GroupId id = group(g);
    const core::GroupEntry* entry = nullptr;
    for (NodeId n : sys_->all_nodes()) {
      if (alive(n) && sys_->mech(n).hosts_operational(id)) {
        entry = sys_->mech(n).groups().find(id);
        break;
      }
    }
    if (entry == nullptr) return out;
    const core::ReplicaInfo* primary = entry->primary();
    for (const core::ReplicaInfo& m : entry->members) {
      if (!alive(m.node) || !sys_->mech(m.node).hosts_operational(id)) continue;
      auto it = servants_.find({g, m.node.value});
      if (it == servants_.end()) continue;
      const bool executes = groups_[g].style == ReplicationStyle::kActive ||
                            (primary != nullptr && primary->id == m.id);
      out.push_back(ReplicaValue{"node " + std::to_string(m.node.value), it->second->value(),
                                 executes});
    }
    return out;
  }

  void collect_trace(RunResult& res) {
    res.trace = corpora_ ? std::move(corpora_) : std::make_unique<TraceOutputs>();
    TraceOutputs& t = *res.trace;
    t.placement = sys_->placement().config();
    obs::SpanStore& spans = *sys_->spans();
    namespace cp = obs::critpath;
    const cp::Report rep = cp::analyze(spans);
    t.invocations = rep.invocations.size();
    t.partial_traces = rep.partial_traces;
    t.dropped_spans = spans.dropped();
    double seg[cp::kSegmentCount] = {};
    double e2e = 0.0;
    for (const cp::Breakdown& b : rep.invocations) {
      for (cp::Segment s : cp::all_segments()) {
        seg[static_cast<std::size_t>(s)] += static_cast<double>(b[s].count());
      }
      e2e += static_cast<double>(b.end_to_end().count());
      if (std::llabs((b.sum() - b.end_to_end()).count()) > 1) t.sum_errors += 1;
    }
    const double n = rep.invocations.empty() ? 1.0 : static_cast<double>(rep.invocations.size());
    const auto mean_us = [&](cp::Segment s) { return seg[static_cast<std::size_t>(s)] / n / 1e3; };
    t.e2e_us = e2e / n / 1e3;
    t.order_wait_us = mean_us(cp::Segment::kOrderWait);
    t.delivery_us = mean_us(cp::Segment::kDelivery);
    t.execute_us = mean_us(cp::Segment::kExecute);
    t.reply_wire_us = mean_us(cp::Segment::kReplyWire);
    t.residual_us = mean_us(cp::Segment::kResidual);

    const auto& profiles = spans.recovery().completed();
    t.profiled_recoveries = profiles.size();
    for (const auto& p : profiles) {
      const Duration phases[5] = {p.fault_detection, p.quiesce, p.get_state, p.state_transfer,
                                  p.set_state};
      for (int i = 0; i < 5; ++i) t.rec_ms[i] += static_cast<double>(phases[i].count()) / 1e6;
    }
    for (double& v : t.rec_ms) v /= profiles.empty() ? 1.0 : static_cast<double>(profiles.size());

    for (const obs::Span& s : spans.snapshot()) {
      if (s.name == "reformation" && !s.open) {
        t.reform_ms += static_cast<double>((s.end - s.start).count()) / 1e6;
      }
    }

    t.invariant_violations = obs::InvariantChecker::check(*sys_->trace()).size();
    t.chrome_json = spans.to_chrome_json();
  }

  RunOptions opts_;
  std::unique_ptr<System> sys_;
  std::vector<Group> groups_;
  std::map<std::pair<std::size_t, std::uint32_t>, std::shared_ptr<BenchCounter>> servants_;
  History history_;
  std::vector<std::string> violations_;
  std::string storage_root_;

  SeamClock seams_;
  GiopSizes giop_sizes_;
  std::unique_ptr<TraceOutputs> corpora_;
  std::vector<std::unique_ptr<TransportSeam>> transport_seams_;
  std::vector<std::unique_ptr<DiversionSeam>> diversion_seams_;
  std::vector<std::unique_ptr<StationSeam>> station_seams_;

  Counts start_;
  TimePoint start_time_{};
  std::int64_t start_cpu_ = 0;
  std::uint64_t start_allocs_ = 0;
  std::int64_t sim_ns_ = 0;
  std::uint64_t dead_discards_ = 0;
  std::vector<std::pair<NodeId, std::uint64_t>> crashed_;  ///< (node, discards at crash)
};

// ----------------------------------------------------------------- drivers

/// The paper's packet driver: one outstanding "inc" at a time, the next one
/// sent a seeded think time (0..kThinkMax) after each reply.
class ClosedLoop {
 public:
  ClosedLoop(Rig& rig, std::size_t group, std::uint64_t seed, std::vector<Duration>& out)
      : rig_(rig), group_(group), rng_(seed), out_(out) {}

  void start() {
    running_ = true;
    fire();
  }
  void stop() { running_ = false; }

 private:
  void fire() {
    if (!running_) return;
    rig_.invoke(group_, OpKind::kInc, [this](Duration latency) {
      out_.push_back(latency);
      rig_.sim().schedule(uniform(rng_, Duration::zero(), kThinkMax), [this] { fire(); });
    });
  }

  Rig& rig_;
  std::size_t group_;
  Rng rng_;
  std::vector<Duration>& out_;
  bool running_ = false;
};

/// Open-loop Poisson arrivals over a set of groups: Zipf(skew) target
/// choice, `get_share` reads. Each op is timed from its due instant, which
/// in virtual time is exactly when it is sent (the generator is never late).
class OpenLoop {
 public:
  OpenLoop(Rig& rig, std::vector<std::size_t> groups, double rate, double skew,
           double get_share, std::uint64_t seed, std::vector<Duration>& out)
      : rig_(rig), groups_(std::move(groups)), rate_(rate), get_share_(get_share),
        rng_(seed), out_(out) {
    double total = 0.0;
    for (std::size_t i = 0; i < groups_.size(); ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), skew);
      cumulative_.push_back(total);
    }
  }

  void start() {
    running_ = true;
    schedule_next();
  }
  void stop() { running_ = false; }

 private:
  void schedule_next() {
    double u = rng_.unit();
    if (u <= 0.0) u = 1e-12;
    const Duration gap(static_cast<std::int64_t>(-std::log(u) / rate_ * 1e9));
    rig_.sim().schedule(gap, [this] {
      if (!running_) return;
      const double pick = rng_.unit() * cumulative_.back();
      std::size_t i = 0;
      while (i + 1 < cumulative_.size() && pick >= cumulative_[i]) ++i;
      const OpKind kind = rng_.unit() < get_share_ ? OpKind::kGet : OpKind::kInc;
      rig_.invoke(groups_[i], kind, [this](Duration latency) { out_.push_back(latency); });
      schedule_next();
    });
  }

  Rig& rig_;
  std::vector<std::size_t> groups_;
  double rate_;
  double get_share_;
  Rng rng_;
  std::vector<Duration>& out_;
  std::vector<double> cumulative_;
  bool running_ = false;
};

std::uint64_t salt(std::uint64_t seed, std::uint64_t stream) {
  return mix64(seed * 0x9E3779B97F4A7C15ULL + stream);
}

/// Median latency of the packet driver against one unreplicated server over
/// plain IIOP (TcpNetwork): the reference for the ordering tax.
double plain_p50_us(std::size_t state_bytes, std::uint64_t seed) {
  sim::Simulator sim;
  orb::TcpNetwork net(sim);
  orb::OrbConfig cfg;
  orb::Orb client(sim, NodeId{100}, cfg);
  orb::Orb server(sim, NodeId{101}, cfg);
  client.plug_transport(net.bind(client.local_endpoint(), client));
  server.plug_transport(net.bind(server.local_endpoint(), server));
  auto servant = std::make_shared<BenchCounter>(sim, state_bytes, kOpTime, seed);
  const orb::ObjectRef ref = client.resolve(
      server.root_poa().activate("svc", servant, "IDL:BenchCounter:1.0"));
  Rng rng(salt(seed, 99));
  std::vector<Duration> samples;
  std::function<void()> fire = [&] {
    const TimePoint sent = sim.now();
    ref.invoke("inc", BenchCounter::encode_i32(1), [&, sent](const orb::ReplyOutcome&) {
      samples.push_back(sim.now() - sent);
      if (samples.size() < 2'000) {
        sim.schedule(uniform(rng, Duration::zero(), kThinkMax), [&] { fire(); });
      }
    });
  };
  fire();
  sim.run();
  std::sort(samples.begin(), samples.end());
  return static_cast<double>(samples[samples.size() / 2].count()) / 1e3;
}

/// Offered load of one saturation probe: enough operations for a stable
/// p99 at any rate, then a grace of one latency limit before the backlog is
/// read (operations still unanswered then have missed the limit).
Duration probe_time(double rate) {
  const double s = std::clamp(20'000.0 / rate, 0.3, 4.0);
  return Duration(static_cast<std::int64_t>(s * 1e9));
}
constexpr Duration kProbeGrace = 2 * kMs;

ProbeResult probe_result(Rig& rig, std::vector<Duration>& lat, double setup_s) {
  ProbeResult p;
  p.setup_cpu_s = setup_s;
  p.sent = rig.history().attempted();
  for (std::size_t g = 0; g < rig.history().groups(); ++g) {
    for (const OpRecord& r : rig.history().ops(g)) p.in_flight += r.replied ? 0 : 1;
  }
  std::sort(lat.begin(), lat.end());
  // Unanswered ops count as missing the limit: rank them above every sample.
  const std::size_t n = lat.size() + p.in_flight;
  const std::size_t rank = static_cast<std::size_t>(0.99 * static_cast<double>(n - 1) + 0.5);
  p.p99_us = rank < lat.size() ? static_cast<double>(lat[rank].count()) / 1e3 : 1e12;
  return p;
}

// ------------------------------------------------------------ fleet_steady
//
// 16 active 3-way counter groups on nodes 1-3, split over 2 Totem rings by
// the consistent hash; clients on node 4. Light phase: the packet driver on
// group 0 while that group gains a 4th replica on node 5 (a join: state
// transfer with no fault), loses it (kill) and gets it back four times; the
// last kill returns group 0 to 3 replicas. Node 5 hosts nothing else: killing
// a replica resets its node's whole ORB, which wedges the other groups there
// (see README). Nominal phase: open-loop Poisson at 10 000 ops/s, Zipf 0.5
// over the 16 groups.

constexpr std::size_t kFleetGroups = 16;
constexpr std::size_t kFleetState = 128;
constexpr NodeId kFleetSpare{5};

std::unique_ptr<Rig> fleet_setup(const RunOptions& o) {
  SystemConfig cfg;
  cfg.nodes = 5;
  cfg.placement.rings = 2;
  auto rig = std::make_unique<Rig>(cfg, o);
  for (std::size_t i = 0; i < kFleetGroups; ++i) {
    rig->add_group("svc" + std::to_string(i), active_props(),
                   {NodeId{1}, NodeId{2}, NodeId{3}}, {}, kFleetState);
  }
  rig->add_client(NodeId{4});
  return rig;
}

std::vector<std::size_t> all_groups(const Rig& rig) {
  std::vector<std::size_t> out;
  for (std::size_t g = 0; g < rig.groups(); ++g) out.push_back(g);
  return out;
}

/// Launches a replica of group `g` on `node` and records its recovery time
/// and the longest reply gap its clients saw since `fault_at`.
void recover_one(Rig& rig, NodeId node, std::size_t g, TimePoint fault_at, RunResult& res) {
  const TimePoint launch = rig.now();
  rig.sys().relaunch_replica(node, rig.group(g));
  if (const auto drained = rig.wait_recovered(node, g, launch)) {
    res.recoveries.push_back(*drained - launch);
    res.outages.push_back(rig.history().longest_reply_gap(g, fault_at, *drained));
  }
}

RunResult fleet_run(const RunOptions& o) {
  RunResult res;
  const std::int64_t t0 = cpu_ns();
  std::unique_ptr<Rig> rig = fleet_setup(o);
  res.setup_cpu_s = static_cast<double>(cpu_ns() - t0) / 1e9;
  rig->begin_measure();

  Rng rng(salt(o.seed, 1));
  const auto gap = [&] {
    return scaled(40 * kMs, o.scale) + uniform(rng, Duration::zero(), 10 * kMs);
  };
  ClosedLoop light(*rig, 0, salt(o.seed, 10), res.light);
  light.start();
  rig->run_for(gap());
  recover_one(*rig, kFleetSpare, 0, rig->now(), res);
  for (int i = 0; i < 4; ++i) {
    rig->run_for(gap());
    const TimePoint kill_at = rig->now();
    rig->kill_and_wait(kFleetSpare, 0, NodeId{1});
    recover_one(*rig, kFleetSpare, 0, kill_at, res);
  }
  rig->run_for(gap());
  rig->kill_and_wait(kFleetSpare, 0, NodeId{1});
  rig->run_for(gap());
  light.stop();
  rig->drain();

  OpenLoop fleet(*rig, all_groups(*rig), 10'000.0, 0.5, 0.2, salt(o.seed, 2), res.open_loop);
  fleet.start();
  rig->run_for(scaled(1'500 * kMs, o.scale));
  fleet.stop();
  rig->drain();
  rig->finish(res);
  res.plain_p50_us = plain_p50_us(kFleetState, o.seed);
  return res;
}

ProbeResult fleet_probe(double rate, const RunOptions& o) {
  const std::int64_t t0 = cpu_ns();
  std::unique_ptr<Rig> rig = fleet_setup(o);
  const double setup_s = static_cast<double>(cpu_ns() - t0) / 1e9;
  std::vector<Duration> lat;
  OpenLoop fleet(*rig, all_groups(*rig), rate, 0.5, 0.2, salt(o.seed, 3), lat);
  fleet.start();
  rig->run_for(probe_time(rate));
  fleet.stop();
  rig->run_for(kProbeGrace);
  return probe_result(*rig, lat, setup_s);
}

// ----------------------------------------------------------- recover_state
//
// The paper's §6 / Figure-6 setup on one 7-node ring: a 3-way active server
// with 256 kB of state on nodes 1-3 under the packet driver, a 3-way active
// bystander on nodes 4-6 taking open-loop traffic (2 000 ops/s); both
// clients on node 7. One server replica is killed and relaunched
// repeatedly, rotating over nodes 1-3. Server and bystander share no node
// (see README on co-location).

constexpr std::size_t kRecoverState = 256 * 1024;

std::unique_ptr<Rig> recover_setup(const RunOptions& o) {
  SystemConfig cfg;
  cfg.nodes = 7;
  auto rig = std::make_unique<Rig>(cfg, o);
  rig->add_group("server", active_props(), {NodeId{1}, NodeId{2}, NodeId{3}}, {},
                 kRecoverState);
  rig->add_group("bystander", active_props(), {NodeId{4}, NodeId{5}, NodeId{6}}, {},
                 kFleetState);
  rig->add_client(NodeId{7});
  return rig;
}

RunResult recover_run(const RunOptions& o) {
  RunResult res;
  const std::int64_t t0 = cpu_ns();
  std::unique_ptr<Rig> rig = recover_setup(o);
  res.setup_cpu_s = static_cast<double>(cpu_ns() - t0) / 1e9;
  rig->begin_measure();

  const TimePoint phase_end = rig->now() + scaled(6'000 * kMs, o.scale);
  ClosedLoop driver(*rig, 0, salt(o.seed, 10), res.light);
  OpenLoop bystander(*rig, {1}, 2'000.0, 0.0, 0.2, salt(o.seed, 2), res.open_loop);
  driver.start();
  bystander.start();
  Rng rng(salt(o.seed, 1));
  rig->run_for(scaled(300 * kMs, o.scale));
  for (std::uint32_t k = 0; rig->now() + scaled(400 * kMs, o.scale) < phase_end; ++k) {
    const NodeId node{1 + k % 3};
    const TimePoint kill_at = rig->now();
    rig->kill_and_wait(node, 0, NodeId{1 + (k + 1) % 3});
    recover_one(*rig, node, 0, kill_at, res);
    rig->run_for(scaled(250 * kMs, o.scale) + uniform(rng, Duration::zero(), 50 * kMs));
  }
  rig->run_to(phase_end);
  driver.stop();
  bystander.stop();
  rig->drain();
  rig->finish(res);
  res.plain_p50_us = plain_p50_us(kRecoverState, o.seed);
  return res;
}

ProbeResult recover_probe(double rate, const RunOptions& o) {
  const std::int64_t t0 = cpu_ns();
  std::unique_ptr<Rig> rig = recover_setup(o);
  const double setup_s = static_cast<double>(cpu_ns() - t0) / 1e9;
  std::vector<Duration> lat;
  OpenLoop bystander(*rig, {1}, rate, 0.0, 0.2, salt(o.seed, 3), lat);
  bystander.start();
  rig->run_for(probe_time(rate));
  bystander.stop();
  rig->run_for(kProbeGrace);
  return probe_result(*rig, lat, setup_s);
}

// ---------------------------------------------------------- passive_logged
//
// One 9-node ring, stable storage on (fresh directory per run). Four
// warm-passive counter groups of 2 replicas with 4 kB state. Groups 0 and 1
// each own three nodes (primary, backup, and the spare their backup-node
// list gives the Replication Manager for the replacement); groups 2 and 3
// share nodes 7-8 and see no fault. Light phase: the packet driver on group
// 0. Then node 9 sends open-loop Poisson traffic (3 000 ops/s, 80 % inc,
// 20 % get; 3/8 each to groups 0 and 1, 1/8 each to groups 2 and 3) while
// the processors hosting the primaries of groups 0 and 1 crash at fixed
// instants. Each crash costs a Totem reformation, a promotion with log
// replay, and a replacement backup.

constexpr std::size_t kPassiveState = 4 * 1024;

/// Uniform draw over this list: the faulted groups 0 and 1 take 3/8 of the
/// traffic each, so a lull in their arrivals rarely stretches the measured
/// promotion gap.
std::vector<std::size_t> passive_targets() { return {0, 1, 0, 1, 0, 1, 2, 3}; }

FtProperties passive_props() {
  FtProperties p;
  p.style = ReplicationStyle::kWarmPassive;
  p.initial_replicas = 2;
  p.minimum_replicas = 2;
  p.fault_monitoring_interval = 5 * kMs;
  return p;
}

std::unique_ptr<Rig> passive_setup(const RunOptions& o) {
  SystemConfig cfg;
  cfg.nodes = 9;
  const std::string root = Rig::fresh_storage_dir(o);
  cfg.stable_storage_root = root;
  auto rig = std::make_unique<Rig>(cfg, o);
  rig->own_storage(root);
  const auto n = [](std::uint32_t v) { return NodeId{v}; };
  rig->add_group("acct0", passive_props(), {n(1), n(2)}, {n(3)}, kPassiveState);
  rig->add_group("acct1", passive_props(), {n(4), n(5)}, {n(6)}, kPassiveState);
  rig->add_group("acct2", passive_props(), {n(7), n(8)}, {n(7), n(8)}, kPassiveState);
  rig->add_group("acct3", passive_props(), {n(8), n(7)}, {n(7), n(8)}, kPassiveState);
  rig->add_client(NodeId{9});
  return rig;
}

RunResult passive_run(const RunOptions& o) {
  RunResult res;
  const std::int64_t t0 = cpu_ns();
  std::unique_ptr<Rig> rig = passive_setup(o);
  res.setup_cpu_s = static_cast<double>(cpu_ns() - t0) / 1e9;
  rig->begin_measure();

  ClosedLoop light(*rig, 0, salt(o.seed, 10), res.light);
  light.start();
  rig->run_for(scaled(200 * kMs, o.scale));
  light.stop();
  rig->drain();

  const TimePoint start = rig->now();
  OpenLoop load(*rig, passive_targets(), 3'000.0, 0.0, 0.2, salt(o.seed, 2), res.open_loop);
  load.start();
  // (group whose primary's processor crashes, instant)
  const std::pair<std::size_t, Duration> crashes[] = {{0, 1'200 * kMs}, {1, 2'600 * kMs}};
  for (const auto& [g, when] : crashes) {
    rig->run_to(start + scaled(when, o.scale));
    const TimePoint at = rig->now();
    const core::GroupEntry* e = rig->sys().mech(NodeId{9}).groups().find(rig->group(g));
    const core::ReplicaInfo* primary = e != nullptr ? e->primary() : nullptr;
    if (primary == nullptr) {
      rig->note("group " + std::to_string(g) + " has no primary to crash");
      continue;
    }
    rig->crash(primary->node);
    // Outage: the reformation plus promotion gap the group's clients see.
    rig->run_for(scaled(400 * kMs, o.scale));
    res.outages.push_back(rig->history().longest_reply_gap(g, at, rig->now()));
  }
  rig->run_to(start + scaled(4'000 * kMs, o.scale));
  load.stop();
  rig->drain();

  for (NodeId n : rig->sys().all_nodes()) {
    for (const core::RecoveryRecord& rec : rig->sys().mech(n).recoveries()) {
      if (rec.launched >= start) res.recoveries.push_back(rec.recovery_time());
    }
  }
  rig->finish(res);
  res.plain_p50_us = plain_p50_us(kPassiveState, o.seed);
  return res;
}

ProbeResult passive_probe(double rate, const RunOptions& o) {
  const std::int64_t t0 = cpu_ns();
  std::unique_ptr<Rig> rig = passive_setup(o);
  const double setup_s = static_cast<double>(cpu_ns() - t0) / 1e9;
  std::vector<Duration> lat;
  OpenLoop load(*rig, passive_targets(), rate, 0.0, 0.2, salt(o.seed, 3), lat);
  load.start();
  rig->run_for(probe_time(rate));
  load.stop();
  rig->run_for(kProbeGrace);
  return probe_result(*rig, lat, setup_s);
}

/// Host CPU seconds to build the workload's system and deploy every group.
template <std::unique_ptr<Rig> (*Setup)(const RunOptions&)>
double setup_only(const RunOptions& o) {
  const std::int64_t t0 = cpu_ns();
  const std::unique_ptr<Rig> rig = Setup(o);
  return static_cast<double>(cpu_ns() - t0) / 1e9;
}

}  // namespace

std::uint64_t RunResult::signature() const {
  std::uint64_t h = 0x5157u;
  const auto mix = [&h](std::uint64_t v) { h = mix64(h ^ (v + 0x9E3779B97F4A7C15ULL)); };
  for (const auto* v : {&open_loop, &light, &recoveries, &outages}) {
    mix(v->size());
    for (Duration d : *v) mix(static_cast<std::uint64_t>(d.count()));
  }
  mix(attempted);
  mix(failed);
  mix(completed);
  for (auto field : kCountFields) mix(counts.*field);
  mix(static_cast<std::uint64_t>(plain_p50_us * 1e3));
  mix(violations.size());
  return h;
}

const WorkloadSpec* find_workload(std::string_view name) {
  static const std::vector<WorkloadSpec> specs = {
      {"fleet_steady", fleet_run, fleet_probe, setup_only<fleet_setup>},
      {"recover_state", recover_run, recover_probe, setup_only<recover_setup>},
      {"passive_logged", passive_run, passive_probe, setup_only<passive_setup>},
  };
  for (const WorkloadSpec& w : specs) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

}  // namespace perfbench
