// Recovery-path hazards flushed out by the chaos suite (bench_chaos):
// delta-chain cap boundaries in both off-by-one directions, seq-window
// saturation at the top of the sequence space, the stable-storage write
// failure contract, ring reformation landing while a chunked state
// transfer is partially reassembled, and the duplicate filter a recovered
// replica's live node keeps across the infrastructure-state restore.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <limits>
#include <unistd.h>

#include "core/deployment.hpp"
#include "core/envelope.hpp"
#include "giop/giop.hpp"
#include "core/message_log.hpp"
#include "core/raced_stream.hpp"
#include "core/seq_window.hpp"
#include "core/stable_storage.hpp"
#include "support/counter_servant.hpp"
#include "support/invariant_helpers.hpp"

namespace eternal {
namespace {

using core::Envelope;
using core::EnvelopeKind;
using core::FtProperties;
using core::GroupDescriptor;
using core::MessageLog;
using core::ReplicationStyle;
using core::SeqWindow;
using core::StableStorage;
using core::StorageFaultPlan;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using util::Duration;
using util::GroupId;
using util::NodeId;

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

Envelope full_checkpoint(std::uint64_t epoch) {
  Envelope e;
  e.kind = EnvelopeKind::kCheckpoint;
  e.op_seq = epoch;
  e.payload = util::Bytes(16, 0xAB);
  return e;
}

Envelope delta_checkpoint(std::uint64_t base, std::uint64_t epoch) {
  Envelope e = full_checkpoint(epoch);
  e.delta_base = base;
  return e;
}

// ---- delta_chain_cap boundaries (message-log level) ---------------------

TEST(DeltaChainBoundary, DeltaBasedOnExactTipChains) {
  MessageLog log;
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(10)));
  // delta_base == tip_epoch is the inclusive edge: the chain can absorb it.
  EXPECT_TRUE(log.set_checkpoint(delta_checkpoint(/*base=*/10, /*epoch=*/15)));
  EXPECT_EQ(log.chain_length(), 1u);
  EXPECT_EQ(log.tip_epoch(), 15u);
  // And again off the new tip.
  EXPECT_TRUE(log.set_checkpoint(delta_checkpoint(15, 20)));
  EXPECT_EQ(log.chain_length(), 2u);
  EXPECT_EQ(log.tip_epoch(), 20u);
}

TEST(DeltaChainBoundary, DeltaBasedOneAboveTipRejectedUnchanged) {
  MessageLog log;
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(10)));
  ASSERT_TRUE(log.set_checkpoint(delta_checkpoint(10, 15)));
  // One past the tip: the log is missing epochs (15, 16) so the delta must
  // be refused without mutating the chain.
  EXPECT_FALSE(log.set_checkpoint(delta_checkpoint(/*base=*/16, /*epoch=*/20)));
  EXPECT_EQ(log.chain_length(), 1u);
  EXPECT_EQ(log.tip_epoch(), 15u);
}

TEST(DeltaChainBoundary, DeltaMustAdvanceEpochByAtLeastOne) {
  MessageLog log;
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(10)));
  // op_seq == tip is a no-op delta: rejected (<= boundary) ...
  EXPECT_FALSE(log.set_checkpoint(delta_checkpoint(10, 10)));
  EXPECT_EQ(log.chain_length(), 0u);
  // ... while tip + 1 is the smallest acceptable advance.
  EXPECT_TRUE(log.set_checkpoint(delta_checkpoint(10, 11)));
  EXPECT_EQ(log.tip_epoch(), 11u);
}

TEST(DeltaChainBoundary, DeltaWithoutBaseRejectedAndFullClearsChain) {
  MessageLog log;
  EXPECT_FALSE(log.set_checkpoint(delta_checkpoint(1, 2)));
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(10)));
  ASSERT_TRUE(log.set_checkpoint(delta_checkpoint(10, 15)));
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(20)));
  EXPECT_EQ(log.chain_length(), 0u);
  EXPECT_EQ(log.base_epoch(), 20u);
  EXPECT_EQ(log.tip_epoch(), 20u);
}

// ---- delta_chain_cap boundaries (mechanisms level) ----------------------

// With cap = 2 the periodic checkpoint must publish deltas while the chain
// is below the cap (length cap-1 still chains — under-counting here would
// force a full one checkpoint early) and must fall back to a full
// checkpoint once the chain reaches exactly the cap (over-counting would
// let the chain grow to cap+1).
TEST(DeltaChainBoundary, CapReachedForcesFullAndNeverOvershoots) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.mechanisms.delta_chain_cap = 2;
  System sys(cfg);

  FtProperties props;
  props.style = ReplicationStyle::kWarmPassive;
  props.checkpoint_interval = Duration(20'000'000);
  props.fault_monitoring_interval = Duration(5'000'000);
  props.initial_replicas = 2;
  props.minimum_replicas = 1;
  const GroupId group = sys.deploy(
      "account", "IDL:Account:1.0", props, {NodeId{1}, NodeId{2}},
      [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); },
      {NodeId{3}});
  sys.deploy_client("driver", NodeId{4}, {group});
  orb::ObjectRef ref = sys.client(NodeId{4}, group);

  std::size_t max_chain = 0;
  std::uint64_t full_after_first = 0;  // cap-forced full checkpoints
  std::uint64_t last_base = 0;
  bool seen_base = false;
  for (int round = 0; round < 60; ++round) {
    bool done = false;
    ref.invoke("inc", CounterServant::encode_i32(1),
               [&done](const orb::ReplyOutcome&) { done = true; });
    ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(500'000'000)));
    sys.run_for(Duration(10'000'000));
    const core::MessageLog* log = sys.mech(NodeId{3}).log_of(group);
    ASSERT_NE(log, nullptr);
    max_chain = std::max(max_chain, log->chain_length());
    if (seen_base && log->base_epoch() > last_base) full_after_first += 1;
    if (log->base_epoch() != 0) {
      seen_base = true;
      last_base = std::max(last_base, log->base_epoch());
    }
  }

  // Deltas were used at all (chain length 1 = cap-1 observed chaining)...
  EXPECT_GE(sys.mech(NodeId{1}).stats().delta_states_published, 2u);
  EXPECT_GE(max_chain, 1u);
  // ...the chain never grew past the cap...
  EXPECT_LE(max_chain, 2u);
  // ...and at least one later full checkpoint re-based the chain.
  EXPECT_GE(full_after_first, 1u);
}

// ---- seq_window saturation and compaction edges -------------------------

TEST(SeqWindowEdge, SaturatesAtTopOfSequenceSpace) {
  // Build a window whose contiguous prefix sits just below UINT64_MAX via
  // the codec (reaching it by insertion would take 2^64 calls).
  util::CdrWriter w;
  w.put_u64(kU64Max - 2);  // next_
  w.put_u32(3);
  w.put_u64(kU64Max - 2);
  w.put_u64(kU64Max - 1);
  w.put_u64(kU64Max);
  util::CdrReader r(w.bytes(), w.order());
  SeqWindow win = SeqWindow::decode(r);

  // Compaction must saturate rather than wrap next_ past the maximum (a
  // wrap to 0 would forget every recorded sequence number).
  EXPECT_EQ(win.contiguous_prefix(), kU64Max);
  EXPECT_TRUE(win.seen(kU64Max));
  EXPECT_TRUE(win.seen(kU64Max - 1));
  EXPECT_TRUE(win.seen(0));  // below the prefix
  EXPECT_FALSE(win.test_and_insert(kU64Max));      // still a duplicate
  EXPECT_FALSE(win.test_and_insert(kU64Max - 5));  // below prefix: duplicate
  EXPECT_EQ(win.sparse_size(), 1u);                // MAX pinned in the sparse set
}

TEST(SeqWindowEdge, MaxInsertableWithoutPriorHistory) {
  SeqWindow win;
  EXPECT_TRUE(win.test_and_insert(kU64Max));
  EXPECT_FALSE(win.test_and_insert(kU64Max));
  EXPECT_TRUE(win.seen(kU64Max));
  EXPECT_FALSE(win.seen(kU64Max - 1));
  EXPECT_EQ(win.contiguous_prefix(), 0u);
}

TEST(SeqWindowEdge, SparseGapBackfillCompactsToEmpty) {
  SeqWindow win;
  for (std::uint64_t s = 1; s <= 64; ++s) EXPECT_TRUE(win.test_and_insert(s));
  EXPECT_EQ(win.sparse_size(), 64u);  // gap at 0 holds the prefix back
  EXPECT_EQ(win.contiguous_prefix(), 0u);
  EXPECT_TRUE(win.test_and_insert(0));
  EXPECT_EQ(win.sparse_size(), 0u);
  EXPECT_EQ(win.contiguous_prefix(), 65u);
}

TEST(SeqWindowEdge, EncodeDecodeRoundTripNearCapacity) {
  SeqWindow win;
  win.test_and_insert(0);
  win.test_and_insert(7);
  win.test_and_insert(kU64Max - 1);
  win.test_and_insert(kU64Max);
  util::CdrWriter w;
  win.encode(w);
  util::CdrReader r(w.bytes(), w.order());
  SeqWindow copy = SeqWindow::decode(r);
  EXPECT_EQ(copy, win);
}

// ---- raced output streams ------------------------------------------------

TEST(RacedStream, FirstDeliveryWithdrawsOnlyThisNodesCopyOfThatSeq) {
  core::RacedStream stream;
  std::vector<std::uint64_t> withdrawn;
  const auto withdraw = [&](std::uint64_t handle) { withdrawn.push_back(handle); };
  stream.queued(0, 10);
  stream.queued(1, 11);
  stream.queued(2, 12);
  stream.queued(3, 0);  // nothing reached Totem: nothing to withdraw
  EXPECT_FALSE(stream.delivered(1));

  // A sibling's copy of 1 is ordered first: our copy of 1 is withdrawn, our
  // copy of 0 (older, so already delivered somewhere) is forgotten.
  EXPECT_TRUE(stream.deliver(1, withdraw));
  EXPECT_EQ(withdrawn, std::vector<std::uint64_t>{11});
  EXPECT_TRUE(stream.delivered(1));
  EXPECT_FALSE(stream.deliver(1, withdraw));  // a later copy is a duplicate
  EXPECT_TRUE(stream.deliver(0, withdraw));
  EXPECT_TRUE(stream.deliver(3, withdraw));  // passes over 2 without withdrawing it
  EXPECT_TRUE(stream.deliver(2, withdraw));
  EXPECT_EQ(withdrawn, std::vector<std::uint64_t>{11});
  EXPECT_EQ(stream.window().contiguous_prefix(), 4u);

  // The filter transfers with a recovering replica's state; a restored
  // window keeps this node's queued copies.
  core::SeqWindow transferred;
  for (std::uint64_t s = 0; s < 6; ++s) transferred.test_and_insert(s);
  stream.queued(6, 16);
  stream.restore(transferred);
  EXPECT_TRUE(stream.delivered(5));
  EXPECT_TRUE(stream.deliver(6, withdraw));
  EXPECT_EQ(withdrawn, (std::vector<std::uint64_t>{11, 16}));
}

// ---- infrastructure-state restore on a live node -------------------------

// A replica killed and relaunched on a live node recovers on a node whose
// Mechanisms kept delivering the group's requests all along. Its duplicate
// filter already holds every request delivered since the get_state-time
// snapshot that the set_state carries; installing that snapshot must add
// to the filter, not replace it. A replacement forgot those requests: their
// late copies passed the filter, and the window's prefix stopped advancing
// at the hole, so every later request grew its sparse set and every later
// set_state sourced there (about 8 B per request served since).
struct ActiveRecoveryRig {
  ActiveRecoveryRig() : sys(config()) {
    FtProperties props;
    props.style = ReplicationStyle::kActive;
    props.initial_replicas = 3;
    props.minimum_replicas = 2;
    props.fault_monitoring_interval = Duration(5'000'000);
    group = sys.deploy("svc", "IDL:Svc:1.0", props, {NodeId{1}, NodeId{2}, NodeId{3}},
                       [this](NodeId n) {
                         auto s = std::make_shared<CounterServant>(sys.sim(), /*pad_bytes=*/4'000);
                         servants[n.value] = s;
                         return s;
                       });
    client = sys.deploy_client("app", NodeId{4}, {group});
    ref = sys.client(NodeId{4}, group);
  }

  static SystemConfig config() {
    SystemConfig cfg;
    cfg.nodes = 4;
    cfg.trace_capacity = 1u << 16;
    return cfg;
  }

  /// Closed-loop invokers: `loops` invocations outstanding at a time.
  void start_traffic(int loops) {
    for (int i = 0; i < loops; ++i) issue();
  }
  void issue() {
    ref.invoke("inc", CounterServant::encode_i32(1), [this](const orb::ReplyOutcome&) {
      ++replies;
      if (running) issue();
    });
  }

  /// Kills the replica on `node` and relaunches it there once its removal
  /// is agreed; returns the recovery's set_state size.
  std::size_t kill_and_recover(NodeId node) {
    const std::size_t before = sys.mech(node).recoveries().size();
    sys.kill_replica(node, group);
    EXPECT_TRUE(sys.run_until(
        [&] {
          const auto* e = sys.mech(NodeId{4}).groups().find(group);
          return e != nullptr && e->replica_on(node) == nullptr;
        },
        Duration(2'000'000'000)));
    sys.relaunch_replica(node, group);
    EXPECT_TRUE(sys.run_until(
        [&] {
          return sys.mech(node).hosts_operational(group) &&
                 sys.mech(node).recoveries().size() > before;
        },
        Duration(2'000'000'000)));
    return sys.mech(node).recoveries().empty() ? 0
                                               : sys.mech(node).recoveries().back().app_state_bytes;
  }

  System sys;
  GroupId group;
  GroupId client;
  orb::ObjectRef ref;
  std::shared_ptr<CounterServant> servants[4];
  int replies = 0;
  bool running = true;
};

TEST(InfraStateRestore, SetStateSizeStaysFlatAcrossRecoveryCycles) {
  ActiveRecoveryRig rig;
  rig.start_traffic(3);
  ASSERT_TRUE(rig.sys.run_until([&] { return rig.replies >= 30; }, Duration(1'000'000'000)));

  // Every node's replica is killed and recovered twice, so later recoveries
  // are sourced at nodes that recovered before.
  std::vector<std::size_t> sizes;
  for (int cycle = 0; cycle < 6; ++cycle) {
    const NodeId node{static_cast<std::uint32_t>(cycle % 3 + 1)};
    sizes.push_back(rig.kill_and_recover(node));
    const int served = rig.replies;
    ASSERT_TRUE(
        rig.sys.run_until([&] { return rig.replies >= served + 40; }, Duration(1'000'000'000)));
  }
  for (std::size_t cycle = 1; cycle < sizes.size(); ++cycle) {
    EXPECT_EQ(sizes[cycle], sizes[0]) << "cycle " << cycle;
  }
  rig.running = false;
  rig.sys.run_for(Duration(50'000'000));
  for (std::uint32_t n = 2; n <= 3; ++n) {
    EXPECT_EQ(rig.servants[n]->value(), rig.servants[1]->value()) << "node " << n;
  }
  test_support::expect_invariants_hold(rig.sys);
}

TEST(InfraStateRestore, LateDuplicateOfARequestDeliveredDuringTransferIsSuppressed) {
  ActiveRecoveryRig rig;
  rig.start_traffic(3);
  ASSERT_TRUE(rig.sys.run_until([&] { return rig.replies >= 30; }, Duration(1'000'000'000)));
  rig.kill_and_recover(NodeId{2});
  // Requests were delivered at node 2 between the get_state and the
  // set_state: they are not in the transferred snapshot.
  ASSERT_GT(rig.sys.mech(NodeId{2}).stats().enqueued_during_recovery, 0u);
  rig.running = false;
  rig.sys.run_for(Duration(50'000'000));

  // A late copy of every request served so far reaches the ring: each is a
  // duplicate at every node, the recovered one included.
  std::uint64_t suppressed_before[4] = {};
  for (std::uint32_t n = 1; n <= 3; ++n) {
    suppressed_before[n] = rig.sys.mech(NodeId{n}).stats().duplicate_requests_suppressed;
  }
  const auto served = static_cast<std::uint64_t>(rig.replies);
  for (std::uint64_t seq = 0; seq < served; ++seq) {
    giop::Request request;
    request.request_id = static_cast<std::uint32_t>(seq);
    request.object_key = util::bytes_of("svc");
    request.operation = "inc";
    request.body = CounterServant::encode_i32(1);
    Envelope copy;
    copy.kind = EnvelopeKind::kRequest;
    copy.client_group = rig.client;
    copy.target_group = rig.group;
    copy.op_seq = seq;
    copy.payload = giop::encode(request);
    rig.sys.totem(NodeId{4}).multicast(core::encode_envelope(copy));
  }
  rig.sys.run_for(Duration(50'000'000));
  for (std::uint32_t n = 1; n <= 3; ++n) {
    EXPECT_EQ(rig.sys.mech(NodeId{n}).stats().duplicate_requests_suppressed - suppressed_before[n],
              served)
        << "node " << n;
    EXPECT_EQ(rig.servants[n]->value(), static_cast<std::int32_t>(served)) << "node " << n;
  }
}

// ---- stable-storage write failure contract ------------------------------

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("eternal-hazard-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  static inline int counter_ = 0;
};

GroupDescriptor hazard_descriptor(GroupId id) {
  GroupDescriptor d;
  d.id = id;
  d.object_id = "ledger";
  d.type_id = "IDL:Ledger:1.0";
  d.properties.style = ReplicationStyle::kColdPassive;
  return d;
}

Envelope logged_message(std::uint64_t seq) {
  Envelope e;
  e.kind = EnvelopeKind::kRequest;
  e.op_seq = seq;
  e.payload = util::bytes_of("op");
  return e;
}

TEST(StorageFailureContract, FailedCompactionKeepsPreviousBaseAndSegment) {
  TempDir dir;
  StableStorage storage(dir.path);
  const GroupId group{7};

  MessageLog log;
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(5)));
  ASSERT_TRUE(storage.persist(hazard_descriptor(group), log));
  log.append(logged_message(6));
  ASSERT_TRUE(storage.append(hazard_descriptor(group), log, logged_message(6)));

  // The next compaction fails mid-write: the generation-1 base must stay in
  // place and the segment must NOT have been truncated.
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(9)));
  storage.inject_faults(StorageFaultPlan{.fail_persists = 1});
  EXPECT_FALSE(storage.persist(hazard_descriptor(group), log));
  EXPECT_EQ(storage.persist_failures(), 1u);

  auto loaded = storage.load(group);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->checkpoint.has_value());
  EXPECT_EQ(loaded->checkpoint->op_seq, 5u);  // previous generation's base
  ASSERT_EQ(loaded->messages.size(), 1u);     // segment tail survived
  EXPECT_EQ(loaded->messages[0].op_seq, 6u);

  // A retried compaction (fault consumed) succeeds and supersedes both.
  EXPECT_TRUE(storage.persist(hazard_descriptor(group), log));
  loaded = storage.load(group);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->checkpoint->op_seq, 9u);
  EXPECT_TRUE(loaded->messages.empty());
}

TEST(StorageFailureContract, FailedAppendSurfacedThenRecovers) {
  TempDir dir;
  StableStorage storage(dir.path);
  const GroupId group{7};

  MessageLog log;
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(5)));
  ASSERT_TRUE(storage.persist(hazard_descriptor(group), log));

  storage.inject_faults(StorageFaultPlan{.fail_appends = 1});
  EXPECT_FALSE(storage.append(hazard_descriptor(group), log, logged_message(6)));
  EXPECT_EQ(storage.append_failures(), 1u);

  // The failure must not poison the segment for later appends.
  EXPECT_TRUE(storage.append(hazard_descriptor(group), log, logged_message(7)));
  auto loaded = storage.load(group);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->messages.size(), 1u);
  EXPECT_EQ(loaded->messages[0].op_seq, 7u);
}

TEST(StorageFailureContract, TornAppendTruncatedOnNextWrite) {
  TempDir dir;
  StableStorage storage(dir.path);
  const GroupId group{7};

  MessageLog log;
  ASSERT_TRUE(log.set_checkpoint(full_checkpoint(5)));
  ASSERT_TRUE(storage.persist(hazard_descriptor(group), log));

  // A torn (half-written) entry is reported as a failure; the next append
  // reopens the segment, truncating the torn tail, so the record stays
  // parseable end to end.
  storage.inject_faults(StorageFaultPlan{.torn_appends = 1});
  EXPECT_FALSE(storage.append(hazard_descriptor(group), log, logged_message(6)));
  EXPECT_EQ(storage.append_failures(), 1u);
  EXPECT_TRUE(storage.append(hazard_descriptor(group), log, logged_message(7)));

  auto loaded = storage.load(group);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->checkpoint.has_value());
  EXPECT_EQ(loaded->checkpoint->op_seq, 5u);
  ASSERT_EQ(loaded->messages.size(), 1u);
  EXPECT_EQ(loaded->messages[0].op_seq, 7u);
}

// ---- reformation while a chunked reassembly is partially complete -------

// The state source crashes after the recovering backup has received some
// (but not all) chunks of the set_state. The reformation must (a) GC the
// partial reassembly everywhere (the departed sender can never finish it),
// (b) keep the dead primary out of the trace's operational set so the
// multi-primary invariant holds across the promotion, and (c) let the new
// primary re-serve the retrieval to completion. Before the fixes in this
// change, (a) left the stale buffer keyed at (group, epoch) forever, and
// (b)/(c) failed outright — a multi-primary invariant violation, and the
// dead primary's still-armed checkpoint timer calling multicast() on a
// down Totem node.
TEST(ReformationMidTransfer, ChunkReassemblyAbortedAndRecoveryCompletes) {
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.trace_capacity = 1u << 16;
  cfg.mechanisms.state_chunk_bytes = 4'096;
  cfg.mechanisms.state_chunk_window = 1;
  System sys(cfg);

  FtProperties props;
  props.style = ReplicationStyle::kWarmPassive;
  props.initial_replicas = 3;
  props.minimum_replicas = 1;
  props.checkpoint_interval = Duration(500'000'000);
  props.fault_monitoring_interval = Duration(5'000'000);
  const GroupId group = sys.deploy(
      "svc", "IDL:Svc:1.0", props, {NodeId{1}, NodeId{2}, NodeId{3}}, [&](NodeId) {
        return std::make_shared<CounterServant>(sys.sim(), /*pad_bytes=*/100'000);
      });
  sys.run_for(Duration(50'000'000));

  // Kill the node-2 backup; relaunch once its removal is agreed.
  sys.kill_replica(NodeId{2}, group);
  ASSERT_TRUE(sys.run_until(
      [&] {
        const auto* e = sys.mech(NodeId{1}).groups().find(group);
        return e != nullptr && e->replica_on(NodeId{2}) == nullptr;
      },
      Duration(5'000'000'000)));
  sys.relaunch_replica(NodeId{2}, group);

  // Wait until the chunked set_state is mid-flight (a 100 KB state in 4 KB
  // chunks spans ~25 totally-ordered rounds), then crash the source.
  ASSERT_TRUE(sys.run_until(
      [&] { return sys.mech(NodeId{2}).stats().state_chunks_received >= 4; },
      Duration(10'000'000'000)));
  ASSERT_LT(sys.mech(NodeId{2}).stats().state_chunks_received, 25u);
  sys.crash_node(NodeId{1});

  // The surviving backup promotes and re-serves the retrieval.
  EXPECT_TRUE(sys.run_until(
      [&] { return sys.mech(NodeId{2}).hosts_operational(group); },
      Duration(20'000'000'000)));
  // Outlive at least one of the dead primary's still-armed checkpoint
  // intervals: its periodic get_state must be dropped (a crashed processor
  // puts nothing on the medium), not crash the simulated node.
  sys.run_for(Duration(1'200'000'000));

  // The partial reassembly sourced by the departed node was GC'd at the
  // surviving members instead of lingering (or colliding with a later
  // transfer at the same (group, epoch) key).
  std::uint64_t aborts = 0;
  for (std::uint32_t n = 2; n <= 4; ++n) {
    aborts += sys.mech(NodeId{n}).stats().state_chunk_aborts;
  }
  EXPECT_GE(aborts, 1u);

  test_support::expect_invariants_hold(sys);
}

}  // namespace
}  // namespace eternal
