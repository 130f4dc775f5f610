// Stable storage: durable checkpoint+message logs and whole-system restart
// (paper §3.3 — the cold-passive log must outlive the logging processor).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "core/deployment.hpp"
#include "core/stable_storage.hpp"
#include "support/counter_servant.hpp"

namespace eternal {
namespace {

using core::FtProperties;
using core::GroupDescriptor;
using core::MessageLog;
using core::ReplicationStyle;
using core::StableStorage;
using core::System;
using core::SystemConfig;
using test_support::CounterServant;
using util::Duration;
using util::GroupId;
using util::NodeId;

struct TempDir {
  std::filesystem::path path;
  TempDir() {
    path = std::filesystem::temp_directory_path() /
           ("eternal-test-" + std::to_string(::getpid()) + "-" +
            std::to_string(counter_++));
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  static inline int counter_ = 0;
};

GroupDescriptor sample_descriptor(GroupId id) {
  GroupDescriptor d;
  d.id = id;
  d.object_id = "ledger";
  d.type_id = "IDL:Ledger:1.0";
  d.properties.style = ReplicationStyle::kColdPassive;
  d.backup_nodes = {NodeId{2}, NodeId{3}};
  return d;
}

TEST(StableStorage, PersistAndLoadRoundTrip) {
  TempDir dir;
  StableStorage storage(dir.path);

  MessageLog log;
  core::Envelope ckpt;
  ckpt.kind = core::EnvelopeKind::kCheckpoint;
  ckpt.op_seq = 5;
  ckpt.payload = util::Bytes(100, 0xAA);
  log.set_checkpoint(ckpt);
  core::Envelope msg;
  msg.kind = core::EnvelopeKind::kRequest;
  msg.op_seq = 42;
  msg.payload = util::bytes_of("withdraw");
  log.append(msg);

  storage.persist(sample_descriptor(GroupId{7}), log);
  EXPECT_EQ(storage.writes(), 1u);

  auto loaded = storage.load(GroupId{7});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->descriptor.object_id, "ledger");
  EXPECT_EQ(loaded->descriptor.backup_nodes.size(), 2u);
  ASSERT_TRUE(loaded->checkpoint.has_value());
  EXPECT_EQ(loaded->checkpoint->op_seq, 5u);
  EXPECT_EQ(loaded->checkpoint->payload.size(), 100u);
  ASSERT_EQ(loaded->messages.size(), 1u);
  EXPECT_EQ(loaded->messages[0].op_seq, 42u);
}

TEST(StableStorage, AbsentGroupIsNullopt) {
  TempDir dir;
  StableStorage storage(dir.path);
  EXPECT_FALSE(storage.load(GroupId{1}).has_value());
  EXPECT_TRUE(storage.stored_groups().empty());
}

TEST(StableStorage, OverwriteKeepsLatest) {
  TempDir dir;
  StableStorage storage(dir.path);
  MessageLog log;
  storage.persist(sample_descriptor(GroupId{7}), log);
  core::Envelope msg;
  msg.op_seq = 1;
  log.append(msg);
  storage.persist(sample_descriptor(GroupId{7}), log);
  auto loaded = storage.load(GroupId{7});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->messages.size(), 1u);
}

TEST(StableStorage, TornWriteRejected) {
  TempDir dir;
  StableStorage storage(dir.path);
  MessageLog log;
  core::Envelope msg;
  msg.payload = util::Bytes(500, 1);
  log.append(msg);
  storage.persist(sample_descriptor(GroupId{3}), log);

  // Truncate the record (simulating a crash mid-write without the rename
  // discipline) — the loader must reject it, not crash or half-load.
  const auto file = dir.path / "group-3.log";
  const auto size = std::filesystem::file_size(file);
  std::filesystem::resize_file(file, size / 2);
  EXPECT_FALSE(storage.load(GroupId{3}).has_value());
  EXPECT_TRUE(storage.stored_groups().empty());
}

TEST(StableStorage, CorruptBytesRejected) {
  TempDir dir;
  StableStorage storage(dir.path);
  std::ofstream(dir.path / "group-9.log", std::ios::binary) << "not a record at all";
  EXPECT_FALSE(storage.load(GroupId{9}).has_value());
}

TEST(StableStorage, EraseRemovesRecord) {
  TempDir dir;
  StableStorage storage(dir.path);
  storage.persist(sample_descriptor(GroupId{4}), MessageLog{});
  ASSERT_TRUE(storage.load(GroupId{4}).has_value());
  storage.erase(GroupId{4});
  EXPECT_FALSE(storage.load(GroupId{4}).has_value());
}

TEST(StableStorage, EnumeratesStoredGroups) {
  TempDir dir;
  StableStorage storage(dir.path);
  storage.persist(sample_descriptor(GroupId{1}), MessageLog{});
  storage.persist(sample_descriptor(GroupId{2}), MessageLog{});
  auto groups = storage.stored_groups();
  EXPECT_EQ(groups.size(), 2u);
}

// ---- append-only segment ----

core::Envelope request_envelope(std::uint64_t op_seq, std::size_t bytes = 16) {
  core::Envelope e;
  e.kind = core::EnvelopeKind::kRequest;
  e.op_seq = op_seq;
  e.payload = util::Bytes(bytes, static_cast<std::uint8_t>(op_seq));
  return e;
}

TEST(StableStorageSegment, AppendedMessagesSurviveLoad) {
  TempDir dir;
  StableStorage storage(dir.path);
  storage.set_sync_every(1);

  MessageLog log;
  core::Envelope ckpt;
  ckpt.kind = core::EnvelopeKind::kCheckpoint;
  ckpt.op_seq = 10;
  log.set_checkpoint(ckpt);
  log.append(request_envelope(11));
  storage.persist(sample_descriptor(GroupId{7}), log);

  // The fast path: each newly logged message costs one segment entry, not a
  // full base rewrite.
  for (std::uint64_t seq = 12; seq <= 14; ++seq) {
    core::Envelope msg = request_envelope(seq);
    log.append(msg);
    storage.append(sample_descriptor(GroupId{7}), log, msg);
  }
  EXPECT_EQ(storage.writes(), 1u);
  EXPECT_EQ(storage.appends(), 3u);

  auto loaded = storage.load(GroupId{7});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->messages.size(), 4u);  // base tail + 3 segment entries
  EXPECT_EQ(loaded->messages[0].op_seq, 11u);
  EXPECT_EQ(loaded->messages[3].op_seq, 14u);
}

TEST(StableStorageSegment, AppendWithoutBaseFallsBackToPersist) {
  TempDir dir;
  StableStorage storage(dir.path);
  MessageLog log;
  core::Envelope msg = request_envelope(1);
  log.append(msg);
  storage.append(sample_descriptor(GroupId{5}), log, msg);
  EXPECT_EQ(storage.writes(), 1u);
  EXPECT_EQ(storage.appends(), 0u);
  auto loaded = storage.load(GroupId{5});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->messages.size(), 1u);
}

TEST(StableStorageSegment, TornTailTruncatesToValidPrefix) {
  TempDir dir;
  const auto desc = sample_descriptor(GroupId{3});
  MessageLog log;
  {
    StableStorage storage(dir.path);
    storage.set_sync_every(1);
    storage.persist(desc, log);
    for (std::uint64_t seq = 1; seq <= 3; ++seq) {
      core::Envelope msg = request_envelope(seq, 64);
      log.append(msg);
      storage.append(desc, log, msg);
    }
  }

  // Tear the last entry in half — a crash mid-append.
  const auto seg = dir.path / "group-3.seg";
  const auto size = std::filesystem::file_size(seg);
  std::filesystem::resize_file(seg, size - 30);

  StableStorage reopened(dir.path);
  auto loaded = reopened.load(GroupId{3});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->messages.size(), 2u);  // valid prefix kept, torn tail gone
  EXPECT_EQ(loaded->messages[1].op_seq, 2u);
  EXPECT_GE(reopened.torn_truncations(), 1u);

  // Appending after the reopen truncates the tail on disk, so the new entry
  // follows the valid prefix instead of hiding behind torn bytes.
  core::Envelope msg = request_envelope(4, 64);
  log.append(msg);
  reopened.append(desc, log, msg);
  auto reloaded = reopened.load(GroupId{3});
  ASSERT_TRUE(reloaded.has_value());
  ASSERT_EQ(reloaded->messages.size(), 3u);
  EXPECT_EQ(reloaded->messages[2].op_seq, 4u);
}

TEST(StableStorageSegment, CrashMidCompactionSkipsStaleGeneration) {
  TempDir dir;
  StableStorage storage(dir.path);
  storage.set_sync_every(1);
  const auto desc = sample_descriptor(GroupId{8});

  MessageLog log;
  storage.persist(desc, log);  // generation 1
  core::Envelope old_msg = request_envelope(1);
  log.append(old_msg);
  storage.append(desc, log, old_msg);

  // Simulate a crash between the base rewrite and the segment truncation:
  // save the generation-1 segment, compact (generation 2), put it back.
  const auto seg = dir.path / "group-8.seg";
  std::filesystem::copy_file(seg, dir.path / "stale.seg");
  log.set_checkpoint([] {
    core::Envelope c;
    c.kind = core::EnvelopeKind::kCheckpoint;
    c.op_seq = 1;
    return c;
  }());
  storage.persist(desc, log);  // compaction: base now covers op 1
  std::filesystem::copy_file(dir.path / "stale.seg", seg);

  // The stale entry's generation no longer matches the base — skipped, not
  // replayed on top of a checkpoint that already covers it.
  StableStorage reopened(dir.path);
  auto loaded = reopened.load(GroupId{8});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->checkpoint.has_value());
  EXPECT_TRUE(loaded->messages.empty());
}

TEST(StableStorageSegment, DeltaChainRoundTrips) {
  TempDir dir;
  StableStorage storage(dir.path);
  MessageLog log;
  core::Envelope base;
  base.kind = core::EnvelopeKind::kCheckpoint;
  base.op_seq = 5;
  ASSERT_TRUE(log.set_checkpoint(base));
  core::Envelope delta;
  delta.kind = core::EnvelopeKind::kCheckpoint;
  delta.op_seq = 9;
  delta.delta_base = 5;
  delta.payload = util::bytes_of("dirty-fields");
  ASSERT_TRUE(log.set_checkpoint(delta));

  storage.persist(sample_descriptor(GroupId{6}), log);
  auto loaded = storage.load(GroupId{6});
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(loaded->checkpoint.has_value());
  EXPECT_EQ(loaded->checkpoint->op_seq, 5u);
  ASSERT_EQ(loaded->deltas.size(), 1u);
  EXPECT_EQ(loaded->deltas[0].op_seq, 9u);
  EXPECT_EQ(loaded->deltas[0].delta_base, 5u);
  EXPECT_EQ(loaded->deltas[0].payload, util::bytes_of("dirty-fields"));
}

TEST(StableStorageSegment, SyncsAreBatched) {
  TempDir dir;
  StableStorage storage(dir.path);
  storage.set_sync_every(4);
  const auto desc = sample_descriptor(GroupId{2});
  MessageLog log;
  storage.persist(desc, log);
  for (std::uint64_t seq = 1; seq <= 8; ++seq) {
    core::Envelope msg = request_envelope(seq);
    log.append(msg);
    storage.append(desc, log, msg);
  }
  EXPECT_EQ(storage.syncs(), 2u);
  // load() flushes buffered entries first, so nothing buffered is invisible.
  auto loaded = storage.load(GroupId{2});
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->messages.size(), 8u);
}

// scan_segment_bytes against a hand-built wire image (layout documented in
// stable_storage.cpp: [u32 magic][u64 gen][u32 len][payload][u64 fnv1a], LE).
void put_le32(util::Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
void put_le64(util::Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}
util::Bytes segment_entry(std::uint64_t generation, const util::Bytes& payload) {
  util::Bytes out;
  put_le32(out, 0xE7E45E60u);
  put_le64(out, generation);
  put_le32(out, static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
  put_le64(out, util::fnv1a(payload));
  return out;
}

TEST(SegmentScan, ValidPrefixAndTornTail) {
  util::Bytes image = segment_entry(3, util::bytes_of("first"));
  const std::size_t first_end = image.size();
  util::Bytes second = segment_entry(4, util::bytes_of("second"));
  image.insert(image.end(), second.begin(), second.end());

  auto full = core::scan_segment_bytes(image);
  ASSERT_EQ(full.entries.size(), 2u);
  EXPECT_EQ(full.entries[0].generation, 3u);
  EXPECT_EQ(full.entries[1].payload, util::bytes_of("second"));
  EXPECT_EQ(full.valid_bytes, image.size());
  EXPECT_FALSE(full.torn);

  // Flip one payload byte of the second entry: digest mismatch tears it.
  util::Bytes corrupt = image;
  corrupt[first_end + 4 + 8 + 4] ^= 0xFF;
  auto scan = core::scan_segment_bytes(corrupt);
  ASSERT_EQ(scan.entries.size(), 1u);
  EXPECT_EQ(scan.valid_bytes, first_end);
  EXPECT_TRUE(scan.torn);

  // Truncations anywhere inside the second entry keep exactly the first.
  for (std::size_t cut = first_end; cut < image.size(); ++cut) {
    util::Bytes t(image.begin(), image.begin() + static_cast<std::ptrdiff_t>(cut));
    auto s = core::scan_segment_bytes(t);
    EXPECT_EQ(s.entries.size(), 1u) << "cut=" << cut;
    EXPECT_EQ(s.torn, cut != first_end) << "cut=" << cut;
  }
}

util::Bytes file_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return util::Bytes(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

// append() writes each envelope straight into its segment entry. The segment
// must hold, byte for byte, the entries framing encode_envelope's bytes, a
// torn append must land a prefix of that same entry, and the entries must
// load back as the messages appended.
TEST(StableStorageSegment, EntriesFrameTheEncodedEnvelopeExactly) {
  TempDir dir;
  StableStorage storage(dir.path);
  storage.set_sync_every(1);
  const GroupDescriptor desc = sample_descriptor(GroupId{6});
  MessageLog log;
  storage.persist(desc, log);  // the base: generation 1

  // Payload sizes on each side of the 4-byte alignment after the payload.
  util::Bytes expected;
  std::vector<core::Envelope> appended;
  for (const std::size_t bytes : {0u, 1u, 2u, 3u, 4u, 5u, 150u}) {
    core::Envelope msg = request_envelope(appended.size() + 1, bytes);
    msg.client_group = GroupId{9};
    msg.target_group = desc.id;
    log.append(msg);
    ASSERT_TRUE(storage.append(desc, log, msg));
    const util::Bytes entry = segment_entry(1, core::encode_envelope(msg));
    expected.insert(expected.end(), entry.begin(), entry.end());
    appended.push_back(std::move(msg));
  }
  const std::filesystem::path seg = dir.path / "group-6.seg";
  EXPECT_EQ(file_bytes(seg), expected);

  storage.inject_faults(core::StorageFaultPlan{.torn_appends = 1});
  const core::Envelope torn = request_envelope(99, 33);
  EXPECT_FALSE(storage.append(desc, log, torn));
  const util::Bytes entry = segment_entry(1, core::encode_envelope(torn));
  expected.insert(expected.end(), entry.begin(),
                  entry.begin() + static_cast<std::ptrdiff_t>(entry.size() / 2));
  EXPECT_EQ(file_bytes(seg), expected);

  const auto loaded = storage.load(desc.id);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->messages.size(), appended.size());
  for (std::size_t i = 0; i < appended.size(); ++i) {
    EXPECT_EQ(core::encode_envelope(loaded->messages[i]), core::encode_envelope(appended[i]))
        << "entry " << i;
  }
}

// ---- whole-system restart ----

TEST(WholeSystemRestart, ColdPassiveStateSurvivesFullRestart) {
  TempDir dir;
  std::int32_t committed = 0;

  // Phase 1: run a cold-passive service, commit operations, tear EVERYTHING
  // down (the System destructor kills every simulated processor).
  {
    SystemConfig cfg;
    cfg.nodes = 4;
    cfg.stable_storage_root = dir.path.string();
    System sys(cfg);
    FtProperties props;
    props.style = ReplicationStyle::kColdPassive;
    props.initial_replicas = 1;
    props.minimum_replicas = 1;
    props.checkpoint_interval = Duration(10'000'000);
    const GroupId group = sys.deploy(
        "ledger", "IDL:Ledger:1.0", props, {NodeId{1}},
        [&](NodeId) { return std::make_shared<CounterServant>(sys.sim()); },
        {NodeId{2}, NodeId{3}});
    sys.deploy_client("app", NodeId{4}, {group});
    orb::ObjectRef ref = sys.client(NodeId{4}, group);

    for (int i = 0; i < 7; ++i) {
      bool done = false;
      ref.invoke("inc", CounterServant::encode_i32(1), [&](const orb::ReplyOutcome&) {
        done = true;
        ++committed;
      });
      ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(1'000'000'000)));
    }
    sys.run_for(Duration(30'000'000));  // let persistence settle
  }
  ASSERT_EQ(committed, 7);

  // Phase 2: a brand-new system (same storage root). Node 2 — a log-keeping
  // backup site of the old deployment — restores the ledger from its disk.
  SystemConfig cfg;
  cfg.nodes = 4;
  cfg.stable_storage_root = dir.path.string();
  System sys(cfg);

  auto stored = sys.mech(NodeId{2}).stored_groups();
  ASSERT_EQ(stored.size(), 1u);
  const GroupId group = stored[0].id;
  EXPECT_EQ(stored[0].object_id, "ledger");

  std::shared_ptr<CounterServant> revived;
  sys.mech(NodeId{2}).register_factory(group, [&] {
    revived = std::make_shared<CounterServant>(sys.sim());
    return revived;
  });
  ASSERT_TRUE(sys.mech(NodeId{2}).restore_from_storage(group));
  ASSERT_TRUE(sys.run_until([&] { return sys.mech(NodeId{2}).hosts_operational(group); },
                            Duration(2'000'000'000)));

  // The committed state was rebuilt from checkpoint + logged messages.
  EXPECT_EQ(revived->value(), committed);

  // And the service keeps working for (re-registered) clients.
  sys.deploy_client("app2", NodeId{4}, {group});
  orb::ObjectRef ref = sys.client(NodeId{4}, group);
  bool done = false;
  std::int32_t result = -1;
  ref.invoke("inc", CounterServant::encode_i32(1), [&](const orb::ReplyOutcome& out) {
    done = true;
    result = CounterServant::decode_i32(out.body);
  });
  ASSERT_TRUE(sys.run_until([&] { return done; }, Duration(1'000'000'000)));
  EXPECT_EQ(result, committed + 1);
}

TEST(WholeSystemRestart, RestoreWithoutFactoryFails) {
  TempDir dir;
  SystemConfig cfg;
  cfg.nodes = 2;
  cfg.stable_storage_root = dir.path.string();
  System sys(cfg);
  EXPECT_FALSE(sys.mech(NodeId{1}).restore_from_storage(GroupId{9}));
}

}  // namespace
}  // namespace eternal
