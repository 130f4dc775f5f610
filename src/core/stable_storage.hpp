// Stable storage for checkpoint+message logs (paper §3.3).
//
// Cold passive replication keeps "the primary's last checkpoint, and the
// logged messages" available for a replica that is launched only after a
// failure — which, to survive the failure of the logging processor itself
// (or a whole-system restart), must live on stable storage, not in memory.
//
// One StableStorage instance manages one node's directory. Each group owns
// two files:
//
//   group-<id>.log  — the *base record*: group descriptor, latest full
//                     checkpoint, chained delta checkpoints, and the message
//                     tail as of the last compaction. Written atomically
//                     (temp file + rename); torn or corrupt base records are
//                     reported as absent.
//   group-<id>.seg  — the *append-only segment*: one framed entry per
//                     message logged since the last compaction. Entries are
//                     generation-stamped so leftovers from a crash between
//                     the base rewrite and the segment truncation are
//                     skipped at load; a torn tail truncates to the last
//                     valid entry instead of dropping the record.
//
// `persist()` is the compaction point (the §3.3 checkpoint-overwrite): it
// bumps the generation, rewrites the base, and truncates the segment.
// `append()` is the per-message fast path: one segment entry, with syncs
// batched every `sync_every` appends.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <vector>

#include "core/group_table.hpp"
#include "core/message_log.hpp"

namespace eternal::core {

/// A group's durable record.
struct StoredGroup {
  GroupDescriptor descriptor;
  std::optional<Envelope> checkpoint;
  /// Delta checkpoints chained over the base checkpoint, oldest first.
  std::vector<Envelope> deltas;
  std::vector<Envelope> messages;
};

/// One decoded segment entry (exposed for fuzzing and tests).
struct SegmentEntry {
  std::uint64_t generation = 0;
  Bytes payload;
};

/// Result of scanning raw segment bytes: the entries of the valid prefix,
/// how many bytes that prefix spans, and whether trailing bytes were torn.
struct SegmentScan {
  std::vector<SegmentEntry> entries;
  std::size_t valid_bytes = 0;
  bool torn = false;
};

/// Scans framed segment entries, stopping at the first malformed one
/// (bad magic, short frame, or digest mismatch). Never throws.
SegmentScan scan_segment_bytes(BytesView data);

/// Deterministic write-fault injection for chaos scenarios: counts are
/// consumed one per matching operation, additively (each inject_faults()
/// call adds to what remains).
struct StorageFaultPlan {
  std::uint32_t fail_persists = 0;  ///< next n persist() compactions fail
  std::uint32_t fail_appends = 0;   ///< next n append() entries fail outright
  std::uint32_t torn_appends = 0;   ///< next n append() entries written short
};

class StableStorage {
 public:
  /// Opens (creating if needed) the node's storage directory.
  explicit StableStorage(std::filesystem::path directory);

  const std::filesystem::path& directory() const noexcept { return directory_; }

  /// Atomically persists the group's descriptor and current log, truncating
  /// the group's append segment (compaction). Returns false when the write
  /// (or its flush-to-disk) failed — the failure contract guarantees the
  /// previous generation's base record is left intact and loadable, and the
  /// append segment is NOT truncated (nothing logged is lost).
  bool persist(const GroupDescriptor& descriptor, const MessageLog& log);

  /// Appends one logged message to the group's segment. Falls back to a
  /// full persist() when the group has no base record yet (a segment entry
  /// alone could not be recovered without the descriptor). Returns false
  /// when the entry could not be durably written (the caller must surface
  /// the failure — a silent gap here becomes a silent gap in recovery).
  bool append(const GroupDescriptor& descriptor, const MessageLog& log,
              const RetainedEnvelope& message);

  /// Loads a group's record — base plus surviving segment tail; nullopt
  /// when absent or the base is unreadable/corrupt.
  std::optional<StoredGroup> load(GroupId group) const;

  /// Deletes a group's record (e.g. on group destruction).
  void erase(GroupId group);

  /// Groups with a (readable) record in this directory.
  std::vector<GroupId> stored_groups() const;

  /// Segment entries are buffered and flushed every n appends (1 = every).
  void set_sync_every(std::uint32_t n) { sync_every_ = n == 0 ? 1 : n; }

  std::uint64_t writes() const noexcept { return writes_; }
  std::uint64_t appends() const noexcept { return appends_; }
  std::uint64_t syncs() const noexcept { return syncs_; }
  std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  std::uint64_t torn_truncations() const noexcept { return torn_truncations_; }
  std::uint64_t persist_failures() const noexcept { return persist_failures_; }
  std::uint64_t append_failures() const noexcept { return append_failures_; }

  /// Adds `plan` to the pending fault counters (chaos fault injection).
  void inject_faults(const StorageFaultPlan& plan) {
    faults_.fail_persists += plan.fail_persists;
    faults_.fail_appends += plan.fail_appends;
    faults_.torn_appends += plan.torn_appends;
  }

 private:
  struct OpenSegment {
    std::ofstream out;
    std::uint64_t generation = 0;
    std::uint32_t unsynced = 0;
  };

  std::filesystem::path path_of(GroupId group) const;
  std::filesystem::path segment_path_of(GroupId group) const;

  /// Generation of the group's base record (0 when absent/corrupt).
  std::uint64_t base_generation(GroupId group) const;

  /// Opens (or returns) the group's segment stream positioned after the
  /// valid prefix, truncating any torn tail.
  OpenSegment& open_segment(GroupId group, std::uint64_t generation);

  std::filesystem::path directory_;
  std::uint32_t sync_every_ = 8;
  mutable std::map<std::uint32_t, OpenSegment> open_;
  mutable std::map<std::uint32_t, std::uint64_t> generations_;
  std::uint64_t writes_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t bytes_written_ = 0;
  mutable std::uint64_t torn_truncations_ = 0;
  std::uint64_t persist_failures_ = 0;
  std::uint64_t append_failures_ = 0;
  StorageFaultPlan faults_;
};

}  // namespace eternal::core
