#include "core/stable_storage.hpp"

#include <cstdio>
#include <cstring>

#include "util/log.hpp"

namespace eternal::core {

namespace {

constexpr std::uint32_t kMagic = 0xE7E41060;
constexpr std::uint32_t kVersion = 2;
constexpr std::uint32_t kEndMarker = 0xE7E4E00F;
constexpr std::uint32_t kEntryMagic = 0xE7E45E60;
constexpr const char* kTag = "storage";

void put_blob(util::CdrWriter& w, const Envelope& e) { w.put_octets(encode_envelope(e)); }
void put_blob(util::CdrWriter& w, const RetainedEnvelope& e) {
  w.put_octets(encode_envelope(e));
}

std::optional<Envelope> get_blob(util::CdrReader& r) {
  return decode_envelope(r.get_octets());
}

// Segment entries use a fixed little-endian layout (independent of CDR byte
// order) so a scan can resynchronize purely on framing:
//   [u32 magic][u64 generation][u32 len][len payload bytes][u64 fnv1a]
constexpr std::size_t kEntryHeader = 4 + 8 + 4;
constexpr std::size_t kEntryTrailer = 8;

void put_le32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_le64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

/// A logged message's segment entry; the envelope is encoded once, straight
/// into place between the entry header and the trailer.
Bytes encode_segment_entry(std::uint64_t generation, const RetainedEnvelope& message) {
  const std::size_t len = encoded_size(message);
  Bytes out(kEntryHeader + len + kEntryTrailer);
  std::uint8_t* const payload = out.data() + kEntryHeader;
  put_le32(out.data(), kEntryMagic);
  put_le64(out.data() + 4, generation);
  put_le32(out.data() + 12, static_cast<std::uint32_t>(len));
  encode_envelope_to(message, payload);
  put_le64(payload + len, util::fnv1a(BytesView(payload, len)));
  return out;
}

Bytes read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return {};
  const std::streamsize size = in.tellg();
  if (size <= 0) return {};
  Bytes raw(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(raw.data()), size);
  if (!in.good()) return {};
  return raw;
}

}  // namespace

SegmentScan scan_segment_bytes(BytesView data) {
  SegmentScan scan;
  std::size_t pos = 0;
  while (pos + kEntryHeader + kEntryTrailer <= data.size()) {
    const std::uint8_t* p = data.data() + pos;
    if (get_le32(p) != kEntryMagic) break;
    const std::uint64_t generation = get_le64(p + 4);
    const std::uint32_t len = get_le32(p + 12);
    if (len > data.size() - pos - kEntryHeader - kEntryTrailer) break;
    const std::uint8_t* payload = p + kEntryHeader;
    if (get_le64(payload + len) != util::fnv1a(BytesView(payload, len))) break;
    SegmentEntry entry;
    entry.generation = generation;
    entry.payload.assign(payload, payload + len);
    scan.entries.push_back(std::move(entry));
    pos += kEntryHeader + len + kEntryTrailer;
  }
  scan.valid_bytes = pos;
  scan.torn = pos < data.size();
  return scan;
}

StableStorage::StableStorage(std::filesystem::path directory)
    : directory_(std::move(directory)) {
  std::filesystem::create_directories(directory_);
}

std::filesystem::path StableStorage::path_of(GroupId group) const {
  return directory_ / ("group-" + std::to_string(group.value) + ".log");
}

std::filesystem::path StableStorage::segment_path_of(GroupId group) const {
  return directory_ / ("group-" + std::to_string(group.value) + ".seg");
}

std::uint64_t StableStorage::base_generation(GroupId group) const {
  auto it = generations_.find(group.value);
  if (it != generations_.end()) return it->second;
  std::uint64_t generation = 0;
  const Bytes raw = read_file(path_of(group));
  if (raw.size() >= 17) {
    try {
      util::CdrReader r(raw, static_cast<util::ByteOrder>(raw[0] & 1));
      (void)r.get_u8();
      if (r.get_u32() == kMagic && r.get_u32() == kVersion) generation = r.get_u64();
    } catch (const util::CdrError&) {
    }
  }
  generations_[group.value] = generation;
  return generation;
}

bool StableStorage::persist(const GroupDescriptor& descriptor, const MessageLog& log) {
  const std::uint64_t generation = base_generation(descriptor.id) + 1;

  util::CdrWriter w;
  w.put_u8(static_cast<std::uint8_t>(w.order()));
  w.put_u32(kMagic);
  w.put_u32(kVersion);
  w.put_u64(generation);
  w.put_octets(encode_descriptor(descriptor));
  w.put_bool(log.checkpoint().has_value());
  if (log.checkpoint().has_value()) put_blob(w, *log.checkpoint());
  w.put_u32(static_cast<std::uint32_t>(log.delta_chain().size()));
  for (const Envelope& e : log.delta_chain()) put_blob(w, e);
  w.put_u32(static_cast<std::uint32_t>(log.messages().size()));
  for (const RetainedEnvelope& e : log.messages()) put_blob(w, e);
  // End marker: a torn (truncated) write is detectable at load time.
  w.put_u32(kEndMarker);

  const std::filesystem::path final_path = path_of(descriptor.id);
  const std::filesystem::path tmp_path = final_path.string() + ".tmp";
  bool wrote = false;
  if (faults_.fail_persists > 0) {
    faults_.fail_persists -= 1;
  } else {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(w.bytes().data()),
              static_cast<std::streamsize>(w.size()));
    out.flush();
    wrote = out.good();
  }
  if (!wrote) {
    // Failure contract: the previous generation's base stays in place (the
    // rename never happened), the segment is not truncated, and the stale
    // temp file is removed so it can't be mistaken for durable state.
    std::error_code ec;
    std::filesystem::remove(tmp_path, ec);
    persist_failures_ += 1;
    ETERNAL_LOG(kWarn, kTag, "stable-storage write failed for " << final_path.string());
    return false;
  }
  std::filesystem::rename(tmp_path, final_path);
  generations_[descriptor.id.value] = generation;
  writes_ += 1;
  bytes_written_ += w.size();

  // Compaction: everything in the segment is now reflected in the base.
  open_.erase(descriptor.id.value);
  std::error_code ec;
  std::filesystem::remove(segment_path_of(descriptor.id), ec);
  return true;
}

StableStorage::OpenSegment& StableStorage::open_segment(GroupId group,
                                                        std::uint64_t generation) {
  auto it = open_.find(group.value);
  if (it != open_.end() && it->second.generation == generation) return it->second;
  open_.erase(group.value);

  const std::filesystem::path path = segment_path_of(group);
  // Reopening after a restart: keep only the valid prefix so a torn tail
  // from the crash can't swallow entries appended after it.
  const Bytes existing = read_file(path);
  if (!existing.empty()) {
    const SegmentScan scan = scan_segment_bytes(existing);
    if (scan.torn) {
      std::error_code ec;
      std::filesystem::resize_file(path, scan.valid_bytes, ec);
      torn_truncations_ += 1;
      ETERNAL_LOG(kWarn, kTag, "truncated torn segment tail for group "
                                   << group.value << " at byte " << scan.valid_bytes);
    }
  }

  OpenSegment& seg = open_[group.value];
  seg.out.open(path, std::ios::binary | std::ios::app);
  seg.generation = generation;
  return seg;
}

bool StableStorage::append(const GroupDescriptor& descriptor, const MessageLog& log,
                           const RetainedEnvelope& message) {
  const std::uint64_t generation = base_generation(descriptor.id);
  if (generation == 0) {
    // No base yet: a bare segment entry could not be recovered (no
    // descriptor), so take the compaction path once.
    return persist(descriptor, log);
  }

  OpenSegment& seg = open_segment(descriptor.id, generation);
  const Bytes entry = encode_segment_entry(generation, message);

  if (faults_.fail_appends > 0) {
    // The write never reaches the medium (e.g. ENOSPC before any byte).
    faults_.fail_appends -= 1;
    append_failures_ += 1;
    return false;
  }
  if (faults_.torn_appends > 0) {
    // A short write: only a prefix of the frame lands. Close the stream so
    // the next append reopens the segment and truncates the torn tail —
    // exactly what a crash between write and sync looks like on replay.
    faults_.torn_appends -= 1;
    const std::size_t torn = entry.size() / 2;
    seg.out.write(reinterpret_cast<const char*>(entry.data()),
                  static_cast<std::streamsize>(torn));
    seg.out.flush();
    open_.erase(descriptor.id.value);
    append_failures_ += 1;
    return false;
  }

  seg.out.write(reinterpret_cast<const char*>(entry.data()),
                static_cast<std::streamsize>(entry.size()));
  if (!seg.out.good()) {
    append_failures_ += 1;
    open_.erase(descriptor.id.value);
    ETERNAL_LOG(kWarn, kTag,
                "segment append failed for group " << descriptor.id.value);
    return false;
  }
  appends_ += 1;
  bytes_written_ += entry.size();
  if (++seg.unsynced >= sync_every_) {
    seg.out.flush();
    seg.unsynced = 0;
    syncs_ += 1;
    if (!seg.out.good()) {
      append_failures_ += 1;
      open_.erase(descriptor.id.value);
      ETERNAL_LOG(kWarn, kTag,
                  "segment sync failed for group " << descriptor.id.value);
      return false;
    }
  }
  return true;
}

std::optional<StoredGroup> StableStorage::load(GroupId group) const {
  // Make buffered segment entries visible to the read below.
  auto open_it = open_.find(group.value);
  if (open_it != open_.end() && open_it->second.unsynced > 0) {
    open_it->second.out.flush();
    open_it->second.unsynced = 0;
  }

  const Bytes raw = read_file(path_of(group));
  if (raw.size() < 16) return std::nullopt;

  StoredGroup out;
  std::uint64_t generation = 0;
  try {
    util::CdrReader r(raw, static_cast<util::ByteOrder>(raw[0] & 1));
    (void)r.get_u8();
    if (r.get_u32() != kMagic) return std::nullopt;
    if (r.get_u32() != kVersion) return std::nullopt;
    generation = r.get_u64();
    auto descriptor = decode_descriptor(r.get_octets());
    if (!descriptor) return std::nullopt;

    out.descriptor = std::move(*descriptor);
    if (r.get_bool()) {
      auto ckpt = get_blob(r);
      if (!ckpt) return std::nullopt;
      out.checkpoint = std::move(*ckpt);
    }
    const std::uint32_t deltas = r.get_count(4);
    out.deltas.reserve(deltas);
    for (std::uint32_t i = 0; i < deltas; ++i) {
      auto d = get_blob(r);
      if (!d) return std::nullopt;
      out.deltas.push_back(std::move(*d));
    }
    const std::uint32_t n = r.get_count(4);
    out.messages.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto msg = get_blob(r);
      if (!msg) return std::nullopt;
      out.messages.push_back(std::move(*msg));
    }
    if (r.get_u32() != kEndMarker) return std::nullopt;  // torn write
  } catch (const util::CdrError&) {
    ETERNAL_LOG(kWarn, kTag, "corrupt stable-storage record for group " << group.value);
    return std::nullopt;
  }

  // Replay the segment tail over the base. Entries from another generation
  // are leftovers of a crash between the base rewrite and the segment
  // truncation — the base already reflects (or supersedes) them.
  const Bytes seg = read_file(segment_path_of(group));
  if (!seg.empty()) {
    const SegmentScan scan = scan_segment_bytes(seg);
    if (scan.torn) {
      torn_truncations_ += 1;
      ETERNAL_LOG(kWarn, kTag, "ignoring torn segment tail for group "
                                   << group.value << " after byte " << scan.valid_bytes);
    }
    for (const SegmentEntry& entry : scan.entries) {
      if (entry.generation != generation) continue;
      auto msg = decode_envelope(entry.payload);
      if (!msg) continue;
      out.messages.push_back(std::move(*msg));
    }
  }
  return out;
}

void StableStorage::erase(GroupId group) {
  open_.erase(group.value);
  generations_.erase(group.value);
  std::error_code ec;
  std::filesystem::remove(path_of(group), ec);
  std::filesystem::remove(segment_path_of(group), ec);
}

std::vector<GroupId> StableStorage::stored_groups() const {
  std::vector<GroupId> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(directory_, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("group-", 0) != 0 || entry.path().extension() != ".log") continue;
    const std::string digits = name.substr(6, name.size() - 6 - 4);
    char* end = nullptr;
    const unsigned long value = std::strtoul(digits.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') continue;
    const GroupId id{static_cast<std::uint32_t>(value)};
    if (load(id).has_value()) out.push_back(id);
  }
  return out;
}

}  // namespace eternal::core
