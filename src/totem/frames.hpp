// Wire formats of the Totem-like single-ring protocol.
//
// Six frame kinds circulate on the simulated Ethernet:
//   Data        — one fragment of a sequenced multicast message
//   Token       — the circulating ring token (sequencing + retransmission
//                 requests + all-received-up-to for garbage collection)
//   Join        — membership gossip after a token loss / join request
//   Commit      — the membership leader's proposed new ring
//   Ready       — a member reporting it holds every message up to base_seq
//   Install     — the leader's final view installation
//   JoinRequest — a (re)starting processor asking to be let into the ring
//
// All frames are CDR-encoded; every frame begins with (magic, type, sender).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <variant>
#include <vector>

#include "util/bytes.hpp"
#include "util/cdr.hpp"
#include "util/ids.hpp"
#include "util/shared_bytes.hpp"

namespace eternal::totem {

using util::Bytes;
using util::BytesView;
using util::NodeId;
using util::ViewId;

enum class FrameType : std::uint8_t {
  kData = 1,
  kToken,
  kJoin,
  kCommit,
  kReady,
  kInstall,
  kJoinRequest,
};

/// One fragment of a multicast message, stamped with its global sequence
/// number. Fragments of one message share (sender, msg_id) and carry their
/// index/count; the message's delivery position is its last fragment's seq.
///
/// Batching: when `batch_count >= 2` the frame instead carries that many
/// *complete* small messages from one origin, packed with pack_batch() into
/// `payload` in submission (FIFO) order. A batched frame is never a fragment
/// (frag_index == 0, frag_count == 1), consumes one sequence number, and is
/// unpacked back into individual deliveries at every member — so batching
/// changes how messages share the wire, never the agreed delivery order.
///
/// `payload` is a slice of the one shared buffer the frame travels in: the
/// sender encodes that buffer once, and the Ethernet slot, every member's
/// frame store and every delivery reference it instead of copying it.
struct DataFrame {
  ViewId view;
  std::uint64_t ring_id = 0;  ///< identity of the ring that sequenced this
  NodeId origin;              ///< original sender (stable across retransmission)
  std::uint64_t seq = 0;      ///< global total-order sequence number
  std::uint64_t msg_id = 0;   ///< origin-local message identifier (first of a batch)
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 1;
  std::uint32_t batch_count = 1;  ///< complete messages packed in payload (>= 2 = batched)
  bool retransmission = false;
  /// Set on a retransmission whose sender has *delivered* this sequence
  /// number: its copy is the agreed message, so a receiver holding a
  /// different (stale-lineage) frame at the same seq replaces it.
  bool authoritative = false;
  util::SharedSlice payload;
};

/// The ring token. Only the node named `target` acts on it; others ignore it
/// (the medium is broadcast, the token is logically point-to-point).
///
/// Flow control: a congested member (one whose undelivered gap outgrew its
/// retransmission window) writes a reduced per-visit origination budget into
/// `flow_budget`; every member caps its sends at that budget until the
/// setter recovers and clears it — the same lower-and-release discipline as
/// the aru/aru_setter pair.
struct TokenFrame {
  ViewId view;
  std::uint64_t ring_id = 0;
  NodeId target;
  std::uint64_t round = 0;     ///< rotation counter (diagnostics, dedupe)
  std::uint64_t next_seq = 1;  ///< next sequence number to assign
  std::uint64_t aru = 0;       ///< all-received-up-to (min over the ring)
  NodeId aru_setter;           ///< who last lowered aru
  std::uint32_t flow_budget = 0;  ///< max Data frames per token visit (0 = unlimited)
  NodeId flow_setter;             ///< congested member that imposed flow_budget
  std::vector<std::uint64_t> rtr;  ///< sequence numbers requested for retransmission
};

/// Membership gossip: the sender's view of who is alive, the highest global
/// sequence number it has seen, and the highest view it has installed.
struct JoinFrame {
  std::vector<NodeId> alive;
  std::uint64_t highest_seq = 0;
  std::uint64_t highest_view = 0;
  /// Ring the sender last belonged to (0 = none). After a partition heals,
  /// gathers span *different* rings; only the history of the leader's ring
  /// survives the merge — members of other rings re-enter fresh.
  std::uint64_t ring_id = 0;
};

/// The leader's proposed ring. base_seq is the highest sequence number any
/// gathered member reported; all members must hold 1..base_seq (or be new)
/// before the view installs.
struct CommitFrame {
  ViewId new_view;
  std::vector<NodeId> members;
  std::uint64_t base_seq = 0;
  /// The ring whose history this commit continues (the leader's). Members
  /// coming from any other lineage demote to fresh before installing.
  std::uint64_t surviving_ring = 0;
  /// Recent ancestors of the surviving ring: a member whose current ring
  /// appears here merely missed an install (same lineage) and is not
  /// demoted — it catches up through the recovery exchange instead.
  std::vector<std::uint64_t> surviving_ancestors;
};

/// A member's recovery-exchange report. `missing` lists the sequence numbers
/// up to base_seq the member still lacks (holders rebroadcast them); an empty
/// list means the member is ready for the view to install.
///
/// `held_seqs`/`held_digests` (parallel vectors) advertise the content
/// digest of every *undelivered* frame the member already holds up to
/// base_seq. A member that has delivered one of those sequence numbers
/// validates the digest and rebroadcasts the authoritative copy on a
/// mismatch — closing the stale-store hazard where a laggard holds frames
/// at sequence numbers a merged ring reassigned.
struct ReadyFrame {
  ViewId new_view;
  std::vector<std::uint64_t> missing;
  std::vector<std::uint64_t> held_seqs;
  std::vector<std::uint64_t> held_digests;
};

/// Final installation of the new ring; sequencing resumes at next_seq.
struct InstallFrame {
  ViewId new_view;
  std::vector<NodeId> members;
  std::uint64_t next_seq = 1;
};

/// A restarting processor announcing itself to the ring.
struct JoinRequestFrame {};

/// A decoded frame plus its sender.
struct Frame {
  NodeId sender;
  std::variant<DataFrame, TokenFrame, JoinFrame, CommitFrame, ReadyFrame, InstallFrame,
               JoinRequestFrame>
      body;

  FrameType type() const noexcept { return static_cast<FrameType>(body.index() + 1); }
};

/// A message queued for multicast, as the bytes it puts on the ring: a short
/// inline head, a body and a short inline tail, concatenated. The layer
/// above frames its own header around a body this way (an Eternal envelope
/// around the ORB's GIOP bytes), so the body is moved in, never copied, and
/// the message's one encode is the Data frames it travels in.
class Outbound {
 public:
  static constexpr std::size_t kMaxHead = 64;
  static constexpr std::size_t kMaxTail = 16;

  Outbound() = default;
  /// A message that is `body` alone.
  Outbound(Bytes body) noexcept : body_(std::move(body)) {}  // NOLINT(google-explicit-constructor)
  /// `head`, then `body`, then `tail` (at most kMaxHead and kMaxTail bytes).
  Outbound(BytesView head, Bytes body, BytesView tail);

  std::size_t size() const noexcept { return head_size_ + body_.size() + tail_size_; }

  /// Copies the `n` message bytes from offset `begin` on to `out`.
  void copy(std::size_t begin, std::size_t n, std::uint8_t* out) const noexcept;

 private:
  std::array<std::uint8_t, kMaxHead> head_;
  std::array<std::uint8_t, kMaxTail> tail_;
  std::uint8_t head_size_ = 0;
  std::uint8_t tail_size_ = 0;
  Bytes body_;
};

/// Bytes of Totem header per Data frame (used by the fragmenter to size
/// fragment payloads against the Ethernet MTU).
std::size_t data_frame_overhead();

/// Writes a Data frame's header for a payload of `payload_size` bytes into
/// the data_frame_overhead() bytes at `out` (f.payload is not read). The
/// one Data header writer.
void write_data_header(std::uint8_t* out, NodeId sender, const DataFrame& f,
                       std::size_t payload_size);

/// Encodes a Data frame whose payload, `payload_size` bytes, `fill(out)`
/// writes, straight into a shared buffer: the one allocation a frame costs
/// on its way from sender to every store and delivery.
template <typename Fill>
util::SharedBytes encode_data_frame(NodeId sender, const DataFrame& f, std::size_t payload_size,
                                    Fill&& fill) {
  return util::SharedBytes::build(data_frame_overhead() + payload_size, [&](std::uint8_t* out) {
    write_data_header(out, sender, f, payload_size);
    fill(out + data_frame_overhead());
  });
}

/// Encodes a Data frame carrying a copy of `payload` (f.payload is not
/// read) into a shared buffer.
util::SharedBytes encode_data_frame(NodeId sender, const DataFrame& f, BytesView payload);

/// Encodes a frame for the wire.
Bytes encode_frame(NodeId sender, const DataFrame& f);
/// A Token frame is encoded into `reuse`'s storage: a node that passes the
/// token again and again hands back the buffer of its previous pass.
Bytes encode_frame(NodeId sender, const TokenFrame& f, Bytes reuse = {});
Bytes encode_frame(NodeId sender, const JoinFrame& f);
Bytes encode_frame(NodeId sender, const CommitFrame& f);
Bytes encode_frame(NodeId sender, const ReadyFrame& f);
Bytes encode_frame(NodeId sender, const InstallFrame& f);
Bytes encode_frame(NodeId sender, const JoinRequestFrame& f);

/// Decodes any frame; returns nullopt on malformed input (corrupt frames are
/// dropped, as a real NIC drops bad-FCS frames). A Data frame's payload is
/// copied into a buffer of its own.
std::optional<Frame> decode_frame(BytesView data);

/// Decodes a frame that arrived in a shared buffer: a Data frame's payload
/// is a slice of `frame`, not a copy. Accepts exactly what the BytesView
/// form accepts.
std::optional<Frame> decode_frame(const util::SharedBytes& frame);

// ---- batch packing -----------------------------------------------------
// A batched DataFrame's payload is the CDR concatenation of its messages,
// each a sequence<octet> (4-byte length, bytes, aligned to 4). The message
// count travels in the frame header (DataFrame::batch_count), so a packed
// blob is only interpretable together with its frame.

/// Packs complete messages (submission order) into one batch payload.
Bytes pack_batch(const std::vector<Bytes>& messages);

/// Writes the alignment padding and length prefix of a `message_bytes`
/// message appended to a batch payload that is `current_bytes` long at
/// `out`; returns the offset its bytes go at. The one batch writer.
std::size_t put_batch_prefix(std::uint8_t* out, std::size_t current_bytes,
                             std::size_t message_bytes);

/// True when `packed` holds exactly `count` messages: no truncated blob,
/// count/length mismatch or trailing garbage. Allocates nothing.
bool batch_well_formed(BytesView packed, std::uint32_t count) noexcept;

/// Calls `visit(BytesView)` on each of the `count` messages packed in
/// `packed`, in submission order, as views into `packed`. A malformed blob
/// (see batch_well_formed) visits nothing and returns false — the caller
/// drops the frame like any other corrupt frame.
template <typename Visit>
bool unpack_batch(BytesView packed, std::uint32_t count, Visit&& visit) {
  if (!batch_well_formed(packed, count)) return false;
  util::CdrReader r(packed, util::ByteOrder::kLittle);
  for (std::uint32_t i = 0; i < count; ++i) visit(r.get_octets_view());
  return true;
}

/// Packed size after appending a message of `message_bytes` to a batch blob
/// currently `current_bytes` long (alignment + length prefix included).
/// Lets the sender pack greedily against a byte budget without encoding.
std::size_t packed_batch_size(std::size_t current_bytes, std::size_t message_bytes);

}  // namespace eternal::totem
