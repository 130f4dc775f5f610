// The Eternal multicast envelope.
//
// Every message Eternal multicasts via Totem is one of these envelopes. The
// envelope carries Eternal's own addressing and identification — group ids
// and operation identifiers (infrastructure-level, §4.3) — *around* the
// application's untouched IIOP bytes. State-transfer envelopes additionally
// piggyback the ORB/POA-level and infrastructure-level state onto the
// application-level state (§4.3, §5.1 step iii/iv).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "totem/frames.hpp"
#include "util/bytes.hpp"
#include "util/cdr.hpp"
#include "util/ids.hpp"
#include "util/shared_bytes.hpp"

namespace eternal::core {

using util::Bytes;
using util::BytesView;
using util::GroupId;
using util::NodeId;
using util::ReplicaId;

/// Envelope kinds.
enum class EnvelopeKind : std::uint8_t {
  kRequest = 1,     ///< an intercepted IIOP Request from a client (group)
  kReply = 2,       ///< an intercepted IIOP Reply from a server (group)
  kGetState = 3,    ///< fabricated get_state marker (recovery / checkpoint)
  kSetState = 4,    ///< fabricated set_state with piggybacked 3-kind state
  kCheckpoint = 5,  ///< periodic passive checkpoint with piggybacked state
  kControl = 6,     ///< replicated group-membership operation
  kStateChunk = 7,  ///< one bounded slice of a large state-bearing envelope
  // Out-of-band bulk transfer: the ordered ring carries only the skinny
  // control messages (descriptor + completion marker); the state bytes
  // stream point-to-point on the bulk lane (sim/bulk_lane.hpp) as extent
  // frames, acknowledged per extent.
  kStateBulkDescriptor = 8,  ///< ordered: announces a bulk transfer (digests)
  kStateBulkComplete = 9,    ///< ordered: pins the set_state logical instant
  kBulkExtent = 10,          ///< lane-only: one extent of the encoded inner envelope
  kBulkAck = 11,             ///< lane-only: receiver verified extent chunk_index
};

/// Control operations (kControl envelopes), applied in total order by every
/// node's group table.
enum class ControlOp : std::uint8_t {
  kCreateGroup = 1,
  kAddReplica = 2,          ///< a launched replica starts recovering
  kRemoveReplica = 3,       ///< fault detector reports a dead replica
  kReplicaOperational = 4,  ///< recovery / promotion finished
  kLaunchReplica = 5,       ///< Resource Manager directive: node, launch one
};

/// Upper bound on ring indices an envelope may carry. Far above any real
/// deployment (the hash circle costs 64 points per ring); the decoder
/// rejects anything at or past it so a corrupt ring field can never index
/// past a node's per-ring endpoint tables.
inline constexpr std::uint32_t kMaxRings = 64;

/// The fixed-size fields of one Eternal multicast message, shared by the
/// owning Envelope and the borrowing EnvelopeView.
struct EnvelopeHeader {
  EnvelopeKind kind = EnvelopeKind::kRequest;

  /// Index of the Totem ring that orders this envelope (core/placement.hpp:
  /// always ring_of(target_group); 0 in a single-ring system). Stamped by
  /// Mechanisms::multicast; delivery drops an envelope whose stamp does not
  /// match the ring it arrived on — a misrouted envelope would bypass the
  /// per-ring total order the group's consistency rests on.
  std::uint32_t ring = 0;

  /// kRequest/kReply: the invoking client group. kGetState/kSetState/
  /// kCheckpoint/kControl: unused (zero).
  GroupId client_group;

  /// The group this envelope is about: the invoked server group for
  /// kRequest; the replying server group for kReply; the recovering /
  /// checkpointed group for state and control envelopes.
  GroupId target_group;

  /// kRequest/kReply: the group-consistent GIOP-level operation sequence
  /// number (together with client_group this forms the operation identifier
  /// used for duplicate suppression). kGetState/kSetState/kCheckpoint: the
  /// recovery/checkpoint epoch. kControl: sequence stamp.
  std::uint64_t op_seq = 0;

  /// kGetState/kSetState: the recovering replica. kControl: the replica the
  /// operation concerns.
  ReplicaId subject;
  NodeId subject_node;

  ControlOp control_op = ControlOp::kCreateGroup;

  /// kSetState/kCheckpoint: the epoch this state is a delta against (0 = the
  /// state is a full snapshot). kControl kAddReplica: the recovering
  /// replica's local log tip epoch, advertised so the state source can ship
  /// a delta instead of the full state.
  std::uint64_t delta_base = 0;

  /// kStateChunk: position of this slice in the reassembled envelope.
  /// A chunked transfer is keyed (target_group, op_seq, subject,
  /// subject_node); payload holds the slice bytes.
  /// kStateBulkDescriptor/kBulkExtent: chunk_count is the extent count and
  /// chunk_index the extent position (descriptor: 0).
  std::uint32_t chunk_index = 0;
  std::uint32_t chunk_count = 0;

  /// Bulk-transfer fields, wire-encoded only for kinds >= kStateBulkDescriptor
  /// (ordinary envelopes are byte-identical to the pre-bulk format).
  /// transfer_id names one bulk transfer attempt; total_bytes is the encoded
  /// inner envelope's size; extent_bytes the slice width (the last extent may
  /// be shorter).
  std::uint64_t transfer_id = 0;
  std::uint64_t total_bytes = 0;
  std::uint32_t extent_bytes = 0;

  bool operator==(const EnvelopeHeader&) const = default;
};

/// One Eternal multicast message.
struct Envelope : EnvelopeHeader {
  /// Bulk kinds: the per-extent FNV-1a digests (descriptor only — extents
  /// and acks carry an empty list).
  std::vector<std::uint64_t> extent_digests;

  /// kRequest/kReply: the untouched IIOP message bytes.
  /// kSetState/kCheckpoint: the application-level state (a get_state reply
  /// body, i.e. an encoded Any).
  /// kStateChunk: one slice of the encoded inner envelope.
  Bytes payload;

  /// kSetState/kCheckpoint: piggybacked ORB/POA-level state snapshot.
  Bytes orb_state;
  /// kSetState/kCheckpoint: piggybacked infrastructure-level state snapshot.
  Bytes infra_state;

  /// kControl kCreateGroup: serialized group descriptor.
  Bytes control_data;

  bool operator==(const Envelope&) const = default;
};

/// A decoded envelope that borrows its blobs from the decoded buffer.
///
/// The header fields are plain values; payload, orb_state, infra_state,
/// control_data and the extent digests point into the buffer passed to
/// decode_envelope_view and are valid only while it is alive and unchanged
/// (for a Totem delivery: the duration of the delivery callback). Anything
/// that must outlive that keeps a reference instead (RetainedEnvelope, or a
/// slice of the delivery) or copies — own() for the whole envelope.
struct EnvelopeView : EnvelopeHeader {
  BytesView payload;
  BytesView orb_state;
  BytesView infra_state;
  BytesView control_data;

  /// Copies everything out into an owning Envelope.
  Envelope own() const;

 private:
  friend std::optional<EnvelopeView> decode_envelope_view(BytesView data);

  BytesView digests_;  ///< the aligned u64 digests, in order_
  util::ByteOrder order_ = util::ByteOrder::kLittle;
};

/// A delivered request, reply or get_state marker kept past its delivery
/// callback (run queue, message log, stable-storage appends): the header
/// plus a slice of the Totem buffer the payload arrived in, so keeping it
/// copies no bytes. Only the payload blob is kept — these kinds carry no
/// other blob and no extent digests.
struct RetainedEnvelope : EnvelopeHeader {
  util::SharedSlice payload;

  RetainedEnvelope() = default;
  /// Keeps `view`'s header and payload; `delivered` is the slice `view` was
  /// decoded from.
  RetainedEnvelope(const EnvelopeView& view, const util::SharedSlice& delivered)
      : EnvelopeHeader(view), payload(delivered.sub(view.payload)) {}
  /// Copies an owning envelope's header and payload (stable-storage restore,
  /// fabricated markers): one buffer for a non-empty payload.
  RetainedEnvelope(const Envelope& e)  // NOLINT(google-explicit-constructor)
      : EnvelopeHeader(e), payload(util::SharedSlice::copy_of(e.payload)) {}
};

/// Serializes an envelope for multicasting.
Bytes encode_envelope(const Envelope& e);

/// The size encode_envelope(e) has, without encoding.
std::size_t encoded_size(const Envelope& e);

/// The envelope as a Totem message carrying encode_envelope(e)'s bytes. A
/// request, reply, marker or control envelope with no blob but its payload
/// moves the payload in as the message body, the header in front of it and
/// the empty blob counts behind: no byte is encoded until Totem writes the
/// message's frames, so a copy withdrawn before sending is never encoded.
/// Any other envelope is encoded flat as the body.
totem::Outbound to_outbound(Envelope&& e);

/// Serializes a retained envelope: the bytes encode_envelope gives for an
/// Envelope with the same header and payload and no other blob.
Bytes encode_envelope(const RetainedEnvelope& e);

/// The size encode_envelope(e) has, without encoding.
std::size_t encoded_size(const RetainedEnvelope& e);

/// Writes encode_envelope(e)'s bytes to `out`, which holds encoded_size(e)
/// bytes: a record that frames an envelope (a stable-storage segment entry)
/// encodes it once, in place.
void encode_envelope_to(const RetainedEnvelope& e, std::uint8_t* out);

/// Parses in place; allocates nothing. nullopt on malformed bytes. This is
/// the one envelope parser: decode_envelope is its owning form.
std::optional<EnvelopeView> decode_envelope_view(BytesView data);

/// Decodes into an owning Envelope; nullopt on malformed bytes (exactly the
/// inputs decode_envelope_view rejects).
std::optional<Envelope> decode_envelope(BytesView data);

/// Initial-member list carried in a kCreateGroup envelope's payload.
struct InitialMember {
  ReplicaId id;
  NodeId node;
};
Bytes encode_initial_members(const std::vector<InitialMember>& members);
std::vector<InitialMember> decode_initial_members(BytesView data);

}  // namespace eternal::core
