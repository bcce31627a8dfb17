#pragma once
// Wire format for shard traffic (DESIGN.md §16).
//
// Every message the shard tier puts on a transport — request dispatch,
// reply shipping, gossiped roster exchange — is one sealed frame:
//
//   header (48 bytes, little-endian):
//     magic   u32  'WSRD'
//     version u16  (currently 1; decoders reject anything else)
//     kind    u8   MsgKind
//     flags   u8   reserved, 0
//     src     u32  sender node id (shards 0..N-1, router = N)
//     dst     u32  receiver node id
//     incarnation u64  sender's incarnation; for requests, the router's
//                      *expected* incarnation of the target shard — the
//                      receiver-side epoch fence checks it before serving
//     epoch   u64  sender's roster epoch at send time
//     request_id  u64  correlates a reply with its dispatch (0 for gossip)
//     payload_size u32
//     payload_crc  u32  base::crc32 over the payload bytes
//   payload (payload_size bytes)
//
// The same encoding serves both legs: the live in-process ShardTransport
// (transport.hpp) and the mesh::Machine gossip program (mesh_gossip.hpp).
// A machine-injected bit flip on a plain csend lands in the payload or
// header and is caught here at unseal time — the wire CRC is the shard
// tier's own integrity check, layered under the transform-result CRC audit.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "svc/request.hpp"

namespace wavehpc::svc::shard::wire {

constexpr std::uint32_t kMagic = 0x57535244U;  // "WSRD"
constexpr std::uint16_t kVersion = 1;
constexpr std::size_t kHeaderBytes = 48;

/// Transport tags, one per traffic class, so fault plans can target
/// heartbeats and requests individually (e.g. drop gossip A→B only).
constexpr int kRequestTag = 81;
constexpr int kReplyTag = 82;
constexpr int kGossipTag = 83;

enum class MsgKind : std::uint8_t { Request = 1, Reply = 2, Gossip = 3 };

/// Malformed or corrupted frame; lossy paths use try_unseal instead.
class WireError : public std::runtime_error {
public:
    explicit WireError(const std::string& what) : std::runtime_error(what) {}
};

struct Header {
    MsgKind kind = MsgKind::Request;
    std::uint32_t src = 0;
    std::uint32_t dst = 0;
    std::uint64_t incarnation = 0;
    std::uint64_t epoch = 0;
    std::uint64_t request_id = 0;
};

/// Build one sealed frame: header + CRC-protected payload.
[[nodiscard]] std::vector<std::byte> seal(const Header& h,
                                          std::span<const std::byte> payload);

/// A verified frame. `payload` is a view into the unsealed frame, valid
/// only while that frame's bytes live.
struct Unsealed {
    Header header;
    std::span<const std::byte> payload;
};

/// Parse + verify a sealed frame; nullopt on any defect (bad magic,
/// version, truncation, CRC mismatch) — the lossy-path form used where a
/// corrupted frame should count as a lost message, not an error.
[[nodiscard]] std::optional<Unsealed> try_unseal(
    std::span<const std::byte> frame);
/// A temporary frame would die before its payload view is read.
std::optional<Unsealed> try_unseal(const std::vector<std::byte>&&) = delete;

/// Parse + verify, throwing WireError with the defect named.
[[nodiscard]] Unsealed unseal(std::span<const std::byte> frame);
Unsealed unseal(const std::vector<std::byte>&&) = delete;

// ------------------------------------------------------------ payloads

/// TransformRequest payload: transform parameters + the full pixel plane.
/// The image genuinely crosses the wire — the decoder materializes a new
/// ImageF from the payload bytes. The deadline travels as seconds relative
/// to `now` (+inf = none) since steady_clock points don't cross processes.
[[nodiscard]] std::vector<std::byte> encode_request_payload(
    const TransformRequest& req, Clock::time_point now);
[[nodiscard]] TransformRequest decode_request_payload(
    std::span<const std::byte> payload, Clock::time_point now);

/// Reply payloads carry either a full TransformReply (pyramid included)
/// or a typed error that the router re-throws to the client.
enum class ReplyErrorKind : std::uint8_t {
    Shutdown = 0,
    Deadline = 1,
    Watchdog = 2,
    CrcAudit = 3,
    Other = 4,
};

struct ReplyWire {
    bool is_error = false;
    ReplyErrorKind error_kind = ReplyErrorKind::Other;
    std::string error_message;
    TransformReply reply;  ///< valid when !is_error
};

[[nodiscard]] std::vector<std::byte> encode_reply_payload(
    const TransformReply& reply);
[[nodiscard]] std::vector<std::byte> encode_reply_error_payload(
    ReplyErrorKind kind, std::string_view message);
[[nodiscard]] ReplyWire decode_reply_payload(std::span<const std::byte> payload);

/// Rethrow the typed error a ReplyWire carries (is_error must be true).
[[noreturn]] void rethrow_reply_error(const ReplyWire& rw);

/// Gossip payload: the sender's full (incarnation, last_ok, health) roster
/// vector, merged by every receiver (membership.hpp merge_entry).
struct RosterEntry {
    std::uint64_t incarnation = 0;
    double last_ok = 0.0;
    std::uint8_t health = 0;  ///< ShardHealth as sent; advisory for refutation
};

[[nodiscard]] std::vector<std::byte> encode_roster_payload(
    std::span<const RosterEntry> roster);
[[nodiscard]] std::vector<RosterEntry> decode_roster_payload(
    std::span<const std::byte> payload);

/// Admission verdict a shard returns on the request channel — the reply
/// payload of the routed-request RPC. The pyramid itself travels later on
/// the reply channel once compute finishes.
enum class AdmitStatus : std::uint8_t {
    Accepted = 0,
    Rejected = 1,    ///< shard admission said no (reason + retry hint below)
    StaleEpoch = 2,  ///< request incarnation != the shard's current life
    Down = 3,        ///< no live service behind the node
};

struct AdmitWire {
    AdmitStatus status = AdmitStatus::Down;
    RejectReason reject_reason = RejectReason::None;  ///< when Rejected
    double retry_after = 0.0;                         ///< when Rejected
};

[[nodiscard]] std::vector<std::byte> encode_admit_payload(const AdmitWire& a);
[[nodiscard]] AdmitWire decode_admit_payload(std::span<const std::byte> payload);

}  // namespace wavehpc::svc::shard::wire
