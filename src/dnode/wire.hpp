// The distributed node runtime's wire protocol (control + data plane).
//
// Every frame moving between a coordinator and a node agent, or between
// two node agents, is one TcpStream frame (u32 length prefix) whose body
// is:
//
//   u32 magic 'DNO5' | u8 type | type-specific fields | u64 xxh64
//
// The trailing xxh64 covers everything before it, so a frame mangled in
// transit is rejected (node.corrupt_frames) instead of decoded into
// garbage.
// Frames with another 'DNOn' magic ('DNO1' had an FNV-1a trailer, 'DNO2'
// a shorter DATA header, 'DNO3' stamped DATA instead of numbering it,
// 'DNO4' asked for one channel per RESEND) come from a build of another
// wire version: decode logs that once per process and drops them.
//
// Control plane (agent <-> coordinator, one long-lived connection):
//   HELLO/CONFIG/LAUNCH/PLACEMENT       session setup and rank placement
//   HEARTBEAT                           liveness + load report
//   FORCE_ROLL                          injected rollback (tests)
//   RESURRECT/YIELD_RANK/RANK_YIELDED/
//   RANK_UP                             failure recovery and migration
//   RESULT/SHUTDOWN                     completion
//
// Data plane (agent -> agent, dialed lazily): every (src rank, dst rank)
// pair is one exactly-once, in-order channel of numbered entries
// (docs/SPECULATION.md, "Channels"):
//   DATA                                one msg_send payload
//   SPEC_OUTCOME                        a rollback, commit or restart
//   RESEND                              "resend from seq n" for a list of
//                                       channels, receivers -> senders
//   WATERMARK                           "checkpointed below n", receiver -> sender
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "ctrl/wal.hpp"
#include "support/serialize.hpp"

namespace mojave::dnode {

inline constexpr std::uint32_t kWireMagic = 0x354f4e44;  // "DNO5"
inline constexpr std::uint32_t kWireMagicV1 = 0x314f4e44;  // "DNO1"

enum class MsgType : std::uint8_t {
  kHello = 1,
  kConfig,
  kLaunch,
  kPlacement,
  kData,
  kSpecOutcome,
  kResend,
  kWatermark,
  kHeartbeat,
  kResurrect,
  kYieldRank,
  kRankYielded,
  kRankUp,
  kResult,
  kForceRoll,
  kShutdown,
  // HA control plane (docs/CONTROL_PLANE.md): a standby coordinator that
  // takes over queries each live agent for its rank census instead of
  // restarting the world.
  kReAdopt,
  kReAdoptAck,
};

[[nodiscard]] const char* msg_type_name(MsgType t);

/// Who is on the other end of a freshly accepted connection.
enum class PeerKind : std::uint8_t { kCoordinator = 0, kAgent = 1 };

struct AgentAddr {
  std::string host;
  std::uint16_t port = 0;
};

struct PlacementEntry {
  std::uint32_t rank = 0;
  std::uint32_t agent = 0;
  bool alive = true;
  /// The rank's incarnation: 1 at launch, then one more per RESURRECT
  /// grant, in WAL order.
  std::uint64_t incarnation = 1;
};

/// What a non-DATA channel entry announces (SPEC_OUTCOME).
enum class ChannelOp : std::uint8_t {
  kData = 0,  ///< a DATA frame, never sent as SPEC_OUTCOME
  kRollback,  ///< payloads with spec id >= DataHeader::spec_id are void
  kCommit,    ///< payloads with spec id < DataHeader::spec_id are durable
  kRestart,   ///< a new incarnation continues the channel at this seq
  /// The sender's checkpoint after its COMMITs below seq
  /// DataHeader::spec_id landed: only now do they count.
  kLanded,
};

/// One rank's answer to RE_ADOPT: what the agent is actually running.
struct CensusEntry {
  std::uint32_t rank = 0;
  /// 0 = running, 1 = done (RESULT already produced), 2 = yielded
  /// (checkpointed and parked, waiting for a resurrect grant).
  std::uint8_t state = 0;
};

/// One channel a RESEND asks for: rank `src` resends to rank `dst` every
/// entry from `seq` on.
struct ResendEntry {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t seq = 0;

  friend bool operator==(const ResendEntry&, const ResendEntry&) = default;
};

/// Decoded frame: a tagged superset of every message's fields (internal
/// protocol, not a public API — a flat struct beats a 18-way variant).
struct Msg {
  MsgType type = MsgType::kShutdown;
  PeerKind peer_kind = PeerKind::kAgent;  // HELLO
  std::uint64_t coord_epoch = 0;          // HELLO/RE_ADOPT (lease epoch)
  std::vector<CensusEntry> census;        // RE_ADOPT_ACK
  std::uint32_t agent = 0;  // HELLO/CONFIG/HEARTBEAT/RESEND (reply-to)
  std::uint32_t rank = 0;       // LAUNCH/POISON/RESURRECT/YIELD/RESULT/...
  std::uint32_t num_ranks = 0;  // CONFIG
  std::vector<AgentAddr> agents;           // CONFIG
  std::uint64_t max_instructions = 0;      // CONFIG
  double recv_timeout_seconds = 0;         // CONFIG
  std::vector<PlacementEntry> placement;   // PLACEMENT
  std::vector<std::byte> payload;          // LAUNCH (image) / DATA (message)
  std::uint32_t src = 0, dst = 0;          // channel frames
  std::int32_t tag = 0;                    // DATA
  ChannelOp op = ChannelOp::kData;         // SPEC_OUTCOME
  std::uint64_t incarnation = 0;           // SPEC_OUTCOME/RESURRECT
  std::uint64_t seq = 0;                   // SPEC_OUTCOME/WATERMARK
  std::vector<ResendEntry> resends;        // RESEND
  std::uint64_t spec_id = 0;               // SPEC_OUTCOME
  double load = 0;                         // HEARTBEAT
  std::uint32_t live_ranks = 0;            // HEARTBEAT
  bool ok = false;                         // RANK_YIELDED/RANK_UP
  ctrl::RankResult result;                 // RESULT
};

// --- Encoders (one per message type) ---------------------------------

[[nodiscard]] std::vector<std::byte> encode_hello(PeerKind kind,
                                                  std::uint32_t agent,
                                                  std::uint64_t coord_epoch = 0);
[[nodiscard]] std::vector<std::byte> encode_config(
    std::uint32_t your_agent, std::uint32_t num_ranks,
    const std::vector<AgentAddr>& agents, std::uint64_t max_instructions,
    double recv_timeout_seconds);
[[nodiscard]] std::vector<std::byte> encode_launch(
    std::uint32_t rank, std::span<const std::byte> program_image);
[[nodiscard]] std::vector<std::byte> encode_placement(
    const std::vector<PlacementEntry>& entries);
[[nodiscard]] std::vector<std::byte> encode_data(
    std::uint32_t src, std::uint32_t dst, std::int32_t tag,
    std::span<const std::byte> payload);
/// A rollback, commit or restart entry on the src -> dst channel.
[[nodiscard]] std::vector<std::byte> encode_spec_outcome(
    std::uint32_t src, std::uint32_t dst, ChannelOp op,
    std::uint64_t incarnation, std::uint64_t seq, std::uint64_t spec_id);
/// Receivers hosted on `reply_agent` ask senders for the channels
/// `entries` names, all in one frame.
[[nodiscard]] std::vector<std::byte> encode_resend(
    std::uint32_t reply_agent, const std::vector<ResendEntry>& entries);
/// Receiver `dst` checkpointed its channel from `src` below `seq`.
[[nodiscard]] std::vector<std::byte> encode_watermark(std::uint32_t src,
                                                      std::uint32_t dst,
                                                      std::uint64_t seq);
[[nodiscard]] std::vector<std::byte> encode_heartbeat(std::uint32_t agent,
                                                      double load,
                                                      std::uint32_t live_ranks);
[[nodiscard]] std::vector<std::byte> encode_resurrect(
    std::uint32_t rank, std::uint64_t incarnation);
[[nodiscard]] std::vector<std::byte> encode_yield_rank(std::uint32_t rank);
[[nodiscard]] std::vector<std::byte> encode_rank_yielded(std::uint32_t rank,
                                                         bool ok);
[[nodiscard]] std::vector<std::byte> encode_rank_up(std::uint32_t rank,
                                                    bool ok);
[[nodiscard]] std::vector<std::byte> encode_result(
    std::uint32_t rank, const ctrl::RankResult& result);
[[nodiscard]] std::vector<std::byte> encode_force_roll(std::uint32_t rank);
[[nodiscard]] std::vector<std::byte> encode_shutdown();
[[nodiscard]] std::vector<std::byte> encode_re_adopt(std::uint64_t coord_epoch);
[[nodiscard]] std::vector<std::byte> encode_re_adopt_ack(
    std::uint32_t agent, const std::vector<CensusEntry>& census);

/// Verify magic + checksum and parse. nullopt = corrupt, unknown or
/// old-version frame
/// (the caller counts it and drops it; TCP gives no re-delivery, but every
/// dnode exchange is either idempotent or re-requested at a higher layer).
[[nodiscard]] std::optional<Msg> decode(std::span<const std::byte> frame);

// --- DATA payload (the body routed between ranks) --------------------
//
// {u64 incarnation, u64 seq, u64 spec_id, u32 count, values...} — values
// are runtime::write_value encodings, exactly count of them. incarnation
// is the sender's (RESURRECT assigns it), seq the entry's number on its
// channel, spec_id the innermost speculation the payload was sent under
// (0 = durable, lazy-cancelled re-sends included). Speculation ids only
// grow within an incarnation, so a rollback of id x reverts exactly the
// payloads with id >= x sent before it.

struct DataHeader {
  std::uint64_t incarnation = 0;
  std::uint64_t seq = 0;
  std::uint64_t spec_id = 0;
  std::uint32_t count = 0;
};
inline constexpr std::size_t kDataHeaderBytes = 8 + 8 + 8 + 4;

[[nodiscard]] std::vector<std::byte> encode_data_payload(
    const DataHeader& header, std::span<const std::byte> values);
/// The header of an encode_data_payload() body. decode() rejects DATA
/// frames too short to hold one, so this cannot fail on a decoded frame.
[[nodiscard]] DataHeader decode_data_header(std::span<const std::byte> payload);

}  // namespace mojave::dnode
