// The distributed node runtime's wire protocol (control + data plane).
//
// Every frame moving between a coordinator and a node agent, or between
// two node agents, is one TcpStream frame (u32 length prefix) whose body
// is:
//
//   u32 magic 'DNO3' | u8 type | type-specific fields | u64 xxh64
//
// The trailing xxh64 covers everything before it, so a frame mangled in
// transit is rejected (node.corrupt_frames) instead of decoded into
// garbage.
// Frames with another 'DNOn' magic ('DNO1' had an FNV-1a trailer, 'DNO2'
// a shorter DATA header) come from a build of another wire version:
// decode logs that once per process and drops them.
//
// Control plane (agent <-> coordinator, one long-lived connection):
//   HELLO/CONFIG/LAUNCH/PLACEMENT       session setup and rank placement
//   HEARTBEAT                           liveness + load report
//   DEP_RECORD/ROLL_POISON/POISON/
//   COMMIT_DISCHARGE/FORCE_ROLL         the distributed speculation join
//   RESURRECT/YIELD_RANK/RANK_YIELDED/
//   RANK_UP                             failure recovery and migration
//   RESULT/SHUTDOWN                     completion
//
// Data plane (agent -> agent, dialed lazily):
//   DATA                                one msg_send payload
//   REPLAY_REQ                          re-request from the sender's log
//
// DATA payloads carry {spec_level, rollback_epoch, commit_seq,
// outer_rollbacks, count, values}: the sender's speculation level joins
// the receiver to its speculation (DEP_RECORD at consume time), and the
// epoch lets the coordinator fence dependency records that arrive after
// the speculation they depend on has already rolled back (see
// docs/SPECULATION.md, "epoch fencing").
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "support/serialize.hpp"

namespace mojave::dnode {

inline constexpr std::uint32_t kWireMagic = 0x334f4e44;  // "DNO3"
inline constexpr std::uint32_t kWireMagicV1 = 0x314f4e44;  // "DNO1"

enum class MsgType : std::uint8_t {
  kHello = 1,
  kConfig,
  kLaunch,
  kPlacement,
  kData,
  kReplayReq,
  kDepRecord,
  kRollPoison,
  kPoison,
  kCommitDischarge,
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
};

/// One rank's answer to RE_ADOPT: what the agent is actually running.
struct CensusEntry {
  std::uint32_t rank = 0;
  /// 0 = running, 1 = done (RESULT already produced), 2 = yielded
  /// (checkpointed and parked, waiting for a resurrect grant).
  std::uint8_t state = 0;
  std::uint64_t commit_seq = 0;  ///< the rank's committed count
};

/// Decoded frame: a tagged superset of every message's fields (internal
/// protocol, not a public API — a flat struct beats a 18-way variant).
struct Msg {
  MsgType type = MsgType::kShutdown;
  PeerKind peer_kind = PeerKind::kAgent;  // HELLO
  std::uint64_t coord_epoch = 0;          // HELLO/RE_ADOPT (lease epoch)
  std::vector<CensusEntry> census;        // RE_ADOPT_ACK
  std::uint32_t agent = 0;                // HELLO/CONFIG/HEARTBEAT
  std::uint32_t rank = 0;       // LAUNCH/POISON/RESURRECT/YIELD/RESULT/...
  std::uint32_t num_ranks = 0;  // CONFIG
  std::vector<AgentAddr> agents;           // CONFIG
  std::uint64_t max_instructions = 0;      // CONFIG
  double recv_timeout_seconds = 0;         // CONFIG
  std::vector<PlacementEntry> placement;   // PLACEMENT
  std::vector<std::byte> payload;          // LAUNCH (image) / DATA (message)
  std::uint32_t src = 0, dst = 0;          // DATA
  std::int32_t tag = 0;                    // DATA/REPLAY_REQ
  std::uint32_t owner = 0, requester = 0;  // REPLAY_REQ
  std::uint32_t sender = 0, receiver = 0;            // DEP_RECORD
  std::uint32_t sender_level = 0, receiver_level = 0;  // DEP_RECORD
  std::uint64_t epoch = 0;                 // DEP_RECORD/ROLL_POISON
  std::uint64_t commit_seq = 0;            // DEP_RECORD/RESURRECT
  std::uint32_t level = 0;                 // ROLL_POISON
  double load = 0;                         // HEARTBEAT
  std::uint32_t live_ranks = 0;            // HEARTBEAT
  bool ok = false;                         // RANK_YIELDED/RANK_UP
  // RESULT
  std::uint8_t result_kind = 0;  ///< 0 halted, 1 migrated away, 2 error
  std::int64_t exit_code = 0;
  bool has_reported = false;
  double reported = 0;
  std::string error;
  std::string output;
  std::uint64_t instructions = 0;
  std::uint64_t speculates = 0, commits = 0, rollbacks = 0;
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
[[nodiscard]] std::vector<std::byte> encode_replay_req(std::uint32_t owner,
                                                       std::uint32_t requester,
                                                       std::int32_t tag);
[[nodiscard]] std::vector<std::byte> encode_dep_record(
    std::uint32_t sender, std::uint32_t sender_level, std::uint32_t receiver,
    std::uint32_t receiver_level, std::uint64_t epoch,
    std::uint64_t commit_seq);
[[nodiscard]] std::vector<std::byte> encode_roll_poison(std::uint32_t rank,
                                                        std::uint32_t level,
                                                        std::uint64_t epoch);
[[nodiscard]] std::vector<std::byte> encode_poison(std::uint32_t rank);
[[nodiscard]] std::vector<std::byte> encode_commit_discharge(
    std::uint32_t rank);
[[nodiscard]] std::vector<std::byte> encode_heartbeat(std::uint32_t agent,
                                                      double load,
                                                      std::uint32_t live_ranks);
[[nodiscard]] std::vector<std::byte> encode_resurrect(
    std::uint32_t rank, std::uint64_t commit_seq);
[[nodiscard]] std::vector<std::byte> encode_yield_rank(std::uint32_t rank);
[[nodiscard]] std::vector<std::byte> encode_rank_yielded(std::uint32_t rank,
                                                         bool ok);
[[nodiscard]] std::vector<std::byte> encode_rank_up(std::uint32_t rank,
                                                    bool ok);
[[nodiscard]] std::vector<std::byte> encode_result(const Msg& result);
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
// {u32 spec_level, u64 rollback_epoch, u64 commit_seq, u64
// outer_rollbacks, u32 count, values...} — values are runtime::write_value
// encodings, exactly count of them. commit_seq is the sender's commit
// count at send time: replay logs and receiver-side caches keep payloads
// long after the speculation that stamped them was discharged, and only
// this stamp lets the coordinator's epoch fence tell committed data from
// reverted data. outer_rollbacks counts the sender's level-1 rollbacks in
// its current incarnation (the epoch counts rollbacks at every level): a
// later payload with the same commit_seq and a larger count proves that
// an earlier speculative one was reverted, so a receiver can act on it
// without asking the coordinator.

struct DataHeader {
  std::uint32_t spec_level = 0;
  std::uint64_t epoch = 0;
  std::uint64_t commit_seq = 0;
  std::uint64_t outer_rollbacks = 0;
  std::uint32_t count = 0;
};
inline constexpr std::size_t kDataHeaderBytes = 4 + 8 + 8 + 8 + 4;

[[nodiscard]] std::vector<std::byte> encode_data_payload(
    const DataHeader& header, std::span<const std::byte> values);
/// The header of an encode_data_payload() body. decode() rejects DATA
/// frames too short to hold one, so this cannot fail on a decoded frame.
[[nodiscard]] DataHeader decode_data_header(std::span<const std::byte> payload);

}  // namespace mojave::dnode
