// Control-plane write-ahead log.
//
// The coordinator is the cluster's brain: placement, incarnations,
// resurrection grants, rank outcomes. All of it used to live only in
// that one process's memory — a
// `kill -9` of `mojc cluster` lost the run. The WAL makes every
// coordinator state transition durable *before* its side effects go out
// on the wire, so a restarted (or standby) coordinator can replay the log
// through the same `ctrl::CoordState` transition function the live
// coordinator uses and arrive at bit-identical state (the replay
// equivalence the tests pin).
//
// On-disk format (docs/CONTROL_PLANE.md): one segment file per
// coordinator incarnation, named `wal-<epoch16>.log` where `epoch` is the
// writer's lease epoch — lexicographic file order is epoch order. A
// segment opens with `u32 magic 'MWAL' | u32 format version`; a segment
// of another version (version 1 had no header) is reported by its
// version and not replayed. Each record is length-framed and checksummed:
//
//   u32 body_len | u64 fnv1a(body) | body
//   body := u8 op | u64 wal_epoch | op-specific fields
//
// Appends are a single write(2) to an O_APPEND fd; fsync is batched (the
// coordinator's monitor tick calls flush()) and forced on close. A crash
// can therefore tear at most the tail record, and replay stops cleanly at
// the last whole record (`truncated` counts it).
//
// Zombie fencing: a deposed primary still holds an O_APPEND fd to its old
// segment, so its post-takeover writes land *behind* the new epoch's
// segment in replay order — an epoch comparison at read time cannot catch
// them. Instead, the first record a takeover writes is a kTakeover seal
// naming how many bytes of each prior segment it consumed; replay clamps
// every sealed segment to its sealed length, so anything a zombie
// appended after the handoff is provably unreachable.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "support/serialize.hpp"

namespace mojave::ctrl {

/// One coordinator state transition. Ops mirror the coordinator's
/// mutation sites one-to-one; `CoordState::apply` is the shared
/// transition function.
enum class WalOp : std::uint8_t {
  kMeta = 1,        ///< run configuration (opens the first segment)
  kTakeover,        ///< new epoch's seal over prior segments (fencing)
  kPlacement,       ///< rank placed on agent (or marked not-alive)
  kAgentDown,       ///< failure detector verdict: agent is dead
  kResurrectGrant,  ///< resurrection issued: rank -> target agent, next incarnation
  kRankUp,          ///< RANK_UP ok: incarnation is live
  kRankResult,      ///< terminal RESULT for a rank
  kRunComplete,     ///< every rank reported; the run is over
};

[[nodiscard]] const char* wal_op_name(WalOp op);

/// Endpoint of one agent (ctrl's copy of dnode::AgentAddr — ctrl sits
/// below dnode in the library graph and cannot include its headers).
struct AgentEndpoint {
  std::string host;
  std::uint16_t port = 0;
};

/// A rank's terminal report: the RESULT frame's body and the kRankResult
/// record's, one encoding for both.
struct RankResult {
  std::uint8_t result_kind = 0;  ///< 0 halted, 1 migrated away, 2 error
  std::int64_t exit_code = 0;
  bool has_reported = false;
  double reported = 0;
  std::string error;
  std::string output;
  std::uint64_t instructions = 0;
  std::uint64_t speculates = 0, commits = 0, rollbacks = 0;

  void encode(Writer& w) const;
  [[nodiscard]] static RankResult decode(Reader& r);
};

/// How much of segment `epoch` the sealing coordinator consumed; bytes
/// beyond this are a fenced zombie's and must never replay.
struct SegmentSeal {
  std::uint64_t epoch = 0;
  std::uint64_t bytes = 0;
};

/// Flat superset of every op's fields (same shape as dnode::Msg: an
/// 8-way variant would cost more than it buys on an internal format).
struct WalRecord {
  WalOp op = WalOp::kMeta;
  std::uint64_t wal_epoch = 0;  ///< writer's lease epoch

  // kMeta
  std::uint32_t num_ranks = 0;
  std::vector<AgentEndpoint> agents;
  std::uint64_t max_instructions = 0;
  double recv_timeout_seconds = 0;

  // kTakeover
  std::vector<SegmentSeal> seals;

  // kPlacement / kAgentDown / kResurrectGrant / kRankUp / ...
  std::uint32_t rank = 0;
  std::uint32_t agent = 0;
  bool alive = false;

  // kRankResult
  RankResult result;

  [[nodiscard]] std::vector<std::byte> encode_body() const;
  /// Throws ImageError on a malformed body (callers treat that the same
  /// as a checksum mismatch: the record never happened).
  [[nodiscard]] static WalRecord decode_body(std::span<const std::byte> body);
};

/// Appender for one coordinator incarnation's segment. Not thread-safe;
/// the coordinator appends only under its state mutex.
class WalWriter {
 public:
  /// Creates `dir/wal-<epoch16>.log` (dir is created if missing).
  WalWriter(std::filesystem::path dir, std::uint64_t epoch);
  ~WalWriter();

  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Frame, checksum, and append one record (stamps rec.wal_epoch).
  /// Throws Error if the segment is closed or the write fails short.
  void append(WalRecord rec);

  /// fsync if anything was appended since the last flush.
  void flush();

  /// flush + close(2). Idempotent; the destructor calls it.
  void close();

  [[nodiscard]] bool is_open() const { return fd_ >= 0; }
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }
  [[nodiscard]] std::uint64_t appended() const { return appended_; }

 private:
  std::filesystem::path path_;
  std::uint64_t epoch_ = 0;
  int fd_ = -1;
  bool dirty_ = false;
  std::uint64_t appended_ = 0;
};

struct ReplayStats {
  std::uint64_t segments = 0;
  std::uint64_t records = 0;    ///< applied (seals excluded)
  std::uint64_t sealed_off = 0; ///< bytes clamped off by takeover seals
  std::uint64_t truncated = 0;  ///< torn/corrupt tails stopped at
  std::uint64_t max_epoch = 0;  ///< highest segment epoch seen
  /// Whole-record bytes consumed per segment — exactly what the caller's
  /// own kTakeover record must seal when it becomes the next writer.
  std::vector<SegmentSeal> consumed;
  [[nodiscard]] bool empty() const { return records == 0; }
};

/// Replay every segment under `dir` in epoch order, calling `apply` for
/// each whole, checksummed, unsealed record. A torn or corrupt record
/// ends that segment's replay. kTakeover records are consumed by the
/// replayer itself (they clamp older segments) and are not passed on.
ReplayStats replay_wal(const std::filesystem::path& dir,
                       const std::function<void(const WalRecord&)>& apply);

/// The segment files under `dir`, sorted by epoch (oldest first).
[[nodiscard]] std::vector<std::filesystem::path> wal_segments(
    const std::filesystem::path& dir);

}  // namespace mojave::ctrl
