// Exact channels: the two halves of every (src rank -> dst rank) pair.
//
// A channel is an exactly-once, in-order stream of numbered entries: the
// sender's payloads (DATA) and speculation outcomes (SPEC_OUTCOME). The
// sender numbers and logs them (Outbox); the receiver applies them in
// sequence order (Inbox), so a rollback always arrives behind the
// payloads it reverts. Sender-based message logging (Johnson &
// Zwaenepoel, FTCS 1987); the rules are in docs/SPECULATION.md, "Exact
// channels". Both classes are plain data owned by one agent's loop.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <utility>
#include <vector>

#include "dnode/wire.hpp"
#include "support/serialize.hpp"

namespace mojave::dnode {

/// One numbered channel entry.
struct Entry {
  ChannelOp op = ChannelOp::kData;
  std::int32_t tag = 0;            ///< kData only
  DataHeader h;                    ///< incarnation, seq, spec id, count
  std::vector<std::byte> payload;  ///< kData: the encode_data_payload() body
};

/// The sending rank's half of its channels.
class Outbox {
 public:
  using Sent = std::vector<std::pair<std::uint32_t, const Entry*>>;

  /// Entries get `incarnation`; a resurrected incarnation (`restarting`)
  /// opens every channel it touches with a RESTART at its next seq.
  void start(std::uint64_t incarnation, bool restarting) {
    incarnation_ = incarnation;
    restarting_ = restarting;
  }

  /// Number and log one entry to `dst`. Returns what to transmit, in
  /// order (a RESTART may precede it).
  Sent put(std::uint32_t dst, ChannelOp op, std::int32_t tag,
           std::uint64_t spec_id, std::uint32_t count,
           std::span<const std::byte> values);
  /// Speculation `spec_id` rolled back: a ROLLBACK on every channel that
  /// carries a payload sent under it or deeper.
  Sent rollback(std::uint64_t spec_id);
  /// A commit to zero made every payload under an id below
  /// `durable_below` durable: a COMMIT on every channel with speculative
  /// payloads since the last one. `level_zero`: no speculation is left.
  Sent commit(std::uint64_t durable_below, bool level_zero);
  /// (dst, seq of the newest COMMIT to it that no LANDED covers yet).
  using Commits = std::vector<std::pair<std::uint32_t, std::uint64_t>>;
  /// The COMMITs a checkpoint packed now covers.
  [[nodiscard]] Commits uncovered() const;
  /// The checkpoint that covered `commits` landed: a LANDED behind them
  /// on their channels, from which on the receivers count them.
  Sent landed(const Commits& commits);
  /// Logged entries to `dst` from `seq` on, and every logged RESTART.
  Sent resend(std::uint32_t dst, std::uint64_t seq);
  /// Remember that entry `seq` to `dst` could not be transmitted.
  void defer(std::uint32_t dst, std::uint64_t seq);
  /// The logged entries deferred since the last call, for `dst`.
  Sent take_deferred(std::uint32_t dst);
  /// `dst` checkpointed every entry below `seq`: forget them (but the
  /// RESTARTs).
  void truncate(std::uint32_t dst, std::uint64_t seq);

  /// The channels as a rank checkpoint stores them; decode fills a fresh
  /// one (decode_rank_checkpoint).
  void encode(Writer& w) const;
  void decode(Reader& r);

 private:
  struct Channel {
    std::uint64_t next_seq = 1;
    std::deque<Entry> log;        ///< entries at or above the watermark
    std::uint64_t spec_sent = 0;  ///< newest spec id sent since a commit
    std::uint64_t deferred = 0;   ///< first untransmitted seq; 0 = none
    bool restarted = false;
    std::uint64_t last_commit = 0;   ///< seq of the newest COMMIT
    std::uint64_t landed_below = 0;  ///< a LANDED covers COMMITs below
  };
  void append(std::uint32_t dst, Channel& c, ChannelOp op, std::int32_t tag,
              std::uint64_t spec_id, std::uint32_t count,
              std::span<const std::byte> values, Sent& out);
  Sent from(std::uint32_t dst, Channel& c, std::uint64_t seq);

  std::map<std::uint32_t, Channel> ch_;
  std::uint64_t incarnation_ = 1;
  bool restarting_ = false;
};

/// The receiving rank's half: everything it holds from each sender.
class Inbox {
 public:
  /// What receiving one entry asks of the host.
  struct Applied {
    bool poison = false;  ///< a payload this rank consumed was reverted
    bool gap = false;     ///< a sequence gap opened: ask for a resend
    std::vector<std::int32_t> arrived;  ///< tags of newly queued payloads
  };

  Applied receive(std::uint32_t src, Entry e);
  /// Take the oldest queued payload of (src, tag), consumed under this
  /// rank's speculation `spec_id` (0 = none).
  std::optional<std::vector<std::byte>> consume(std::uint32_t src,
                                                std::int32_t tag,
                                                std::uint64_t spec_id);
  /// This rank rolled back speculation `spec_id`: what it consumed under
  /// that id or deeper is queued again.
  void rollback(std::uint64_t spec_id);
  /// This rank committed to zero: consumptions under ids below
  /// `durable_below` are permanent. (A sender's COMMIT counts only once
  /// its LANDED, or a RESTART past it, arrives: the sender may still
  /// restore from a checkpoint before it until then.)
  void commit(std::uint64_t durable_below);
  /// Sender `src` was lost: its non-durable entries are void and asked
  /// for again. True when one of them had been consumed (poison).
  bool kill(std::uint32_t src);
  /// Where a resend from `src` must start, marking one as outstanding.
  std::uint64_t resend_from(std::uint32_t src);
  [[nodiscard]] bool knows(std::uint32_t src) const {
    return ch_.count(src) != 0;
  }
  [[nodiscard]] std::uint64_t next_seq(std::uint32_t src) const;
  /// Per sender, the seq below which a checkpoint taken now covers the
  /// channel (the WATERMARK each sender is told).
  [[nodiscard]] std::vector<std::pair<std::uint32_t, std::uint64_t>>
  watermarks() const;

  /// The channels as a rank checkpoint stores them; decode fills a fresh
  /// one (decode_rank_checkpoint).
  void encode(Writer& w) const;
  void decode(Reader& r);

 private:
  struct Held {
    Entry e;
    bool consumed = false;
    std::uint64_t under = 0;  ///< receiver's spec id at consume time
  };
  struct Channel {
    std::uint64_t inc = 0;  ///< newest sender incarnation applied
    std::uint64_t cut = 0;  ///< its RESTART seq: older entries from here on are void
    std::uint64_t next = 1;              ///< next seq to apply
    std::set<std::uint64_t> wanted;      ///< seqs below next to accept again
    std::map<std::uint64_t, Entry> early;  ///< arrived ahead of a gap
    std::deque<Held> held;  ///< applied payloads not durable on both sides
    /// Applied COMMITs waiting for their LANDED.
    std::deque<Entry> commits;
    bool resend_pending = false;
  };
  /// COMMIT `k` counts: what it covers is durable.
  static void make_durable(Channel& c, const Entry& k);
  [[nodiscard]] static bool needs_restart(const Channel& c, const Entry& e);
  void accept(Channel& c, Entry e, Applied& out);
  void apply(Channel& c, Entry e, Applied& out);
  [[nodiscard]] static std::set<std::uint64_t> missing(const Channel& c);

  std::map<std::uint32_t, Channel> ch_;
};

/// A rank checkpoint as an agent stores it, one blob under `rank_<r>`:
/// the rank's process image byte for byte (so content-defined chunking
/// dedups it against the previous checkpoint's), then its Outbox and
/// Inbox, then a trailer (format version, channel section size, magic).
/// One manifest publishes an image and the channels of the same pack.
std::vector<std::byte> encode_rank_checkpoint(std::vector<std::byte> image,
                                              const Outbox& out,
                                              const Inbox& in);

struct RankCheckpoint {
  std::span<const std::byte> image;  ///< a view into the decoded blob
  Outbox out;
  Inbox in;
};
/// Split a rank checkpoint. Throws ImageError naming what it is not: a
/// bare process image (an older build's checkpoint, channels stored
/// apart), another format version, or a channel section that does not
/// decode.
RankCheckpoint decode_rank_checkpoint(std::span<const std::byte> blob);

}  // namespace mojave::dnode
