// WireChaosProxy: a TCP fault injector for loopback tests.
//
// Sits between two peers (a migration client and a MigrationServer, or
// two dnode agents) and injects the faults a real WAN produces but
// loopback never does: added latency, fragmented writes, connections cut
// mid-frame, a narrow link, reordered frames, swallowed frames, and lost
// acknowledgements (the connection dies *after* the server committed).
// All randomness comes from a seeded PRNG; the deterministic
// `drop_reply_frames` set pins exact lost-ACK scenarios for the
// idempotent-handshake tests.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.hpp"
#include "support/rng.hpp"

namespace mojave::net {

/// Fault profile for WireChaosProxy. All faults compose.
struct WireFaults {
  /// Seeds the PRNG behind `drop_frame`: one seed, one drop schedule.
  std::uint64_t seed = 1;
  /// Added latency per forwarded read batch (both directions).
  double delay_seconds = 0;
  /// Forward in writes of at most this many bytes (0 = as read). Exposes
  /// every short-read bug: frame headers and payloads arrive in pieces.
  std::size_t split_bytes = 0;
  /// Cut the Nth accepted connection (1-based, 0 = never) after it has
  /// forwarded `reset_after_bytes` — deliberately mid-frame, modelling a
  /// peer dying with a partial frame on the wire.
  std::uint64_t reset_conn = 0;
  std::uint64_t reset_after_bytes = 256;
  /// Cap forwarded throughput, bytes/second per direction (0 = off): the
  /// narrow-WAN profile. A sender that outruns the cap sees backpressure
  /// as a stalled socket — exactly what the coalescing write path and
  /// partial-writev handling must survive.
  double bandwidth_bytes_per_sec = 0;
  /// Hold every Nth complete frame and emit it after its successor, or
  /// alone once 5 ms pass without one (0 = off): deterministic frame
  /// reordering, the multipath-WAN profile. Requires the u32-length-prefix wire protocol on the link;
  /// tolerated by the dnode runtime because mailboxes key on (src, tag).
  std::uint64_t reorder_every_n = 0;
  /// Swallow each complete frame, in either direction, with this
  /// probability and cut its connection: a lost request or a lost reply.
  double drop_frame = 0;
  /// Deterministic lost ACKs: the Nth frame the upstream peer sends back
  /// (1-based, counted across connections) is swallowed and its
  /// connection cut.
  std::set<std::uint64_t> drop_reply_frames;
};

struct WireStats {
  std::uint64_t connections = 0;
  std::uint64_t bytes_forwarded = 0;
  std::uint64_t split_writes = 0;
  std::uint64_t resets = 0;
  std::uint64_t frames_reordered = 0;
  std::uint64_t frames_dropped = 0;
  std::uint64_t throttle_waits = 0;
};

/// A transparent TCP relay for full-duplex protocols (the dnode agent
/// wire, where both peers push frames at will) and request/response ones
/// (the migration handshake). Latency, fragmented writes, mid-frame
/// resets and the bandwidth cap act on the byte stream. Reordering and
/// frame drops parse it into the u32(LE)-length-prefixed frames of
/// TcpStream and FramedSocket. The runtime on either side must tolerate
/// all of them; redial + rollback-retry + replay make dropped bytes
/// recoverable, and the migration handshake's dedup window makes a retry
/// after a lost ACK safe.
class WireChaosProxy {
 public:
  WireChaosProxy(std::string upstream_host, std::uint16_t upstream_port,
                 WireFaults faults);
  ~WireChaosProxy();

  WireChaosProxy(const WireChaosProxy&) = delete;
  WireChaosProxy& operator=(const WireChaosProxy&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] WireStats stats() const;

  void stop();

 private:
  struct Pipe;

  void accept_loop();
  void pump(const std::shared_ptr<Pipe>& pipe, bool to_upstream,
            std::uint64_t conn_id);
  /// Decide whether a complete frame travelling in this direction is
  /// swallowed (random or condemned); counts it when it is.
  [[nodiscard]] bool condemn_frame(bool to_upstream);

  std::string upstream_host_;
  std::uint16_t upstream_port_;
  WireFaults faults_;
  TcpListener listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::vector<std::shared_ptr<Pipe>> pipes_;  // guarded by mu_
  mutable std::mutex mu_;
  WireStats stats_;                 // guarded by mu_
  bool reset_done_ = false;         // guarded by mu_
  Rng rng_;                         // guarded by mu_
  std::uint64_t replies_seen_ = 0;  // guarded by mu_
  std::atomic<bool> stopping_{false};
};

}  // namespace mojave::net
