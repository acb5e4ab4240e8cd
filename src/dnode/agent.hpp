// NodeAgent: one OS process's worth of the distributed cluster.
//
// The paper's test bed runs an MCC daemon on every machine; the node agent
// is that daemon grown into a full rank host. It listens on a real TCP
// port (`mojc node --bind ADDR --port P --storage ROOT`), accepts one
// control connection from the coordinator and data connections from peer
// agents, and hosts managed processes (ranks).
//
// Execution model (see docs/SCALING.md): one event-loop thread owns every
// socket through a net::Poller and runs every rank as a userspace fiber
// under a RankScheduler. Because the interpreter is CPS, a rank suspends
// with nothing but (function, pc, registers) saved inside its own
// Interpreter — so a parked rank costs a map entry, not a kernel thread,
// and one agent hosts hundreds of ranks where the thread-per-rank design
// topped out at dozens. Ranks advance in bounded instruction slices;
// blocking externals (an empty mailbox, the send throttle, sleep_ms)
// call Interpreter::block() and the fiber parks on a wait key until a frame,
// a poison, or a deadline wakes it.
//
//  * msg_send / msg_recv between ranks route through per-rank mailboxes —
//    locally when both ranks live here, over a framed + checksummed TCP
//    link to the peer's agent otherwise. Outbound links dial without
//    blocking the loop; small DATA frames coalesce per (peer, tick) into
//    one writev, large payloads go out zero-copy.
//  * Every (src rank, dst rank) pair is an exact channel (channel.hpp):
//    numbered entries, applied in order, logged by the sender until the
//    receiver checkpoints past them. A receiver that misses entries (a
//    sequence gap, a re-dialled link, its own restore, a new sender
//    incarnation) asks once to "resend from n" — the paper's Figure 2
//    "re-request border information" arrow.
//  * Ranks checkpoint into the content-addressed chunk store under
//    --storage ROOT (shared across agents, the role NFS played in the
//    paper); RESURRECT restores any rank from that store, which is how
//    both failure recovery and load-aware migration move ranks here. A
//    rank checkpoint is one blob, its image followed by its channels
//    (channel.hpp), published under one manifest `rank_<r>`. A rank stops
//    only for the pack: the blob goes to the store's checkpoint writer
//    thread (ckpt/writer.hpp), whose ack wakes the loop once it is
//    published.
//  * The speculation join runs agent to agent over the channels: a
//    rollback or a commit to zero travels behind the payloads it covers,
//    and a receiver that consumed a reverted payload reports MSG_ROLL at
//    its next receive. The coordinator is not on this path.
//
// A deliberately `throttle_ms`-slowed agent both runs slower (a pacing
// gate between sends) and reports an inflated load in its heartbeats —
// the knob the load-aware migration experiment (and the paper's
// loaded-node evaluation) turns.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/store.hpp"
#include "dnode/channel.hpp"
#include "dnode/sched.hpp"
#include "dnode/wire.hpp"
#include "net/poller.hpp"
#include "net/tcp.hpp"
#include "support/stopwatch.hpp"
#include "vm/process.hpp"

namespace mojave::dnode {

struct AgentConfig {
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = pick a free port
  /// Checkpoint store root. Must be shared (same filesystem) across every
  /// agent in the cluster for resurrection and migration to work — the
  /// paper used NFS; tests use one local directory.
  std::filesystem::path storage_root;
  /// Deliberate slowdown per send (ms) + load inflation in heartbeats.
  double throttle_ms = 0;
  double heartbeat_seconds = 0.05;
  /// Instructions a rank may run per scheduler slice before it is
  /// preempted back to the event loop.
  std::uint64_t slice_instructions = 20000;
  runtime::HeapConfig heap;
  ckpt::CheckpointStore::Options ckpt;
};

class NodeAgent {
 public:
  explicit NodeAgent(AgentConfig cfg);
  ~NodeAgent();

  NodeAgent(const NodeAgent&) = delete;
  NodeAgent& operator=(const NodeAgent&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }

  /// Block until the coordinator sends SHUTDOWN (or drops the control
  /// connection) — the `mojc node` main loop.
  void wait();

  /// Stop everything: the event loop, all fibers, all sockets. This is
  /// the in-process kill: checkpoints still queued for the writer are
  /// discarded, the one being written finishes, and once stop() returns
  /// no checkpoint of this agent lands.
  void stop();

  /// Wait until every checkpoint this agent handed to the writer is
  /// published or failed (wait() does this before it stops).
  void drain_checkpoints();

  /// Ranks currently hosted and running here (tests/monitoring).
  [[nodiscard]] std::vector<std::uint32_t> hosted_ranks() const;

 private:
  struct Conn;       // one accepted connection (framed, non-blocking)
  struct Link;       // one outbound data-plane link to a peer agent
  struct RankSlot;   // one hosted rank: process + fiber + gates + logs
  class RankHook;    // a rank's migration hook: checkpoint, yield
  /// A checkpoint the writer finished: posted by its thread, handled on
  /// the loop (handle_acks).
  struct CkptAck {
    std::uint32_t rank = 0;
    std::uint64_t slot_id = 0;
    bool ok = false;
    std::string error;
    /// The rank's inbox watermarks when the checkpoint was taken.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> marks;
    /// The COMMITs the checkpoint covers.
    Outbox::Commits commits;
  };
  struct Placement {
    std::uint32_t agent = 0;
    bool alive = true;
    std::uint64_t incarnation = 0;  ///< for diagnostics
  };

  // --- Event loop (all private state below is loop-thread-owned unless
  // noted; mu_ guards the slices tests read from other threads). ---------
  void loop();
  void on_listener_ready();
  void on_conn_event(std::uint64_t token, const net::Poller::Event& ev);
  void on_link_event(std::uint32_t agent, const net::Poller::Event& ev);
  void flush_io();  ///< end-of-tick: flush every dirty socket, re-arm

  [[nodiscard]] double now_seconds() const { return clock_.seconds(); }

  void handle_frame(const Msg& m, std::span<const std::byte> raw,
                    const std::shared_ptr<Conn>& conn);
  void handle_placement(const Msg& m);
  /// The agent to pass a frame for `rank` on to: set when the rank does
  /// not run here and the placement puts it on another agent (the sender
  /// routed on a stale placement).
  std::optional<std::uint32_t> route(std::uint32_t rank);
  /// Send `raw` on to route(rank). True when forwarded.
  bool forward(std::uint32_t rank, std::span<const std::byte> raw);
  void drop_conn(std::uint64_t token);
  void fail_link(std::uint32_t agent);
  /// A link to or from `agent` died or was re-dialled: every rank here
  /// asks each live rank there once for what it may have lost, all in one
  /// RESEND frame.
  void resend_from_agent(std::uint32_t agent);
  void request_shutdown();

  // --- Ranks as fibers --------------------------------------------------
  void launch_rank(std::uint32_t rank, std::vector<std::byte> image);
  void resurrect_rank(std::uint32_t rank, std::uint64_t incarnation);
  void adopt_slot(std::uint32_t rank, std::unique_ptr<RankSlot> slot);
  RankScheduler::Step step_rank(RankSlot& slot);
  void finish_rank(RankSlot& slot, int result_kind, std::int64_t exit_code,
                   const std::string& error);
  /// Give the slot's process its Migrator and RankHook.
  void attach_hooks(RankSlot& slot);
  /// An existing slot is about to be replaced: its checkpoint in flight
  /// lands (or fails) first, so the new one restores from it.
  void retire_slot(RankSlot& slot);
  void register_externals(vm::Process& proc, RankSlot& slot);
  RankSlot* find_slot(std::uint32_t rank);

  // --- Channels (channel.hpp) ------------------------------------------
  /// Transmit the entries an Outbox call returned; what cannot go now
  /// (receiver not alive, no link) is deferred until it comes back.
  void transmit(RankSlot& slot, const Outbox::Sent& sent);
  /// Hand one entry to `agent` (this one: straight into the inbox).
  /// False when no link could be dialled.
  bool deliver(std::uint32_t agent, std::uint32_t src, std::uint32_t dst,
               const Entry& e);
  /// Apply one entry to rank `dst`'s inbox: wake receivers, poison, ask
  /// for a resend on a gap.
  void receive_entry(std::uint32_t src, std::uint32_t dst, Entry e);
  /// Rank `dst` asks rank `src` once to resend their channel from where
  /// `dst`'s inbox stands.
  void request_resend(std::uint32_t src, std::uint32_t dst) {
    request_resends({{src, dst}});
  }
  /// request_resend for each (src, dst) pair, one RESEND frame per agent
  /// the live senders run on.
  void request_resends(
      const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs);
  void handle_resend(std::uint32_t src, std::uint32_t dst, std::uint64_t seq,
                     std::uint32_t reply_agent);
  /// Make rank's next msg_recv report MSG_ROLL (one poison per event).
  void poison(std::uint32_t rank);
  /// Hand the rank's packed image to the writer as one rank checkpoint
  /// with its channels (encode_rank_checkpoint), keeping the inbox marks
  /// as of the pack for the ack. The rank continues at once.
  void submit_checkpoint(RankSlot& slot, const std::string& snapshot,
                         std::vector<std::byte> image);
  /// Writer thread: queue an ack and wake the loop.
  void post_ack(CkptAck ack);
  /// Loop thread: apply the acks the writer posted.
  void handle_acks();
  /// Yield path: wait for the rank's checkpoint in flight. True when it
  /// landed.
  bool await_checkpoint(RankSlot& slot);
  /// The checkpoint taken with inbox watermarks `marks` is published:
  /// tell the senders how far the rank's checkpoint before it covers
  /// (WATERMARK).
  void checkpoint_landed(
      RankSlot& slot,
      std::vector<std::pair<std::uint32_t, std::uint64_t>> marks);
  /// Placement marked `rank` not alive: void its non-durable entries at
  /// every receiver here and poison the ones that joined or wait on it.
  void rank_lost(std::uint32_t rank);
  bool send_to_agent(std::uint32_t agent, std::vector<std::byte> frame);
  void send_to_coordinator(std::vector<std::byte> frame);

  AgentConfig cfg_;
  net::TcpListener listener_;
  std::shared_ptr<ckpt::CheckpointStore> store_;
  Stopwatch clock_;  ///< the time base for every gate/deadline

  net::Poller poller_;
  RankScheduler sched_{&poller_};
  std::thread loop_thread_;

  std::map<std::uint64_t, std::shared_ptr<Conn>> conns_;  // token → conn
  std::uint64_t next_conn_id_ = 0;
  std::shared_ptr<Conn> coordinator_;
  /// Highest coordinator lease epoch adopted. A HELLO from a lower epoch
  /// is a fenced zombie primary and is rejected.
  std::uint64_t coord_epoch_ = 0;
  /// When the control connection died (-1 = connected). The agent keeps
  /// running for a grace period awaiting a takeover.
  double coord_lost_at_ = -1;
  /// Coordinator-bound frames buffered while disconnected, flushed to the
  /// adopting coordinator (bounded; oldest dropped first).
  std::deque<std::vector<std::byte>> coord_backlog_;
  std::map<std::uint32_t, std::unique_ptr<Link>> links_;  // agent → link
  /// Peer agents that have dialled in: a second HELLO means a re-dial.
  std::set<std::uint32_t> dialled_in_;
  /// Agent links that died or were re-dialled so far.
  std::uint64_t links_lost_ = 0;
  double next_heartbeat_ = 0;

  // Session state installed by CONFIG/PLACEMENT. mu_ lets tests read the
  // rank set while the loop mutates it.
  mutable std::mutex mu_;
  std::uint32_t my_agent_ = 0;
  std::uint32_t num_ranks_ = 0;
  std::uint64_t max_instructions_ = 0;
  double recv_timeout_seconds_ = 30.0;  ///< msg_recv safety net
  std::vector<AgentAddr> agents_;
  std::vector<Placement> placement_;
  std::map<std::uint32_t, std::unique_ptr<RankSlot>> slots_;
  std::uint64_t next_slot_id_ = 1;  ///< loop thread

  /// Each rank's receiving half, keyed by the rank rather than the slot
  /// so entries that arrive before LAUNCH/RESURRECT are not lost.
  std::map<std::uint32_t, Inbox> mail_;

  /// Acks from the writer thread, drained by the loop.
  std::mutex ack_mu_;
  std::vector<CkptAck> acks_;

  std::atomic<bool> stopping_{false};
  std::mutex wait_mu_;
  std::condition_variable wait_cv_;
  bool shutdown_requested_ = false;
};

}  // namespace mojave::dnode
