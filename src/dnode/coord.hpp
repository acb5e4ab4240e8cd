// Coordinator: the control plane of the distributed node runtime.
//
// Owns the cluster-wide state no single agent can hold:
//
//  * the rank → agent placement map, broadcast to every agent so the data
//    plane routes without asking;
//  * failure detection (heartbeat timeouts + control-connection EOF) and
//    resurrection of a dead agent's ranks, finished ones included, from
//    the shared `ckpt://` store onto surviving agents — the paper's
//    "resurrected on a remote node from the last checkpoint";
//  * rank incarnations: each RESURRECT grant assigns the next one, in
//    WAL order. The speculation join itself runs agent to agent over the
//    exact channels (docs/SPECULATION.md); a PLACEMENT that marks a rank
//    not alive is all the coordinator contributes to it;
//  * the load-aware migration policy (the paper's loaded-node
//    experiment): when heartbeat loads diverge past a threshold, a rank
//    on the most-loaded agent is told to YIELD_RANK at its next
//    checkpoint and is resurrected on the least-loaded one.
//
// Durability (docs/CONTROL_PLANE.md): all of the state above lives in a
// ctrl::CoordState and is mutated ONLY through log-then-apply — the
// transition is appended to the control-plane WAL under `wal_root`,
// applied through ctrl::CoordState::apply, and only then do its
// side effects go out on the wire. A standby started with `resume = true`
// replays the log through the same apply function, acquires the lease at
// a higher epoch, seals the dead primary's segment, and re-adopts the
// still-running agents via RE_ADOPT instead of relaunching the world.
//
// `mojc cluster --nodes host:port,... run prog.mjc` drives this class;
// tests drive it against `mojc node` child processes and against
// in-process agents (gridapp::run_spmd).
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
#include <string>
#include <thread>
#include <vector>

#include "ctrl/lease.hpp"
#include "ctrl/state.hpp"
#include "ctrl/wal.hpp"
#include "dnode/wire.hpp"
#include "fir/ir.hpp"
#include "net/poller.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "support/tempdir.hpp"

namespace mojave::dnode {

struct CoordinatorConfig {
  std::vector<AgentAddr> agents;
  std::uint32_t num_ranks = 4;
  /// Agent declared dead after this long without a heartbeat. EOF on the
  /// control connection (a killed process) is detected immediately.
  double heartbeat_timeout_seconds = 2.0;
  /// 0 = load balancer off.
  double balance_interval_seconds = 0;
  /// Minimum (max_load - min_load) spread before a rank is moved.
  double balance_threshold = 1.5;
  std::uint64_t max_instructions = 0;
  double recv_timeout_seconds = 30.0;
  /// WAL + lease directory (docs/CONTROL_PLANE.md). Empty = a fresh
  /// temporary directory the coordinator removes on destruction: the run
  /// is logged the same way, but no standby can find it to take over.
  std::filesystem::path wal_root;
  /// Take over an existing run: replay the WAL under wal_root, seal the
  /// prior primary's segment, and RE_ADOPT live agents instead of
  /// launching. With an empty `agents` list the logged endpoints are
  /// reused.
  bool resume = false;
  double lease_ttl_seconds = 2.0;
  net::RetryPolicy retry = net::RetryPolicy::process_defaults();
};

/// Final state of one rank, aggregated across incarnations (restarts =
/// resurrections, failure or migration; result_kind 0 halted, 2 error).
struct RankOutcome : ctrl::RankState {
  std::uint32_t rank = 0;
};

class Coordinator {
 public:
  /// Connects to every agent and configures the session. Throws NetError
  /// when an agent is unreachable within the retry policy's budget (a
  /// resume-mode takeover instead marks unreachable agents down and
  /// resurrects their ranks elsewhere), or when the lease is held.
  explicit Coordinator(CoordinatorConfig cfg);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Start a copy of `program` on every rank, round-robin over agents
  /// (SPMD, as in Figure 2).
  void launch_spmd(const fir::Program& program);

  /// Block until every rank reports a terminal RESULT and no resurrection
  /// is pending, or `timeout_seconds` elapses. Returns true when all ranks
  /// finished.
  bool wait_all(double timeout_seconds);

  [[nodiscard]] std::vector<RankOutcome> results() const;

  /// Inject a rollback: the rank's next receive reports MSG_ROLL (tests
  /// use this to force a cross-agent poison avalanche).
  void force_rollback(std::uint32_t rank);

  /// Send SHUTDOWN to every live agent and stop the control plane; also
  /// fsync+close the WAL segment (appending kRunComplete when every rank
  /// finished) and release the lease for a clean handoff.
  void shutdown_agents();

  [[nodiscard]] std::uint32_t agent_of(std::uint32_t rank) const;
  [[nodiscard]] bool agent_alive(std::uint32_t agent) const;
  [[nodiscard]] std::uint64_t migrations() const { return migrations_.load(); }
  [[nodiscard]] std::uint64_t resurrections() const {
    return resurrections_.load();
  }
  /// Lease epoch this coordinator writes under.
  [[nodiscard]] std::uint64_t lease_epoch() const { return lease_->epoch(); }
  /// The WAL + lease directory in use (a temporary one when
  /// `CoordinatorConfig::wal_root` was empty).
  [[nodiscard]] const std::filesystem::path& wal_root() const {
    return cfg_.wal_root;
  }
  /// True once the lease was lost: this instance is a zombie and has
  /// stopped writing the WAL and commanding agents.
  [[nodiscard]] bool fenced() const { return fenced_.load(); }
  /// True when this instance took over an existing run's WAL.
  [[nodiscard]] bool resumed() const { return resumed_; }

  /// Canonical byte image of the replicated state (tests compare this
  /// against an offline WAL replay).
  [[nodiscard]] std::vector<std::byte> state_snapshot() const;

 private:
  /// One agent's control connection, owned by the event loop. All frames
  /// out of the coordinator go through a thread-safe outbox drained by
  /// the loop thread, so public methods never write a non-blocking fd
  /// from the wrong thread.
  struct AgentConn {
    net::FramedSocket sock;
    std::atomic<bool> alive{true};
    bool write_armed = false;   ///< loop thread only
    double last_heartbeat = 0;  ///< guarded by mu_
    double load = 0;            ///< guarded by mu_
  };

  /// The single control-plane thread: epoll over every agent connection
  /// (replacing one reader thread per agent) with the 20 ms monitor pass
  /// (heartbeat timeouts, resurrection retries, balancing) as a timer.
  void loop();
  void on_agent_event(std::uint32_t agent, const net::Poller::Event& ev);
  void monitor_tick(double now);
  void drain_outbox();
  void flush_io();
  void final_flush();  ///< push SHUTDOWN frames out before the loop exits

  void handle_frame(std::uint32_t agent, const Msg& m);
  void handle_rank_yielded(std::uint32_t rank);
  void handle_rank_up(const Msg& m);
  void handle_re_adopt_ack_locked(std::uint32_t agent, const Msg& m);
  /// End of the takeover census (all acks in or deadline hit): ranks no
  /// agent claimed are treated as lost — marked not alive and resurrected.
  void finish_readopt_locked();

  /// Log-then-apply: append the transition to the WAL (unless fenced)
  /// and apply it to the state machine. The single mutation path for all
  /// replicated state. Requires mu_.
  void apply_locked(ctrl::WalRecord rec);

  /// Mark the agent dead, broadcast its ranks as not alive, and schedule
  /// their resurrection on surviving agents. Requires mu_.
  void agent_down_locked(std::uint32_t agent);
  void broadcast_placement_locked();
  /// Thread-safe: enqueue a frame for the loop thread to transmit.
  void send_to_agent(std::uint32_t agent, std::vector<std::byte> frame);
  /// Log a kResurrectGrant for rank → target and send the RESURRECT.
  void issue_resurrect_locked(std::uint32_t rank, std::uint32_t target);
  /// Least-loaded live agent (excluding `except`; kNoAgent = none).
  [[nodiscard]] std::uint32_t pick_target_locked(std::uint32_t except) const;
  void balance_locked(double now);

  static constexpr std::uint32_t kNoAgent = ~std::uint32_t{0};

  CoordinatorConfig cfg_;
  /// Owns cfg_.wal_root when the caller named none; declared before the
  /// lease and WAL so it is removed after they close.
  std::optional<TempDir> temp_wal_root_;
  std::vector<std::unique_ptr<AgentConn>> conns_;
  net::Poller poller_;
  std::thread loop_thread_;
  std::mutex outbox_mu_;
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> outbox_;
  std::atomic<bool> stopping_{false};
  std::atomic<bool> fenced_{false};
  std::atomic<std::uint64_t> migrations_{0};
  std::atomic<std::uint64_t> resurrections_{0};
  bool resumed_ = false;

  mutable std::mutex mu_;
  std::condition_variable done_cv_;
  /// The replicated state machine: placement, incarnations, outcomes.
  /// Mutated only via apply_locked.
  ctrl::CoordState state_;
  std::unique_ptr<ctrl::WalWriter> wal_;
  std::unique_ptr<ctrl::Lease> lease_;
  double next_lease_renew_ = 0;  ///< loop thread cadence (steady clock)
  double next_wal_flush_ = 0;

  // --- Takeover reconciliation (resume mode) ----------------------------
  bool resuming_ = false;          ///< census still in progress
  std::uint32_t readopt_waiting_ = 0;
  double readopt_deadline_ = 0;
  std::set<std::uint32_t> censused_;  ///< ranks some agent accounted for

  /// Ranks awaiting a (re)try of RESURRECT. `target` pins the agent a
  /// request was issued to, so a retry cannot start a second incarnation
  /// somewhere else while the first is still restoring. Volatile by
  /// design: a takeover regenerates it from the census.
  struct PendingResurrect {
    double not_before = 0;
    std::uint32_t target = kNoAgent;
  };
  std::map<std::uint32_t, PendingResurrect> pending_resurrect_;
  /// Ranks with a YIELD_RANK in flight (suppresses repeat balancing).
  std::set<std::uint32_t> migrating_;
  double last_balance_ = 0;
};

}  // namespace mojave::dnode
