#include "dnode/agent.hpp"

#include <algorithm>
#include <sstream>

#include "fir/serialize.hpp"
#include "migrate/image.hpp"
#include "migrate/migrator.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/value_codec.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"

namespace mojave::dnode {

using runtime::Value;

namespace {

/// Thrown out of a network external when the agent is shutting down; it
/// unwinds the interpreter and retires the rank fiber.
struct AgentStopping {};

/// Poller token namespaces: the listener, accepted connections, outbound
/// peer links. The high 32 bits pick the namespace so ids never collide.
constexpr std::uint64_t kTokListener = 1;
constexpr std::uint64_t kTokConnBase = 1ull << 32;
constexpr std::uint64_t kTokLinkBase = 2ull << 32;

/// Stop queueing heartbeats once this many bytes sit unflushed on the
/// coordinator connection (peer not draining); stale beats are useless.
constexpr std::size_t kMaxStaleHeartbeatBytes = 64 * 1024;

/// How long the agent keeps its ranks running after losing the
/// coordinator connection, waiting for a standby to take over
/// (docs/CONTROL_PLANE.md).
constexpr double kCoordinatorGraceSeconds = 10.0;

struct AgentMetrics {
  obs::Counter& launches;
  obs::Counter& resurrections;
  obs::Counter& yields;
  obs::Counter& data_in;
  obs::Counter& data_out;
  obs::Counter& forwards;
  obs::Counter& replay_requests;
  obs::Counter& replays_served;
  obs::Counter& poisons;
  obs::Counter& dep_records;
  obs::Counter& corrupt_frames;
  obs::Counter& heartbeats;
  obs::Counter& link_failures;

  static AgentMetrics& get() {
    auto& r = obs::MetricsRegistry::instance();
    static AgentMetrics m{
        r.counter("node.launches"),       r.counter("node.resurrections"),
        r.counter("node.yields"),         r.counter("node.data_frames_in"),
        r.counter("node.data_frames_out"), r.counter("node.data_forwards"),
        r.counter("dspec.replay_requests"), r.counter("dspec.replays_served"),
        r.counter("dspec.poisons_received"), r.counter("dspec.dep_records"),
        r.counter("node.corrupt_frames"), r.counter("node.heartbeats"),
        r.counter("node.link_failures"),
    };
    return m;
  }
};

/// Wraps the per-rank Migrator so the coordinator can turn the rank's
/// *next successful checkpoint* into a yield: the process exits here with
/// kMigratedAway and is resurrected from that checkpoint on the target
/// agent. Checkpoints happen at commit points (Figure 2's loop), so a
/// yield never strands an active speculation.
class YieldHook final : public vm::MigrationHook {
 public:
  YieldHook(vm::Process& proc, migrate::Migrator& inner,
            std::atomic<bool>& yield_requested)
      : proc_(proc), inner_(inner), yield_(yield_requested) {
    proc_.vm().set_migration_hook(this);
  }
  ~YieldHook() override { proc_.vm().set_migration_hook(&inner_); }

  Action on_migrate(vm::Interpreter& vm, MigrateLabel label,
                    const std::string& target, FunIndex resume_fun,
                    std::span<const Value> resume_args) override {
    const Action a = inner_.on_migrate(vm, label, target, resume_fun,
                                       resume_args);
    if (a == Action::kExit) return a;
    if (yield_.load() && !inner_.events().empty() &&
        inner_.events().back().success) {
      yielded_ = true;
      return Action::kExit;
    }
    return a;
  }

  [[nodiscard]] bool yielded() const { return yielded_; }

 private:
  vm::Process& proc_;
  migrate::Migrator& inner_;
  std::atomic<bool>& yield_;
  bool yielded_ = false;
};

}  // namespace

struct NodeAgent::Conn {
  explicit Conn(net::TcpStream s) : sock(std::move(s)) {}
  net::FramedSocket sock;
  std::uint64_t token = 0;
  PeerKind kind = PeerKind::kAgent;
  bool write_armed = false;
};

struct NodeAgent::Link {
  net::FramedSocket sock;
  enum class State { kConnecting, kReady } state = State::kConnecting;
  bool write_armed = true;  ///< EPOLLOUT stays armed while connecting
};

struct NodeAgent::RankSlot {
  std::uint32_t rank = 0;
  std::ostringstream output;
  // Destruction order matters (reverse of declaration): the yield hook
  // restores the migrator as the vm's hook, the migrator detaches itself,
  // then the process goes.
  std::unique_ptr<vm::Process> process;
  std::unique_ptr<migrate::Migrator> migrator;
  std::unique_ptr<YieldHook> yield_hook;

  /// The distributed poison flag: set by POISON/FORCE_ROLL frames, drained
  /// by msg_recv as MSG_ROLL (the agent-side half of consume_poison()).
  std::atomic<bool> poisoned{false};
  std::atomic<bool> yield_requested{false};
  std::atomic<bool> done{false};
  /// Rollback epoch: bumped on every rollback and stamped into outgoing
  /// DATA, so the coordinator can fence dependency records that raced a
  /// ROLL_POISON (see docs/SPECULATION.md).
  std::atomic<std::uint64_t> epoch{0};
  /// Commit count, also stamped into outgoing DATA. Replay logs and the
  /// receiver-side delivered cache keep a payload long after its
  /// speculation was discharged; without this stamp the epoch fence would
  /// poison every late re-consume of committed data — and a resurrected
  /// rank re-reading its border messages would be poisoned, roll back,
  /// re-read the same cached payload, and livelock. Seeded from the
  /// coordinator's RESURRECT so incarnations agree on the count.
  std::atomic<std::uint64_t> commit_seq{0};
  /// Level-1 rollbacks of this incarnation, stamped into outgoing DATA
  /// (DataHeader::outer_rollbacks) so receivers can tell reverted data
  /// from data a nested rollback left standing. Loop thread only.
  std::uint64_t outer_rollbacks = 0;
  std::atomic<bool> has_reported{false};
  std::atomic<double> reported{0};

  // --- Fiber pacing gates (loop thread only). Every gate is checked
  // BEFORE the external's side effects, so re-executing the instruction
  // after a WouldBlock park is idempotent — the same contract that makes
  // native-tier deoptimization safe. ------------------------------------
  double next_send_at = 0;   ///< throttle + failed-send backoff
  double sleep_until = -1;   ///< armed sleep_ms gate; -1 = none
  bool roll_pace_armed = false;  ///< pacing a peer-down MSG_ROLL report
  double roll_pace_until = 0;
  struct RecvWait {
    bool active = false;
    std::uint64_t key = 0;
    double start = 0;        ///< first wait on this key (timeout base)
    double next_replay = 0;  ///< when to re-request from the replay log
  } recv;
  /// Set by an external just before it throws WouldBlock; the fiber parks
  /// on this key.
  std::uint64_t pending_wait_key = 0;

  /// Per sender, the newest speculative payload this rank consumed and
  /// its own level then: the receiver half of a DEP_RECORD. Once a later
  /// delivery from that sender proves the payload reverted, a POISON is
  /// on its way through the coordinator, while the sender's later data
  /// comes straight here and can overtake it. Receives wait for that
  /// POISON rather than consume on top of an aborted speculation.
  /// A rollback voids the entries at its level and deeper.
  struct Joined {
    SendStamp stamp;
    std::uint32_t level = 0;
  };
  std::map<std::uint32_t, Joined> joined;
  bool doom_armed = false;  ///< waiting for the POISON of a reverted join
  double doom_until = 0;

  /// Lazy cancellation (TimeWarp): hash of the last payload per (dst,
  /// tag); a byte-identical re-send after a rollback goes out at level 0.
  std::map<std::pair<std::uint32_t, std::int32_t>, std::uint64_t> sent_hashes;
  /// Sender-side replay log answering REPLAY_REQ: a receiver resurrected
  /// on another agent re-requests border messages already sent (the
  /// paper's Figure 2 "re-request border information" arrow).
  std::map<std::pair<std::uint32_t, std::int32_t>, std::vector<std::byte>>
      sent_log;

  // --- HA takeover bookkeeping (loop thread only) -----------------------
  /// True once this slot yielded (checkpointed and parked): reported as
  /// state 2 in the RE_ADOPT census so a takeover coordinator re-grants
  /// the resurrect instead of waiting forever for a RESULT.
  bool yielded = false;
  /// The encoded RESULT frame, kept after completion: a RESULT that raced
  /// the primary coordinator's death is re-sent to the standby at
  /// RE_ADOPT (its duplicate guard absorbs the common already-seen case).
  std::vector<std::byte> last_result;
};

namespace {

/// Store name for a rank's persisted sender replay log. The in-memory
/// log dies with the agent, but a message that was in flight (or in the
/// coalescing queue) when the agent was killed is gone with it too — and
/// the sender's next incarnation resumes from its checkpoint, past the
/// point where it would regenerate pre-checkpoint sends. A receiver still
/// waiting on one of those messages would deadlock the cluster. So the
/// log is persisted into the shared checkpoint store at every commit
/// (the instant before the checkpoint itself) and restored at
/// resurrection, making pre-checkpoint border sends replayable across
/// incarnations.
std::string send_log_snapshot(std::uint32_t rank) {
  return "rank_" + std::to_string(rank) + "_sendlog";
}

std::vector<std::byte> encode_send_log(
    const std::map<std::pair<std::uint32_t, std::int32_t>,
                   std::vector<std::byte>>& sent_log,
    const std::map<std::pair<std::uint32_t, std::int32_t>, std::uint64_t>&
        sent_hashes) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(sent_log.size()));
  for (const auto& [key, payload] : sent_log) {
    w.u32(key.first);
    w.i32(key.second);
    w.u32(static_cast<std::uint32_t>(payload.size()));
    w.bytes(payload);
  }
  w.u32(static_cast<std::uint32_t>(sent_hashes.size()));
  for (const auto& [key, hash] : sent_hashes) {
    w.u32(key.first);
    w.i32(key.second);
    w.u64(hash);
  }
  return w.take();
}

void decode_send_log(
    std::span<const std::byte> blob,
    std::map<std::pair<std::uint32_t, std::int32_t>, std::vector<std::byte>>&
        sent_log,
    std::map<std::pair<std::uint32_t, std::int32_t>, std::uint64_t>&
        sent_hashes) {
  Reader r(blob);
  const std::uint32_t n = r.u32();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t dst = r.u32();
    const std::int32_t tag = r.i32();
    const std::uint32_t len = r.u32();
    const auto span = r.bytes(len);
    sent_log[{dst, tag}] = {span.begin(), span.end()};
  }
  const std::uint32_t m = r.u32();
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint32_t dst = r.u32();
    const std::int32_t tag = r.i32();
    sent_hashes[{dst, tag}] = r.u64();
  }
}

}  // namespace

NodeAgent::NodeAgent(AgentConfig cfg)
    : cfg_(std::move(cfg)),
      listener_(cfg_.bind, cfg_.port),
      retry_(net::RetryPolicy::process_defaults()),
      store_(ckpt::CheckpointStore::open_shared(cfg_.storage_root,
                                                cfg_.ckpt)) {
  listener_.set_nonblocking();
  poller_.add(listener_.fd(), kTokListener, true, false);
  loop_thread_ = std::thread([this] { loop(); });
}

NodeAgent::~NodeAgent() { stop(); }

void NodeAgent::wait() {
  {
    std::unique_lock<std::mutex> lock(wait_mu_);
    wait_cv_.wait(lock, [this] { return shutdown_requested_; });
  }
  stop();
}

void NodeAgent::stop() {
  if (stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    shutdown_requested_ = true;
    wait_cv_.notify_all();
  }
  poller_.wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  listener_.shutdown();
  // Loop thread is gone; tear down its sockets on this thread.
  conns_.clear();
  coordinator_.reset();
  links_.clear();
}

void NodeAgent::request_shutdown() {
  std::lock_guard<std::mutex> lock(wait_mu_);
  shutdown_requested_ = true;
  wait_cv_.notify_all();
}

std::vector<std::uint32_t> NodeAgent::hosted_ranks() const {
  std::vector<std::uint32_t> out;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [rank, slot] : slots_) {
    if (!slot->done.load()) out.push_back(rank);
  }
  return out;
}

// --- Event loop ------------------------------------------------------------

void NodeAgent::loop() {
  /// Fiber slices per tick, bounding how long the network can go
  /// unserviced while ranks compute.
  constexpr int kSlicesPerTick = 256;
  std::vector<net::Poller::Event> events;
  next_heartbeat_ = now_seconds() + cfg_.heartbeat_seconds;
  while (!stopping_.load()) {
    int timeout_ms = 50;
    if (sched_.has_runnable()) {
      timeout_ms = 0;
    } else {
      const double now = now_seconds();
      double next = next_heartbeat_;
      const double dl = sched_.next_deadline();
      if (dl > 0 && dl < next) next = dl;
      const double delta_ms = (next - now) * 1000.0;
      if (delta_ms <= 0) {
        timeout_ms = 0;
      } else if (delta_ms < 50) {
        timeout_ms = static_cast<int>(delta_ms) + 1;
      }
    }
    poller_.wait(events, timeout_ms);
    if (stopping_.load()) break;
    for (const net::Poller::Event& ev : events) {
      if (ev.token == kTokListener) {
        on_listener_ready();
      } else if (ev.token >= kTokLinkBase) {
        on_link_event(static_cast<std::uint32_t>(ev.token - kTokLinkBase), ev);
      } else {
        on_conn_event(ev.token, ev);
      }
      if (stopping_.load()) return;
    }
    const double now = now_seconds();
    if (coord_lost_at_ >= 0 && !coordinator_ &&
        now - coord_lost_at_ >= kCoordinatorGraceSeconds) {
      MOJAVE_LOG(kInfo, "dnode")
          << "no coordinator takeover within grace period; shutting down";
      coord_lost_at_ = -1;
      request_shutdown();
    }
    if (now >= next_heartbeat_) {
      next_heartbeat_ = now + cfg_.heartbeat_seconds;
      if (coordinator_) {
        std::uint32_t live = 0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          for (const auto& [rank, slot] : slots_) {
            if (!slot->done.load()) ++live;
          }
        }
        // Load model: ranks hosted, inflated by the deliberate throttle —
        // a slowed agent looks (and is) more expensive per rank, which is
        // what the coordinator's balancer keys off.
        const double load =
            static_cast<double>(live) * (1.0 + cfg_.throttle_ms);
        // Skip the beat if the coordinator has stopped draining us: a
        // heartbeat is only useful fresh, and queueing them behind a
        // full pipe grows the outbox without bound.
        if (coordinator_->sock.pending_bytes() < kMaxStaleHeartbeatBytes) {
          AgentMetrics::get().heartbeats.inc();
          send_to_coordinator(encode_heartbeat(my_agent_, load, live));
        }
      }
    }
    sched_.run_some(kSlicesPerTick, now);
    flush_io();
  }
}

void NodeAgent::on_listener_ready() {
  while (auto stream = listener_.try_accept()) {
    auto conn = std::make_shared<Conn>(std::move(*stream));
    conn->token = kTokConnBase | next_conn_id_++;
    poller_.add(conn->sock.fd(), conn->token, true, false);
    conns_[conn->token] = std::move(conn);
  }
}

void NodeAgent::on_conn_event(std::uint64_t token,
                              const net::Poller::Event& ev) {
  auto it = conns_.find(token);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = it->second;
  bool dead = ev.error;
  if (ev.readable || ev.hup) {
    std::vector<std::vector<std::byte>> frames;
    if (!conn->sock.on_readable(frames)) dead = true;
    for (const auto& frame : frames) {
      auto m = decode(frame);
      if (!m.has_value()) {
        AgentMetrics::get().corrupt_frames.inc();
        continue;
      }
      handle_frame(*m, conn);
    }
  }
  if (!dead && ev.writable) {
    if (!conn->sock.flush()) dead = true;
  }
  if (dead) drop_conn(token);
}

void NodeAgent::drop_conn(std::uint64_t token) {
  auto it = conns_.find(token);
  if (it == conns_.end()) return;
  std::shared_ptr<Conn> conn = it->second;
  poller_.remove(conn->sock.fd());
  conns_.erase(it);
  if (conn == coordinator_) {
    coordinator_.reset();
    if (!stopping_.load()) {
      // Keep the ranks running and wait for a standby coordinator to
      // acquire the lease and re-adopt us.
      coord_lost_at_ = now_seconds();
      MOJAVE_LOG(kWarn, "dnode")
          << "coordinator connection lost; holding ranks "
          << kCoordinatorGraceSeconds << "s for a takeover";
    }
  }
}

void NodeAgent::on_link_event(std::uint32_t agent,
                              const net::Poller::Event& ev) {
  auto it = links_.find(agent);
  if (it == links_.end()) return;
  Link& link = *it->second;
  if (ev.error) {
    fail_link(agent);
    return;
  }
  if (ev.writable && link.state == Link::State::kConnecting) {
    try {
      if (link.sock.stream().connect_finished()) {
        link.state = Link::State::kReady;
      }
    } catch (const std::exception& e) {
      MOJAVE_LOG(kDebug, "dnode")
          << "link to agent " << agent << " failed: " << e.what();
      fail_link(agent);
      return;
    }
  }
  if (ev.readable || ev.hup) {
    // Peers answer on their own outbound links, so inbound bytes here are
    // only ever an EOF/reset to notice.
    std::vector<std::vector<std::byte>> frames;
    if (!link.sock.on_readable(frames)) {
      fail_link(agent);
      return;
    }
    if (ev.hup && !link.sock.want_write()) fail_link(agent);
  }
}

void NodeAgent::fail_link(std::uint32_t agent) {
  auto it = links_.find(agent);
  if (it == links_.end()) return;
  // Queued frames die with the link = dropped messages; the rollback-
  // retry loop and the replay log recover, exactly as for a mid-flight
  // TCP reset.
  AgentMetrics::get().link_failures.inc();
  poller_.remove(it->second->sock.fd());
  links_.erase(it);
}

void NodeAgent::flush_io() {
  std::vector<std::uint64_t> dead_conns;
  for (auto& [token, conn] : conns_) {
    bool ok = true;
    if (conn->sock.want_write()) ok = conn->sock.flush();
    if (!ok) {
      dead_conns.push_back(token);
      continue;
    }
    const bool want = conn->sock.want_write();
    if (want != conn->write_armed) {
      poller_.modify(conn->sock.fd(), token, true, want);
      conn->write_armed = want;
    }
  }
  for (std::uint64_t token : dead_conns) drop_conn(token);

  std::vector<std::uint32_t> dead_links;
  for (auto& [agent, link] : links_) {
    if (link->state != Link::State::kReady) continue;  // EPOLLOUT armed
    if (link->sock.want_write() && !link->sock.flush()) {
      dead_links.push_back(agent);
      continue;
    }
    const bool want = link->sock.want_write();
    if (want != link->write_armed) {
      poller_.modify(link->sock.fd(), kTokLinkBase | agent, true, want);
      link->write_armed = want;
    }
  }
  for (std::uint32_t agent : dead_links) fail_link(agent);
}

// --- Frame handling --------------------------------------------------------

void NodeAgent::handle_frame(const Msg& m, const std::shared_ptr<Conn>& conn) {
  // Fencing, part two: commands are only honored from the adopted control
  // connection. A deposed primary's established conn keeps delivering
  // frames after the standby takes over (the HELLO epoch check only fires
  // on reconnect); those must not launch, poison, or shut anything down.
  switch (m.type) {
    case MsgType::kConfig:
    case MsgType::kPlacement:
    case MsgType::kLaunch:
    case MsgType::kPoison:
    case MsgType::kForceRoll:
    case MsgType::kResurrect:
    case MsgType::kYieldRank:
    case MsgType::kShutdown:
    case MsgType::kReAdopt:
      if (conn != coordinator_) return;
      break;
    default:
      break;
  }
  switch (m.type) {
    case MsgType::kHello: {
      conn->kind = m.peer_kind;
      if (m.peer_kind == PeerKind::kCoordinator) {
        // Lease fencing (docs/CONTROL_PLANE.md): a deposed primary that
        // is still alive carries a lower lease epoch than the standby
        // that replaced it — its writes must not reach the cluster.
        if (m.coord_epoch < coord_epoch_) {
          MOJAVE_LOG(kWarn, "dnode")
              << "rejecting coordinator with stale lease epoch "
              << m.coord_epoch << " < " << coord_epoch_;
          drop_conn(conn->token);
          break;
        }
        coord_epoch_ = m.coord_epoch;
        if (coordinator_ && coordinator_ != conn) {
          // Adopt the new primary before dropping the old control
          // connection so the drop does not look like a coordinator loss.
          const std::uint64_t old_token = coordinator_->token;
          coordinator_ = conn;
          drop_conn(old_token);
        } else {
          coordinator_ = conn;
        }
        coord_lost_at_ = -1;
        while (!coord_backlog_.empty()) {
          coordinator_->sock.queue_frame(std::move(coord_backlog_.front()));
          coord_backlog_.pop_front();
        }
      }
      break;
    }
    case MsgType::kReAdopt: {
      // A standby coordinator took over: answer with the rank census so
      // it can reconcile its replayed WAL state against what is actually
      // running here, then re-send any RESULT the dead primary may never
      // have durably recorded.
      std::vector<CensusEntry> census;
      std::vector<std::vector<std::byte>> results;
      for (const auto& [rank, slot] : slots_) {
        CensusEntry e;
        e.rank = rank;
        e.commit_seq = slot->commit_seq.load();
        if (slot->yielded) {
          e.state = 2;
        } else if (slot->done.load()) {
          if (slot->last_result.empty()) continue;  // failed-resurrect husk
          e.state = 1;
          results.push_back(slot->last_result);
        } else {
          e.state = 0;
        }
        census.push_back(e);
      }
      send_to_coordinator(encode_re_adopt_ack(my_agent_, census));
      for (auto& f : results) send_to_coordinator(std::move(f));
      break;
    }
    case MsgType::kConfig: {
      std::lock_guard<std::mutex> lock(mu_);
      my_agent_ = m.agent;
      num_ranks_ = m.num_ranks;
      agents_ = m.agents;
      max_instructions_ = m.max_instructions;
      if (m.recv_timeout_seconds > 0) {
        recv_timeout_seconds_ = m.recv_timeout_seconds;
      }
      placement_.assign(num_ranks_, Placement{});
      break;
    }
    case MsgType::kPlacement: {
      {
        std::lock_guard<std::mutex> lock(mu_);
        for (const PlacementEntry& e : m.placement) {
          if (e.rank >= placement_.size()) continue;
          if (e.alive && !placement_[e.rank].alive) {
            // A new incarnation numbers its rollbacks from zero again.
            for (auto& [rank, mb] : mail_) mb.newest.erase(e.rank);
            for (auto& [rank, slot] : slots_) slot->joined.erase(e.rank);
          }
          placement_[e.rank] = Placement{e.agent, e.alive};
        }
      }
      // Receives parked on a now-dead peer must wake to report MSG_ROLL.
      sched_.wake_all();
      break;
    }
    case MsgType::kLaunch:
      launch_rank(m.rank, m.payload);
      break;
    case MsgType::kData:
      handle_data(m);
      break;
    case MsgType::kReplayReq:
      handle_replay_req(m);
      break;
    case MsgType::kPoison:
    case MsgType::kForceRoll: {
      AgentMetrics::get().poisons.inc();
      if (RankSlot* slot = find_slot(m.rank)) {
        slot->poisoned.store(true);
        sched_.wake(m.rank);
      }
      break;
    }
    case MsgType::kResurrect:
      resurrect_rank(m.rank, m.commit_seq);
      break;
    case MsgType::kYieldRank: {
      if (RankSlot* slot = find_slot(m.rank)) {
        slot->yield_requested.store(true);
      }
      break;
    }
    case MsgType::kShutdown:
      request_shutdown();
      break;
    default:
      break;  // coordinator-bound frames are not ours to handle
  }
}

NodeAgent::RankSlot* NodeAgent::find_slot(std::uint32_t rank) {
  const auto it = slots_.find(rank);
  return it == slots_.end() ? nullptr : it->second.get();
}

void NodeAgent::handle_data(const Msg& m) {
  AgentMetrics::get().data_in.inc();
  std::uint32_t agent = 0;
  bool known = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (m.dst < placement_.size()) {
      agent = placement_[m.dst].agent;
      known = true;
    }
  }
  if (known && agent != my_agent_) {
    // The sender routed on a stale placement; forward once on ours.
    AgentMetrics::get().forwards.inc();
    send_to_agent(agent, encode_data(m.src, m.dst, m.tag, m.payload));
    return;
  }
  deliver_local(m.src, m.dst, m.tag, m.payload);
}

void NodeAgent::handle_replay_req(const Msg& m) {
  std::vector<std::byte> payload;
  {
    RankSlot* slot = find_slot(m.owner);
    if (slot == nullptr) return;  // owner moved on; its new host will serve
    const auto it = slot->sent_log.find({m.requester, m.tag});
    if (it == slot->sent_log.end()) return;  // never sent: requester waits
    payload = it->second;
  }
  AgentMetrics::get().replays_served.inc();
  route_payload(m.owner, m.requester, m.tag, std::move(payload));
}

void NodeAgent::deliver_local(std::uint32_t src, std::uint32_t dst,
                              std::int32_t tag,
                              std::vector<std::byte> payload) {
  Mailbox& mb = mail_[dst];
  const DataHeader h = decode_data_header(payload);
  SendStamp& newest = mb.newest[src];
  newest = std::max(newest, SendStamp{h.commit_seq, h.outer_rollbacks});
  mb.q[{src, tag}].push_back(std::move(payload));
  sched_.wake_key(recv_wait_key(src, static_cast<std::uint64_t>(
                                         static_cast<std::uint32_t>(tag))));
}

bool NodeAgent::route_payload(std::uint32_t src, std::uint32_t dst,
                              std::int32_t tag,
                              std::vector<std::byte> payload) {
  std::uint32_t agent = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (dst >= placement_.size()) return false;
    if (!placement_[dst].alive) return false;
    agent = placement_[dst].agent;
  }
  if (agent == my_agent_) {
    deliver_local(src, dst, tag, std::move(payload));
    return true;
  }
  AgentMetrics::get().data_out.inc();
  return send_to_agent(agent, encode_data(src, dst, tag, payload));
}

void NodeAgent::request_replay(std::uint32_t src, std::uint32_t requester,
                               std::int32_t tag) {
  std::uint32_t agent = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (src >= placement_.size() || !placement_[src].alive) return;
    agent = placement_[src].agent;
  }
  AgentMetrics::get().replay_requests.inc();
  auto frame = encode_replay_req(src, requester, tag);
  if (agent == my_agent_) {
    if (auto m = decode(frame)) handle_replay_req(*m);
  } else {
    send_to_agent(agent, std::move(frame));
  }
}

bool NodeAgent::send_to_agent(std::uint32_t agent,
                              std::vector<std::byte> frame) {
  AgentAddr addr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (agent >= agents_.size()) return false;
    addr = agents_[agent];
  }
  auto& lp = links_[agent];
  if (!lp || !lp->sock.valid()) {
    try {
      auto stream = net::TcpStream::connect_begin(addr.host, addr.port);
      lp = std::make_unique<Link>();
      lp->sock = net::FramedSocket(std::move(stream));
    } catch (const std::exception& e) {
      AgentMetrics::get().link_failures.inc();
      MOJAVE_LOG(kDebug, "dnode")
          << "link to agent " << agent << " failed: " << e.what();
      links_.erase(agent);
      return false;
    }
    lp->state = Link::State::kConnecting;
    lp->sock.queue_frame(encode_hello(PeerKind::kAgent, my_agent_));
    poller_.add(lp->sock.fd(), kTokLinkBase | agent, true, true);
    lp->write_armed = true;
  }
  // Queued, not yet on the wire: the frame rides the next flush tick,
  // coalesced with everything else bound for this peer. A link that later
  // fails drops its queue — the same "message lost" the replay protocol
  // already recovers from.
  lp->sock.queue_frame(std::move(frame));
  return true;
}

void NodeAgent::send_to_coordinator(std::vector<std::byte> frame) {
  if (!coordinator_) {
    // Between primaries: hold control-plane frames for the adopting
    // coordinator. Bounded — under a long outage the oldest (least
    // actionable) frames age out first.
    constexpr std::size_t kMaxCoordBacklog = 1024;
    if (coord_backlog_.size() >= kMaxCoordBacklog) coord_backlog_.pop_front();
    coord_backlog_.push_back(std::move(frame));
    return;
  }
  coordinator_->sock.queue_frame(std::move(frame));
}

// --- Ranks as fibers -------------------------------------------------------

void NodeAgent::register_externals(vm::Process& proc, RankSlot& slot) {
  vm::Interpreter& vm = proc.vm();
  const std::uint32_t rank = slot.rank;
  vm.set_output(&slot.output);

  vm.register_external("node_id",
                       [rank](vm::Interpreter&, std::span<const Value>) {
                         return Value::from_int(rank);
                       });
  vm.register_external(
      "num_nodes", [this](vm::Interpreter&, std::span<const Value>) {
        return Value::from_int(static_cast<std::int64_t>(num_ranks_));
      });

  vm.register_external(
      "msg_send",
      [this, rank, &proc, &slot](vm::Interpreter& it,
                                 std::span<const Value> args) -> Value {
        if (args.size() != 4) throw SafetyError("msg_send arity");
        if (stopping_.load()) throw AgentStopping{};
        const auto dst = static_cast<std::uint32_t>(args[0].as_int());
        const auto tag = static_cast<std::int32_t>(args[1].as_int());
        const runtime::PtrValue buf = args[2].as_ptr();
        const std::int64_t count = args[3].as_int();
        if (count < 0) throw SafetyError("msg_send negative count");
        // Pacing gate (deliberate throttle + failed-send backoff), checked
        // before any side effect so a parked send re-executes cleanly.
        const double now = now_seconds();
        if (now < slot.next_send_at) {
          slot.pending_wait_key = rank_wait_key(rank);
          throw vm::WouldBlock{slot.next_send_at};
        }
        Writer vw;
        for (std::int64_t i = 0; i < count; ++i) {
          runtime::write_value(
              vw, it.heap().read_slot(
                      buf.index, buf.offset + static_cast<std::uint32_t>(i)));
        }
        const auto values = vw.take();
        // Lazy cancellation: a byte-identical re-send (deterministic
        // re-execution after a rollback) is not speculative — its
        // consumers already hold exactly this data.
        const std::uint64_t h = xxh64(values);
        auto& prev = slot.sent_hashes[{dst, tag}];
        const bool duplicate = prev == h;
        prev = h;
        const std::uint32_t level =
            duplicate ? 0 : proc.spec().current_level();
        std::vector<std::byte> payload = encode_data_payload(
            DataHeader{level, slot.epoch.load(), slot.commit_seq.load(),
                       slot.outer_rollbacks,
                       static_cast<std::uint32_t>(count)},
            values);
        slot.sent_log[{dst, tag}] = payload;
        if (cfg_.throttle_ms > 0) {
          slot.next_send_at = now + cfg_.throttle_ms * 1e-3;
        }
        const bool ok = route_payload(rank, dst, tag, std::move(payload));
        if (!ok) {
          // Dead destination or no link: back off so the rollback-retry
          // loop does not spin while the peer is resurrected.
          slot.next_send_at = std::max(slot.next_send_at, now + 500e-6);
        }
        return Value::from_int(ok ? 0 : 1);
      });

  vm.register_external(
      "msg_recv",
      [this, rank, &proc, &slot](vm::Interpreter& it,
                                 std::span<const Value> args) -> Value {
        if (args.size() != 4) throw SafetyError("msg_recv arity");
        if (stopping_.load()) throw AgentStopping{};
        const auto src = static_cast<std::uint32_t>(args[0].as_int());
        const auto tag = static_cast<std::int32_t>(args[1].as_int());
        const runtime::PtrValue buf = args[2].as_ptr();
        const std::int64_t count = args[3].as_int();
        if (count < 0) throw SafetyError("msg_recv negative count");
        const double now = now_seconds();
        Mailbox& mb = mail_[rank];
        const auto join_reverted = [&](const auto& entry) {
          const auto it = mb.newest.find(entry.first);
          return it != mb.newest.end() &&
                 reverted(entry.second.stamp, it->second);
        };
        if (slot.poisoned.load()) {
          // Pace the poison-driven MSG_ROLL exactly like the peer-down
          // one: the report triggers a rollback whose re-execution lands
          // right back here, and an unpaced cycle spins the whole agent
          // at slice speed if the coordinator keeps poisoning.
          if (!slot.roll_pace_armed) {
            slot.roll_pace_armed = true;
            slot.roll_pace_until = now + 500e-6;
          }
          if (now < slot.roll_pace_until) {
            slot.pending_wait_key = rank_wait_key(rank);
            throw vm::WouldBlock{slot.roll_pace_until};
          }
          slot.roll_pace_armed = false;
          slot.poisoned.store(false);
          slot.recv.active = false;
          // This is the POISON a reverted join was waiting for.
          std::erase_if(slot.joined, join_reverted);
          slot.doom_armed = false;
          return Value::from_int(1);  // MSG_ROLL
        }
        if (std::any_of(slot.joined.begin(), slot.joined.end(),
                        join_reverted)) {
          // A speculation this rank joined is gone; its POISON comes
          // through the coordinator. Wait for it; should it not come by
          // the first replay-request interval (a lagging coordinator, or
          // a DEP_RECORD it judged after the sender's next commit), report
          // MSG_ROLL here. A POISON arriving after that costs one spare
          // rollback; consuming on would build on reverted data.
          if (!slot.doom_armed) {
            slot.doom_armed = true;
            slot.doom_until = now + cfg_.replay_request_seconds;
          }
          if (now < slot.doom_until) {
            slot.pending_wait_key = rank_wait_key(rank);
            throw vm::WouldBlock{slot.doom_until};
          }
          slot.doom_armed = false;
          std::erase_if(slot.joined, join_reverted);
          slot.recv.active = false;
          return Value::from_int(1);  // MSG_ROLL
        }
        const auto key = std::make_pair(src, tag);
        std::vector<std::byte> payload;
        bool got = false;
        // A copy its sender reverted would join a speculation that no
        // longer exists and come back as a poison, whose rollback leaves
        // this rank's own in-flight sends stale in turn — a wave of
        // rollbacks that outlives any failure. So reverted copies ahead of
        // a live one are dropped (the sender never sent them, as far as
        // its re-execution is concerned), and a lone reverted copy waits
        // for the re-send until the first replay request is due; after
        // that it is read, and the coordinator's fence poisons this rank,
        // so a sender that does not re-send costs a delay, never a stall.
        const std::uint64_t wkey = recv_wait_key(
            src, static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
        const bool hold_stale =
            !slot.recv.active || slot.recv.key != wkey ||
            now < slot.recv.start + cfg_.replay_request_seconds;
        const auto stale = [&](std::span<const std::byte> p) {
          const DataHeader h = decode_data_header(p);
          const auto it = mb.newest.find(src);
          return h.spec_level > 0 && it != mb.newest.end() &&
                 reverted(SendStamp{h.commit_seq, h.outer_rollbacks},
                          it->second);
        };
        auto qi = mb.q.find(key);
        if (qi != mb.q.end()) {
          auto& dq = qi->second;
          const auto fresh = std::find_if_not(
              dq.begin(), dq.end(),
              [&](const std::vector<std::byte>& p) { return stale(p); });
          if (fresh != dq.end()) dq.erase(dq.begin(), fresh);
          if (!dq.empty() && (fresh != dq.end() || !hold_stale)) {
            payload = std::move(dq.front());
            dq.pop_front();
            mb.delivered[key] = payload;
            got = true;
          }
        }
        if (!got) {
          if (auto di = mb.delivered.find(key);
              di != mb.delivered.end() &&
              (!hold_stale || !stale(di->second))) {
            // Receiver-side replay: a re-execution after rollback reads
            // the message it already consumed.
            payload = di->second;
            got = true;
          }
        }
        if (!got) {
          bool peer_down = false;
          {
            std::lock_guard<std::mutex> lock(mu_);
            peer_down = src < placement_.size() && !placement_[src].alive;
          }
          if (peer_down) {
            // Pace MSG_ROLL reports so the rollback-retry loop does not
            // spin while the peer is resurrected.
            if (!slot.roll_pace_armed) {
              slot.roll_pace_armed = true;
              slot.roll_pace_until = now + 500e-6;
            }
            if (now < slot.roll_pace_until) {
              slot.pending_wait_key = rank_wait_key(rank);
              throw vm::WouldBlock{slot.roll_pace_until};
            }
            slot.roll_pace_armed = false;
            slot.recv.active = false;
            return Value::from_int(1);  // MSG_ROLL
          }
          if (!slot.recv.active || slot.recv.key != wkey) {
            slot.recv = RankSlot::RecvWait{
                true, wkey, now, now + cfg_.replay_request_seconds};
          }
          if (now - slot.recv.start >= recv_timeout_seconds_) {
            slot.recv.active = false;
            MOJAVE_LOG(kDebug, "dnode") << "rank " << rank
                                        << " recv timeout from " << src
                                        << " tag " << tag;
            return Value::from_int(2);
          }
          if (now >= slot.recv.next_replay) {
            // The message may have been lost with a dead agent or our own
            // previous incarnation's mailbox — re-request it from the
            // sender's replay log.
            slot.recv.next_replay = now + cfg_.replay_request_seconds;
            request_replay(src, rank, tag);
          }
          const double deadline =
              std::min(slot.recv.next_replay,
                       slot.recv.start + recv_timeout_seconds_);
          slot.pending_wait_key = wkey;
          throw vm::WouldBlock{deadline};
        }
        slot.recv.active = false;
        slot.roll_pace_armed = false;
        // A POISON that arrived since the checks above still wins over the
        // payload in hand. (Data that overtook the POISON of a level-1
        // rollback is held back above; the stamp cannot show a deeper
        // rollback, so after one of those the race remains.)
        if (slot.poisoned.exchange(false)) return Value::from_int(1);
        const DataHeader h = decode_data_header(payload);
        Reader r(std::span<const std::byte>(payload).subspan(kDataHeaderBytes));
        if (h.spec_level > 0) {
          // Speculative data: join the sender's speculation (the
          // distributed record() of the join protocol).
          AgentMetrics::get().dep_records.inc();
          const std::uint32_t level = proc.spec().current_level();
          send_to_coordinator(encode_dep_record(
              src, h.spec_level, rank, level, h.epoch, h.commit_seq));
          RankSlot::Joined& j = slot.joined[src];
          j.stamp = std::max(j.stamp, SendStamp{h.commit_seq, h.outer_rollbacks});
          j.level = level;
        }
        const std::uint32_t to_copy =
            std::min(h.count, static_cast<std::uint32_t>(count));
        for (std::uint32_t i = 0; i < to_copy; ++i) {
          it.heap().write_slot(buf.index, buf.offset + i,
                               runtime::read_value(r));
        }
        return Value::from_int(0);
      });

  vm.register_external(
      "checkpoint_target",
      [this, rank](vm::Interpreter& it, std::span<const Value>) -> Value {
        const std::string target = "ckpt://" + cfg_.storage_root.string() +
                                   "/rank_" + std::to_string(rank);
        return Value::from_ptr(it.heap().alloc_string(target), 0);
      });

  vm.register_external(
      "report_result",
      [&slot](vm::Interpreter&, std::span<const Value> args) -> Value {
        if (args.size() != 1) throw SafetyError("report_result arity");
        slot.reported.store(args[0].as_float());
        slot.has_reported.store(true);
        return Value::unit();
      });

  vm.register_external(
      "sleep_ms",
      [this, &slot](vm::Interpreter&, std::span<const Value> args) -> Value {
        const double now = now_seconds();
        if (slot.sleep_until < 0) {
          const std::int64_t ms = args.empty() ? 0 : args[0].as_int();
          slot.sleep_until = now + static_cast<double>(ms) * 1e-3;
        }
        if (now < slot.sleep_until) {
          slot.pending_wait_key = rank_wait_key(slot.rank);
          throw vm::WouldBlock{slot.sleep_until};
        }
        slot.sleep_until = -1;
        return Value::unit();
      });

  // Join protocol, reported over the wire: this rank's rollbacks bump its
  // epoch and emit ROLL_POISON; its durable commits emit COMMIT_DISCHARGE.
  proc.spec().set_rollback_observer([this, rank, &slot](SpecLevel level,
                                                        bool) {
    const std::uint64_t e = slot.epoch.fetch_add(1) + 1;
    if (level <= 1) ++slot.outer_rollbacks;
    std::erase_if(slot.joined,
                  [&](const auto& entry) { return entry.second.level >= level; });
    slot.doom_armed = false;
    send_to_coordinator(encode_roll_poison(rank, level, e));
  });
  proc.spec().set_commit_observer([this, rank, &slot] {
    slot.commit_seq.fetch_add(1);
    // Persist the replay log with the commit (see send_log_snapshot):
    // the checkpoint taken at this commit point must be able to re-serve
    // pre-checkpoint border sends even after this process dies.
    try {
      store_->put(send_log_snapshot(rank),
                  encode_send_log(slot.sent_log, slot.sent_hashes));
    } catch (const std::exception& e) {
      MOJAVE_LOG(kWarn, "dnode")
          << "rank " << rank << " send-log persist failed: " << e.what();
    }
    send_to_coordinator(encode_commit_discharge(rank));
  });
}

RankScheduler::Step NodeAgent::step_rank(RankSlot& slot) {
  vm::SliceResult r;
  try {
    r = slot.process->vm().run_slice(cfg_.slice_instructions);
  } catch (const AgentStopping&) {
    finish_rank(slot, 2, 0, "stopped");
    return RankScheduler::Step{RankScheduler::Step::Kind::kDone, 0, 0};
  } catch (const std::exception& e) {
    finish_rank(slot, 2, 0, e.what());
    return RankScheduler::Step{RankScheduler::Step::Kind::kDone, 0, 0};
  }
  switch (r.status) {
    case vm::SliceResult::Status::kPreempted:
      return RankScheduler::Step{RankScheduler::Step::Kind::kYield, 0, 0};
    case vm::SliceResult::Status::kBlocked:
      return RankScheduler::Step{RankScheduler::Step::Kind::kBlocked,
                                 slot.pending_wait_key, r.block_deadline};
    case vm::SliceResult::Status::kMigratedAway:
      if (slot.yield_hook && slot.yield_hook->yielded()) {
        AgentMetrics::get().yields.inc();
        MOJAVE_LOG(kInfo, "dnode") << "rank " << slot.rank << " yielded";
        send_to_coordinator(encode_rank_yielded(slot.rank, true));
        slot.yielded = true;
        slot.done.store(true);
        return RankScheduler::Step{RankScheduler::Step::Kind::kDone, 0, 0};
      }
      finish_rank(slot, 1, r.exit_code, "");
      return RankScheduler::Step{RankScheduler::Step::Kind::kDone, 0, 0};
    case vm::SliceResult::Status::kHalted:
    default:
      finish_rank(slot, 0, r.exit_code, "");
      return RankScheduler::Step{RankScheduler::Step::Kind::kDone, 0, 0};
  }
}

void NodeAgent::finish_rank(RankSlot& slot, int result_kind,
                            std::int64_t exit_code, const std::string& error) {
  Msg res;
  res.type = MsgType::kResult;
  res.rank = slot.rank;
  res.result_kind = static_cast<std::uint8_t>(result_kind);
  res.exit_code = exit_code;
  res.error = error;
  res.output = slot.output.str();
  if (slot.process) {
    res.instructions = slot.process->vm().stats().instructions;
    const spec::SpecStats& st = slot.process->spec().stats();
    res.speculates = st.speculates;
    res.commits = st.commits;
    res.rollbacks = st.rollbacks;
  }
  res.has_reported = slot.has_reported.load();
  res.reported = slot.reported.load();
  slot.last_result = encode_result(res);
  if (!stopping_.load()) send_to_coordinator(slot.last_result);
  slot.done.store(true);
}

void NodeAgent::adopt_slot(std::uint32_t rank,
                           std::unique_ptr<RankSlot> slot) {
  std::lock_guard<std::mutex> lock(mu_);
  slots_[rank] = std::move(slot);
}

void NodeAgent::launch_rank(std::uint32_t rank, std::vector<std::byte> image) {
  AgentMetrics::get().launches.inc();
  if (RankSlot* existing = find_slot(rank)) {
    if (!existing->done.load()) return;  // already running here
    sched_.remove(rank);
    std::lock_guard<std::mutex> lock(mu_);
    slots_.erase(rank);
  }
  obs::ScopedSpan span("dnode", "agent.run_rank");
  span.set_arg("rank", rank);
  auto slot = std::make_unique<RankSlot>();
  slot->rank = rank;
  RankSlot* sp = slot.get();
  try {
    fir::Program prog = fir::decode_program(image);
    vm::ProcessConfig pcfg;
    pcfg.heap = cfg_.heap;
    pcfg.max_instructions = max_instructions_;
    sp->process = std::make_unique<vm::Process>(std::move(prog), pcfg);
    register_externals(*sp->process, *sp);
    sp->migrator = std::make_unique<migrate::Migrator>(*sp->process);
    sp->yield_hook = std::make_unique<YieldHook>(
        *sp->process, *sp->migrator, sp->yield_requested);
    sp->process->vm().start(sp->process->vm().compiled().entry, {});
  } catch (const std::exception& e) {
    finish_rank(*sp, 2, 0, e.what());
    adopt_slot(rank, std::move(slot));
    return;
  }
  adopt_slot(rank, std::move(slot));
  sched_.spawn(rank, [this, sp](RankScheduler::FiberId) {
    return step_rank(*sp);
  });
}

void NodeAgent::resurrect_rank(std::uint32_t rank, std::uint64_t commit_seq) {
  if (RankSlot* existing = find_slot(rank)) {
    if (!existing->done.load()) return;  // at-most-one incarnation here
    sched_.remove(rank);
    std::lock_guard<std::mutex> lock(mu_);
    slots_.erase(rank);
  }
  obs::ScopedSpan span("dnode", "agent.resume_rank");
  span.set_arg("rank", rank);
  auto slot = std::make_unique<RankSlot>();
  slot->rank = rank;
  slot->commit_seq.store(commit_seq);
  RankSlot* sp = slot.get();
  try {
    const auto image = store_->restore("rank_" + std::to_string(rank));
    if (!image.has_value()) {
      send_to_coordinator(encode_rank_up(rank, false));
      sp->done.store(true);
      adopt_slot(rank, std::move(slot));
      return;
    }
    vm::ProcessConfig pcfg;
    pcfg.heap = cfg_.heap;
    pcfg.max_instructions = max_instructions_;
    migrate::UnpackResult unpacked = migrate::unpack_process(*image, pcfg);
    // The previous incarnation's sender replay log, persisted at its last
    // commit. Without it this incarnation could not answer REPLAY_REQs
    // for border messages sent before the checkpoint — messages a peer
    // may have lost with the dead agent and still be parked on. The
    // restored sent_hashes keep lazy cancellation across incarnations:
    // deterministic re-sends of the same windows go out at level 0.
    if (const auto log = store_->restore(send_log_snapshot(rank))) {
      try {
        decode_send_log(*log, sp->sent_log, sp->sent_hashes);
      } catch (const std::exception& e) {
        MOJAVE_LOG(kWarn, "dnode")
            << "rank " << rank << " send-log restore failed: " << e.what();
        sp->sent_log.clear();
        sp->sent_hashes.clear();
      }
    }
    sp->process = std::move(unpacked.process);
    register_externals(*sp->process, *sp);
    sp->migrator = std::make_unique<migrate::Migrator>(*sp->process);
    sp->yield_hook = std::make_unique<YieldHook>(
        *sp->process, *sp->migrator, sp->yield_requested);
    sp->process->vm().start(unpacked.resume_fun,
                            std::move(unpacked.resume_args));
    AgentMetrics::get().resurrections.inc();
    MOJAVE_LOG(kInfo, "dnode")
        << "resurrecting rank " << rank << " from checkpoint";
    send_to_coordinator(encode_rank_up(rank, true));
  } catch (const std::exception& e) {
    MOJAVE_LOG(kWarn, "dnode")
        << "resurrect rank " << rank << " failed: " << e.what();
    send_to_coordinator(encode_rank_up(rank, false));
    sp->done.store(true);
    adopt_slot(rank, std::move(slot));
    return;
  }
  adopt_slot(rank, std::move(slot));
  sched_.spawn(rank, [this, sp](RankScheduler::FiberId) {
    return step_rank(*sp);
  });
}

}  // namespace mojave::dnode
