#include "dnode/agent.hpp"

#include <algorithm>
#include <sstream>

#include "ckpt/writer.hpp"
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
  obs::Counter& resend_frames;
  obs::Counter& replays_served;
  obs::Counter& consumed;
  obs::Counter& poisons;
  obs::Counter& corrupt_frames;
  obs::Counter& heartbeats;
  obs::Counter& link_failures;
  obs::Counter& links_lost;
  /// Bytes each rank checkpoint's channels add to its image.
  obs::Histogram& channel_bytes;

  static AgentMetrics& get() {
    auto& r = obs::MetricsRegistry::instance();
    static AgentMetrics m{
        r.counter("node.launches"),       r.counter("node.resurrections"),
        r.counter("node.yields"),         r.counter("node.data_frames_in"),
        r.counter("node.data_frames_out"), r.counter("node.data_forwards"),
        r.counter("dspec.replay_requests"), r.counter("dspec.resend_frames"),
        r.counter("dspec.replays_served"),
        r.counter("dspec.payloads_consumed"),
        r.counter("dspec.poisons_received"), r.counter("node.corrupt_frames"),
        r.counter("node.heartbeats"),     r.counter("node.link_failures"),
        r.counter("node.links_lost"),     r.histogram("dnode.channel_bytes"),
    };
    return m;
  }
};

/// The innermost active speculation's id; 0 outside any speculation.
std::uint64_t innermost_spec(vm::Process& proc) {
  const SpecLevel level = proc.spec().current_level();
  return level == 0 ? 0 : proc.spec().level_id(level);
}

/// A channel entry as its wire frame.
std::vector<std::byte> encode_entry(std::uint32_t src, std::uint32_t dst,
                                    const Entry& e) {
  return e.op == ChannelOp::kData
             ? encode_data(src, dst, e.tag, e.payload)
             : encode_spec_outcome(src, dst, e.op, e.h.incarnation, e.h.seq,
                                   e.h.spec_id);
}

/// (src, rank) for every other rank src of the `ranks`.
std::vector<std::pair<std::uint32_t, std::uint32_t>> all_senders(
    std::uint32_t rank, std::uint32_t ranks) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (std::uint32_t src = 0; src < ranks; ++src) {
    if (src != rank) pairs.emplace_back(src, rank);
  }
  return pairs;
}

std::string describe(const std::exception_ptr& e) {
  try {
    std::rethrow_exception(e);
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

std::string image_snapshot(std::uint32_t rank) {
  return "rank_" + std::to_string(rank);
}

}  // namespace

struct NodeAgent::Conn {
  explicit Conn(net::TcpStream s) : sock(std::move(s)) {}
  net::FramedSocket sock;
  std::uint64_t token = 0;
  PeerKind kind = PeerKind::kAgent;
  std::uint32_t agent = ~std::uint32_t{0};  ///< a peer agent's id, from HELLO
  bool write_armed = false;
};

struct NodeAgent::Link {
  net::FramedSocket sock;
  enum class State { kConnecting, kReady } state = State::kConnecting;
  bool write_armed = true;  ///< EPOLLOUT stays armed while connecting
};

struct NodeAgent::RankSlot {
  std::uint32_t rank = 0;
  /// Unique among this agent's slots: a writer ack finds its slot by it.
  std::uint64_t id = 0;
  std::ostringstream output;
  // Destruction order matters (reverse of declaration): the rank hook
  // restores the migrator as the vm's hook, the migrator detaches itself,
  // then the process goes.
  std::unique_ptr<vm::Process> process;
  std::unique_ptr<migrate::Migrator> migrator;
  std::unique_ptr<RankHook> hook;

  // --- Checkpoints (loop thread only) ----------------------------------
  bool ckpt_in_flight = false;  ///< submitted, not yet acked
  bool ckpt_landed = false;     ///< the last acked checkpoint was published
  bool ckpt_waiting = false;    ///< parked at a migrate until the ack
  /// A checkpoint of this rank exists, or is on its way: a restore may
  /// take it back to before its latest commits.
  bool checkpointed = false;
  /// A rank that ends with a checkpoint in flight reports its result only
  /// once that checkpoint landed: a kill after its RESULT must still find
  /// it in the store.
  struct Finish {
    int result_kind = 0;
    std::int64_t exit_code = 0;
    std::string error;
  };
  std::optional<Finish> finish_pending;

  /// The distributed poison flag: set by a reverted join, a lost sender
  /// or FORCE_ROLL, drained by msg_recv as MSG_ROLL.
  std::atomic<bool> poisoned{false};
  std::atomic<bool> yield_requested{false};
  std::atomic<bool> done{false};
  std::atomic<bool> has_reported{false};
  std::atomic<double> reported{0};

  // --- Fiber pacing gates (loop thread only). Every gate is checked
  // BEFORE the external's side effects, so re-executing the instruction
  // after a block() park is idempotent — the same contract that makes
  // native-tier deoptimization safe. ------------------------------------
  double next_send_at = 0;   ///< throttle gate
  double sleep_until = -1;   ///< armed sleep_ms gate; -1 = none
  struct RecvWait {
    bool active = false;
    std::uint64_t key = 0;
    std::uint32_t src = 0;
    double start = 0;  ///< first wait on this key (timeout base)
  } recv;
  /// Set by an external just before it calls block(); the fiber parks on
  /// this key.
  std::uint64_t pending_wait_key = 0;

  /// Lazy cancellation (TimeWarp): hash of the last payload per (dst,
  /// tag) since the last commit to zero; a byte-identical re-send after a
  /// rollback goes out durable (spec id 0).
  std::map<std::pair<std::uint32_t, std::int32_t>, std::uint64_t> sent_hashes;
  /// The sending half of this rank's channels.
  Outbox out;
  /// Per sender, where each of this rank's last checkpoints left its
  /// inbound channel (Inbox::watermarks()), oldest first; the senders
  /// are told the oldest.
  std::deque<std::vector<std::pair<std::uint32_t, std::uint64_t>>> covered;

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

/// A rank's migration hook, wrapping its Migrator. The Migrator packs a
/// ckpt:// checkpoint on the loop (the consistent cut) and hands it to
/// submit_checkpoint; the rank goes on at once. At most one checkpoint per
/// rank is in flight: reaching the next one parks the rank until the
/// previous one's ack, and the migrate instruction then runs again. The
/// coordinator can also turn the rank's *next successful checkpoint* into
/// a yield: the process exits here with kMigratedAway, once that
/// checkpoint landed, and is resurrected from it on the target agent.
/// Checkpoints happen at commit points (Figure 2's loop), so a yield never
/// strands an active speculation.
class NodeAgent::RankHook final : public vm::MigrationHook {
 public:
  RankHook(NodeAgent& agent, RankSlot& slot) : agent_(agent), slot_(slot) {
    slot_.process->vm().set_migration_hook(this);
  }
  ~RankHook() override {
    slot_.process->vm().set_migration_hook(slot_.migrator.get());
  }

  Action on_migrate(vm::Interpreter& vm, MigrateLabel label,
                    const std::string& target, FunIndex resume_fun,
                    std::span<const Value> resume_args) override {
    if (slot_.ckpt_in_flight) {
      slot_.ckpt_waiting = true;
      slot_.pending_wait_key = rank_wait_key(slot_.rank);
      vm.block(0);
      return Action::kContinue;
    }
    slot_.ckpt_waiting = false;
    const Action a = slot_.migrator->on_migrate(vm, label, target,
                                                resume_fun, resume_args);
    if (a == Action::kExit || !slot_.yield_requested.load()) return a;
    if (!agent_.await_checkpoint(slot_)) return a;
    yielded_ = true;
    return Action::kExit;
  }

  [[nodiscard]] bool yielded() const { return yielded_; }

 private:
  NodeAgent& agent_;
  RankSlot& slot_;
  bool yielded_ = false;
};

NodeAgent::NodeAgent(AgentConfig cfg)
    : cfg_(std::move(cfg)),
      listener_(cfg_.bind, cfg_.port),
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
  drain_checkpoints();
  stop();
}

void NodeAgent::drain_checkpoints() { store_->writer().drain(this); }

void NodeAgent::stop() {
  if (stopping_.exchange(true)) return;
  {
    std::lock_guard<std::mutex> lock(wait_mu_);
    shutdown_requested_ = true;
    wait_cv_.notify_all();
  }
  poller_.wake();
  if (loop_thread_.joinable()) loop_thread_.join();
  // No checkpoint of this agent lands after this: a rank resurrected
  // elsewhere must never see this incarnation's manifests appear later.
  // Done before the sockets close, which is how the cluster learns of
  // the death.
  store_->writer().cancel(this);
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
    handle_acks();
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
      handle_frame(*m, frame, conn);
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
  // A peer's link into us died: whatever it had in flight is lost.
  if (conn->kind == PeerKind::kAgent && conn->agent < agents_.size()) {
    resend_from_agent(conn->agent);
  }
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
  // Queued frames die with the link. A link that had connected is
  // re-dialled at once while the peer hosts a live rank: the peer's
  // receivers ask for what they lost when they see the new connection,
  // and ours ask again in case our own requests died too. One that never
  // connected leads to no live agent.
  AgentMetrics::get().link_failures.inc();
  const bool was_ready = it->second->state == Link::State::kReady;
  poller_.remove(it->second->sock.fd());
  links_.erase(it);
  if (!was_ready || stopping_.load()) return;
  const bool live = std::any_of(
      placement_.begin(), placement_.end(),
      [&](const Placement& p) { return p.agent == agent && p.alive; });
  if (live && send_to_agent(agent, {})) resend_from_agent(agent);
}

void NodeAgent::resend_from_agent(std::uint32_t agent) {
  if (stopping_.load()) return;
  ++links_lost_;
  AgentMetrics::get().links_lost.inc();
  // Every rank here asks every live rank there: what was lost may have
  // been its first entry.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const auto& [rank, slot] : slots_) {
    if (slot->done.load()) continue;
    for (std::uint32_t src = 0; src < placement_.size(); ++src) {
      if (src != rank && placement_[src].agent == agent &&
          placement_[src].alive) {
        pairs.emplace_back(src, rank);
      }
    }
  }
  request_resends(pairs);
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

void NodeAgent::handle_frame(const Msg& m, std::span<const std::byte> raw,
                             const std::shared_ptr<Conn>& conn) {
  // Fencing, part two: commands are only honored from the adopted control
  // connection. A deposed primary's established conn keeps delivering
  // frames after the standby takes over (the HELLO epoch check only fires
  // on reconnect); those must not launch, poison, or shut anything down.
  switch (m.type) {
    case MsgType::kConfig:
    case MsgType::kPlacement:
    case MsgType::kLaunch:
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
      if (m.peer_kind == PeerKind::kAgent) {
        conn->agent = m.agent;
        // A peer that dialled in before re-dialled: what it had queued on
        // the old link may be lost.
        if (!dialled_in_.insert(m.agent).second) resend_from_agent(m.agent);
        break;
      }
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
      // A takeover's CONFIG keeps what this agent knows of the ranks; its
      // PLACEMENT follows.
      if (placement_.size() != num_ranks_) {
        placement_.assign(num_ranks_, Placement{});
      }
      break;
    }
    case MsgType::kPlacement:
      handle_placement(m);
      break;
    case MsgType::kLaunch:
      launch_rank(m.rank, m.payload);
      break;
    case MsgType::kData:
    case MsgType::kSpecOutcome: {
      AgentMetrics::get().data_in.inc();
      if (forward(m.dst, raw)) break;
      Entry e;
      e.op = m.op;
      if (m.type == MsgType::kData) {
        e.tag = m.tag;
        e.h = decode_data_header(m.payload);
        e.payload = m.payload;
      } else {
        e.h = DataHeader{m.incarnation, m.seq, m.spec_id, 0};
      }
      receive_entry(m.src, m.dst, std::move(e));
      break;
    }
    case MsgType::kResend: {
      // Channels whose sender moved on go on to its agent, one frame per
      // agent.
      std::map<std::uint32_t, std::vector<ResendEntry>> onward;
      for (const ResendEntry& e : m.resends) {
        if (const auto agent = route(e.src)) {
          onward[*agent].push_back(e);
        } else {
          handle_resend(e.src, e.dst, e.seq, m.agent);
        }
      }
      for (const auto& [agent, entries] : onward) {
        AgentMetrics::get().forwards.inc();
        send_to_agent(agent, encode_resend(m.agent, entries));
      }
      break;
    }
    case MsgType::kWatermark:
      if (forward(m.src, raw)) break;
      if (RankSlot* slot = find_slot(m.src)) slot->out.truncate(m.dst, m.seq);
      break;
    case MsgType::kForceRoll:
      poison(m.rank);
      break;
    case MsgType::kResurrect:
      resurrect_rank(m.rank, m.incarnation);
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

void NodeAgent::handle_placement(const Msg& m) {
  std::vector<std::uint32_t> lost, back;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const PlacementEntry& e : m.placement) {
      if (e.rank >= placement_.size()) continue;
      Placement& p = placement_[e.rank];
      if (p.alive && !e.alive) lost.push_back(e.rank);
      if (e.alive && !p.alive) back.push_back(e.rank);
      p = Placement{e.agent, e.alive, e.incarnation};
    }
  }
  for (const std::uint32_t r : lost) rank_lost(r);
  // A rank comes back alive as a new incarnation. Entries logged here
  // while it was down go to it now, and each receiver here that hears
  // from it asks it once for what it lacks (and so learns where the new
  // numbering begins).
  for (const std::uint32_t r : back) {
    for (const auto& [rank, slot] : slots_) {
      transmit(*slot, slot->out.take_deferred(r));
      if (rank != r && !slot->done.load() && mail_[rank].knows(r)) {
        request_resend(r, rank);
      }
    }
  }
}

NodeAgent::RankSlot* NodeAgent::find_slot(std::uint32_t rank) {
  const auto it = slots_.find(rank);
  return it == slots_.end() ? nullptr : it->second.get();
}

std::optional<std::uint32_t> NodeAgent::route(std::uint32_t rank) {
  // A rank running here is here, whatever the placement map says yet: a
  // resurrected one hears from its senders before its RANK_UP returns as
  // a PLACEMENT.
  if (const RankSlot* slot = find_slot(rank); slot && !slot->done.load()) {
    return std::nullopt;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (rank >= placement_.size() || placement_[rank].agent == my_agent_) {
    return std::nullopt;
  }
  return placement_[rank].agent;
}

bool NodeAgent::forward(std::uint32_t rank, std::span<const std::byte> raw) {
  const auto agent = route(rank);
  if (!agent) return false;
  AgentMetrics::get().forwards.inc();
  send_to_agent(*agent, {raw.begin(), raw.end()});
  return true;
}

// --- Channels --------------------------------------------------------------

void NodeAgent::transmit(RankSlot& slot, const Outbox::Sent& sent) {
  for (const auto& [dst, e] : sent) {
    Placement p{0, false};
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (dst < placement_.size()) p = placement_[dst];
    }
    // Logged either way: what cannot go now goes when the rank is back.
    if (!p.alive || !deliver(p.agent, slot.rank, dst, *e)) {
      slot.out.defer(dst, e->h.seq);
    }
  }
}

bool NodeAgent::deliver(std::uint32_t agent, std::uint32_t src,
                        std::uint32_t dst, const Entry& e) {
  if (agent == my_agent_) {
    receive_entry(src, dst, e);
    return true;
  }
  if (e.op == ChannelOp::kData) AgentMetrics::get().data_out.inc();
  return send_to_agent(agent, encode_entry(src, dst, e));
}

void NodeAgent::receive_entry(std::uint32_t src, std::uint32_t dst, Entry e) {
  const Inbox::Applied a = mail_[dst].receive(src, std::move(e));
  for (const std::int32_t tag : a.arrived) {
    sched_.wake_key(recv_wait_key(
        src, static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag))));
  }
  if (a.poison) poison(dst);
  if (a.gap) request_resend(src, dst);
}

void NodeAgent::request_resends(
    const std::vector<std::pair<std::uint32_t, std::uint32_t>>& pairs) {
  std::map<std::uint32_t, std::vector<ResendEntry>> by_agent;
  for (const auto& [src, dst] : pairs) {
    std::uint32_t agent = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (src >= placement_.size() || !placement_[src].alive) continue;
      agent = placement_[src].agent;
    }
    AgentMetrics::get().replay_requests.inc();
    const std::uint64_t from = mail_[dst].resend_from(src);
    if (agent == my_agent_) {
      handle_resend(src, dst, from, my_agent_);
    } else {
      by_agent[agent].push_back(ResendEntry{src, dst, from});
    }
  }
  for (const auto& [agent, entries] : by_agent) {
    AgentMetrics::get().resend_frames.inc();
    send_to_agent(agent, encode_resend(my_agent_, entries));
  }
}

void NodeAgent::handle_resend(std::uint32_t src, std::uint32_t dst,
                              std::uint64_t seq, std::uint32_t reply_agent) {
  RankSlot* slot = find_slot(src);
  if (slot == nullptr) return;  // not here yet: asked again when it is up
  AgentMetrics::get().replays_served.inc();
  // Straight back to the asking agent: its rank may be newer than this
  // agent's placement map.
  for (const auto& [to, e] : slot->out.resend(dst, seq)) {
    deliver(reply_agent, src, to, *e);
  }
}

void NodeAgent::poison(std::uint32_t rank) {
  RankSlot* slot = find_slot(rank);
  if (slot == nullptr || slot->done.load()) return;
  if (!slot->poisoned.exchange(true)) AgentMetrics::get().poisons.inc();
  sched_.wake(rank);
}

void NodeAgent::rank_lost(std::uint32_t rank) {
  for (auto& [dst, inbox] : mail_) {
    if (dst != rank && inbox.kill(rank)) poison(dst);
  }
  for (const auto& [r, slot] : slots_) {
    if (slot->recv.active && slot->recv.src == rank) poison(r);
  }
}

void NodeAgent::submit_checkpoint(RankSlot& slot, const std::string& snapshot,
                                  std::vector<std::byte> image) {
  // The channels and marks as of the pack ride with the image: the rank
  // runs on while the writer works, and its inbox with it.
  const std::size_t image_bytes = image.size();
  ckpt::CheckpointJob job;
  job.owner = this;
  job.snapshot = snapshot;
  job.image =
      encode_rank_checkpoint(std::move(image), slot.out, mail_[slot.rank]);
  AgentMetrics::get().channel_bytes.record_us(
      static_cast<double>(job.image.size() - image_bytes));
  job.done = [this, rank = slot.rank, id = slot.id,
              marks = mail_[slot.rank].watermarks(),
              commits = slot.out.uncovered()](
                 const ckpt::CheckpointResult& r) mutable {
    post_ack(CkptAck{rank, id, r.ok(), r.ok() ? "" : describe(r.error),
                     std::move(marks), std::move(commits)});
  };
  slot.ckpt_in_flight = true;
  slot.checkpointed = true;
  store_->submit(std::move(job));
}

void NodeAgent::post_ack(CkptAck ack) {
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    acks_.push_back(std::move(ack));
  }
  poller_.wake();
}

void NodeAgent::handle_acks() {
  std::vector<CkptAck> acks;
  {
    std::lock_guard<std::mutex> lock(ack_mu_);
    acks.swap(acks_);
  }
  for (CkptAck& a : acks) {
    RankSlot* slot = find_slot(a.rank);
    if (slot == nullptr || slot->id != a.slot_id) continue;  // replaced
    slot->ckpt_in_flight = false;
    slot->ckpt_landed = a.ok;
    if (a.ok) {
      checkpoint_landed(*slot, std::move(a.marks));
      transmit(*slot, slot->out.landed(a.commits));
    } else {
      // The rank keeps running, its senders keep their logs and its
      // receivers wait for its COMMITs to count: the next checkpoint is
      // the retry.
      MOJAVE_LOG(kWarn, "dnode") << "rank " << a.rank
                                 << " checkpoint failed: " << a.error;
    }
    if (slot->ckpt_waiting) {
      slot->ckpt_waiting = false;
      sched_.wake(a.rank);
    }
    if (slot->finish_pending) {
      const RankSlot::Finish f = std::move(*slot->finish_pending);
      slot->finish_pending.reset();
      finish_rank(*slot, f.result_kind, f.exit_code, f.error);
    }
  }
}

bool NodeAgent::await_checkpoint(RankSlot& slot) {
  if (!slot.ckpt_in_flight) return false;  // nothing was submitted
  drain_checkpoints();
  handle_acks();
  return !slot.ckpt_in_flight && slot.ckpt_landed;
}

void NodeAgent::checkpoint_landed(
    RankSlot& slot,
    std::vector<std::pair<std::uint32_t, std::uint64_t>> marks) {
  // Senders learn the marks of the checkpoint before the previous one: a
  // restore that finds the newest checkpoints torn (a crash mid-put, and
  // one more while the agent went down) falls back past them, and must
  // still find its entries logged.
  constexpr std::size_t kFallbacks = 2;
  slot.covered.push_back(std::move(marks));
  if (slot.covered.size() <= kFallbacks) return;
  for (const auto& [src, seq] : slot.covered.front()) {
    if (forward(src, encode_watermark(src, slot.rank, seq))) continue;
    if (RankSlot* sender = find_slot(src)) sender->out.truncate(slot.rank, seq);
  }
  slot.covered.pop_front();
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
  // fails drops its queue; the receivers ask for a resend when they see
  // it drop or re-dialled. An empty frame only dials.
  if (!frame.empty()) lp->sock.queue_frame(std::move(frame));
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
      [this, &proc, &slot](vm::Interpreter& it,
                           std::span<const Value> args) -> Value {
        if (args.size() != 4) throw SafetyError("msg_send arity");
        if (stopping_.load()) throw AgentStopping{};
        const auto dst = static_cast<std::uint32_t>(args[0].as_int());
        const auto tag = static_cast<std::int32_t>(args[1].as_int());
        const runtime::PtrValue buf = args[2].as_ptr();
        const std::int64_t count = args[3].as_int();
        if (count < 0) throw SafetyError("msg_send negative count");
        if (dst >= num_ranks_) return Value::from_int(1);
        // Throttle gate, checked before any side effect so a parked send
        // re-executes cleanly.
        const double now = now_seconds();
        if (now < slot.next_send_at) {
          slot.pending_wait_key = rank_wait_key(slot.rank);
          it.block(slot.next_send_at);
          return Value::unit();
        }
        Writer vw;
        vw.reserve(static_cast<std::size_t>(count) * 9);  // tag + 8 bytes
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
        if (cfg_.throttle_ms > 0) {
          slot.next_send_at = now + cfg_.throttle_ms * 1e-3;
        }
        // Logged, then sent: a receiver that is down or behind a failed
        // link gets it by resend, so a send never fails.
        transmit(slot, slot.out.put(dst, ChannelOp::kData, tag,
                                    duplicate ? 0 : innermost_spec(proc),
                                    static_cast<std::uint32_t>(count),
                                    values));
        return Value::from_int(0);
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
        if (slot.poisoned.exchange(false)) {
          slot.recv.active = false;
          return Value::from_int(1);  // MSG_ROLL
        }
        Inbox& inbox = mail_[rank];
        const auto payload = inbox.consume(src, tag, innermost_spec(proc));
        if (!payload.has_value()) {
          const double now = now_seconds();
          const std::uint64_t wkey = recv_wait_key(
              src,
              static_cast<std::uint64_t>(static_cast<std::uint32_t>(tag)));
          if (!slot.recv.active || slot.recv.key != wkey) {
            slot.recv = RankSlot::RecvWait{true, wkey, src, now};
          }
          if (now - slot.recv.start >= recv_timeout_seconds_) {
            slot.recv.active = false;
            Placement p;
            {
              std::lock_guard<std::mutex> lock(mu_);
              if (src < placement_.size()) p = placement_[src];
            }
            MOJAVE_LOG(kWarn, "dnode")
                << "rank " << rank << " recv from rank " << src << " tag "
                << tag << " timed out after " << recv_timeout_seconds_
                << "s: channel expects seq " << inbox.next_seq(src)
                << "; rank " << src << " is on agent " << p.agent
                << (p.alive ? "" : " (down)") << ", incarnation "
                << p.incarnation;
            return Value::from_int(2);
          }
          slot.pending_wait_key = wkey;
          it.block(slot.recv.start + recv_timeout_seconds_);
          return Value::unit();
        }
        slot.recv.active = false;
        AgentMetrics::get().consumed.inc();
        const DataHeader h = decode_data_header(*payload);
        Reader r(std::span<const std::byte>(*payload).subspan(kDataHeaderBytes));
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
                                   "/" + image_snapshot(rank);
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
      [this, &slot](vm::Interpreter& it,
                    std::span<const Value> args) -> Value {
        const double now = now_seconds();
        if (slot.sleep_until < 0) {
          const std::int64_t ms = args.empty() ? 0 : args[0].as_int();
          slot.sleep_until = now + static_cast<double>(ms) * 1e-3;
        }
        if (now < slot.sleep_until) {
          slot.pending_wait_key = rank_wait_key(slot.rank);
          it.block(slot.sleep_until);
          return Value::unit();
        }
        slot.sleep_until = -1;
        return Value::unit();
      });

  // The join protocol rides the channels: a rollback goes out behind the
  // payloads it reverts and re-queues what this rank consumed under it;
  // a commit to zero makes both durable.
  proc.spec().set_rollback_observer([this, &proc, &slot](SpecLevel level,
                                                         bool) {
    const std::uint64_t id = proc.spec().level_id(level);
    transmit(slot, slot.out.rollback(id));
    mail_[slot.rank].rollback(id);
  });
  proc.spec().set_commit_observer([this, &proc, &slot] {
    const bool level_zero = proc.spec().current_level() == 0;
    const std::uint64_t durable_below =
        level_zero ? ~std::uint64_t{0} : proc.spec().level_id(1);
    // The receivers count the COMMITs once the checkpoint after them
    // landed; a rank with no checkpoint cannot go back past them.
    transmit(slot, slot.out.commit(durable_below, level_zero));
    if (!slot.checkpointed) {
      transmit(slot, slot.out.landed(slot.out.uncovered()));
    }
    mail_[slot.rank].commit(durable_below);
    if (level_zero) slot.sent_hashes.clear();
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
      if (slot.hook && slot.hook->yielded()) {
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
  if (slot.ckpt_in_flight && !stopping_.load()) {
    slot.finish_pending = RankSlot::Finish{result_kind, exit_code, error};
    return;
  }
  ctrl::RankResult res;
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
  slot.last_result = encode_result(slot.rank, res);
  if (!stopping_.load()) {
    // No checkpoint follows the last commits: they count now.
    transmit(slot, slot.out.landed(slot.out.uncovered()));
    send_to_coordinator(slot.last_result);
  }
  slot.done.store(true);
}

void NodeAgent::attach_hooks(RankSlot& slot) {
  slot.migrator = std::make_unique<migrate::Migrator>(*slot.process);
  // Every ckpt:// checkpoint of a rank goes to this agent's store: it is
  // the one RESURRECT restores ranks from.
  slot.migrator->set_ckpt_sink(
      [this, &slot](const std::filesystem::path&, const std::string& snapshot,
                    std::vector<std::byte> image) {
        submit_checkpoint(slot, snapshot, std::move(image));
        return std::size_t{0};
      });
  slot.hook = std::make_unique<RankHook>(*this, slot);
}

void NodeAgent::retire_slot(RankSlot& slot) {
  if (slot.ckpt_in_flight) {
    drain_checkpoints();
    handle_acks();
  }
  sched_.remove(slot.rank);
  std::lock_guard<std::mutex> lock(mu_);
  slots_.erase(slot.rank);
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
    retire_slot(*existing);
  }
  obs::ScopedSpan span("dnode", "agent.run_rank");
  span.set_arg("rank", rank);
  auto slot = std::make_unique<RankSlot>();
  slot->rank = rank;
  slot->id = next_slot_id_++;
  RankSlot* sp = slot.get();
  try {
    fir::Program prog = fir::decode_program(image);
    vm::ProcessConfig pcfg;
    pcfg.heap = cfg_.heap;
    pcfg.max_instructions = max_instructions_;
    sp->process = std::make_unique<vm::Process>(std::move(prog), pcfg);
    register_externals(*sp->process, *sp);
    attach_hooks(*sp);
    sp->process->vm().start(sp->process->vm().compiled().entry, {});
  } catch (const std::exception& e) {
    finish_rank(*sp, 2, 0, e.what());
    adopt_slot(rank, std::move(slot));
    return;
  }
  adopt_slot(rank, std::move(slot));
  // Entries can arrive before LAUNCH, and be lost with a link before
  // anything here could ask for them: then this rank asks every sender.
  if (links_lost_ > 0) request_resends(all_senders(rank, num_ranks_));
  sched_.spawn(rank, [this, sp](RankScheduler::FiberId) {
    return step_rank(*sp);
  });
}

void NodeAgent::resurrect_rank(std::uint32_t rank, std::uint64_t incarnation) {
  if (RankSlot* existing = find_slot(rank)) {
    if (!existing->done.load()) return;  // at-most-one incarnation here
    retire_slot(*existing);
  }
  obs::ScopedSpan span("dnode", "agent.resume_rank");
  span.set_arg("rank", rank);
  auto slot = std::make_unique<RankSlot>();
  slot->rank = rank;
  slot->id = next_slot_id_++;
  slot->checkpointed = true;
  RankSlot* sp = slot.get();
  try {
    const auto blob = store_->restore(image_snapshot(rank));
    if (!blob.has_value()) throw Error("no restorable checkpoint");
    RankCheckpoint ck = decode_rank_checkpoint(*blob);
    vm::ProcessConfig pcfg;
    pcfg.heap = cfg_.heap;
    pcfg.max_instructions = max_instructions_;
    migrate::UnpackResult unpacked = migrate::unpack_process(ck.image, pcfg);
    // The channels resume from the checkpoint too: what arrived here for
    // an earlier incarnation is asked for again once the rank is up.
    sp->out = std::move(ck.out);
    sp->out.start(incarnation, true);
    mail_[rank] = std::move(ck.in);
    sp->process = std::move(unpacked.process);
    register_externals(*sp->process, *sp);
    attach_hooks(*sp);
    sp->process->vm().start(unpacked.resume_fun,
                            std::move(unpacked.resume_args));
    AgentMetrics::get().resurrections.inc();
    MOJAVE_LOG(kInfo, "dnode") << "resurrecting rank " << rank
                               << " (incarnation " << incarnation
                               << ") from checkpoint";
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
  // Ask every sender once for what this incarnation lacks, from where
  // its checkpoint left each channel.
  request_resends(all_senders(rank, num_ranks_));
  sched_.spawn(rank, [this, sp](RankScheduler::FiberId) {
    return step_rank(*sp);
  });
}

}  // namespace mojave::dnode
