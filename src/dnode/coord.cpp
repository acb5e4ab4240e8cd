#include "dnode/coord.hpp"

#include <chrono>

#include "fir/serialize.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/log.hpp"

namespace mojave::dnode {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct CoordMetrics {
  obs::Counter& agent_failures;
  obs::Counter& resurrect_requests;
  obs::Counter& yield_requests;
  obs::Counter& takeovers;
  obs::Counter& readopted_ranks;
  obs::Gauge& live_agents;

  static CoordMetrics& get() {
    auto& r = obs::MetricsRegistry::instance();
    static CoordMetrics m{
        r.counter("node.agent_failures"),
        r.counter("node.resurrect_requests"),
        r.counter("node.yield_requests"),
        r.counter("ctrl.takeovers"),
        r.counter("ctrl.readopted_ranks"),
        r.gauge("node.live_agents"),
    };
    return m;
  }
};

}  // namespace

Coordinator::Coordinator(CoordinatorConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.wal_root.empty()) {
    cfg_.wal_root = temp_wal_root_.emplace("mojave_wal_").path();
  }
  std::filesystem::create_directories(cfg_.wal_root);
  lease_ = std::make_unique<ctrl::Lease>(cfg_.wal_root, cfg_.lease_ttl_seconds);
  if (!lease_->try_acquire()) {
    throw NetError("coordinator lease is held by a live primary");
  }
  ctrl::ReplayStats replayed;
  if (cfg_.resume) {
    // Rebuild the dead primary's state through the same transition
    // function it used live. Side effects are not re-emitted: the frames
    // either reached their agents before the crash or the RE_ADOPT census
    // reconciles the difference.
    replayed = ctrl::replay_wal(
        cfg_.wal_root,
        [this](const ctrl::WalRecord& rec) { (void)state_.apply(rec); });
  }
  resumed_ = cfg_.resume && !replayed.empty();
  if (resumed_) {
    // Adopt the logged run configuration; an explicit agent list on the
    // takeover command line (same cluster, maybe new ports) overrides.
    if (cfg_.agents.empty()) {
      for (const ctrl::AgentEndpoint& a : state_.agents()) {
        cfg_.agents.push_back(AgentAddr{a.host, a.port});
      }
    }
    cfg_.num_ranks = state_.num_ranks();
    cfg_.max_instructions = state_.max_instructions();
    cfg_.recv_timeout_seconds = state_.recv_timeout_seconds();
  }
  if (cfg_.agents.empty()) throw NetError("coordinator needs agents");
  wal_ = std::make_unique<ctrl::WalWriter>(cfg_.wal_root, lease_->epoch());
  // The first record of a new epoch seals everything replay consumed: a
  // zombie primary still appending to an older segment can never get
  // those bytes replayed (docs/CONTROL_PLANE.md, zombie fencing).
  ctrl::WalRecord take;
  take.op = ctrl::WalOp::kTakeover;
  take.seals = replayed.consumed;
  wal_->append(take);
  (void)state_.apply(take);
  wal_->flush();
  if (resumed_) {
    CoordMetrics::get().takeovers.inc();
    MOJAVE_LOG(kInfo, "dnode")
        << "takeover at lease epoch " << lease_->epoch() << ": replayed "
        << replayed.records << " WAL records across " << replayed.segments
        << " segments (" << replayed.sealed_off << " zombie bytes sealed, "
        << replayed.truncated << " torn tails)";
  }
  if (!resumed_) {
    ctrl::WalRecord meta;
    meta.op = ctrl::WalOp::kMeta;
    meta.num_ranks = cfg_.num_ranks;
    for (const AgentAddr& a : cfg_.agents) {
      meta.agents.push_back(ctrl::AgentEndpoint{a.host, a.port});
    }
    meta.max_instructions = cfg_.max_instructions;
    meta.recv_timeout_seconds = cfg_.recv_timeout_seconds;
    wal_->append(meta);
    (void)state_.apply(meta);
    for (std::uint32_t r = 0; r < cfg_.num_ranks; ++r) {
      ctrl::WalRecord p;
      p.op = ctrl::WalOp::kPlacement;
      p.rank = r;
      p.agent = r % static_cast<std::uint32_t>(cfg_.agents.size());
      p.alive = true;
      wal_->append(p);
      (void)state_.apply(p);
    }
    wal_->flush();
  }

  const auto config_frame = [&](std::uint32_t agent) {
    return encode_config(agent, cfg_.num_ranks, cfg_.agents,
                         cfg_.max_instructions, cfg_.recv_timeout_seconds);
  };
  const std::uint64_t epoch = lease_->epoch();
  std::vector<std::uint32_t> unreachable;
  for (std::uint32_t a = 0; a < cfg_.agents.size(); ++a) {
    auto conn = std::make_unique<AgentConn>();
    net::TcpStream stream;
    net::Backoff backoff(cfg_.retry);
    bool connected = false;
    while (true) {
      try {
        stream = net::TcpStream::connect(
            cfg_.agents[a].host, cfg_.agents[a].port, cfg_.retry.deadlines());
        connected = true;
        break;
      } catch (const NetError&) {
        if (!backoff.retry_after_failure()) {
          // A takeover tolerates dead agents (their ranks resurrect
          // elsewhere); a fresh run still needs the full cluster.
          if (resumed_) break;
          throw;
        }
      }
    }
    if (!connected) {
      unreachable.push_back(a);
      conns_.push_back(std::move(conn));
      continue;
    }
    // Session setup stays blocking (the agent must hold CONFIG before any
    // later frame); the stream then moves to the event loop non-blocking.
    stream.send_frame(encode_hello(PeerKind::kCoordinator, a, epoch));
    stream.send_frame(config_frame(a));
    if (resumed_) {
      stream.send_frame(encode_re_adopt(epoch));
      ++readopt_waiting_;
    }
    conn->sock = net::FramedSocket(std::move(stream));
    conn->last_heartbeat = now_seconds();
    poller_.add(conn->sock.fd(), a, true, false);
    conns_.push_back(std::move(conn));
  }
  CoordMetrics::get().live_agents.set(
      static_cast<std::int64_t>(conns_.size()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::uint32_t a : unreachable) agent_down_locked(a);
    if (resumed_) {
      resuming_ = true;
      readopt_deadline_ = now_seconds() + cfg_.heartbeat_timeout_seconds;
      // CONFIG reset every reachable agent's placement map; push the
      // replayed one before their census answers refine it.
      broadcast_placement_locked();
      if (readopt_waiting_ == 0) finish_readopt_locked();
    }
  }
  loop_thread_ = std::thread([this] { loop(); });
}

Coordinator::~Coordinator() {
  shutdown_agents();
  if (loop_thread_.joinable()) loop_thread_.join();
}

void Coordinator::apply_locked(ctrl::WalRecord rec) {
  if (wal_->is_open() && !fenced_.load()) wal_->append(rec);
  (void)state_.apply(rec);
}

std::vector<std::byte> Coordinator::state_snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_.snapshot_bytes();
}

void Coordinator::launch_spmd(const fir::Program& program) {
  const std::vector<std::byte> image = fir::encode_program(program);
  std::lock_guard<std::mutex> lock(mu_);
  broadcast_placement_locked();
  const auto& placement = state_.placement();
  for (std::uint32_t r = 0; r < placement.size(); ++r) {
    send_to_agent(placement[r].agent, encode_launch(r, image));
  }
}

bool Coordinator::wait_all(double timeout_seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  // A resurrection still in flight (a finished rank coming back for its
  // late senders) is part of the run.
  return done_cv_.wait_for(lock,
                           std::chrono::duration<double>(timeout_seconds),
                           [this] {
                             return state_.all_done() &&
                                    pending_resurrect_.empty();
                           });
}

std::vector<RankOutcome> Coordinator::results() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RankOutcome> out(state_.ranks().size());
  for (std::uint32_t r = 0; r < out.size(); ++r) {
    static_cast<ctrl::RankState&>(out[r]) = state_.ranks()[r];
    out[r].rank = r;
  }
  return out;
}

void Coordinator::force_rollback(std::uint32_t rank) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rank >= state_.placement().size()) return;
  send_to_agent(state_.placement()[rank].agent, encode_force_roll(rank));
}

void Coordinator::shutdown_agents() {
  // Queue the SHUTDOWN frames first: the loop's final flush (triggered by
  // stopping_) pushes them out before the thread exits. Every connection
  // with an open socket gets one, including agents the failure detector
  // has declared down — "down" is a suspicion, not ground truth, and a
  // falsely-suspected agent that is actually alive must still be told to
  // exit or a graceful teardown (and anything waitpid-ing on the agent
  // process) hangs forever. A truly dead peer just costs a failed flush.
  bool already = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      already = true;
    } else {
      // All frames must be in the outbox BEFORE stopping_ becomes
      // visible: the loop thread exits its final flush the moment it
      // sees stopping_ with an empty outbox, so a frame queued after
      // that is a dead letter and its agent never exits. A fenced
      // (deposed) instance queues nothing — the agents belong to the
      // new primary now.
      if (!fenced_.load()) {
        std::lock_guard<std::mutex> qlock(outbox_mu_);
        for (std::uint32_t a = 0; a < conns_.size(); ++a) {
          outbox_.emplace_back(a, encode_shutdown());
        }
      }
      if (wal_->is_open() && !fenced_.load()) {
        if (state_.all_done() && !state_.run_complete()) {
          ctrl::WalRecord rec;
          rec.op = ctrl::WalOp::kRunComplete;
          wal_->append(rec);
          (void)state_.apply(rec);
        }
        wal_->close();  // fsync + close: the segment is durable on exit
      }
      if (!fenced_.load()) lease_->release();
      stopping_.store(true);
    }
  }
  if (already) return;
  done_cv_.notify_all();
  poller_.wake();
}

std::uint32_t Coordinator::agent_of(std::uint32_t rank) const {
  std::lock_guard<std::mutex> lock(mu_);
  return rank < state_.placement().size() ? state_.placement()[rank].agent
                                          : kNoAgent;
}

bool Coordinator::agent_alive(std::uint32_t agent) const {
  return agent < conns_.size() && conns_[agent]->alive.load();
}

void Coordinator::send_to_agent(std::uint32_t agent,
                                std::vector<std::byte> frame) {
  if (agent >= conns_.size()) return;
  // Suspected-down agents are only reachable during shutdown (see
  // shutdown_agents()); everything else stops at the suspicion.
  if (!conns_[agent]->alive.load() && !stopping_.load()) return;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_.emplace_back(agent, std::move(frame));
  }
  poller_.wake();
}

void Coordinator::drain_outbox() {
  std::vector<std::pair<std::uint32_t, std::vector<std::byte>>> pending;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    pending.swap(outbox_);
  }
  // Deliver to any open socket, suspected-down or not: frames for dead
  // agents only reach the outbox from shutdown_agents() (send_to_agent
  // gates on liveness) or from a send that raced the down-verdict, and in
  // both cases queuing onto a dead conn is harmless while dropping a
  // SHUTDOWN for a falsely-suspected one strands a live process.
  for (auto& [agent, frame] : pending) {
    if (agent >= conns_.size() || !conns_[agent]->sock.valid()) continue;
    conns_[agent]->sock.queue_frame(std::move(frame));
  }
}

void Coordinator::flush_io() {
  for (std::uint32_t a = 0; a < conns_.size(); ++a) {
    AgentConn& conn = *conns_[a];
    if (!conn.alive.load() || !conn.sock.valid()) continue;
    if (conn.sock.want_write() && !conn.sock.flush()) {
      if (!stopping_.load()) {
        std::lock_guard<std::mutex> lock(mu_);
        agent_down_locked(a);
      }
      continue;
    }
    const bool want = conn.sock.want_write();
    if (want != conn.write_armed) {
      poller_.modify(conn.sock.fd(), a, true, want);
      conn.write_armed = want;
    }
  }
}

void Coordinator::on_agent_event(std::uint32_t agent,
                                 const net::Poller::Event& ev) {
  AgentConn& conn = *conns_[agent];
  if (!conn.alive.load()) return;
  bool dead = ev.error;
  if (ev.readable || ev.hup) {
    std::vector<std::vector<std::byte>> frames;
    if (!conn.sock.on_readable(frames)) dead = true;
    for (const auto& frame : frames) {
      auto m = decode(frame);
      if (!m.has_value()) {
        obs::MetricsRegistry::instance().counter("node.corrupt_frames").inc();
        continue;
      }
      handle_frame(agent, *m);
    }
  }
  if (!dead && ev.writable) {
    if (!conn.sock.flush()) dead = true;
  }
  if (dead) {
    // A SIGKILLed agent closes its sockets instantly; EOF here is the
    // fast failure-detection path (heartbeat timeout is the slow one).
    poller_.remove(conn.sock.fd());
    if (!stopping_.load()) {
      std::lock_guard<std::mutex> lock(mu_);
      agent_down_locked(agent);
    }
  }
}

void Coordinator::handle_frame(std::uint32_t agent, const Msg& m) {
  switch (m.type) {
    case MsgType::kHeartbeat: {
      std::lock_guard<std::mutex> lock(mu_);
      conns_[agent]->last_heartbeat = now_seconds();
      conns_[agent]->load = m.load;
      break;
    }
    case MsgType::kRankYielded:
      handle_rank_yielded(m.rank);
      break;
    case MsgType::kRankUp:
      handle_rank_up(m);
      break;
    case MsgType::kReAdoptAck: {
      std::lock_guard<std::mutex> lock(mu_);
      handle_re_adopt_ack_locked(agent, m);
      break;
    }
    case MsgType::kResult: {
      std::lock_guard<std::mutex> lock(mu_);
      if (m.rank < state_.ranks().size() && !state_.ranks()[m.rank].done) {
        ctrl::WalRecord rec;
        rec.op = ctrl::WalOp::kRankResult;
        rec.rank = m.rank;
        rec.result = m.result;
        apply_locked(std::move(rec));
        migrating_.erase(m.rank);
        pending_resurrect_.erase(m.rank);
        censused_.insert(m.rank);  // a RESULT is as good as a census row
      }
      done_cv_.notify_all();
      break;
    }
    default:
      break;  // agent-bound frames are not ours to handle
  }
}

void Coordinator::issue_resurrect_locked(std::uint32_t rank,
                                         std::uint32_t target) {
  ctrl::WalRecord g;
  g.op = ctrl::WalOp::kResurrectGrant;
  g.rank = rank;
  g.agent = target;
  apply_locked(std::move(g));
  CoordMetrics::get().resurrect_requests.inc();
  send_to_agent(target,
                encode_resurrect(rank, state_.placement()[rank].incarnation));
}

void Coordinator::handle_rank_yielded(std::uint32_t rank) {
  std::lock_guard<std::mutex> lock(mu_);
  if (rank >= state_.placement().size()) return;
  const std::uint32_t from = state_.placement()[rank].agent;
  ctrl::WalRecord down;
  down.op = ctrl::WalOp::kPlacement;
  down.rank = rank;
  down.agent = from;
  down.alive = false;
  apply_locked(std::move(down));
  const std::uint32_t target = pick_target_locked(from);
  if (target == kNoAgent) {
    // Nowhere to go: resurrect where it was (still counts as a restart).
    pending_resurrect_[rank] = PendingResurrect{};
    broadcast_placement_locked();
    return;
  }
  migrations_.fetch_add(1);
  issue_resurrect_locked(rank, target);
  broadcast_placement_locked();
}

void Coordinator::handle_rank_up(const Msg& m) {
  std::lock_guard<std::mutex> lock(mu_);
  if (m.rank >= state_.placement().size()) return;
  if (!m.ok) {
    if (state_.ranks()[m.rank].done) {
      // A finished rank that never checkpointed has nothing to come back
      // from, and its result is already in: stop asking.
      pending_resurrect_.erase(m.rank);
      done_cv_.notify_all();
      return;
    }
    // Usually "no checkpoint yet" — retry after a beat, anywhere live.
    pending_resurrect_[m.rank] =
        PendingResurrect{now_seconds() + 0.1, kNoAgent};
    return;
  }
  resurrections_.fetch_add(1);
  ctrl::WalRecord rec;
  rec.op = ctrl::WalOp::kRankUp;
  rec.rank = m.rank;
  apply_locked(std::move(rec));
  pending_resurrect_.erase(m.rank);
  migrating_.erase(m.rank);
  broadcast_placement_locked();
  done_cv_.notify_all();
}

void Coordinator::handle_re_adopt_ack_locked(std::uint32_t agent,
                                             const Msg& m) {
  if (readopt_waiting_ > 0) --readopt_waiting_;
  const auto& placement = state_.placement();
  for (const CensusEntry& e : m.census) {
    if (e.rank >= placement.size()) continue;
    // A stale yielded/done husk can coexist with the running incarnation
    // the rank migrated to: a running claim always wins the census.
    if (e.state != 0 && censused_.count(e.rank) != 0) continue;
    censused_.insert(e.rank);
    CoordMetrics::get().readopted_ranks.inc();
    switch (e.state) {
      case 0: {  // running right where the agent says
        if (placement[e.rank].agent != agent || !placement[e.rank].alive) {
          ctrl::WalRecord p;
          p.op = ctrl::WalOp::kPlacement;
          p.rank = e.rank;
          p.agent = agent;
          p.alive = true;
          apply_locked(std::move(p));
        }
        pending_resurrect_.erase(e.rank);
        break;
      }
      case 1:  // done; the agent re-sends the RESULT right behind the ack
        pending_resurrect_.erase(e.rank);
        break;
      case 2: {  // yielded: checkpointed and parked, waiting for a grant
        if (!state_.ranks()[e.rank].done) {
          ctrl::WalRecord p;
          p.op = ctrl::WalOp::kPlacement;
          p.rank = e.rank;
          p.agent = agent;
          p.alive = false;
          apply_locked(std::move(p));
          pending_resurrect_[e.rank] = PendingResurrect{};
        }
        break;
      }
      default:
        break;
    }
  }
  if (resuming_ && readopt_waiting_ == 0) finish_readopt_locked();
}

void Coordinator::finish_readopt_locked() {
  if (!resuming_) return;
  resuming_ = false;
  readopt_deadline_ = 0;
  const auto& placement = state_.placement();
  for (std::uint32_t r = 0; r < placement.size(); ++r) {
    if (state_.ranks()[r].done || censused_.count(r) != 0) continue;
    // No agent accounts for this rank: it died with the old primary's
    // view of the world. Same treatment as a rank lost with its agent:
    // the PLACEMENT below marks it not alive, which voids its
    // non-durable entries at every receiver, and it resurrects from its
    // last checkpoint.
    if (placement[r].alive) {
      ctrl::WalRecord p;
      p.op = ctrl::WalOp::kPlacement;
      p.rank = r;
      p.agent = placement[r].agent;
      p.alive = false;
      apply_locked(std::move(p));
    }
    pending_resurrect_[r] = PendingResurrect{};
  }
  broadcast_placement_locked();
  censused_.clear();
  MOJAVE_LOG(kInfo, "dnode") << "takeover reconciliation complete";
}

void Coordinator::agent_down_locked(std::uint32_t agent) {
  if (!conns_[agent]->alive.exchange(false)) return;
  // Deregister the fd: on_agent_event() ignores suspected-down conns, so
  // leaving it armed would make every unread byte a level-triggered
  // wakeup — the loop would spin hot forever on a peer that keeps
  // talking. The socket itself stays open for shutdown_agents().
  if (conns_[agent]->sock.valid()) poller_.remove(conns_[agent]->sock.fd());
  CoordMetrics::get().agent_failures.inc();
  CoordMetrics::get().live_agents.add(-1);
  MOJAVE_LOG(kInfo, "dnode") << "agent " << agent << " is down";
  // Snapshot which live ranks the verdict hits before the transition
  // flips them to not-alive.
  std::vector<std::uint32_t> hit;
  const auto& placement = state_.placement();
  for (std::uint32_t r = 0; r < placement.size(); ++r) {
    if (placement[r].agent == agent && placement[r].alive) hit.push_back(r);
  }
  ctrl::WalRecord rec;
  rec.op = ctrl::WalOp::kAgentDown;
  rec.agent = agent;
  apply_locked(std::move(rec));
  // Finished ranks come back too. The verdict marks them not-alive, and a
  // neighbour re-executing its last interval after a rollback may still
  // send to them: those entries wait in its log for an incarnation to
  // deliver them to. The resurrected incarnation re-runs from its last
  // checkpoint; its second RESULT is a duplicate the state machine
  // ignores. One without a checkpoint answers RANK_UP(false) and is
  // dropped (handle_rank_up).
  for (const std::uint32_t r : hit) pending_resurrect_[r] = PendingResurrect{};
  broadcast_placement_locked();
}

std::uint32_t Coordinator::pick_target_locked(std::uint32_t except) const {
  std::uint32_t best = kNoAgent;
  double best_load = 0;
  for (std::uint32_t a = 0; a < conns_.size(); ++a) {
    if (a == except || !conns_[a]->alive.load()) continue;
    if (best == kNoAgent || conns_[a]->load < best_load) {
      best = a;
      best_load = conns_[a]->load;
    }
  }
  if (best == kNoAgent && except < conns_.size() &&
      conns_[except]->alive.load()) {
    return except;  // the only live agent is the one we hoped to avoid
  }
  return best;
}

void Coordinator::broadcast_placement_locked() {
  std::vector<PlacementEntry> entries;
  const auto& placement = state_.placement();
  entries.reserve(placement.size());
  for (std::uint32_t r = 0; r < placement.size(); ++r) {
    entries.push_back(PlacementEntry{r, placement[r].agent, placement[r].alive,
                                     placement[r].incarnation});
  }
  const auto frame = encode_placement(entries);
  for (std::uint32_t a = 0; a < conns_.size(); ++a) {
    if (conns_[a]->alive.load()) send_to_agent(a, frame);
  }
}

void Coordinator::balance_locked(double now) {
  if (cfg_.balance_interval_seconds <= 0) return;
  if (now - last_balance_ < cfg_.balance_interval_seconds) return;
  last_balance_ = now;
  std::uint32_t max_agent = kNoAgent, min_agent = kNoAgent;
  for (std::uint32_t a = 0; a < conns_.size(); ++a) {
    if (!conns_[a]->alive.load()) continue;
    if (max_agent == kNoAgent || conns_[a]->load > conns_[max_agent]->load) {
      max_agent = a;
    }
    if (min_agent == kNoAgent || conns_[a]->load < conns_[min_agent]->load) {
      min_agent = a;
    }
  }
  if (max_agent == kNoAgent || max_agent == min_agent) return;
  if (conns_[max_agent]->load - conns_[min_agent]->load <
      cfg_.balance_threshold) {
    return;
  }
  const auto& placement = state_.placement();
  for (std::uint32_t r = 0; r < placement.size(); ++r) {
    if (placement[r].agent != max_agent || !placement[r].alive) continue;
    if (state_.ranks()[r].done || migrating_.count(r) != 0) continue;
    MOJAVE_LOG(kInfo, "dnode")
        << "balancer: yielding rank " << r << " off agent " << max_agent
        << " (load " << conns_[max_agent]->load << " vs "
        << conns_[min_agent]->load << ")";
    CoordMetrics::get().yield_requests.inc();
    migrating_.insert(r);
    send_to_agent(max_agent, encode_yield_rank(r));
    return;  // one rank per balancing round
  }
}

void Coordinator::monitor_tick(double now) {
  // Lease renewal rides the monitor cadence. Failing to renew means a
  // standby already owns a higher epoch: this instance is a zombie. It
  // fences itself — no more WAL appends, no more SHUTDOWN authority —
  // and the agents reject its epoch if it ever reconnects.
  if (!fenced_.load() && now >= next_lease_renew_) {
    next_lease_renew_ = now + lease_->ttl_seconds() / 3.0;
    if (!lease_->renew()) {
      fenced_.store(true);
      MOJAVE_LOG(kWarn, "dnode")
          << "coordinator deposed (lease lost); fencing all writes";
    }
  }
  std::lock_guard<std::mutex> lock(mu_);
  // Batched WAL durability: appends since the last tick hit disk here
  // (and unconditionally at close).
  if (wal_->is_open() && now >= next_wal_flush_) {
    next_wal_flush_ = now + 0.05;
    wal_->flush();
  }
  if (resuming_ && readopt_deadline_ > 0 && now >= readopt_deadline_) {
    MOJAVE_LOG(kWarn, "dnode")
        << "re-adopt census incomplete at deadline; reconciling without "
        << readopt_waiting_ << " acks";
    finish_readopt_locked();
  }
  for (std::uint32_t a = 0; a < conns_.size(); ++a) {
    if (!conns_[a]->alive.load()) continue;
    if (now - conns_[a]->last_heartbeat > cfg_.heartbeat_timeout_seconds) {
      agent_down_locked(a);
    }
  }
  if (resuming_) return;  // resurrects/balancing wait for the census
  for (auto it = pending_resurrect_.begin();
       it != pending_resurrect_.end(); ++it) {
    const std::uint32_t rank = it->first;
    PendingResurrect& pr = it->second;
    if (now < pr.not_before) continue;
    // Re-issue to the pinned target while it lives (the agent's own
    // at-most-one-incarnation guard makes the repeat idempotent); only
    // pick a new home when there is none.
    if (pr.target == kNoAgent || !conns_[pr.target]->alive.load()) {
      pr.target = pick_target_locked(kNoAgent);
    }
    if (pr.target == kNoAgent) break;  // no live agents; keep pending
    issue_resurrect_locked(rank, pr.target);
    // Re-arm far enough out that a slow restore is not double-issued;
    // RANK_UP erases the entry.
    pr.not_before = now + 1.0;
  }
  balance_locked(now);
}

void Coordinator::loop() {
  constexpr double kMonitorInterval = 0.02;
  std::vector<net::Poller::Event> events;
  double next_monitor = now_seconds() + kMonitorInterval;
  while (!stopping_.load()) {
    const double now = now_seconds();
    int timeout_ms = static_cast<int>((next_monitor - now) * 1000.0) + 1;
    if (timeout_ms < 0) timeout_ms = 0;
    if (timeout_ms > 20) timeout_ms = 20;
    poller_.wait(events, timeout_ms);
    if (stopping_.load()) break;
    drain_outbox();
    for (const net::Poller::Event& ev : events) {
      if (ev.token < conns_.size()) {
        on_agent_event(static_cast<std::uint32_t>(ev.token), ev);
      }
    }
    const double after = now_seconds();
    if (after >= next_monitor) {
      next_monitor = after + kMonitorInterval;
      monitor_tick(after);
    }
    drain_outbox();  // frames queued by handlers and the monitor
    flush_io();
  }
  final_flush();
}

void Coordinator::final_flush() {
  // Best-effort: give the queued SHUTDOWN frames a moment to reach the
  // agents; anything unflushed dies with the connection (a killed agent
  // is already gone anyway).
  const double deadline = now_seconds() + 0.5;
  std::vector<net::Poller::Event> events;
  while (now_seconds() < deadline) {
    drain_outbox();
    bool pending = false;
    for (auto& conn : conns_) {
      if (!conn->sock.valid()) continue;
      if (conn->sock.want_write() && !conn->sock.flush()) {
        // Truly dead peer: close it so the retry loop stops trying.
        conn->alive.store(false);
        conn->sock = net::FramedSocket();
        continue;
      }
      pending = pending || conn->sock.want_write();
    }
    {
      std::lock_guard<std::mutex> lock(outbox_mu_);
      pending = pending || !outbox_.empty();
    }
    if (!pending) break;
    poller_.wait(events, 5);
  }
}

}  // namespace mojave::dnode
