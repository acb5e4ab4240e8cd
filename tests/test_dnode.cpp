// Distributed node runtime tests (src/dnode).
//
// The DnodeE2E suite is the acceptance scenario of the distributed
// runtime: real `mojc node` OS processes on real TCP ports, an in-process
// Coordinator, the Figure-2 heat grid split across agents, an agent
// SIGKILLed mid-run (its ranks resurrect from the shared ckpt:// store on
// the survivor), a forced cross-agent speculation rollback — and the final
// sums still bit-match the sequential reference, exactly as the Grid
// suites demand of in-process agents.
//
// The DnodeCluster suite runs agents in-process (same code, no fork) so
// the TSan job exercises the agent/coordinator locking.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "ckpt/store.hpp"
#include "ctrl/lease.hpp"
#include "dnode/agent.hpp"
#include "dnode/channel.hpp"
#include "dnode/coord.hpp"
#include "dnode/wire.hpp"
#include "fir/serialize.hpp"
#include "frontend/compile.hpp"
#include "gridapp/heat.hpp"
#include "migrate/image.hpp"
#include "net/chaos.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"
#include "support/tempdir.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mojave;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::temp_directory_path() / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// One `mojc node` child process. The ready line on its stdout carries
/// the port the agent actually bound (it asks the OS for a free one).
struct AgentProc {
  pid_t pid = -1;
  int out_fd = -1;
  std::uint16_t port = 0;

  void start(const fs::path& storage, double throttle_ms = 0) {
    int fds[2];
    ASSERT_EQ(::pipe(fds), 0);
    pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::dup2(fds[1], STDOUT_FILENO);
      ::close(fds[0]);
      ::close(fds[1]);
      const std::string throttle = std::to_string(throttle_ms);
      ::execl(MOJC_BIN, "mojc", "node", "--storage", storage.c_str(),
              "--port", "0", "--throttle-ms", throttle.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);  // exec failed
    }
    ::close(fds[1]);
    out_fd = fds[0];
    // Read "DNODE_READY port=N\n".
    std::string line;
    char c = 0;
    while (::read(out_fd, &c, 1) == 1 && c != '\n') line.push_back(c);
    const auto eq = line.rfind('=');
    ASSERT_NE(eq, std::string::npos) << "no ready line, got: " << line;
    port = static_cast<std::uint16_t>(std::stoi(line.substr(eq + 1)));
    ASSERT_GT(port, 0);
  }

  /// The failure under test: SIGKILL, as abrupt as a machine loss gets
  /// short of pulling cables. No flush, no goodbye frame.
  void kill_hard() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
      pid = -1;
    }
  }

  /// Graceful exit after the coordinator's SHUTDOWN frame.
  int reap() {
    int status = 0;
    if (pid > 0) {
      ::waitpid(pid, &status, 0);
      pid = -1;
    }
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  ~AgentProc() {
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, nullptr, 0);
    }
    if (out_fd >= 0) ::close(out_fd);
  }
};

dnode::CoordinatorConfig coord_config(
    const std::vector<std::uint16_t>& ports, std::uint32_t ranks) {
  dnode::CoordinatorConfig cfg;
  for (const std::uint16_t p : ports) {
    cfg.agents.push_back({"127.0.0.1", p});
  }
  cfg.num_ranks = ranks;
  cfg.recv_timeout_seconds = 60.0;
  return cfg;
}

void expect_sums_match(const dnode::Coordinator& coord,
                       const gridapp::HeatConfig& cfg) {
  const auto ref = gridapp::heat_reference_sums(cfg);
  const auto results = coord.results();
  ASSERT_EQ(results.size(), cfg.nodes);
  for (const dnode::RankOutcome& r : results) {
    EXPECT_TRUE(r.done) << "rank " << r.rank;
    EXPECT_EQ(r.result_kind, 0) << "rank " << r.rank << ": " << r.error;
    ASSERT_TRUE(r.has_reported) << "rank " << r.rank << " never reported";
    EXPECT_NEAR(r.reported, ref[r.rank], 1e-9) << "rank " << r.rank;
  }
}

TEST(DnodeE2E, HeatAcrossTwoAgentsMatchesSingleProcessCluster) {
  const fs::path storage = fresh_dir("mojave_dnode_e2e_plain");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 4;
  hcfg.rows = 16;
  hcfg.cols = 12;
  hcfg.steps = 20;
  hcfg.checkpoint_interval = 0;

  AgentProc a0, a1;
  a0.start(storage);
  a1.start(storage);

  dnode::Coordinator coord(coord_config({a0.port, a1.port}, hcfg.nodes));
  coord.launch_spmd(gridapp::heat_program(hcfg));
  ASSERT_TRUE(coord.wait_all(120.0)) << "distributed run timed out";
  expect_sums_match(coord, hcfg);

  // Same program, every agent in this one process: identical answers.
  // (The reference sums pin both, but this is the equivalence the runtime
  // promises: the transport varies, the results do not.)
  const auto local = gridapp::run_heat(hcfg);
  ASSERT_TRUE(local.all_clean);
  const auto dist = coord.results();
  for (std::uint32_t r = 0; r < hcfg.nodes; ++r) {
    EXPECT_NEAR(dist[r].reported, local.sums[r], 1e-9) << "rank " << r;
  }

  coord.shutdown_agents();
  EXPECT_EQ(a0.reap(), 0);
  EXPECT_EQ(a1.reap(), 0);
}

/// Fault-free checkpointing on two agents that share one store root.
/// Each agent's online GC must leave the other's chunks alone: afterwards
/// a fresh store instance verifies clean and restores every rank
/// checkpoint at its latest seq, without falling back, into an image and
/// channels that decode.
TEST(DnodeE2E, FaultFreeCheckpointsLeaveAVerifiableStore) {
  const fs::path storage = fresh_dir("mojave_dnode_e2e_ckpt_store");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 4;
  hcfg.rows = 16;
  hcfg.cols = 8;
  hcfg.steps = 60;
  hcfg.checkpoint_interval = 4;

  AgentProc a0, a1;
  a0.start(storage);
  a1.start(storage);

  dnode::Coordinator coord(coord_config({a0.port, a1.port}, hcfg.nodes));
  coord.launch_spmd(gridapp::heat_program(hcfg));
  ASSERT_TRUE(coord.wait_all(120.0)) << "checkpointing run timed out";
  expect_sums_match(coord, hcfg);
  coord.shutdown_agents();
  EXPECT_EQ(a0.reap(), 0);
  EXPECT_EQ(a1.reap(), 0);

  ckpt::CheckpointStore store(storage);
  const auto report = store.verify();
  EXPECT_TRUE(report.ok()) << report.chunks_missing << " chunk(s) missing, "
                           << report.chunks_corrupt << " corrupt, "
                           << report.manifests_corrupt << " bad manifest(s)";
  EXPECT_EQ(store.snapshots().size(), hcfg.nodes) << "one snapshot per rank";
  for (std::uint32_t r = 0; r < hcfg.nodes; ++r) {
    const std::string name = "rank_" + std::to_string(r);
    ckpt::RestoreStats rs;
    const auto back = store.restore(name, &rs);
    ASSERT_TRUE(back.has_value()) << name << " does not restore";
    EXPECT_GT(rs.seq, 0u) << name;
    EXPECT_EQ(rs.seq, store.latest_seq(name)) << name;
    EXPECT_EQ(rs.manifests_skipped, 0u) << name;
    const dnode::RankCheckpoint ck = dnode::decode_rank_checkpoint(*back);
    EXPECT_NO_THROW((void)migrate::inspect_image(ck.image)) << name;
  }
}

TEST(DnodeWire, OlderWireFormatIsReportedNotCountedAsCorrupt) {
  std::vector<std::string> errors;
  Logger::instance().set_sink(
      [&](LogLevel level, const std::string&, const std::string& msg) {
        if (level == LogLevel::kError) errors.push_back(msg);
      });
  // A heartbeat as a DNO1 build frames it: old magic, FNV-1a trailer.
  auto frame = dnode::encode_heartbeat(1, 0.5, 2);
  ASSERT_TRUE(dnode::decode(frame).has_value());
  frame.resize(frame.size() - 8);
  Writer head;
  head.u32(dnode::kWireMagicV1);
  std::copy(head.view().begin(), head.view().end(), frame.begin());
  Writer trailer;
  trailer.u64(fnv1a(frame));
  frame.insert(frame.end(), trailer.view().begin(), trailer.view().end());

  EXPECT_FALSE(dnode::decode(frame).has_value());
  EXPECT_FALSE(dnode::decode(frame).has_value());
  Logger::instance().set_sink(nullptr);
  ASSERT_EQ(errors.size(), 1u) << "reported once per process";
  EXPECT_NE(errors[0].find("DNO1"), std::string::npos) << errors[0];
}

/// The wire checksum is the only corruption check between agents: a frame
/// with any one byte changed, in the header or the payload, must not
/// decode.
TEST(DnodeWire, AnySingleFlippedByteIsRejected) {
  ctrl::RankResult result;
  result.exit_code = 7;
  result.output = "hello";
  const std::vector<std::byte> payload(40, std::byte{0x5a});
  const std::vector<std::vector<std::byte>> frames = {
      dnode::encode_data(1, 2, 9, payload),
      dnode::encode_config(1, 4, {{"127.0.0.1", 4000}}, 0, 30.0),
      dnode::encode_result(3, result),
  };
  for (const auto& frame : frames) {
    ASSERT_TRUE(dnode::decode(frame).has_value());
    for (std::size_t i = 0; i < frame.size(); ++i) {
      for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
        auto bad = frame;
        bad[i] ^= std::byte{mask};
        EXPECT_FALSE(dnode::decode(bad).has_value())
            << "byte " << i << " of " << frame.size() << " ^ " << int{mask};
      }
    }
  }
}

/// A RESEND frame carries every channel one agent asks another for.
TEST(DnodeWire, ResendListRoundTrips) {
  const std::vector<dnode::ResendEntry> entries = {
      {0, 1, 1}, {2, 1, 7}, {0, 3, 0x0123456789abcdefull}, {4294967295u, 5, 9}};
  const auto m = dnode::decode(dnode::encode_resend(3, entries));
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, dnode::MsgType::kResend);
  EXPECT_EQ(m->agent, 3u);
  EXPECT_EQ(m->resends, entries);

  const auto empty = dnode::decode(dnode::encode_resend(1, {}));
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->resends.empty());

  // A count larger than the body holds is corrupt, not an allocation.
  auto frame = dnode::encode_resend(3, entries);
  frame.resize(frame.size() - 8);  // drop the checksum
  Writer count;
  count.u32(1000000);
  std::copy(count.view().begin(), count.view().end(), frame.begin() + 9);
  Writer sum;
  sum.u64(xxh64(frame));
  frame.insert(frame.end(), sum.view().begin(), sum.view().end());
  EXPECT_FALSE(dnode::decode(frame).has_value());
}

/// A frame from a DNO4 build (one channel per RESEND) is dropped and
/// named, not misread as a list.
TEST(DnodeWire, Dno4FramesAreRejectedByName) {
  std::vector<std::string> errors;
  Logger::instance().set_sink(
      [&](LogLevel level, const std::string&, const std::string& msg) {
        if (level == LogLevel::kError) errors.push_back(msg);
      });
  auto frame = dnode::encode_resend(1, {{2, 3, 4}});
  frame.resize(frame.size() - 8);
  Writer head;
  head.u32(0x344f4e44);  // "DNO4"
  std::copy(head.view().begin(), head.view().end(), frame.begin());
  Writer sum;
  sum.u64(xxh64(frame));
  frame.insert(frame.end(), sum.view().begin(), sum.view().end());
  EXPECT_FALSE(dnode::decode(frame).has_value());
  Logger::instance().set_sink(nullptr);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("DNO4"), std::string::npos) << errors[0];
}

/// A DATA body shorter than its header is corrupt even under a valid
/// checksum: the receiving agent reads that header on its event loop.
TEST(DnodeWire, DataShorterThanItsHeaderIsRejected) {
  const std::vector<std::byte> header_only =
      dnode::encode_data_payload(dnode::DataHeader{}, {});
  ASSERT_EQ(header_only.size(), dnode::kDataHeaderBytes);
  EXPECT_TRUE(dnode::decode(dnode::encode_data(1, 2, 9, header_only)));
  for (std::size_t n = 0; n < dnode::kDataHeaderBytes; ++n) {
    const std::vector<std::byte> shorter(
        header_only.begin(), header_only.begin() + static_cast<long>(n));
    EXPECT_FALSE(dnode::decode(dnode::encode_data(1, 2, 9, shorter)))
        << n << " bytes";
  }
}

/// Acceptance under a hostile wire: every byte into agent 1 crosses a
/// WireChaosProxy that adds latency, fragments writes, and hard-resets
/// the first cross-agent data link mid-frame. The coordinator dials
/// agent 1 first (proxy connection #1, carrying hello/config/launch in
/// fragments); agent 0's data link to agent 1 is connection #2 and gets
/// the reset. Recovery is the replay path: the receiver re-requests the
/// lost message from the sender's replay log, the sender redials through
/// the proxy, and the run must still bit-match the reference sums.
TEST(DnodeE2E, HeatSurvivesDelaySplitWritesAndMidFrameReset) {
  const fs::path storage = fresh_dir("mojave_dnode_e2e_wirechaos");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 4;
  hcfg.rows = 16;
  hcfg.cols = 12;
  hcfg.steps = 20;
  hcfg.checkpoint_interval = 8;

  AgentProc a0, a1;
  a0.start(storage);
  a1.start(storage);

  net::WireFaults faults;
  faults.delay_seconds = 0.001;
  faults.split_bytes = 256;
  faults.reset_conn = 2;
  faults.reset_after_bytes = 1200;  // mid-run, mid-frame on the data link
  net::WireChaosProxy proxy("127.0.0.1", a1.port, faults);

  dnode::Coordinator coord(coord_config({a0.port, proxy.port()}, hcfg.nodes));
  coord.launch_spmd(gridapp::heat_program(hcfg));
  ASSERT_TRUE(coord.wait_all(120.0)) << "chaotic-wire run timed out";
  expect_sums_match(coord, hcfg);

  const auto stats = proxy.stats();
  EXPECT_GE(stats.connections, 2u);  // coordinator + agent 0's data link
  EXPECT_GT(stats.split_writes, 0u);
  EXPECT_EQ(stats.resets, 1u) << "the condemned connection never reset";

  coord.shutdown_agents();
  EXPECT_EQ(a0.reap(), 0);
  EXPECT_EQ(a1.reap(), 0);
}

TEST(DnodeE2E, AgentDeathResurrectsRanksAndPoisonCrossesAgents) {
  const fs::path storage = fresh_dir("mojave_dnode_e2e_kill");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 4;
  hcfg.rows = 16;
  hcfg.cols = 8;
  hcfg.steps = 48;
  hcfg.checkpoint_interval = 8;

  AgentProc a0, a1;
  a0.start(storage);
  a1.start(storage);

  dnode::Coordinator coord(coord_config({a0.port, a1.port}, hcfg.nodes));
  coord.launch_spmd(gridapp::heat_program(hcfg));

  // Force cross-agent rollbacks: rank 2 (agent 0) reports MSG_ROLL at its
  // next receive and rolls back; the ROLLBACK entries on its channels
  // poison ranks 1 and 3 on the other agent if they consumed its
  // speculative halos. (The in-process suites count those poisons; these
  // agents are other processes.)
  //
  // Round-robin placement put ranks 1 and 3 on agent 1. Resurrection can
  // only restore what was checkpointed, so wait for both of the victim's
  // ranks to reach the shared store before pulling the plug.
  const auto store = ckpt::CheckpointStore::open_shared(storage);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (int forced = 0;
       (!store->has_snapshot("rank_1") || !store->has_snapshot("rank_3")) &&
       std::chrono::steady_clock::now() < deadline;
       ++forced) {
    if (forced % 10 == 0 && forced < 50) coord.force_rollback(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(store->has_snapshot("rank_1")) << "rank 1 never checkpointed";
  ASSERT_TRUE(store->has_snapshot("rank_3")) << "rank 3 never checkpointed";

  a1.kill_hard();

  ASSERT_TRUE(coord.wait_all(120.0)) << "run did not recover from the kill";
  expect_sums_match(coord, hcfg);

  // Both of the dead agent's ranks came back on the survivor...
  EXPECT_GE(coord.resurrections(), 2u);
  EXPECT_EQ(coord.agent_of(1), 0u);
  EXPECT_EQ(coord.agent_of(3), 0u);
  EXPECT_FALSE(coord.agent_alive(1));
  // ...and every avalanche the forced rollbacks and the kill set off
  // terminated (wait_all returned).
  const auto results = coord.results();
  std::uint64_t restarts = 0, rollbacks = 0;
  for (const auto& r : results) {
    restarts += r.restarts;
    rollbacks += r.rollbacks;
  }
  EXPECT_GE(restarts, 2u);
  EXPECT_GE(rollbacks, 1u);

  coord.shutdown_agents();
  EXPECT_EQ(a0.reap(), 0);
}

/// The HA acceptance scenario (docs/CONTROL_PLANE.md): the *coordinator*
/// is the process that dies. A real `mojc cluster --wal-root` primary is
/// SIGKILLed mid-heat-grid; the agents hold their ranks through their
/// grace window; an in-process standby waits out the lease, replays the
/// WAL, seals the dead primary's segment, and RE-ADOPTs the
/// still-running agents. The run must complete with zero rank loss (no
/// resurrection — nothing below the control plane failed) and the sums
/// must still bit-match the sequential reference.
TEST(DnodeE2E, CoordinatorKillFailsOverToStandbyWithSameSums) {
  const fs::path storage = fresh_dir("mojave_dnode_e2e_ha");
  const fs::path wal = fresh_dir("mojave_dnode_e2e_ha_wal");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 4;
  hcfg.rows = 16;
  hcfg.cols = 8;
  hcfg.steps = 48;
  hcfg.checkpoint_interval = 8;

  const fs::path prog = storage / "heat.mjc";
  {
    std::ofstream out(prog);
    out << gridapp::heat_mojc_source(hcfg);
  }

  AgentProc a0, a1;
  a0.start(storage);
  a1.start(storage);

  const std::string nodes = "127.0.0.1:" + std::to_string(a0.port) +
                            ",127.0.0.1:" + std::to_string(a1.port);
  const pid_t primary = ::fork();
  ASSERT_GE(primary, 0);
  if (primary == 0) {
    ::execl(MOJC_BIN, "mojc", "cluster", "--nodes", nodes.c_str(),
            "--ranks", "4", "--wal-root", wal.c_str(), "--lease-ttl", "1.0",
            "run", prog.c_str(), static_cast<char*>(nullptr));
    ::_exit(127);
  }

  // Mid-run marker: with checkpoint_interval 8 of 48 steps, the first
  // snapshots land early — the run is well underway and far from done.
  const auto store = ckpt::CheckpointStore::open_shared(storage);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while ((!store->has_snapshot("rank_1") || !store->has_snapshot("rank_3")) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(store->has_snapshot("rank_1")) << "rank 1 never checkpointed";
  ASSERT_TRUE(store->has_snapshot("rank_3")) << "rank 3 never checkpointed";

  // kill -9 the primary: no WAL close, no lease release, no goodbye.
  ::kill(primary, SIGKILL);
  ::waitpid(primary, nullptr, 0);

  // Standby protocol: wait out the dead primary's lease...
  const auto lease_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (true) {
    const auto info = ctrl::Lease::read(wal);
    if (!info.has_value() || info->expired(ctrl::Lease::wall_now())) break;
    ASSERT_LT(std::chrono::steady_clock::now(), lease_deadline)
        << "dead primary's lease never expired";
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  // ...then take over: replay, seal, re-adopt. No launch_spmd — the
  // ranks are already running on the agents.
  auto ccfg = coord_config({a0.port, a1.port}, hcfg.nodes);
  ccfg.wal_root = wal;
  ccfg.lease_ttl_seconds = 1.0;
  ccfg.resume = true;
  dnode::Coordinator coord(std::move(ccfg));
  EXPECT_TRUE(coord.resumed());
  EXPECT_GE(coord.lease_epoch(), 2u);

  ASSERT_TRUE(coord.wait_all(120.0)) << "standby did not complete the run";
  expect_sums_match(coord, hcfg);
  // Zero rank loss: the agents never died, so the takeover must re-adopt
  // every rank rather than resurrect any.
  EXPECT_EQ(coord.resurrections(), 0u);
  EXPECT_FALSE(coord.fenced());

  coord.shutdown_agents();
  EXPECT_EQ(a0.reap(), 0);
  EXPECT_EQ(a1.reap(), 0);
}

TEST(DnodeCluster, InProcessAgentsRunHeatGrid) {
  const fs::path storage = fresh_dir("mojave_dnode_inproc");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 2;
  hcfg.rows = 8;
  hcfg.cols = 8;
  hcfg.steps = 16;
  hcfg.checkpoint_interval = 4;

  dnode::AgentConfig acfg;
  acfg.storage_root = storage;
  dnode::NodeAgent a0(acfg), a1(acfg);

  dnode::Coordinator coord(coord_config({a0.port(), a1.port()}, hcfg.nodes));
  coord.launch_spmd(gridapp::heat_program(hcfg));
  ASSERT_TRUE(coord.wait_all(120.0));
  expect_sums_match(coord, hcfg);
  // Round-robin placement, undisturbed (no faults, no balancing).
  EXPECT_EQ(coord.agent_of(0), 0u);
  EXPECT_EQ(coord.agent_of(1), 1u);
  coord.shutdown_agents();
}

/// A finished rank whose agent dies must come back: a neighbour that still
/// sends to it — as one re-executing its last interval after a rollback
/// does — would otherwise see every msg_send fail, roll back and retry
/// forever. Rank 0 checkpoints and finishes; its agent is stopped; rank 1
/// then sends to it.
TEST(DnodeCluster, FinishedRankOnAStoppedAgentIsResurrectedForLateSenders) {
  const fs::path storage = fresh_dir("mojave_dnode_finished_rank");
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    extern ptr checkpoint_target();
    extern void sleep_ms(int);
    int main() {
      ptr buf = alloc(1);
      buf[0] = 7;
      if (node_id() == 0) {
        migrate(checkpoint_target());
        return 0;
      }
      /* Rank 0 never sends tag 1: this receive ends once rank 0's agent
         is declared down (MSG_ROLL), or at the receive timeout. */
      int r = msg_recv(0, 1, buf, 1);
      int s = msg_send(0, 2, buf, 1);
      while (s != 0) {
        sleep_ms(5);
        s = msg_send(0, 2, buf, 1);
      }
      return 0;
    }
  )";

  dnode::AgentConfig acfg;
  acfg.storage_root = storage;
  dnode::NodeAgent a0(acfg), a1(acfg);
  auto ccfg = coord_config({a0.port(), a1.port()}, 2);
  ccfg.recv_timeout_seconds = 5.0;
  dnode::Coordinator coord(std::move(ccfg));
  coord.launch_spmd(frontend::compile_source("late_send", src));

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!coord.results()[0].done &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(coord.results()[0].done) << "rank 0 never finished";
  a0.stop();

  ASSERT_TRUE(coord.wait_all(15.0))
      << "rank 1 never got a message through to the finished rank";
  const auto results = coord.results();
  EXPECT_EQ(results[1].result_kind, 0) << results[1].error;
  EXPECT_EQ(results[1].exit_code, 0);
  EXPECT_GE(coord.resurrections(), 1u);
  EXPECT_EQ(coord.agent_of(0), 1u);
  coord.shutdown_agents();
}

/// A finished rank that never checkpointed has nothing to come back
/// from: after its agent stops, the coordinator asks once and, told
/// there is no checkpoint, stops asking — instead of re-issuing a
/// RESURRECT (and a WAL grant) ten times a second until the run ends.
TEST(DnodeCluster, FinishedRankWithoutACheckpointIsAskedForOnce) {
  const std::string src = R"(
    extern int node_id();
    extern void sleep_ms(int);
    int main() {
      if (node_id() == 1) { sleep_ms(800); }
      return 0;
    }
  )";
  auto& requests =
      obs::MetricsRegistry::instance().counter("node.resurrect_requests");
  std::uint64_t before = 0;
  const auto run = gridapp::run_spmd(
      frontend::compile_source("no_ckpt", src), 2, std::nullopt,
      [&](gridapp::LocalCluster& cl) {
        for (int i = 0; i < 10000 && !cl.coordinator().results()[0].done;
             ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ASSERT_TRUE(cl.coordinator().results()[0].done);
        before = requests.value();
        ASSERT_TRUE(cl.kill_host_of(0));
      });
  ASSERT_TRUE(run.all_clean) << run.ranks[1].error;
  EXPECT_LE(requests.value() - before, 1u);
  EXPECT_EQ(run.resurrections, 0u);
}

/// A rollback of a nested speculation does not revert what its sender
/// sent at the outer level: both sends of one tag reach the receiver, in
/// order, although the second carries a newer rollback epoch.
TEST(DnodeCluster, NestedAbortKeepsEarlierSendsOfTheSameTag) {
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    extern void sleep_ms(int);
    int main() {
      ptr buf = alloc(1);
      if (node_id() == 0) {
        int outer = speculate();
        if (outer > 0) {
          buf[0] = 11;
          int s1 = msg_send(1, 5, buf, 1);
          int inner = speculate();
          if (inner > 0) { abort(inner); }
          buf[0] = 22;
          int s2 = msg_send(1, 5, buf, 1);
          commit(outer);
        }
        return 0;
      }
      /* Both copies are queued before the first receive. */
      sleep_ms(300);
      ptr v = alloc(1);
      int r1 = msg_recv(0, 5, v, 1);
      int a = v[0];
      int r2 = msg_recv(0, 5, v, 1);
      int b = v[0];
      if (r1 != 0 || r2 != 0) { return 1; }
      return a * 100 + b;
    }
  )";

  const auto run =
      gridapp::run_spmd(frontend::compile_source("nested_abort", src), 2);
  ASSERT_TRUE(run.finished);
  EXPECT_EQ(run.ranks[0].exit_code, 0) << run.ranks[0].error;
  EXPECT_EQ(run.ranks[1].exit_code, 1122)
      << "the receiver must read 11 then 22; " << run.ranks[1].error;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::instance().counter(name).value();
}

/// A receive parked on a sender that is merely slow asks for nothing:
/// resends are requested on a gap, a dropped link, a restore or a new
/// incarnation, never because a wait ran long.
TEST(DnodeChannel, ParkedReceiveOnASlowSenderAsksForNothing) {
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    extern void sleep_ms(int);
    int main() {
      ptr buf = alloc(1);
      if (node_id() == 0) {
        sleep_ms(1000);
        buf[0] = 5;
        int s = msg_send(1, 3, buf, 1);
        return s;
      }
      int r = msg_recv(0, 3, buf, 1);
      if (r != 0) { return 100 + r; }
      return buf[0];
    }
  )";
  const std::uint64_t before = counter("dspec.replay_requests");
  const auto run =
      gridapp::run_spmd(frontend::compile_source("slow_sender", src), 2);
  ASSERT_TRUE(run.finished);
  EXPECT_EQ(run.ranks[0].exit_code, 0) << run.ranks[0].error;
  EXPECT_EQ(run.ranks[1].exit_code, 5) << run.ranks[1].error;
  EXPECT_EQ(counter("dspec.replay_requests") - before, 0u);
}

/// A data link cut mid-stream loses whatever was queued on it. The
/// receiver sees the connection drop and asks once to resend from the
/// first entry it lacks, so it still reads every payload of one tag
/// exactly once and in send order.
TEST(DnodeChannel, LinkResetMidStreamDeliversEveryPayloadOnceInOrder) {
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    int main() {
      ptr buf = alloc(1);
      int i = 1;
      if (node_id() == 0) {
        while (i <= 200) {
          buf[0] = i;
          int s = msg_send(1, 7, buf, 1);
          i = i + 1;
        }
        return 0;
      }
      while (i <= 200) {
        int r = msg_recv(0, 7, buf, 1);
        if (r != 0) { return 1000 + i; }
        if (buf[0] != i) { return i; }
        i = i + 1;
      }
      return 0;
    }
  )";
  const TempDir storage("mojave_dnode_stream_reset_");
  dnode::AgentConfig acfg;
  acfg.storage_root = storage.path();
  dnode::NodeAgent a0(acfg), a1(acfg);
  net::WireFaults faults;
  faults.reset_conn = 2;  // agent 0's data link; #1 is the coordinator's
  faults.reset_after_bytes = 2000;
  net::WireChaosProxy proxy("127.0.0.1", a1.port(), faults);

  const std::uint64_t before = counter("dspec.replay_requests");
  dnode::Coordinator coord(coord_config({a0.port(), proxy.port()}, 2));
  coord.launch_spmd(frontend::compile_source("stream", src));
  ASSERT_TRUE(coord.wait_all(60.0)) << "stream run timed out";
  const auto results = coord.results();
  EXPECT_EQ(results[0].exit_code, 0) << results[0].error;
  EXPECT_EQ(results[1].exit_code, 0)
      << "first payload missing or out of order: " << results[1].exit_code;
  EXPECT_EQ(proxy.stats().resets, 1u) << "the data link never reset";
  EXPECT_GE(counter("dspec.replay_requests") - before, 1u);
  coord.shutdown_agents();
}

/// The same cut under the Figure 2 heat grid: bit-exact sums, at least
/// one resend, no rollback, and every halo consumed exactly once.
TEST(DnodeChannel, HeatSurvivesDataLinkResetBitExact) {
  gridapp::HeatConfig hcfg;
  hcfg.nodes = 4;
  hcfg.rows = 16;
  hcfg.cols = 12;
  hcfg.steps = 30;
  hcfg.checkpoint_interval = 0;
  net::WireFaults faults;
  faults.reset_conn = 2;
  faults.reset_after_bytes = 3000;

  const std::uint64_t resends = counter("dspec.replay_requests");
  const std::uint64_t consumed = counter("dspec.payloads_consumed");
  const auto run = gridapp::run_heat(hcfg, faults);
  ASSERT_TRUE(run.all_clean);
  const auto ref = gridapp::heat_reference_sums(hcfg);
  for (std::uint32_t r = 0; r < hcfg.nodes; ++r) {
    EXPECT_EQ(run.sums[r], ref[r]) << "rank " << r;
  }
  EXPECT_GE(run.wire.resets, 1u) << "no data link was cut";
  EXPECT_GE(counter("dspec.replay_requests") - resends, 1u);
  std::uint64_t rollbacks = 0;
  for (const auto& r : run.ranks) rollbacks += r.rollbacks;
  EXPECT_EQ(rollbacks, 0u);
  // Two halos per inner border per step, each read once.
  EXPECT_EQ(counter("dspec.payloads_consumed") - consumed,
            2u * (hcfg.nodes - 1) * hcfg.steps);
}

/// A dropped data link costs one RESEND frame per direction however many
/// ranks each agent hosts: the frame lists every (sender, receiver)
/// channel between the two agents. With four ranks per agent that is 16
/// channels in one frame, where one frame per channel would be 16 frames.
TEST(DnodeCluster, DroppedLinkAsksWithOneResendFramePerDirection) {
  gridapp::HeatConfig hcfg;
  hcfg.nodes = 8;
  hcfg.rows = 32;
  hcfg.cols = 12;
  hcfg.steps = 30;
  hcfg.checkpoint_interval = 0;
  const TempDir storage("mojave_dnode_resend_list_");
  dnode::AgentConfig acfg;
  acfg.storage_root = storage.path();
  dnode::NodeAgent a0(acfg), a1(acfg);
  net::WireFaults faults;
  faults.reset_conn = 2;  // agent 0's data link; #1 is the coordinator's
  faults.reset_after_bytes = 6000;
  net::WireChaosProxy proxy("127.0.0.1", a1.port(), faults);

  const std::uint64_t frames = counter("dspec.resend_frames");
  const std::uint64_t requests = counter("dspec.replay_requests");
  const std::uint64_t links = counter("node.links_lost");
  dnode::Coordinator coord(coord_config({a0.port(), proxy.port()}, 8));
  coord.launch_spmd(gridapp::heat_program(hcfg));
  ASSERT_TRUE(coord.wait_all(60.0)) << "heat run timed out";
  expect_sums_match(coord, hcfg);
  coord.shutdown_agents();
  EXPECT_EQ(proxy.stats().resets, 1u) << "the data link never reset";

  const std::uint64_t lost = counter("node.links_lost") - links;
  EXPECT_GE(lost, 2u) << "each side sees the drop";
  EXPECT_EQ(counter("dspec.resend_frames") - frames, lost)
      << "one RESEND frame per link event";
  EXPECT_EQ(counter("dspec.replay_requests") - requests, 16u * lost)
      << "each frame lists every channel from the other agent";
}

/// An agent runs at most one incarnation of a rank: a RESURRECT for a
/// rank it already runs — as a coordinator re-issues one while the first
/// restore is slow — is ignored, with no second RANK_UP. The test plays
/// the coordinator over a raw control connection.
TEST(DnodeCluster, AgentIgnoresResurrectForARankItRuns) {
  const TempDir storage("mojave_dnode_double_resurrect_");
  const std::string src = R"(
    extern int msg_recv(int, int, ptr, int);
    extern ptr checkpoint_target();
    int main() {
      ptr buf = alloc(1);
      migrate(checkpoint_target());
      /* Nobody sends tag 9: the rank stays live until shutdown. */
      int r = msg_recv(0, 9, buf, 1);
      return 0;
    }
  )";
  dnode::AgentConfig acfg;
  acfg.storage_root = storage.path();
  dnode::NodeAgent agent(acfg);
  auto control = net::TcpStream::connect("127.0.0.1", agent.port());
  control.send_frame(dnode::encode_hello(dnode::PeerKind::kCoordinator, 0, 1));
  control.send_frame(
      dnode::encode_config(0, 1, {{"127.0.0.1", agent.port()}}, 0, 30.0));
  control.send_frame(dnode::encode_launch(
      0, fir::encode_program(frontend::compile_source("live", src))));

  ckpt::CheckpointStore store(storage.path());
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!store.has_snapshot("rank_0") &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(store.has_snapshot("rank_0")) << "rank 0 never checkpointed";

  auto& resurrections =
      obs::MetricsRegistry::instance().counter("node.resurrections");
  const std::uint64_t before = resurrections.value();
  control.send_frame(dnode::encode_resurrect(0, 2));

  // Everything the agent says for the next 300 ms (heartbeats) must not
  // include a RANK_UP.
  control.set_io_deadline(0.05);
  const auto quiet_until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(300);
  int heartbeats = 0;
  while (std::chrono::steady_clock::now() < quiet_until) {
    std::optional<std::vector<std::byte>> frame;
    try {
      frame = control.recv_frame();
    } catch (const NetTimeout&) {
      continue;  // no frame within the deadline
    }
    ASSERT_TRUE(frame.has_value()) << "agent closed the control connection";
    const auto m = dnode::decode(*frame);
    ASSERT_TRUE(m.has_value());
    EXPECT_NE(m->type, dnode::MsgType::kRankUp) << "second incarnation";
    if (m->type == dnode::MsgType::kHeartbeat) ++heartbeats;
  }
  EXPECT_GT(heartbeats, 0) << "the agent went silent";
  EXPECT_EQ(resurrections.value(), before);
  EXPECT_EQ(agent.hosted_ranks(), std::vector<std::uint32_t>{0});
  control.set_io_deadline(0);
  control.send_frame(dnode::encode_shutdown());
  agent.stop();
}

TEST(DnodeCluster, EmptyWalRootLogsToATempDirRemovedOnDestruction) {
  const fs::path storage = fresh_dir("mojave_dnode_tempwal");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 2;
  hcfg.rows = 8;
  hcfg.cols = 8;
  hcfg.steps = 8;
  hcfg.checkpoint_interval = 4;

  dnode::AgentConfig acfg;
  acfg.storage_root = storage;
  dnode::NodeAgent a0(acfg), a1(acfg);

  fs::path wal;
  {
    const auto cfg = coord_config({a0.port(), a1.port()}, hcfg.nodes);
    ASSERT_TRUE(cfg.wal_root.empty());
    dnode::Coordinator coord(cfg);
    wal = coord.wal_root();
    ASSERT_FALSE(wal.empty());
    EXPECT_GE(coord.lease_epoch(), 1u);
    coord.launch_spmd(gridapp::heat_program(hcfg));
    ASSERT_TRUE(coord.wait_all(120.0));
    expect_sums_match(coord, hcfg);
    coord.shutdown_agents();

    // Every transition went through the log: replaying it rebuilds the
    // coordinator's state exactly.
    ctrl::CoordState replayed;
    const auto stats = ctrl::replay_wal(
        wal, [&](const ctrl::WalRecord& rec) { (void)replayed.apply(rec); });
    EXPECT_GT(stats.records, 0u);
    EXPECT_EQ(replayed.snapshot_bytes(), coord.state_snapshot());
  }
  EXPECT_FALSE(fs::exists(wal)) << "temporary WAL outlived its coordinator";
}

TEST(DnodeCluster, BalancerMovesRankOffThrottledAgent) {
  const fs::path storage = fresh_dir("mojave_dnode_balance");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 2;
  hcfg.rows = 8;
  hcfg.cols = 8;
  hcfg.steps = 40;
  hcfg.checkpoint_interval = 4;

  dnode::AgentConfig fast;
  fast.storage_root = storage;
  dnode::AgentConfig slow = fast;
  slow.throttle_ms = 30;  // inflates heartbeat load and really slows sends
  dnode::NodeAgent a0(fast), a1(slow);

  auto ccfg = coord_config({a0.port(), a1.port()}, hcfg.nodes);
  ccfg.balance_interval_seconds = 0.2;
  ccfg.balance_threshold = 1.5;
  dnode::Coordinator coord(std::move(ccfg));
  coord.launch_spmd(gridapp::heat_program(hcfg));
  ASSERT_TRUE(coord.wait_all(120.0));
  expect_sums_match(coord, hcfg);

  // The load gap (throttled agent reports ~31x) forces at least one
  // checkpoint-yield migration onto the fast agent; both agents stay
  // alive throughout (this is migration, not failure recovery).
  EXPECT_GE(coord.migrations(), 1u);
  EXPECT_EQ(coord.agent_of(1), 0u);
  EXPECT_TRUE(coord.agent_alive(0));
  EXPECT_TRUE(coord.agent_alive(1));
  coord.shutdown_agents();
}

/// Rank density under a hostile WAN profile: 32 fiber ranks over 2
/// in-process agents (16 per event-loop thread) with every byte into
/// agent 1 squeezed through a bandwidth-capped, frame-reordering,
/// fragmenting WireChaosProxy. The cap backpressures the coalesced write
/// path (the sender's batches stall against a full socket buffer), the
/// reorderer swaps every 5th frame with its successor — tolerated because
/// heat tags every halo with (direction, timestep) and mailboxes key on
/// (src, tag) — and the sums must still bit-match the sequential
/// reference.
TEST(DnodeCluster, DenseRanksSurviveThrottledReorderingWire) {
  const fs::path storage = fresh_dir("mojave_dnode_dense_wire");

  gridapp::HeatConfig hcfg;
  hcfg.nodes = 32;
  hcfg.rows = 32;  // one row band per rank
  hcfg.cols = 8;
  hcfg.steps = 8;
  hcfg.checkpoint_interval = 0;

  dnode::AgentConfig acfg;
  acfg.storage_root = storage;
  acfg.heap.young_capacity = 64 * 1024;  // 32 co-hosted heaps
  acfg.heap.old_capacity = 1024 * 1024;
  dnode::NodeAgent a0(acfg), a1(acfg);

  net::WireFaults faults;
  faults.bandwidth_bytes_per_sec = 1.5e6;  // a narrow WAN, not a stall
  faults.reorder_every_n = 5;
  faults.split_bytes = 512;
  net::WireChaosProxy proxy("127.0.0.1", a1.port(), faults);

  dnode::Coordinator coord(
      coord_config({a0.port(), proxy.port()}, hcfg.nodes));
  coord.launch_spmd(gridapp::heat_program(hcfg));
  ASSERT_TRUE(coord.wait_all(120.0)) << "dense chaotic-wire run timed out";
  expect_sums_match(coord, hcfg);

  const auto stats = proxy.stats();
  EXPECT_GE(stats.connections, 2u);  // coordinator + agent 0's data link
  EXPECT_GT(stats.frames_reordered, 0u) << "reorder profile never fired";
  EXPECT_GT(stats.throttle_waits, 0u) << "bandwidth cap never engaged";
  EXPECT_GT(stats.split_writes, 0u);
  EXPECT_EQ(stats.resets, 0u);
  coord.shutdown_agents();
}

}  // namespace
