// Chaos tests: repeated agent kills during a longer grid run, a hostile
// wire plus a kill, and a kill that leaves a torn checkpoint behind. The
// ranks run on in-process dnode agents; a kill is NodeAgent::stop(), and
// the coordinator resurrects the dead agent's ranks on the survivors.
// Whatever the failure schedule, the computation must converge to exactly
// the failure-free answer — the strongest form of the paper's reliability
// claim.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <string>
#include <thread>

#include "ckpt/store.hpp"
#include "gridapp/heat.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace {

using namespace mojave;

std::string rank_errors(const gridapp::HeatRun& run) {
  std::string s = run.finished ? "" : "timed out; ";
  for (const auto& r : run.ranks) {
    s += "rank " + std::to_string(r.rank) + (r.done ? "" : " (running)") +
         ": " + r.error + "; ";
  }
  return s;
}

void expect_reference_sums(const gridapp::HeatRun& run,
                           const gridapp::HeatConfig& cfg) {
  const auto ref = gridapp::heat_reference_sums(cfg);
  for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
    EXPECT_EQ(run.sums[r], ref[r]) << "rank " << r;
  }
}

/// Poll `cond` every millisecond for up to `ms` milliseconds.
template <typename F>
bool wait_for(F cond, int ms) {
  for (int i = 0; i < ms && !cond(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return cond();
}

/// Kill the agent hosting `victim` once it has a checkpoint, then wait for
/// the coordinator to bring the victim back. False when no kill happened
/// (no checkpoint yet, or its agent is already down).
bool kill_and_await_resurrection(gridapp::LocalCluster& cl,
                                 std::uint32_t victim) {
  if (!wait_for([&] { return cl.has_checkpoint(victim); }, 5000)) {
    return false;
  }
  const std::uint64_t before = cl.coordinator().resurrections();
  if (!cl.kill_host_of(victim)) return false;
  EXPECT_TRUE(wait_for(
      [&] { return cl.coordinator().resurrections() > before; }, 10000))
      << "rank " << victim << " was never resurrected";
  return true;
}

class GridChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridChaos, RepeatedKillsStillProduceTheReferenceAnswer) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.steps = 90;
  cfg.checkpoint_interval = 9;

  Rng rng(GetParam());
  int kills = 0;
  const auto run = gridapp::run_heat(cfg, {}, [&](gridapp::LocalCluster& cl) {
    // Two kill rounds against random victims, each after the victim has a
    // checkpoint to come back from.
    for (int round = 0; round < 2; ++round) {
      const auto victim = static_cast<std::uint32_t>(rng.below(cfg.nodes));
      std::this_thread::sleep_for(std::chrono::milliseconds(rng.below(20)));
      if (kill_and_await_resurrection(cl, victim)) ++kills;
    }
  });

  ASSERT_TRUE(run.all_clean) << rank_errors(run);
  expect_reference_sums(run, cfg);
  EXPECT_GE(kills, 1);
  EXPECT_GE(run.resurrections, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridChaos, ::testing::Values(31, 62, 93));

/// The wire fault matrix plus one kill: every agent sits behind a
/// WireChaosProxy on the paper's 100 Mbps link that adds latency,
/// fragments writes, reorders frames, and cuts its first data link
/// mid-frame — and the grid must still converge to the failure-free
/// answer.
///
/// Each fault class recovers through a different path: a cut link loses
/// the frames queued on it, which the receiver re-requests from the
/// sender's replay log after the agent redials; reorders are absorbed by
/// the per-step tag scheme; the kill goes through rollback and
/// resurrection. TCP never delivers a dropped, duplicated or corrupted
/// frame (a loss shows up as a cut connection), and the wire checksum
/// (DnodeWire.AnySingleFlippedByteIsRejected) covers corruption. The
/// agent's at-most-one-incarnation guard, on which the coordinator relies
/// when it re-issues a RESURRECT, is pinned by
/// DnodeCluster.AgentIgnoresResurrectForARankItRuns.
class GridFaultMatrix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridFaultMatrix, LossyLinksPlusKillStillProduceTheReferenceAnswer) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.steps = 60;
  cfg.checkpoint_interval = 9;

  net::WireFaults faults;
  faults.seed = GetParam();
  faults.delay_seconds = 0.0005;
  faults.split_bytes = 512;
  faults.reorder_every_n = 7;
  faults.reset_conn = 2;  // connection 1 is the coordinator's
  faults.bandwidth_bytes_per_sec = 12.5e6;  // 100 Mbps

  Rng rng(GetParam());
  bool killed = false;
  const auto run =
      gridapp::run_heat(cfg, faults, [&](gridapp::LocalCluster& cl) {
        const auto victim = static_cast<std::uint32_t>(rng.below(cfg.nodes));
        killed = kill_and_await_resurrection(cl, victim);
      });

  ASSERT_TRUE(run.all_clean) << rank_errors(run);
  ASSERT_EQ(run.ranks.size(), cfg.nodes) << "census: one result per rank";
  expect_reference_sums(run, cfg);
  EXPECT_TRUE(killed);
  EXPECT_GE(run.resurrections, 1u);

  // The fault machinery genuinely fired. (The 100 Mbps cap is the link
  // model, not a fault: this grid's halos never fill it.)
  EXPECT_GE(run.wire.resets, 1u) << "no data link was cut";
  EXPECT_GT(run.wire.frames_reordered, 0u);
  EXPECT_GT(run.wire.split_writes, 0u);
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, GridFaultMatrix,
                         ::testing::Values(17, 42, 1009));

std::uint64_t restore_fallbacks() {
  return obs::MetricsRegistry::instance()
      .counter("ckpt.restore_fallbacks")
      .value();
}

/// Overwrite the newest manifest of `snapshot` with garbage, as a crash
/// between the chunk writes and a complete manifest leaves it. Returns
/// its sequence number (0 = none found).
std::uint64_t tear_newest_manifest(ckpt::CheckpointStore& store,
                                   const std::string& snapshot) {
  // Listing order is the directory's, not seq order: pick the name that
  // carries the newest seq.
  const std::uint64_t seq = store.latest_seq(snapshot);
  std::string newest;
  for (const auto& name :
       store.storage().list(ckpt::CheckpointStore::kManifestDir)) {
    if (name.find("/" + snapshot + "@") != std::string::npos &&
        std::stoull(name.substr(name.rfind('@') + 1)) == seq) {
      newest = name;
    }
  }
  if (newest.empty()) return 0;
  const char garbage[] = "not a manifest";
  store.storage().write(
      newest, std::as_bytes(std::span(garbage, std::strlen(garbage))));
  return seq;
}

TEST(GridChaos, KillMidCheckpointResurrectsFromLastCompleteManifest) {
  // A node dies *during* a checkpoint: the chunk writes may have landed
  // but the manifest did not (here: landed torn). The store must treat the
  // newest manifest as unrestorable and resurrect the victim from the last
  // complete one — costing at most one checkpoint interval, never a torn
  // image or a stuck rank.
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.steps = 90;
  cfg.checkpoint_interval = 9;

  const std::uint64_t fallbacks_before = restore_fallbacks();
  const auto run = gridapp::run_heat(cfg, {}, [&](gridapp::LocalCluster& cl) {
    ckpt::CheckpointStore& store = cl.store();
    const std::string victim = cl.snapshot_name(1);
    // Let the victim finish at least two checkpoints so there is a
    // previous complete manifest to fall back to.
    ASSERT_TRUE(wait_for([&] { return cl.latest_seq(1) >= 2; }, 5000))
        << "victim never checkpointed twice";
    // Tear right after a checkpoint lands: the victim is then most of an
    // interval away from writing another one, and it writes none once
    // its agent stops. The coordinator resurrects it only after the stop,
    // so the torn manifest is in place first.
    const std::uint64_t seen = cl.latest_seq(1);
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    while (cl.latest_seq(1) == seen &&
           std::chrono::steady_clock::now() < until) {
    }
    const std::uint64_t torn = tear_newest_manifest(store, victim);
    ASSERT_GE(torn, 2u);
    ASSERT_TRUE(cl.kill_host_of(1));
    // One more checkpoint may have landed between the tear and the stop;
    // then that one is the victim's newest, and it is the one to tear.
    if (cl.latest_seq(1) > torn) tear_newest_manifest(store, victim);
    EXPECT_TRUE(wait_for(
        [&] { return cl.coordinator().resurrections() >= 1; }, 10000));
  });

  ASSERT_TRUE(run.all_clean) << rank_errors(run);
  expect_reference_sums(run, cfg);
  EXPECT_GE(run.resurrections, 1u);
  // The restore really did skip the torn manifest.
  EXPECT_GT(restore_fallbacks(), fallbacks_before);
}

}  // namespace
