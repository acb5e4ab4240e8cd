// Chaos test: repeated random node kills during a longer grid run, with
// the auto-resurrection daemon active. Whatever the failure schedule, the
// computation must converge to exactly the failure-free answer — the
// strongest form of the paper's reliability claim.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <thread>

#include "ckpt/store.hpp"
#include "gridapp/heat.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"

namespace {

using namespace mojave;

class GridChaos : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridChaos, RepeatedKillsStillProduceTheReferenceAnswer) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.steps = 90;
  cfg.checkpoint_interval = 9;

  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = cfg.nodes;
  ccfg.recv_timeout_seconds = 30.0;

  Rng rng(GetParam());
  const auto run = gridapp::run_heat(cfg, ccfg, [&](cluster::Cluster& cl) {
    cl.enable_auto_resurrection(0.01);
    // Two kill rounds against random victims, each after the victim has a
    // checkpoint to come back from.
    for (int round = 0; round < 2; ++round) {
      const auto victim = static_cast<net::NodeId>(rng.below(cfg.nodes));
      for (int i = 0; i < 3000 && !cl.has_checkpoint(victim); ++i) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!cl.has_checkpoint(victim)) continue;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(rng.below(20)));
      if (!cl.network().alive(victim)) continue;  // still recovering
      cl.kill(victim);
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  });

  ASSERT_TRUE(run.all_clean) << [&] {
    std::string s;
    for (const auto& n : run.nodes) {
      s += "rank " + std::to_string(n.rank) + ": " + n.error + "; ";
    }
    return s;
  }();
  const auto ref = gridapp::heat_reference_sums(cfg);
  for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
    EXPECT_NEAR(run.sums[r], ref[r], 1e-9) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridChaos, ::testing::Values(31, 62, 93));

/// The full fault matrix: every message on every link can be dropped,
/// duplicated, reordered, or corrupted — plus one kill-and-resurrect —
/// and the grid must still converge to the failure-free answer.
///
/// Each fault class recovers through a different path: corruption via the
/// cluster frame checksum + sender replay log; drops via recv timeout →
/// MSG_ROLL → rollback, whose poison cascades to the sender and forces a
/// deterministic re-send; duplicates and reorders are absorbed by the
/// per-step tag scheme.
class GridFaultMatrix : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridFaultMatrix, LossyLinksPlusKillStillProduceTheReferenceAnswer) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 8;
  cfg.steps = 60;
  cfg.checkpoint_interval = 9;

  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = cfg.nodes;
  // Short enough that a dropped halo message costs a fast rollback-retry,
  // long enough that resurrection latency cannot fake a timeout storm.
  ccfg.recv_timeout_seconds = 0.5;
  ccfg.net.faults.seed = GetParam();
  ccfg.net.faults.all_links = {
      .drop = 0.01, .duplicate = 0.01, .reorder = 0.02, .corrupt = 0.02};

  const auto snap_before = obs::MetricsRegistry::instance().snapshot();
  const auto counter_at = [](const obs::RegistrySnapshot& snap,
                             const std::string& name) -> std::uint64_t {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
  };

  Rng rng(GetParam());
  const auto run = gridapp::run_heat(cfg, ccfg, [&](cluster::Cluster& cl) {
    cl.enable_auto_resurrection(0.01);
    const auto victim = static_cast<net::NodeId>(rng.below(cfg.nodes));
    for (int i = 0; i < 5000 && !cl.has_checkpoint(victim); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (!cl.has_checkpoint(victim)) return;
    cl.kill(victim);
    // Once the daemon has resurrected the victim, the at-most-once guard
    // must refuse a second, racing resurrection of a live rank.
    for (int i = 0; i < 5000 && !cl.network().alive(victim); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_TRUE(cl.network().alive(victim)) << "daemon never resurrected";
    EXPECT_FALSE(cl.resurrect(victim)) << "double resurrection allowed";
  });

  ASSERT_TRUE(run.all_clean) << [&] {
    std::string s;
    for (const auto& n : run.nodes) {
      s += "rank " + std::to_string(n.rank) + ": " + n.error + "; ";
    }
    return s;
  }();
  ASSERT_EQ(run.nodes.size(), cfg.nodes) << "census: one result per rank";
  const auto ref = gridapp::heat_reference_sums(cfg);
  for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
    EXPECT_NEAR(run.sums[r], ref[r], 1e-9) << "rank " << r;
  }

  // The fault machinery genuinely fired: some class of fault was injected,
  // and every corrupted frame the receivers saw was caught by the checksum.
  const auto snap_after = obs::MetricsRegistry::instance().snapshot();
  const std::uint64_t injected =
      (counter_at(snap_after, "net.sim.faults_dropped") -
       counter_at(snap_before, "net.sim.faults_dropped")) +
      (counter_at(snap_after, "net.sim.faults_duplicated") -
       counter_at(snap_before, "net.sim.faults_duplicated")) +
      (counter_at(snap_after, "net.sim.faults_reordered") -
       counter_at(snap_before, "net.sim.faults_reordered")) +
      (counter_at(snap_after, "net.sim.faults_corrupted") -
       counter_at(snap_before, "net.sim.faults_corrupted"));
  EXPECT_GT(injected, 0u) << "fault plan injected nothing — test is vacuous";
}

INSTANTIATE_TEST_SUITE_P(FaultSeeds, GridFaultMatrix,
                         ::testing::Values(17, 42, 1009));

std::uint64_t restore_fallbacks() {
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  const auto it = snap.counters.find("ckpt.restore_fallbacks");
  return it == snap.counters.end() ? 0 : it->second;
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

  cluster::ClusterConfig ccfg;
  ccfg.num_nodes = cfg.nodes;
  ccfg.recv_timeout_seconds = 30.0;

  const std::uint64_t fallbacks_before = restore_fallbacks();
  const auto run = gridapp::run_heat(cfg, ccfg, [&](cluster::Cluster& cl) {
    const auto& store = cl.ckpt_store();
    ASSERT_NE(store, nullptr);
    const std::string victim = cl.snapshot_name(1);
    // Let the victim finish at least two checkpoints so there is a
    // previous complete manifest to fall back to.
    for (int i = 0; i < 5000 && store->latest_seq(victim) < 2; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_GE(store->latest_seq(victim), 2u) << "victim never checkpointed";
    cl.kill(1);
    // Give the dying thread a moment to unwind past any in-flight put().
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Emulate the torn manifest the mid-checkpoint crash leaves behind:
    // replace the newest one with garbage.
    const auto manifests =
        store->storage().list(ckpt::CheckpointStore::kManifestDir);
    std::string newest;
    for (const auto& name : manifests) {
      if (name.find("/" + victim + "@") != std::string::npos) newest = name;
    }
    ASSERT_FALSE(newest.empty());
    const char garbage[] = "not a manifest";
    store->storage().write(
        newest, std::as_bytes(std::span(garbage, std::strlen(garbage))));

    ASSERT_TRUE(cl.resurrect(1)) << "no restorable checkpoint survived";
  });

  ASSERT_TRUE(run.all_clean) << [&] {
    std::string s;
    for (const auto& n : run.nodes) {
      s += "rank " + std::to_string(n.rank) + ": " + n.error + "; ";
    }
    return s;
  }();
  const auto ref = gridapp::heat_reference_sums(cfg);
  for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
    EXPECT_NEAR(run.sums[r], ref[r], 1e-9) << "rank " << r;
  }
  // The restore really did skip the torn manifest.
  EXPECT_GT(restore_fallbacks(), fallbacks_before);
}

}  // namespace
