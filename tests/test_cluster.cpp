// Cluster tests: message-passing externals, the distributed speculation
// join (abort propagation), and the full Figure 2 scenario — the grid
// computation surviving node failure via rollback + checkpoint
// resurrection with an unchanged result. Programs run on in-process dnode
// agents (gridapp::run_spmd).
#include <gtest/gtest.h>

#include <chrono>
#include <deque>
#include <thread>

#include "cluster/tracker.hpp"
#include "frontend/compile.hpp"
#include "gridapp/heat.hpp"
#include "support/rng.hpp"

namespace {

using namespace mojave;
using cluster::NodeId;

TEST(Tracker, PoisonPropagationAndVoiding) {
  cluster::DependencyTracker t;
  // Node 1 (at level 1) sends to node 2 (at level 1).
  t.record(1, 1, 2, 1);
  EXPECT_EQ(t.dependency_count(), 1u);
  // Node 1 rolls back level 1: node 2 is poisoned.
  const auto hit = t.on_rollback(1, 1);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0], 2u);
  EXPECT_TRUE(t.consume_poison(2));
  EXPECT_FALSE(t.consume_poison(2));  // one-shot
  EXPECT_EQ(t.dependency_count(), 0u);
}

TEST(Tracker, ReceiverRollbackVoidsItsConsumptions) {
  cluster::DependencyTracker t;
  // 2 consumed 1's speculative message while itself at level 1.
  t.record(1, 1, 2, 1);
  // 2 rolls back level 1 (for its own reasons): its consumption is undone,
  // so 1's later rollback must NOT poison it — this breaks abort ping-pong.
  (void)t.on_rollback(2, 1);
  EXPECT_EQ(t.dependency_count(), 0u);
  const auto hit = t.on_rollback(1, 1);
  EXPECT_TRUE(hit.empty());
  EXPECT_FALSE(t.consume_poison(2));
}

TEST(Tracker, CommitToZeroMakesDependenciesDurable) {
  cluster::DependencyTracker t;
  t.record(1, 1, 2, 1);  // sent at level 1
  t.record(1, 2, 3, 1);  // sent at level 2
  t.on_commit_to_zero(1);
  // Level-1 send is durable; the level-2 send became level-1.
  EXPECT_EQ(t.dependency_count(), 1u);
  const auto hit = t.on_rollback(1, 1);
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit[0], 3u);
}

TEST(Cluster, PingPongMessages) {
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    int main() {
      int me = node_id();
      ptr buf = alloc(2);
      if (me == 0) {
        buf[0] = 41; buf[1] = 1;
        int s = msg_send(1, 5, buf, 2);
        if (s != 0) { return 10; }
        int r = msg_recv(1, 6, buf, 2);
        if (r != 0) { return 11; }
        return buf[0];
      }
      int r = msg_recv(0, 5, buf, 2);
      if (r != 0) { return 12; }
      buf[0] = buf[0] + buf[1];
      int s = msg_send(0, 6, buf, 2);
      if (s != 0) { return 13; }
      return 0;
    }
  )";
  const auto run = gridapp::run_spmd(
      frontend::compile_source("pingpong", src), 2);
  ASSERT_TRUE(run.finished);
  ASSERT_EQ(run.ranks.size(), 2u);
  EXPECT_EQ(run.ranks[0].exit_code, 42) << run.ranks[0].error;
  EXPECT_EQ(run.ranks[1].exit_code, 0) << run.ranks[1].error;
  EXPECT_TRUE(run.ranks[0].error.empty());
}

TEST(Cluster, SpeculativeSenderAbortPoisonsReceiver) {
  // Node 0 sends from inside a speculation, then aborts it; node 1, which
  // consumed that value, must observe MSG_ROLL on its next receive and
  // abort its own speculation — "roll back together".
  const std::string src = R"(
    extern int node_id();
    extern int msg_send(int, int, ptr, int);
    extern int msg_recv(int, int, ptr, int);
    extern void sleep_ms(int);
    int main() {
      int me = node_id();
      ptr buf = alloc(1);
      if (me == 0) {
        int id = speculate();
        if (id > 0) {
          buf[0] = 777;  /* speculative value */
          int s = msg_send(1, 1, buf, 1);
          sleep_ms(30);  /* let node 1 consume it */
          abort(id);
        }
        /* aborted: tell node 1 we are done (non-speculative send) */
        buf[0] = 1;
        int s2 = msg_send(1, 2, buf, 1);
        return 0;
      }
      /* node 1 */
      ptr v = alloc(1);
      int id = speculate();
      if (id > 0) {
        int r = msg_recv(0, 1, v, 1);
        if (r != 0) { return 20; }
        /* consumed speculative 777; wait for the poison */
        int r2 = msg_recv(0, 2, v, 1);
        if (r2 == 1) { abort(id); }
        return 21;  /* should not get the tag-2 message cleanly */
      }
      /* our speculation was aborted because the sender rolled back */
      return 99;
    }
  )";
  const auto run =
      gridapp::run_spmd(frontend::compile_source("join", src), 2);
  ASSERT_TRUE(run.finished);
  ASSERT_EQ(run.ranks.size(), 2u);
  EXPECT_EQ(run.ranks[0].exit_code, 0) << run.ranks[0].error;
  EXPECT_EQ(run.ranks[1].exit_code, 99) << run.ranks[1].error;
  EXPECT_GE(run.poisons_issued, 1u);
}

// --- DependencyTracker property tests ---------------------------------
//
// Seeded random interleavings of record / rollback / commit across 4+
// nodes. Two properties the wire protocol leans on:
//
//  * every abort avalanche terminates — each poison consumes a recorded
//    dependency and rollbacks only erase records, so the cascade runs out
//    of fuel instead of ping-ponging between neighbours forever;
//  * commit-to-zero discharges level-1 dependencies — a later rollback of
//    the (new) speculation must not poison consumers of data that was
//    already durable ("no stale poison after commit").

/// Drive one poison avalanche to completion: every poisoned node consumes
/// its poison and rolls back at level 1 (what a real poisoned rank does),
/// possibly poisoning others. Returns how many rollbacks it took; fails
/// the test if the cascade exceeds `bound` steps.
std::size_t drain_avalanche(cluster::DependencyTracker& t,
                            std::vector<NodeId> poisoned,
                            std::size_t bound) {
  std::deque<NodeId> work(poisoned.begin(), poisoned.end());
  std::size_t steps = 0;
  while (!work.empty()) {
    EXPECT_LT(steps, bound) << "avalanche did not terminate";
    if (steps >= bound) return steps;
    const NodeId n = work.front();
    work.pop_front();
    if (!t.consume_poison(n)) continue;  // duplicate hit, already handled
    ++steps;
    for (const NodeId next : t.on_rollback(n, 1)) work.push_back(next);
  }
  return steps;
}

TEST(ClusterTrackerProps, RandomInterleavingsAvalancheAlwaysTerminates) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    cluster::DependencyTracker t;
    const std::uint32_t nodes = 4 + static_cast<std::uint32_t>(rng.below(3));
    for (int op = 0; op < 400; ++op) {
      const double dice = rng.uniform();
      if (dice < 0.6) {
        const auto s = static_cast<NodeId>(rng.below(nodes));
        auto r = static_cast<NodeId>(rng.below(nodes));
        if (r == s) r = (r + 1) % nodes;
        t.record(s, static_cast<SpecLevel>(1 + rng.below(3)), r,
                 static_cast<SpecLevel>(rng.below(4)));
      } else if (dice < 0.85) {
        // A rollback can poison at most the recorded dependencies, and
        // every cascade step erases records — bound the whole avalanche
        // by the dependency count at its start (plus the initial hit).
        const std::size_t fuel = t.dependency_count();
        auto hit = t.on_rollback(static_cast<NodeId>(rng.below(nodes)),
                                 static_cast<SpecLevel>(1 + rng.below(3)));
        drain_avalanche(t, std::move(hit), fuel + nodes + 1);
      } else {
        t.on_commit_to_zero(static_cast<NodeId>(rng.below(nodes)));
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << ", op " << op;
      }
    }
    // Quiesce: roll everything back; no poison may survive its consumer.
    for (NodeId n = 0; n < nodes; ++n) {
      drain_avalanche(t, t.on_rollback(n, 1), t.dependency_count() + nodes);
    }
    for (NodeId n = 0; n < nodes; ++n) {
      EXPECT_FALSE(t.consume_poison(n)) << "stale poison, seed " << seed;
    }
    EXPECT_EQ(t.dependency_count(), 0u) << "seed " << seed;
  }
}

TEST(ClusterTrackerProps, CommitToZeroLeavesNoStalePoison) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    cluster::DependencyTracker t;
    const std::uint32_t nodes = 4;
    // A batch of level-1 sends from node 0, randomly interleaved with
    // deeper ones that commit-to-zero must *keep* (shifted down a level).
    int deep = 0;
    for (int i = 0; i < 40; ++i) {
      const auto r = static_cast<NodeId>(1 + rng.below(nodes - 1));
      if (rng.chance(0.3)) {
        t.record(0, 2, r, static_cast<SpecLevel>(rng.below(3)));
        ++deep;
      } else {
        t.record(0, 1, r, static_cast<SpecLevel>(rng.below(3)));
      }
    }
    t.on_commit_to_zero(0);
    // Level-1 records were discharged; the level-2 ones shifted to 1.
    EXPECT_EQ(t.dependency_count(), static_cast<std::size_t>(deep))
        << "seed " << seed;
    // Rolling back the *new* level 1 may only hit the shifted survivors —
    // and after that, nothing: committed data can never poison anyone.
    const auto hit = t.on_rollback(0, 1);
    EXPECT_LE(hit.size(), static_cast<std::size_t>(deep)) << "seed " << seed;
    drain_avalanche(t, hit, static_cast<std::size_t>(deep) + nodes);
    EXPECT_TRUE(t.on_rollback(0, 1).empty()) << "seed " << seed;
    for (NodeId n = 0; n < nodes; ++n) {
      EXPECT_FALSE(t.consume_poison(n)) << "stale poison, seed " << seed;
    }
  }
}

TEST(ClusterTrackerProps, ConcurrentRecordRollbackCommitIsRaceFree) {
  // The coordinator's reader threads hit the tracker concurrently; this
  // exists so the TSan job sweeps its locking. Assertions are minimal —
  // the single-thread property tests pin the semantics.
  cluster::DependencyTracker t;
  constexpr std::uint32_t kNodes = 6;
  std::vector<std::thread> threads;
  for (std::uint64_t ti = 0; ti < 4; ++ti) {
    threads.emplace_back([&t, ti] {
      Rng rng(0xC0FFEE + ti);
      for (int op = 0; op < 2000; ++op) {
        const double dice = rng.uniform();
        const auto a = static_cast<NodeId>(rng.below(kNodes));
        auto b = static_cast<NodeId>(rng.below(kNodes));
        if (b == a) b = (b + 1) % kNodes;
        if (dice < 0.6) {
          t.record(a, static_cast<SpecLevel>(1 + rng.below(3)), b,
                   static_cast<SpecLevel>(rng.below(4)));
        } else if (dice < 0.85) {
          for (const NodeId p :
               t.on_rollback(a, static_cast<SpecLevel>(1 + rng.below(3)))) {
            t.consume_poison(p);
          }
        } else {
          t.on_commit_to_zero(a);
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (NodeId n = 0; n < kNodes; ++n) {
    drain_avalanche(t, t.on_rollback(n, 1), t.dependency_count() + kNodes);
  }
  EXPECT_EQ(t.dependency_count(), 0u);
}

/// Bit-exact against the sequential reference: the distributed run does
/// the same floating-point operations in the same order.
void expect_reference_sums(const gridapp::HeatRun& run,
                           const gridapp::HeatConfig& cfg) {
  const auto ref = gridapp::heat_reference_sums(cfg);
  for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
    EXPECT_EQ(run.sums[r], ref[r]) << "rank " << r;
  }
}

TEST(Grid, MatchesReferenceWithoutFaults) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 4;
  cfg.rows = 16;
  cfg.cols = 12;
  cfg.steps = 20;
  cfg.checkpoint_interval = 0;
  const auto run = gridapp::run_heat(cfg);
  ASSERT_TRUE(run.all_clean);
  expect_reference_sums(run, cfg);
}

TEST(Grid, CheckpointingDoesNotChangeResult) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 2;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.steps = 24;
  cfg.checkpoint_interval = 6;
  const auto run = gridapp::run_heat(cfg);
  ASSERT_TRUE(run.all_clean);
  expect_reference_sums(run, cfg);
  EXPECT_EQ(run.checkpoints, 2u * (cfg.steps / cfg.checkpoint_interval));
}

TEST(Grid, SurvivesNodeFailureWithResurrection) {
  // The headline Figure 2 scenario: kill a node mid-run after it has
  // checkpointed; peers roll back their speculation; the coordinator
  // revives the victim from its checkpoint on a surviving agent; the
  // final answer is identical to the failure-free reference.
  gridapp::HeatConfig cfg;
  cfg.nodes = 3;
  cfg.rows = 12;
  cfg.cols = 10;
  cfg.steps = 60;
  cfg.checkpoint_interval = 10;

  const auto run = gridapp::run_heat(
      cfg, {}, [&](gridapp::LocalCluster& cl) {
        // Wait until the victim has written at least one checkpoint, so
        // resurrection has something to restore.
        for (int i = 0; i < 2000 && !cl.has_checkpoint(1); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        ASSERT_TRUE(cl.has_checkpoint(1)) << "victim never checkpointed";
        ASSERT_TRUE(cl.kill_host_of(1));
      });

  ASSERT_TRUE(run.all_clean);
  expect_reference_sums(run, cfg);
  // The victim restarted at least once; someone rolled back.
  std::uint64_t restarts = 0;
  std::uint64_t rollbacks = 0;
  for (const auto& rank : run.ranks) {
    restarts += rank.restarts;
    rollbacks += rank.rollbacks;
  }
  EXPECT_GE(run.resurrections, 1u);
  EXPECT_GE(restarts, 1u);
  EXPECT_GE(rollbacks, 1u);
}

}  // namespace
