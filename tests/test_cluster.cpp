// Cluster tests: message-passing externals, the distributed speculation
// join (abort propagation over exact channels), and the full Figure 2
// scenario — the grid computation surviving node failure via rollback +
// checkpoint resurrection with an unchanged result. Programs run on
// in-process dnode agents (gridapp::run_spmd).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>
#include <utility>

#include "dnode/channel.hpp"
#include "frontend/compile.hpp"
#include "gridapp/heat.hpp"
#include "support/rng.hpp"

namespace {

using namespace mojave;
using dnode::ChannelOp;

/// Ranks joined by exact channels, without agents or sockets: each rank
/// has an Outbox, an Inbox and a stack of active speculation ids, and
/// every entry is delivered at once and in order — what an agent does
/// for two ranks it hosts. `poisoned` is what msg_recv would report.
struct Ranks {
  struct Rank {
    dnode::Outbox out;
    dnode::Inbox in;
    std::vector<std::uint64_t> levels;  ///< active spec ids, outermost first
    std::uint64_t next_id = 1;
    bool poisoned = false;
  };
  std::vector<Rank> r;
  explicit Ranks(std::uint32_t n) : r(n) {}

  void deliver(std::uint32_t src, const dnode::Outbox::Sent& sent) {
    for (const auto& [dst, e] : sent) {
      if (r[dst].in.receive(src, *e).poison) r[dst].poisoned = true;
    }
  }
  std::uint64_t innermost(std::uint32_t n) const {
    return r[n].levels.empty() ? 0 : r[n].levels.back();
  }
  void speculate(std::uint32_t n) { r[n].levels.push_back(r[n].next_id++); }
  void send(std::uint32_t src, std::uint32_t dst) {
    deliver(src, r[src].out.put(dst, ChannelOp::kData, 0, innermost(src), 0,
                                {}));
  }
  bool consume(std::uint32_t dst, std::uint32_t src) {
    return r[dst].in.consume(src, 0, innermost(dst)).has_value();
  }
  /// Roll back level `level` (1-based) and re-enter it (retry).
  void rollback(std::uint32_t n, std::size_t level) {
    const std::uint64_t id = r[n].levels[level - 1];
    deliver(n, r[n].out.rollback(id));
    r[n].in.rollback(id);
    r[n].levels.resize(level - 1);
    speculate(n);
  }
  /// Commit level 1 (the oldest); deeper levels shift down.
  void commit_oldest(std::uint32_t n) {
    r[n].levels.erase(r[n].levels.begin());
    const bool zero = r[n].levels.empty();
    const std::uint64_t durable = zero ? ~std::uint64_t{0} : r[n].levels[0];
    deliver(n, r[n].out.commit(durable, zero));
    // Ranks without checkpoints: the COMMITs count at once.
    deliver(n, r[n].out.landed(r[n].out.uncovered()));
    r[n].in.commit(durable);
  }
  bool take_poison(std::uint32_t n) {
    return std::exchange(r[n].poisoned, false);
  }
};

TEST(Tracker, PoisonPropagationAndVoiding) {
  Ranks t(3);
  t.speculate(1);
  t.speculate(2);
  // Rank 1 sends from its speculation; rank 2 consumes it inside its own.
  t.send(1, 2);
  ASSERT_TRUE(t.consume(2, 1));
  // Rank 1 rolls back: the ROLLBACK behind the payload poisons rank 2.
  t.rollback(1, 1);
  EXPECT_TRUE(t.take_poison(2));
  // The reverted payload is gone: another rollback poisons nobody.
  t.rollback(1, 1);
  EXPECT_FALSE(t.take_poison(2));
}

TEST(Tracker, ReceiverRollbackVoidsItsConsumptions) {
  Ranks t(3);
  t.speculate(1);
  t.speculate(2);
  t.send(1, 2);
  ASSERT_TRUE(t.consume(2, 1));
  // Rank 2 rolls back for its own reasons: its consumption is undone, so
  // rank 1's later rollback must NOT poison it — this breaks abort
  // ping-pong. The payload just leaves its queue.
  t.rollback(2, 1);
  t.rollback(1, 1);
  EXPECT_FALSE(t.take_poison(2));
  EXPECT_FALSE(t.consume(2, 1));
}

TEST(Tracker, CommitToZeroMakesDependenciesDurable) {
  Ranks t(4);
  t.speculate(1);
  t.send(1, 2);  // sent at level 1
  t.speculate(1);
  t.send(1, 3);  // sent at level 2
  ASSERT_TRUE(t.consume(2, 1));
  ASSERT_TRUE(t.consume(3, 1));
  // Level 1 commits out of order: the level-1 send is durable, the
  // level-2 one now belongs to the new level 1.
  t.commit_oldest(1);
  t.rollback(1, 1);
  EXPECT_FALSE(t.take_poison(2));
  EXPECT_TRUE(t.take_poison(3));
}

/// A receiver restored from a checkpoint that outran its sender's: it
/// applied entries 3..5 of incarnation 1, which died before it could
/// checkpoint them, so incarnation 2 numbered its re-sends from 3 behind
/// a RESTART, checkpointed and died too. Asking incarnation 3 from 6, the
/// receiver gets every RESTART in the log (a watermark past one does not
/// truncate it), learns where incarnation 2's numbering began, asks
/// again from there, and reaches incarnation 3's new payload, instead of
/// holding incarnation 2's entries forever for a RESTART it was never
/// sent.
TEST(Tracker, ReceiverAheadOfItsSendersCheckpointFollowsItsIncarnations) {
  const auto snapshot = [](const auto& half) {
    Writer w;
    half.encode(w);
    return w.take();
  };
  const auto send = [](dnode::Outbox& out, std::int32_t tag) {
    return out.put(1, ChannelOp::kData, tag, 0, 0, {});
  };
  dnode::Inbox in;  // rank 1, from rank 0
  const auto deliver = [&](const dnode::Outbox::Sent& sent) {
    bool gap = false;
    for (const auto& [dst, e] : sent) gap = in.receive(0, *e).gap || gap;
    return gap;
  };
  dnode::Outbox first;
  first.start(1, false);
  for (std::int32_t tag = 1; tag <= 2; ++tag) {
    deliver(send(first, tag));
    ASSERT_TRUE(in.consume(0, tag, 0).has_value());
  }
  const auto first_ckpt = snapshot(first);
  for (std::int32_t tag = 3; tag <= 5; ++tag) {
    deliver(send(first, tag));
    ASSERT_TRUE(in.consume(0, tag, 0).has_value());
  }
  const auto receiver_ckpt = snapshot(in);  // next 6

  dnode::Outbox second;
  Reader r1(first_ckpt);
  second.decode(r1);
  second.start(2, true);
  for (std::int32_t tag = 3; tag <= 5; ++tag) (void)send(second, tag);
  const auto second_ckpt = snapshot(second);

  dnode::Outbox third;
  Reader r2(second_ckpt);
  third.decode(r2);
  third.start(3, true);
  // A watermark of the receiver's earlier checkpoint, past the RESTART.
  third.truncate(1, 4);
  in = dnode::Inbox{};
  Reader r3(receiver_ckpt);
  in.decode(r3);
  // Incarnation 3's RESTART and payload arrive first and wait for a
  // RESTART of incarnation 2.
  bool gap = deliver(send(third, 6));
  for (int asks = 0; gap && asks < 4; ++asks) {
    gap = deliver(third.resend(1, in.resend_from(0)));
  }
  EXPECT_TRUE(in.consume(0, 6, 0).has_value())
      << "stuck at seq " << in.next_seq(0);
}

/// A sender's COMMIT counts at the receiver only once a LANDED says the
/// sender's checkpoint after it is durable, or a RESTART shows the sender
/// resumed from such a checkpoint. Until then a lost sender voids the
/// payload, and the receiver that consumed it is poisoned. A LANDED
/// covers only the COMMITs before that checkpoint.
TEST(Tracker, CommitCountsOnceTheSendersCheckpointLanded) {
  constexpr std::uint64_t kAll = ~std::uint64_t{0};
  struct Pair {
    dnode::Outbox out;  // rank 0
    dnode::Inbox in;    // rank 1
    void deliver(const dnode::Outbox::Sent& sent) {
      for (const auto& [dst, e] : sent) (void)in.receive(0, *e);
    }
    /// One interval: a payload under `spec`, consumed by rank 1, then
    /// both commit to zero.
    void interval(std::uint64_t spec) {
      deliver(out.put(1, ChannelOp::kData, 0, spec, 0, {}));
      ASSERT_TRUE(in.consume(0, 0, spec).has_value());
      in.commit(kAll);
      deliver(out.commit(kAll, true));
    }
  };
  {
    Pair p;  // committed, its checkpoint not landed
    p.interval(1);
    EXPECT_TRUE(p.in.kill(0));
  }
  {
    Pair p;  // landed
    p.interval(1);
    p.deliver(p.out.landed(p.out.uncovered()));
    EXPECT_FALSE(p.in.kill(0));
  }
  {
    Pair p;  // the first interval's checkpoint landed, the second's not
    p.interval(1);
    const auto first = p.out.uncovered();
    p.interval(2);
    p.deliver(p.out.landed(first));
    EXPECT_TRUE(p.in.kill(0));
  }
  {
    Pair p;  // the sender resumes from the checkpoint after the commit
    p.interval(1);
    Writer w;
    p.out.encode(w);
    const std::vector<std::byte> blob = w.take();
    Reader r(blob);
    dnode::Outbox next;
    next.decode(r);
    next.start(2, true);
    p.deliver(next.resend(1, 0));  // opens with its RESTART
    EXPECT_FALSE(p.in.kill(0));
  }
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

// --- Channel join property tests --------------------------------------
//
// Seeded random interleavings of speculate / send / consume / rollback /
// commit across 4+ ranks. Two properties the join leans on:
//
//  * every abort avalanche terminates — each poison consumes a reverted
//    payload and rollbacks only re-queue or drop them, so the cascade
//    runs out of fuel instead of ping-ponging between neighbours forever;
//  * commit to zero makes payloads durable — a later rollback of the
//    (new) speculation must not poison consumers of data that was
//    already committed ("no stale poison after commit").

/// Drive one poison avalanche to completion: every poisoned rank rolls
/// back its level 1 (what a real poisoned rank does), possibly poisoning
/// others. Returns how many rollbacks it took; fails the test if the
/// cascade exceeds `bound` steps.
std::size_t drain_avalanche(Ranks& t, std::size_t bound) {
  std::size_t steps = 0;
  for (bool any = true; any;) {
    any = false;
    for (std::uint32_t n = 0; n < t.r.size(); ++n) {
      if (!t.take_poison(n)) continue;
      any = true;
      EXPECT_LT(steps, bound) << "avalanche did not terminate";
      if (steps >= bound) return steps;
      ++steps;
      if (t.r[n].levels.empty()) t.speculate(n);
      t.rollback(n, 1);
    }
  }
  return steps;
}

TEST(ClusterTrackerProps, RandomInterleavingsAvalancheAlwaysTerminates) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const std::uint32_t nodes = 4 + static_cast<std::uint32_t>(rng.below(3));
    Ranks t(nodes);
    std::size_t consumed = 0;
    for (int op = 0; op < 400; ++op) {
      const double dice = rng.uniform();
      const auto a = static_cast<std::uint32_t>(rng.below(nodes));
      auto b = static_cast<std::uint32_t>(rng.below(nodes));
      if (b == a) b = (b + 1) % nodes;
      if (dice < 0.15) {
        if (t.r[a].levels.size() < 3) t.speculate(a);
      } else if (dice < 0.45) {
        t.send(a, b);
      } else if (dice < 0.75) {
        if (t.consume(b, a)) ++consumed;
      } else if (dice < 0.9) {
        if (!t.r[a].levels.empty()) {
          t.rollback(a, 1 + rng.below(t.r[a].levels.size()));
        }
      } else if (!t.r[a].levels.empty()) {
        t.commit_oldest(a);
      }
      // A rollback can poison at most the payloads consumed so far, and
      // every cascade step drops one of them.
      drain_avalanche(t, consumed + nodes + 1);
      if (::testing::Test::HasFailure()) {
        FAIL() << "seed " << seed << ", op " << op;
      }
    }
    // Quiesce: roll everything back; no poison may survive its consumer.
    for (std::uint32_t n = 0; n < nodes; ++n) {
      if (!t.r[n].levels.empty()) t.rollback(n, 1);
      drain_avalanche(t, consumed + nodes + 1);
    }
    for (std::uint32_t n = 0; n < nodes; ++n) {
      EXPECT_FALSE(t.take_poison(n)) << "stale poison, seed " << seed;
    }
  }
}

TEST(ClusterTrackerProps, CommitToZeroLeavesNoStalePoison) {
  for (std::uint64_t seed = 1; seed <= 25; ++seed) {
    Rng rng(seed);
    const std::uint32_t nodes = 4;
    Ranks t(nodes);
    // A batch of level-1 sends from rank 0, randomly interleaved with
    // deeper ones that the commit must keep speculative.
    t.speculate(0);
    std::vector<std::uint32_t> shallow, deep;
    for (int i = 0; i < 40; ++i) {
      const auto r = static_cast<std::uint32_t>(1 + rng.below(nodes - 1));
      if (rng.chance(0.3)) {
        if (t.r[0].levels.size() == 1) t.speculate(0);
        deep.push_back(r);
      } else {
        if (t.r[0].levels.size() == 2) t.r[0].levels.pop_back();  // folded
        shallow.push_back(r);
      }
      t.send(0, r);
      ASSERT_TRUE(t.consume(r, 0));
    }
    if (t.r[0].levels.size() == 1) t.speculate(0);
    t.commit_oldest(0);
    // Rolling back the *new* level 1 may only hit the deep consumers —
    // and after that, nothing: committed data can never poison anyone.
    t.rollback(0, 1);
    for (std::uint32_t n = 1; n < nodes; ++n) {
      const bool hit = t.take_poison(n);
      if (std::find(deep.begin(), deep.end(), n) == deep.end()) {
        EXPECT_FALSE(hit) << "stale poison of rank " << n << ", seed " << seed;
      }
    }
    t.rollback(0, 1);
    for (std::uint32_t n = 0; n < nodes; ++n) {
      EXPECT_FALSE(t.take_poison(n)) << "stale poison, seed " << seed;
    }
  }
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
