#include "ctrl/state.hpp"

#include <algorithm>

#include "support/serialize.hpp"

namespace mojave::ctrl {

std::uint64_t CoordState::commit_count(std::uint32_t rank) const {
  const auto it = commit_counts_.find(rank);
  return it == commit_counts_.end() ? 0 : it->second;
}

bool CoordState::all_done() const {
  if (ranks_.empty()) return false;
  return std::all_of(ranks_.begin(), ranks_.end(),
                     [](const RankState& r) { return r.done; });
}

void CoordState::push_fence(std::uint32_t rank, RollbackFence f) {
  auto& ring = rollback_ring_[rank];
  ring.push_back(f);
  if (ring.size() > kRollbackRingCap) ring.pop_front();
}

CoordState::ApplyResult CoordState::apply(const WalRecord& rec) {
  ApplyResult result;
  switch (rec.op) {
    case WalOp::kMeta:
      num_ranks_ = rec.num_ranks;
      agents_ = rec.agents;
      max_instructions_ = rec.max_instructions;
      recv_timeout_seconds_ = rec.recv_timeout_seconds;
      placement_.assign(num_ranks_, RankPlacement{kNoAgent, false});
      ranks_.assign(num_ranks_, RankState{});
      break;

    case WalOp::kTakeover:
      break;  // replay-plumbing only; no state

    case WalOp::kPlacement:
      if (rec.rank < placement_.size()) {
        placement_[rec.rank] = RankPlacement{rec.agent, rec.alive};
      }
      break;

    case WalOp::kAgentDown:
      for (std::uint32_t r = 0; r < placement_.size(); ++r) {
        if (placement_[r].agent != rec.agent || !placement_[r].alive) continue;
        placement_[r].alive = false;
        // The rank died with uncommitted speculation: everyone who
        // consumed its speculative sends rolls back with it, and any
        // DEP_RECORD still in flight for it is stale at every level.
        for (const std::uint32_t p : tracker_.on_rollback(r, 1)) {
          (void)tracker_.consume_poison(p);  // delivered as a POISON frame
          result.poisoned.push_back(p);
        }
        push_fence(r, RollbackFence{~std::uint64_t{0}, 1, commit_counts_[r]});
      }
      break;

    case WalOp::kDepRecord: {
      const auto ring = rollback_ring_.find(rec.sender);
      if (ring != rollback_ring_.end()) {
        for (const RollbackFence& f : ring->second) {
          // Commits between the send and this rollback discharged that
          // many levels; what the rollback reverted is only the
          // remainder. Effective level 0 = committed before the rollback.
          const std::uint64_t commits_since =
              f.commits > rec.commit_seq ? f.commits - rec.commit_seq : 0;
          const std::uint32_t effective =
              rec.sender_level > commits_since
                  ? rec.sender_level -
                        static_cast<std::uint32_t>(commits_since)
                  : 0;
          if (effective > 0 && f.epoch > rec.epoch && f.level <= effective) {
            // Epoch fence: the speculation this record would join no
            // longer exists. Poison the receiver instead.
            result.stale_dep = true;
            result.poisoned.push_back(rec.receiver);
            return result;
          }
        }
      }
      // Each commit the sender made since the send discharged one of its
      // levels, exactly as on_commit_to_zero() shifts recorded ones. Data
      // from a speculation that has since committed is durable: recording
      // it at its send-time level would let the sender's *next* rollback
      // poison this receiver, and a resurrected rank re-reading committed
      // border data would be poisoned by every rollback of its peers.
      const std::uint64_t commits = commit_count(rec.sender);
      const std::uint64_t discharged =
          commits > rec.commit_seq ? commits - rec.commit_seq : 0;
      if (discharged >= rec.sender_level) break;
      tracker_.record(rec.sender,
                      rec.sender_level - static_cast<SpecLevel>(discharged),
                      rec.receiver, rec.receiver_level);
      break;
    }

    case WalOp::kRollback: {
      for (const std::uint32_t p : tracker_.on_rollback(rec.rank, rec.level)) {
        (void)tracker_.consume_poison(p);
        result.poisoned.push_back(p);
      }
      push_fence(rec.rank,
                 RollbackFence{rec.epoch, rec.level, commit_counts_[rec.rank]});
      break;
    }

    case WalOp::kCommit:
      tracker_.on_commit_to_zero(rec.rank);
      ++commit_counts_[rec.rank];
      rollback_ring_.erase(rec.rank);
      break;

    case WalOp::kResurrectGrant:
      if (rec.rank < placement_.size()) {
        placement_[rec.rank].agent = rec.agent;
      }
      break;

    case WalOp::kRankUp:
      if (rec.rank < placement_.size()) {
        placement_[rec.rank].alive = true;
        rollback_ring_.erase(rec.rank);  // fresh incarnation, fresh epochs
        ranks_[rec.rank].restarts += 1;
      }
      break;

    case WalOp::kCommitSeqSet: {
      auto& count = commit_counts_[rec.rank];
      count = std::max(count, rec.commit_seq);
      break;
    }

    case WalOp::kRankResult:
      if (rec.rank < ranks_.size()) {
        RankState& r = ranks_[rec.rank];
        if (r.done) {
          // Duplicate RESULT (re-sent across a failover): the first one
          // already landed; applying again would double-count.
          result.duplicate_result = true;
          break;
        }
        r.done = true;
        r.result_kind = rec.result_kind;
        r.exit_code = rec.exit_code;
        r.error = rec.error;
        r.output += rec.output;
        r.has_reported = rec.has_reported;
        r.reported = rec.reported;
        r.instructions += rec.instructions;
        r.speculates += rec.speculates;
        r.commits += rec.commits;
        r.rollbacks += rec.rollbacks;
      }
      break;

    case WalOp::kRunComplete:
      run_complete_ = true;
      break;
  }
  return result;
}

std::vector<std::byte> CoordState::snapshot_bytes() const {
  Writer w;
  w.u32(num_ranks_);
  w.u32(static_cast<std::uint32_t>(agents_.size()));
  for (const AgentEndpoint& a : agents_) {
    w.str(a.host);
    w.u16(a.port);
  }
  w.u64(max_instructions_);
  w.f64(recv_timeout_seconds_);
  for (const RankPlacement& p : placement_) {
    w.u32(p.agent);
    w.u8(p.alive ? 1 : 0);
  }
  w.u32(static_cast<std::uint32_t>(commit_counts_.size()));
  for (const auto& [rank, count] : commit_counts_) {
    w.u32(rank);
    w.u64(count);
  }
  w.u32(static_cast<std::uint32_t>(rollback_ring_.size()));
  for (const auto& [rank, ring] : rollback_ring_) {
    w.u32(rank);
    w.u32(static_cast<std::uint32_t>(ring.size()));
    for (const RollbackFence& f : ring) {
      w.u64(f.epoch);
      w.u32(f.level);
      w.u64(f.commits);
    }
  }
  for (const RankState& r : ranks_) {
    w.u8(r.done ? 1 : 0);
    w.u8(r.result_kind);
    w.i64(r.exit_code);
    w.str(r.error);
    w.str(r.output);
    w.u8(r.has_reported ? 1 : 0);
    w.f64(r.reported);
    w.u64(r.instructions);
    w.u64(r.speculates);
    w.u64(r.commits);
    w.u64(r.rollbacks);
    w.u64(r.restarts);
  }
  const std::vector<std::byte> tracker = tracker_.encode_state();
  w.u32(static_cast<std::uint32_t>(tracker.size()));
  w.bytes(tracker);
  w.u8(run_complete_ ? 1 : 0);
  return w.take();
}

}  // namespace mojave::ctrl
