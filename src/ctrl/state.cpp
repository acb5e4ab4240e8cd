#include "ctrl/state.hpp"

#include <algorithm>

#include "support/serialize.hpp"

namespace mojave::ctrl {

bool CoordState::all_done() const {
  if (ranks_.empty()) return false;
  return std::all_of(ranks_.begin(), ranks_.end(),
                     [](const RankState& r) { return r.done; });
}

CoordState::ApplyResult CoordState::apply(const WalRecord& rec) {
  ApplyResult result;
  switch (rec.op) {
    case WalOp::kMeta:
      num_ranks_ = rec.num_ranks;
      agents_ = rec.agents;
      max_instructions_ = rec.max_instructions;
      recv_timeout_seconds_ = rec.recv_timeout_seconds;
      placement_.assign(num_ranks_, RankPlacement{kNoAgent, false, 1});
      ranks_.assign(num_ranks_, RankState{});
      break;

    case WalOp::kTakeover:
      break;  // replay-plumbing only; no state

    case WalOp::kPlacement:
      if (rec.rank < placement_.size()) {
        placement_[rec.rank].agent = rec.agent;
        placement_[rec.rank].alive = rec.alive;
      }
      break;

    case WalOp::kAgentDown:
      // Its ranks' receivers void their non-durable entries when the
      // PLACEMENT broadcast of this verdict reaches them.
      for (RankPlacement& p : placement_) {
        if (p.agent == rec.agent) p.alive = false;
      }
      break;

    case WalOp::kResurrectGrant:
      if (rec.rank < placement_.size()) {
        placement_[rec.rank].agent = rec.agent;
        ++placement_[rec.rank].incarnation;
      }
      break;

    case WalOp::kRankUp:
      if (rec.rank < placement_.size()) {
        placement_[rec.rank].alive = true;
        ranks_[rec.rank].restarts += 1;
      }
      break;

    case WalOp::kRankResult:
      if (rec.rank < ranks_.size()) {
        RankState& r = ranks_[rec.rank];
        if (r.done) {
          // Duplicate RESULT (re-sent across a failover): the first one
          // already landed; applying again would double-count.
          result.duplicate_result = true;
          break;
        }
        const RankResult& res = rec.result;
        r.done = true;
        r.result_kind = res.result_kind;
        r.exit_code = res.exit_code;
        r.error = res.error;
        r.output += res.output;
        r.has_reported = res.has_reported;
        r.reported = res.reported;
        r.instructions += res.instructions;
        r.speculates += res.speculates;
        r.commits += res.commits;
        r.rollbacks += res.rollbacks;
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
    w.u64(p.incarnation);
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
  w.u8(run_complete_ ? 1 : 0);
  return w.take();
}

}  // namespace mojave::ctrl
