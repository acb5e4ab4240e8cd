// The coordinator's replicated state machine.
//
// Everything the coordinator must not forget across a crash lives here:
// rank placement and incarnations, and terminal rank outcomes. (The
// speculation join is not here: it runs agent to agent over the exact
// channels, docs/SPECULATION.md.) The
// live coordinator mutates this state ONLY through apply() — the same
// function WAL replay calls — so "replay the log" and "run the
// transitions live" are one code path and the rebuilt state bit-matches
// the original by construction (snapshot_bytes() is the canonical image
// the equivalence tests compare).
//
// apply() reports whether a RESULT was a duplicate; every other side
// effect (PLACEMENT, RESURRECT frames) the coordinator derives from the
// state itself.
#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/wal.hpp"

namespace mojave::ctrl {

constexpr std::uint32_t kNoAgent = ~std::uint32_t{0};

/// One rank's placement.
struct RankPlacement {
  std::uint32_t agent = 0;
  bool alive = false;
  /// 1 at launch; each kResurrectGrant assigns the next, in WAL order.
  std::uint64_t incarnation = 1;
};

/// Final state of one rank, aggregated across incarnations (the body of
/// dnode::RankOutcome; the rank number is the index).
struct RankState {
  bool done = false;
  std::uint8_t result_kind = 0;
  std::int64_t exit_code = 0;
  std::string error;
  std::string output;
  bool has_reported = false;
  double reported = 0;
  std::uint64_t instructions = 0;
  std::uint64_t speculates = 0, commits = 0, rollbacks = 0;
  std::uint64_t restarts = 0;
};

class CoordState {
 public:
  struct ApplyResult {
    /// kRankResult only: the rank was already done (duplicate RESULT
    /// re-sent across a failover; the transition was a no-op).
    bool duplicate_result = false;
  };

  /// The one transition function. NOT thread-safe; callers serialize
  /// (the coordinator under its mutex, replay single-threaded).
  ApplyResult apply(const WalRecord& rec);

  // --- read side --------------------------------------------------------
  [[nodiscard]] std::uint32_t num_ranks() const { return num_ranks_; }
  [[nodiscard]] const std::vector<AgentEndpoint>& agents() const {
    return agents_;
  }
  [[nodiscard]] std::uint64_t max_instructions() const {
    return max_instructions_;
  }
  [[nodiscard]] double recv_timeout_seconds() const {
    return recv_timeout_seconds_;
  }
  [[nodiscard]] const std::vector<RankPlacement>& placement() const {
    return placement_;
  }
  [[nodiscard]] const std::vector<RankState>& ranks() const { return ranks_; }
  [[nodiscard]] bool run_complete() const { return run_complete_; }
  [[nodiscard]] bool all_done() const;

  /// Canonical byte image of the whole state (placement, outcomes). Two
  /// CoordStates that applied equivalent transition streams produce
  /// identical bytes.
  [[nodiscard]] std::vector<std::byte> snapshot_bytes() const;

 private:
  std::uint32_t num_ranks_ = 0;
  std::vector<AgentEndpoint> agents_;
  std::uint64_t max_instructions_ = 0;
  double recv_timeout_seconds_ = 30.0;

  std::vector<RankPlacement> placement_;
  std::vector<RankState> ranks_;
  bool run_complete_ = false;
};

}  // namespace mojave::ctrl
