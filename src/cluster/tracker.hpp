// Distributed speculation join (paper, Section 1).
//
// Speculations relax transactional isolation: "speculative processes [may]
// use communication ... but it also requires processes that depend on the
// values generated by a speculative process to join that process's
// speculation and roll back together in case of failure."
//
// The tracker records, at receive time, that `receiver` (itself at level
// `receiver_level`) consumed a message sent while `sender` was inside
// speculation level `sender_level`. When a process rolls level l back:
//
//  * everyone who consumed a message it sent at level ≥ l is *poisoned* —
//    their next receive reports MSG_ROLL, so they roll back too (the
//    cooperative protocol of Figure 2);
//  * its own consumptions made at level ≥ l are voided — the rollback
//    un-consumes them, so they must not poison it again later. This is
//    what makes an abort avalanche terminate instead of ping-ponging
//    between neighbours forever.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "support/common.hpp"

namespace mojave::cluster {

/// A rank: the unit the tracker joins and poisons.
using NodeId = std::uint32_t;

class DependencyTracker {
 public:
  void record(NodeId sender, SpecLevel sender_level, NodeId receiver,
              SpecLevel receiver_level);

  /// `node` rolled back `level` (and everything deeper). Poisons its
  /// dependents and voids its own receiver-side records at level ≥ l.
  /// Returns the nodes poisoned by this rollback.
  std::vector<NodeId> on_rollback(NodeId node, SpecLevel level);

  /// `node` committed its oldest level: sender-side dependencies on that
  /// level are durable; its receiver-side records shift down one level
  /// (level-0 consumptions are permanent and never voided).
  void on_commit_to_zero(NodeId node);

  /// Check and clear the poison flag for a node.
  [[nodiscard]] bool consume_poison(NodeId node);

  [[nodiscard]] std::size_t dependency_count() const;
  [[nodiscard]] std::uint64_t poisons_issued() const;

  /// Canonical byte image of the full tracker state (dep lists in
  /// insertion order, the poisoned set, the poison count). Two trackers
  /// that processed equivalent event streams encode identically — the
  /// control-plane WAL replay-equivalence tests compare exactly this.
  [[nodiscard]] std::vector<std::byte> encode_state() const;

 private:
  struct Dep {
    NodeId receiver;
    SpecLevel sender_level;
    SpecLevel receiver_level;
  };

  mutable std::mutex mu_;
  std::map<NodeId, std::vector<Dep>> deps_;  // sender → dependents
  std::set<NodeId> poisoned_;
  std::uint64_t poisons_ = 0;
};

}  // namespace mojave::cluster
