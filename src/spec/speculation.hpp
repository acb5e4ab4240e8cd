// Speculative execution (paper, Section 4.3).
//
// "Each speculate operation enters a new speculation level nested within
// the previous level. Speculation levels are numbered from 1 to N, where 1
// is the oldest ... Speculation levels use copy-on-write semantics; when a
// block in the heap is modified, the block is cloned and the pointer table
// updated to point to the new copy of the block, preserving the data in
// the original block. On a commit or rollback operation of l, exactly one
// of these blocks will be discarded."
//
// The manager installs itself as the heap's write hook (seeing every
// mutation before it happens) and as a root provider (the preserved
// pre-write versions — the paper's "checkpoint records" — must survive
// collection and be patched when compaction moves them).
//
// Commits may occur out of order: committing level l folds its record into
// level l-1. Rollback of level l reverts levels N..l and, in the FIR's
// retry semantics, automatically re-enters level l with the original
// continuation and a caller-chosen value of c.
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "runtime/heap.hpp"
#include "support/common.hpp"
#include "support/error.hpp"

namespace mojave::spec {

/// The continuation captured at speculate(): the function entered
/// speculatively plus its arguments. All live data is passed as arguments
/// because the FIR is in continuation-passing style, so this small record
/// (plus the COW heap versions) *is* the complete rollback state.
struct SavedContinuation {
  FunIndex fun = 0;
  std::int64_t c = 0;
  std::vector<runtime::Value> args;
};

/// What rollback tells the execution engine to do next.
struct RollbackOutcome {
  SavedContinuation continuation;
  /// Level that was re-entered (retry semantics), or 0 if the rollback
  /// discarded the level (abort semantics).
  SpecLevel reentered_level = 0;
};

struct SpecStats {
  std::uint64_t speculates = 0;
  std::uint64_t commits = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t blocks_preserved = 0;  ///< COW old versions recorded
  std::uint64_t bytes_preserved = 0;
};

class SpeculationManager final : public runtime::WriteHook,
                                 public runtime::RootProvider {
 public:
  explicit SpeculationManager(runtime::Heap& heap);
  ~SpeculationManager() override;

  SpeculationManager(const SpeculationManager&) = delete;
  SpeculationManager& operator=(const SpeculationManager&) = delete;

  /// Enter a new speculation level; returns its number (1..N). The saved
  /// continuation is what rollback re-enters.
  SpecLevel speculate(SavedContinuation continuation);

  /// Fold level l's record into the level below it (or discard it when
  /// l == 1, making its effects permanent). Commits may be out of order.
  void commit(SpecLevel level);

  /// Revert all changes made in levels N..l, resume at l's entry point.
  /// With `retry` (the FIR primitive's semantics) the level is re-entered
  /// with the original continuation and the new c; without it (the
  /// C-level abort()) the level is discarded.
  RollbackOutcome rollback(SpecLevel level, std::int64_t new_c, bool retry);

  [[nodiscard]] SpecLevel current_level() const {
    return static_cast<SpecLevel>(levels_.size());
  }

  /// Id of active level `level` (1..N): its entry epoch. Ids never repeat
  /// within a manager, and a nested level's id exceeds its parents', so
  /// "this speculation or one nested in it" is "id >= level_id(level)".
  [[nodiscard]] std::uint64_t level_id(SpecLevel level) const {
    check_level(level);
    return levels_[level - 1].epoch;
  }

  /// Stable-address mirror of the active level count, read by the native
  /// tier's inlined store fast path: with no active level before_write is
  /// a no-op, so the store may skip the copy-on-write hook.
  [[nodiscard]] const std::uint64_t* level_count_addr() const {
    return &level_count_mirror_;
  }

  /// Stable-address mirror of the newest level's entry epoch (0 with no
  /// level). The native store fast path inlines before_write's own
  /// early-out — a block whose spec_epoch is at least this value is
  /// already versioned in the newest level — and calls the hook otherwise.
  [[nodiscard]] const std::uint64_t* top_epoch_addr() const {
    return &top_epoch_mirror_;
  }

  /// Observer invoked at the start of every rollback. The cluster layer
  /// uses it to propagate aborts to processes that joined this process's
  /// speculation by consuming its speculative messages (paper, Section 1:
  /// they must "join that process's speculation and roll back together").
  void set_rollback_observer(
      std::function<void(SpecLevel level, bool retry)> observer) {
    rollback_observer_ = std::move(observer);
  }

  /// Observer invoked when the oldest level commits (its effects become
  /// durable); dependencies on it can then be discharged.
  void set_commit_observer(std::function<void()> observer) {
    commit_observer_ = std::move(observer);
  }
  [[nodiscard]] const SpecStats& stats() const { return stats_; }

  /// Number of preserved block versions currently held across all levels.
  [[nodiscard]] std::size_t preserved_blocks() const;

  // WriteHook: copy-on-write before mutation; allocation tracking.
  void before_write(BlockIndex idx) override;
  void after_alloc(BlockIndex idx) override;

  // RootProvider: checkpoint records keep old versions (and the table
  // entries they would restore) alive and relocatable.
  void enumerate_roots(runtime::RootVisitor& visitor) override;

 private:
  struct SavedVersion {
    BlockIndex index = kNullIndex;
    runtime::Block* old_version = nullptr;
  };

  struct LevelRecord {
    std::uint64_t epoch = 0;
    SavedContinuation continuation;
    std::vector<SavedVersion> saved;
    std::unordered_map<BlockIndex, std::size_t> saved_lookup;
    std::vector<BlockIndex> allocated;
  };

  void restore_level(LevelRecord& record);
  void check_level(SpecLevel level) const;
  /// Re-derive the mirrors and the heap's allocation epoch from levels_.
  void sync_level_mirrors();

  runtime::Heap& heap_;
  std::vector<LevelRecord> levels_;
  /// Kept equal to levels_.size() and levels_.back().epoch after every
  /// mutation (see level_count_addr, top_epoch_addr).
  std::uint64_t level_count_mirror_ = 0;
  std::uint64_t top_epoch_mirror_ = 0;
  std::uint64_t next_epoch_ = 1;
  SpecStats stats_;
  std::function<void(SpecLevel, bool)> rollback_observer_;
  std::function<void()> commit_observer_;
};

}  // namespace mojave::spec
