#include "spec/speculation.hpp"

#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mojave::spec {

namespace {

struct SpecMetrics {
  obs::Counter& speculates;
  obs::Counter& commits;
  obs::Counter& rollbacks;
  obs::Counter& blocks_preserved;
  obs::Counter& bytes_preserved;
  obs::Gauge& active_levels;

  static SpecMetrics& get() {
    static SpecMetrics m{
        obs::MetricsRegistry::instance().counter("spec.speculates"),
        obs::MetricsRegistry::instance().counter("spec.commits"),
        obs::MetricsRegistry::instance().counter("spec.rollbacks"),
        obs::MetricsRegistry::instance().counter("spec.blocks_preserved"),
        obs::MetricsRegistry::instance().counter("spec.bytes_preserved"),
        obs::MetricsRegistry::instance().gauge("spec.active_levels"),
    };
    return m;
  }
};

}  // namespace

SpeculationManager::SpeculationManager(runtime::Heap& heap) : heap_(heap) {
  (void)SpecMetrics::get();  // register spec.* metrics eagerly
  heap_.set_write_hook(this);
  heap_.add_root_provider(this);
}

SpeculationManager::~SpeculationManager() {
  heap_.set_write_hook(nullptr);
  heap_.remove_root_provider(this);
}

void SpeculationManager::check_level(SpecLevel level) const {
  if (level == 0 || level > levels_.size()) {
    throw SpecError("level " + std::to_string(level) +
                    " is not an active speculation level (N = " +
                    std::to_string(levels_.size()) + ")");
  }
}

SpecLevel SpeculationManager::speculate(SavedContinuation continuation) {
  obs::ScopedSpan span("spec", "speculate");
  LevelRecord record;
  record.epoch = next_epoch_++;
  record.continuation = std::move(continuation);
  levels_.push_back(std::move(record));
  sync_level_mirrors();
  ++stats_.speculates;
  SpecMetrics& m = SpecMetrics::get();
  m.speculates.inc();
  m.active_levels.set(static_cast<std::int64_t>(levels_.size()));
  span.set_arg("level", levels_.size());
  return static_cast<SpecLevel>(levels_.size());
}

void SpeculationManager::sync_level_mirrors() {
  level_count_mirror_ = levels_.size();
  top_epoch_mirror_ = levels_.empty() ? 0 : levels_.back().epoch;
  // Stamp subsequent allocations and clones with the newest level's epoch
  // so before_write can tell "already versioned here" from "needs a
  // clone". With no level active that is epoch 0: strictly below every
  // future level's entry epoch, so the first write inside the next
  // speculation correctly preserves the block copy-on-write.
  heap_.set_spec_epoch(top_epoch_mirror_);
}

void SpeculationManager::before_write(BlockIndex idx) {
  if (levels_.empty()) return;
  LevelRecord& top = levels_.back();
  runtime::Block* current = heap_.deref(idx);
  if (current->h.spec_epoch >= top.epoch) return;  // already versioned
  auto pair = heap_.cow_clone(idx);
  top.saved.push_back(SavedVersion{idx, pair.old_version});
  top.saved_lookup.emplace(idx, top.saved.size() - 1);
  ++stats_.blocks_preserved;
  stats_.bytes_preserved += pair.old_version->footprint();
  SpecMetrics& m = SpecMetrics::get();
  m.blocks_preserved.inc();
  m.bytes_preserved.inc(pair.old_version->footprint());
}

void SpeculationManager::after_alloc(BlockIndex idx) {
  if (levels_.empty()) return;
  levels_.back().allocated.push_back(idx);
}

void SpeculationManager::commit(SpecLevel level) {
  check_level(level);
  obs::ScopedSpan span("spec", "commit");
  span.set_arg("level", level);
  LevelRecord record = std::move(levels_[level - 1]);
  if (level >= 2) {
    LevelRecord& parent = levels_[level - 2];
    for (SavedVersion& sv : record.saved) {
      // The parent's version, if present, is older (closer to the parent's
      // entry state) and therefore wins; the folded version is discarded —
      // "exactly one of these blocks will be discarded".
      if (parent.saved_lookup.contains(sv.index)) continue;
      parent.saved.push_back(sv);
      parent.saved_lookup.emplace(sv.index, parent.saved.size() - 1);
    }
    parent.allocated.insert(parent.allocated.end(), record.allocated.begin(),
                            record.allocated.end());
  }
  // When level == 1 the record is simply dropped: the preserved versions
  // become unreachable and the collector reclaims them.
  levels_.erase(levels_.begin() + static_cast<std::ptrdiff_t>(level) - 1);
  sync_level_mirrors();
  ++stats_.commits;
  SpecMetrics& m = SpecMetrics::get();
  m.commits.inc();
  m.active_levels.set(static_cast<std::int64_t>(levels_.size()));
  if (level == 1 && commit_observer_) commit_observer_();
}

void SpeculationManager::restore_level(LevelRecord& record) {
  // Put every preserved version back into the pointer table. Entries with
  // a saved version are kept alive by enumerate_roots, so the entry is
  // always still valid here.
  for (SavedVersion& sv : record.saved) {
    heap_.table().redirect(sv.index, sv.old_version);
  }
  // Entries created during the level must not survive it.
  for (BlockIndex idx : record.allocated) {
    heap_.table().release(idx);
  }
}

RollbackOutcome SpeculationManager::rollback(SpecLevel level,
                                             std::int64_t new_c, bool retry) {
  check_level(level);
  obs::ScopedSpan span("spec", retry ? "rollback" : "abort");
  span.set_arg("level", level);
  if (rollback_observer_) rollback_observer_(level, retry);
  // Revert newest-first so that, for a block modified in several levels,
  // the oldest preserved version is the one that ends up in the table.
  for (std::size_t i = levels_.size(); i >= level; --i) {
    restore_level(levels_[i - 1]);
  }
  SavedContinuation continuation = std::move(levels_[level - 1].continuation);
  levels_.resize(level - 1);
  sync_level_mirrors();
  ++stats_.rollbacks;
  SpecMetrics& m = SpecMetrics::get();
  m.rollbacks.inc();
  m.active_levels.set(static_cast<std::int64_t>(levels_.size()));

  RollbackOutcome outcome;
  continuation.c = new_c;
  outcome.continuation = std::move(continuation);
  if (retry) {
    // "This version of the primitive is a retry primitive; level l is
    // automatically re-entered after it has been rolled back."
    outcome.reentered_level = speculate(outcome.continuation);
  }
  return outcome;
}

std::size_t SpeculationManager::preserved_blocks() const {
  std::size_t n = 0;
  for (const LevelRecord& r : levels_) n += r.saved.size();
  return n;
}

void SpeculationManager::enumerate_roots(runtime::RootVisitor& visitor) {
  for (LevelRecord& record : levels_) {
    for (SavedVersion& sv : record.saved) {
      // Keep the preserved version alive and relocatable...
      visitor.block_root(&sv.old_version);
      // ...and pin the table entry it would restore into, so the entry is
      // never swept (and so the current clone stays valid for commit).
      visitor.index_root(sv.index);
    }
    visitor.value_root(runtime::Value::from_fun(record.continuation.fun));
    for (const runtime::Value& v : record.continuation.args) {
      visitor.value_root(v);
    }
  }
}

}  // namespace mojave::spec
