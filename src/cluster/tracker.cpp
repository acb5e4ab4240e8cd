#include "cluster/tracker.hpp"

#include <algorithm>

#include "support/serialize.hpp"

namespace mojave::cluster {

void DependencyTracker::record(NodeId sender, SpecLevel sender_level,
                               NodeId receiver, SpecLevel receiver_level) {
  if (sender_level == 0) return;  // non-speculative send: nothing to join
  std::lock_guard<std::mutex> lock(mu_);
  deps_[sender].push_back(Dep{receiver, sender_level, receiver_level});
}

std::vector<NodeId> DependencyTracker::on_rollback(NodeId node,
                                                   SpecLevel level) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<NodeId> hit;

  // Sender side: messages this node sent at level ≥ `level` never happened;
  // their consumers must roll back with it.
  auto it = deps_.find(node);
  if (it != deps_.end()) {
    auto& vec = it->second;
    for (auto d = vec.begin(); d != vec.end();) {
      if (d->sender_level >= level) {
        if (poisoned_.insert(d->receiver).second) ++poisons_;
        hit.push_back(d->receiver);
        d = vec.erase(d);
      } else {
        ++d;
      }
    }
  }

  // Receiver side: consumptions this node made at level ≥ `level` are
  // un-consumed by the rollback — void them so they cannot poison it for
  // data it no longer holds.
  for (auto& [sender, vec] : deps_) {
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [&](const Dep& d) {
                               return d.receiver == node &&
                                      d.receiver_level >= level;
                             }),
              vec.end());
  }
  return hit;
}

void DependencyTracker::on_commit_to_zero(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  // Sender side: messages sent at level 1 are now durable; deeper levels
  // shift down by one.
  auto it = deps_.find(node);
  if (it != deps_.end()) {
    auto& vec = it->second;
    vec.erase(std::remove_if(vec.begin(), vec.end(),
                             [](const Dep& d) { return d.sender_level <= 1; }),
              vec.end());
    for (Dep& d : vec) --d.sender_level;
  }
  // Receiver side: consumptions made at level 1 are committed (permanent,
  // level 0); deeper ones shift down.
  for (auto& [sender, vec] : deps_) {
    for (Dep& d : vec) {
      if (d.receiver == node && d.receiver_level > 0) --d.receiver_level;
    }
  }
}

bool DependencyTracker::consume_poison(NodeId node) {
  std::lock_guard<std::mutex> lock(mu_);
  return poisoned_.erase(node) > 0;
}

std::size_t DependencyTracker::dependency_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const auto& [sender, vec] : deps_) n += vec.size();
  return n;
}

std::uint64_t DependencyTracker::poisons_issued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return poisons_;
}

std::vector<std::byte> DependencyTracker::encode_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  Writer w;
  w.u32(static_cast<std::uint32_t>(deps_.size()));
  for (const auto& [sender, vec] : deps_) {
    w.u32(sender);
    w.u32(static_cast<std::uint32_t>(vec.size()));
    for (const Dep& d : vec) {
      w.u32(d.receiver);
      w.u32(d.sender_level);
      w.u32(d.receiver_level);
    }
  }
  w.u32(static_cast<std::uint32_t>(poisoned_.size()));
  for (const NodeId n : poisoned_) w.u32(n);
  w.u64(poisons_);
  return w.take();
}

}  // namespace mojave::cluster
