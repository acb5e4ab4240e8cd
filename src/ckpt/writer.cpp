#include "ckpt/writer.hpp"

#include <algorithm>
#include <iterator>

#include "support/log.hpp"

namespace mojave::ckpt {

CheckpointWriter::~CheckpointWriter() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CheckpointWriter::submit(CheckpointJob job) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
    if (!thread_.joinable()) thread_ = std::thread([this] { run(); });
  }
  work_cv_.notify_one();
}

bool CheckpointWriter::busy_with(const void* owner) const {
  return std::find(busy_.begin(), busy_.end(), owner) != busy_.end();
}

bool CheckpointWriter::queued_for(const void* owner) const {
  return std::any_of(queue_.begin(), queue_.end(),
                     [&](const CheckpointJob& j) { return j.owner == owner; });
}

void CheckpointWriter::cancel(const void* owner) {
  std::unique_lock<std::mutex> lock(mu_);
  std::erase_if(queue_,
                [&](const CheckpointJob& j) { return j.owner == owner; });
  idle_cv_.wait(lock, [&] { return !busy_with(owner); });
}

void CheckpointWriter::drain(const void* owner) {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock,
                [&] { return !busy_with(owner) && !queued_for(owner); });
}

void CheckpointWriter::run() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping, and everything is written
    std::vector<CheckpointJob> batch(std::make_move_iterator(queue_.begin()),
                                     std::make_move_iterator(queue_.end()));
    queue_.clear();
    busy_.clear();
    for (const CheckpointJob& j : batch) busy_.push_back(j.owner);
    lock.unlock();

    std::vector<CheckpointResult> results;
    try {
      results = store_.put_batch(batch);
    } catch (...) {
      // A failure no single job owns (the listing, say) fails them all.
      results.assign(batch.size(), CheckpointResult{});
      for (CheckpointResult& r : results) r.error = std::current_exception();
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (!batch[i].done) continue;
      try {
        batch[i].done(results[i]);
      } catch (const std::exception& e) {
        MOJAVE_LOG(kError, "ckpt") << "checkpoint of " << batch[i].snapshot
                                   << ": completion failed: " << e.what();
      }
    }
    batch.clear();  // the images go before anyone waiting wakes

    lock.lock();
    busy_.clear();
    idle_cv_.notify_all();
  }
}

}  // namespace mojave::ckpt
