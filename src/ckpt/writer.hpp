// The checkpoint writer: one thread per CheckpointStore instance that
// takes checkpoint puts off their callers' threads.
//
// The paper's `checkpoint` protocol is "write state file, continue". A
// rank must stop for the pack, which is the consistent cut, but not for
// chunking, hashing, extent appends and the fsync that follow: those run
// here while the rank computes, as in libckpt's forked checkpointing
// (Plank et al., USENIX 1995). The thread drains its whole queue as one
// batch and makes one fsync cover every checkpoint in it — group commit
// (DeWitt et al., SIGMOD 1984) — before it publishes their manifests in
// submit order (CheckpointStore::put_batch). A job's `done` then runs on
// this thread; an agent's posts an ack to its event loop.
//
// The queue is bounded by its callers: an agent keeps at most one
// checkpoint per rank in flight, and put() waits for its own. A job's
// image is freed as soon as its batch is published.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "ckpt/store.hpp"

namespace mojave::ckpt {

class CheckpointWriter {
 public:
  explicit CheckpointWriter(CheckpointStore& store) : store_(store) {}
  /// Writes every queued job, then joins the thread.
  ~CheckpointWriter();

  CheckpointWriter(const CheckpointWriter&) = delete;
  CheckpointWriter& operator=(const CheckpointWriter&) = delete;

  /// Queue a job; starts the thread on first use.
  void submit(CheckpointJob job);

  /// Discard `owner`'s queued jobs (their `done` never runs) and wait for
  /// the batch being written if it holds one of its jobs. Once it
  /// returns, no `done` of `owner` runs and no manifest of its jobs
  /// appears.
  void cancel(const void* owner);

  /// Wait until every job `owner` submitted is published or failed.
  void drain(const void* owner);

 private:
  void run();
  [[nodiscard]] bool busy_with(const void* owner) const;
  [[nodiscard]] bool queued_for(const void* owner) const;

  CheckpointStore& store_;
  std::mutex mu_;
  std::condition_variable work_cv_;  ///< a job was queued, or stopping
  std::condition_variable idle_cv_;  ///< a batch finished
  std::deque<CheckpointJob> queue_;
  /// Owners of the jobs in the batch being written.
  std::vector<const void*> busy_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace mojave::ckpt
