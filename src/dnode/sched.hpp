// RankScheduler: cooperative userspace fibers for rank-dense agents.
//
// The thread-per-rank agent topped out at a few dozen ranks per process —
// each rank cost a kernel thread (stack, scheduler load, context-switch
// latency on every message). Because the interpreter is CPS, a rank's
// complete mid-function state is (function, pc, registers), all of which
// already live inside its Interpreter; a "fiber" here is therefore not a
// stack switch but a bookkeeping record around Interpreter::run_slice():
// run a bounded slice, and either requeue (preempted), park on a wait key
// (an external called Interpreter::block()), or retire (halted /
// migrated away).
//
// Wait keys are opaque 64-bit values chosen by the agent — in practice
// hash(src_rank, tag) for message receives and a per-rank key for pacing
// gates — so a DATA frame arriving from the network wakes exactly the
// fibers that can make progress, and everything else stays parked at zero
// cost. Blocked fibers may also carry a deadline (sleep_ms, send throttle,
// receive re-request pacing); next_deadline() feeds the event loop's
// epoll timeout so a sleeping agent burns no CPU.
//
// The scheduler itself is single-threaded: every method except wake() and
// wake_key() must be called from the owning event-loop thread. wake()/
// wake_key() are thread-safe — they enqueue into a mutex-protected inbox
// and kick the loop's Poller — so speculation observers, tests, and any
// future helper threads can unpark fibers safely.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace mojave::net {
class Poller;
}  // namespace mojave::net

namespace mojave::dnode {

class RankScheduler {
 public:
  using FiberId = std::uint64_t;

  /// Outcome of one fiber step, reported by the body callback.
  struct Step {
    enum class Kind {
      kYield,    ///< slice budget used up; requeue at the back
      kBlocked,  ///< park on wait_key (and optional deadline)
      kDone,     ///< fiber finished; remove it
    } kind = Kind::kYield;
    std::uint64_t wait_key = 0;
    /// Steady-clock absolute seconds to wake at even without an event;
    /// 0 = wake on event only.
    double deadline = 0;
  };

  /// The fiber body: advance the rank by one slice and say what happened.
  /// Runs on the loop thread; may throw — the fiber is then removed and
  /// the exception propagates out of run_some().
  using Body = std::function<Step(FiberId)>;

  /// `poller` (optional) is kicked by cross-thread wakes so a loop blocked
  /// in epoll_wait notices newly runnable fibers.
  explicit RankScheduler(net::Poller* poller = nullptr) : poller_(poller) {}

  void spawn(FiberId id, Body body);
  /// Drop a fiber in any state (rank migrated away, killed, finished).
  void remove(FiberId id);

  /// Wake every fiber parked on `key`. Thread-safe.
  void wake_key(std::uint64_t key);
  /// Wake one fiber by id if it is parked. Thread-safe.
  void wake(FiberId id);
  /// Wake every parked fiber (cluster-wide state change: a PLACEMENT
  /// update may unblock receives waiting on a now-dead peer). Loop thread
  /// only.
  void wake_all();

  /// Run up to `max_steps` fiber slices (round-robin). Call drain_wakes()
  /// first is implied. Returns true while runnable fibers remain.
  bool run_some(int max_steps, double now_seconds);

  /// Move deadline-expired parked fibers to the run queue.
  void expire_deadlines(double now_seconds);

  /// Earliest deadline among parked fibers, or 0 when none carry one.
  [[nodiscard]] double next_deadline() const;

  [[nodiscard]] std::size_t runnable() const { return runq_.size(); }
  [[nodiscard]] std::size_t live() const { return fibers_.size(); }
  [[nodiscard]] bool has_runnable() const { return !runq_.empty(); }
  [[nodiscard]] bool idle() const;

 private:
  struct Fiber {
    Body body;
    enum class State { kRunnable, kBlocked, kRunning } state = State::kRunnable;
    std::uint64_t wait_key = 0;
    double deadline = 0;
    bool queued = false;  ///< already in runq_ (suppress double enqueue)
  };

  void enqueue(FiberId id, Fiber& f);
  /// Apply wakes queued by other threads. Loop thread only.
  void drain_wakes();
  void wake_key_locked(std::uint64_t key);

  net::Poller* poller_;
  std::unordered_map<FiberId, Fiber> fibers_;
  std::deque<FiberId> runq_;
  /// Parked fibers by wait key (multimap semantics via bucket vectors).
  std::unordered_map<std::uint64_t, std::vector<FiberId>> waiters_;

  std::mutex wake_mu_;
  std::vector<std::uint64_t> pending_key_wakes_;
  std::vector<FiberId> pending_id_wakes_;
};

/// Wait-key builder shared by the agent: receives park on (src, tag),
/// frame handlers wake the same key. Bit 63 tags the namespace so rank-id
/// keys (pacing gates) can never collide with (src, tag) keys.
[[nodiscard]] inline std::uint64_t recv_wait_key(std::uint64_t src_rank,
                                                std::uint64_t tag) {
  return (1ull << 63) | ((src_rank & 0x7fffffffull) << 32) |
         (tag & 0xffffffffull);
}
[[nodiscard]] inline std::uint64_t rank_wait_key(std::uint64_t rank) {
  return rank;
}

}  // namespace mojave::dnode
