// The simulated cluster: nodes, message-passing externals, fault
// injection, migration daemons, and resurrection.
//
// Stands in for the paper's test bed (Section 5: dual-700MHz nodes on a
// 100 Mbps network, an MCC migration daemon on every node, NFS for
// checkpoints). A Cluster hosts one managed Process per rank on its own
// thread; processes talk through the SimNetwork via host externals, write
// checkpoints to a chunk store (ckpt::CheckpointStore) through the
// standard migrate machinery, and are resurrected from those checkpoints
// after a fault — manually or by the built-in resurrection daemon. Each
// Cluster owns a fresh store directory and removes it on destruction, so
// no run can resurrect a rank from another run's checkpoints.
//
// Node externals available to MojC programs (declare with `extern`):
//   int node_id();               this process's rank
//   int num_nodes();             cluster size
//   int msg_send(int dst, int tag, ptr buf, int count);
//       send `count` slots starting at buf; 0 = delivered, 1 = dropped
//   int msg_recv(int src, int tag, ptr buf, int count);
//       0 = ok, 1 = MSG_ROLL (peer failed / speculation poisoned),
//       2 = timeout; blocks until one of these
//   ptr checkpoint_target();     "ckpt://<storage>/rank_<r>" (incremental
//                                chunk store)
//   void report_result(float);   hand a scalar result to the host
//   void sleep_ms(int);
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/store.hpp"
#include "cluster/tracker.hpp"
#include "fir/ir.hpp"
#include "migrate/migrator.hpp"
#include "net/retry.hpp"
#include "net/sim.hpp"
#include "support/tempdir.hpp"
#include "vm/process.hpp"

namespace mojave::cluster {

struct ClusterConfig {
  std::uint32_t num_nodes = 4;
  net::SimConfig net;
  runtime::HeapConfig heap;
  std::uint64_t max_instructions = 0;     ///< per process; 0 = unlimited
  /// msg_recv safety net; overridable with MOJAVE_RECV_TIMEOUT_S (and the
  /// mojc --recv-timeout flag, which sets that variable for the run).
  double recv_timeout_seconds = net::env_seconds("MOJAVE_RECV_TIMEOUT_S", 30.0);
  ckpt::CheckpointStore::Options ckpt;
};

struct NodeResult {
  net::NodeId rank = 0;
  vm::RunResult run;
  std::string error;   ///< "killed", or an exception message; empty = clean
  std::string output;
  spec::SpecStats spec;
  /// Accumulated across incarnations (deterministic work metric — wall
  /// time on an oversubscribed host is scheduler noise).
  std::uint64_t instructions = 0;
  std::uint64_t restarts = 0;
  std::uint64_t checkpoints = 0;        ///< migrate events executed
  double checkpoint_seconds = 0.0;      ///< total pack time
  std::size_t checkpoint_bytes = 0;     ///< last image size
  /// Bytes actually written to storage across all checkpoints (for the
  /// chunk store this is the deduplicated delta, not the image size).
  std::size_t checkpoint_bytes_written = 0;
  double reported = 0.0;  ///< last report_result() value
  bool has_reported = false;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig cfg);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Start `program` on node `rank` (compiles it into a fresh process).
  void launch(net::NodeId rank, fir::Program program);
  /// Start a copy of `program` on every node (SPMD, as in Figure 2).
  void launch_spmd(const fir::Program& program);

  /// Fault injection: the node's sends/receives fail immediately and any
  /// blocked receive wakes; the process dies at its next network
  /// operation. Peers observe MSG_ROLL.
  void kill(net::NodeId rank);

  /// Revive the rank and resume it from its latest checkpoint in shared
  /// storage (the paper: "the computation thread is resurrected on a
  /// remote node from the last checkpoint"). Returns false when no
  /// checkpoint exists — or when the rank is still alive, so a racing
  /// daemon and a manual call cannot start two incarnations.
  bool resurrect(net::NodeId rank);

  /// Start a daemon that resurrects dead ranks automatically.
  void enable_auto_resurrection(double poll_interval_seconds);

  /// Join every node thread and collect results. Stops the daemon.
  [[nodiscard]] std::vector<NodeResult> wait_all();

  [[nodiscard]] net::SimNetwork& network() { return net_; }
  [[nodiscard]] DependencyTracker& tracker() { return tracker_; }
  /// The chunk store backing ckpt:// checkpoints.
  [[nodiscard]] const std::shared_ptr<ckpt::CheckpointStore>& ckpt_store()
      const {
    return ckpt_store_;
  }
  /// Chunk-store snapshot name for `rank`.
  [[nodiscard]] std::string snapshot_name(net::NodeId rank) const {
    return "rank_" + std::to_string(rank);
  }
  /// Whether a restorable checkpoint exists for `rank`.
  [[nodiscard]] bool has_checkpoint(net::NodeId rank) const;

 private:
  struct Slot {
    std::thread thread;
    std::ostringstream output;
    NodeResult result;
    std::atomic<bool> finished{false};
    std::atomic<bool> launched{false};
    /// Claimed by whichever caller (daemon or test) resurrects this rank,
    /// so concurrent attempts cannot start two incarnations.
    std::atomic<bool> resurrecting{false};
    /// Lazy cancellation (cf. TimeWarp [Jefferson 85], which the paper
    /// builds on): hash of the last payload sent per (dst, tag). A
    /// deterministic re-send after a rollback reproduces the original
    /// bytes, so its consumers need not join the sender's speculation —
    /// only *changed* messages propagate rollbacks.
    std::map<std::pair<net::NodeId, std::int32_t>, std::uint64_t> sent_hashes;
    std::mutex sent_mu;
  };

  void register_externals(vm::Process& proc, net::NodeId rank);
  void record_migrator(net::NodeId rank, const migrate::Migrator& migrator);
  void run_body(net::NodeId rank, vm::Process& proc);
  void daemon_loop(double interval);

  ClusterConfig cfg_;
  net::SimNetwork net_;
  TempDir storage_root_;  ///< outlives the store, which is destroyed first
  std::shared_ptr<ckpt::CheckpointStore> ckpt_store_;
  DependencyTracker tracker_;
  std::vector<std::unique_ptr<Slot>> slots_;
  std::mutex mu_;
  std::thread daemon_;
  std::atomic<bool> stopping_{false};
};

}  // namespace mojave::cluster
