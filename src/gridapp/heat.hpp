// The canonical grid computation of the paper (Figure 2): a 2D Jacobi
// heat-diffusion stencil, decomposed across cluster nodes in row bands,
// exchanging halo rows with neighbours every timestep through the
// message-passing externals, speculating between checkpoints, and
// checkpointing through the migrate primitive at a fixed interval —
// "the code ... can easily be used as a template for a large variety of
// scientific computing applications."
//
// The MojC program is generated from a HeatConfig; a bit-exact C++
// reference implementation validates the distributed results (including
// runs with injected faults, rollback, and resurrection, which must not
// change the answer).
//
// run_spmd / run_heat host the ranks on the one distributed runtime
// (src/dnode): in-process NodeAgents — one event-loop thread each — and a
// Coordinator, talking over loopback TCP with the full wire protocol and
// checkpointing into a fresh store directory removed afterwards. A kill
// is NodeAgent::stop(), exactly what a crashed `mojc node` looks like to
// the coordinator.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "dnode/agent.hpp"
#include "dnode/coord.hpp"
#include "fir/ir.hpp"
#include "net/chaos.hpp"
#include "support/tempdir.hpp"

namespace mojave::gridapp {

struct HeatConfig {
  std::uint32_t nodes = 4;
  std::uint32_t rows = 32;  ///< global rows; must divide evenly by nodes
  std::uint32_t cols = 32;
  std::uint32_t steps = 50;
  std::uint32_t checkpoint_interval = 0;  ///< in steps; 0 = never checkpoint
  /// Extra heap slots of static (write-once) data allocated alongside the
  /// grid — stands in for the large read-mostly state (meshes, material
  /// tables, constants) real scientific codes carry. It inflates the
  /// checkpoint image without changing between checkpoints, which is what
  /// the incremental chunk store dedupes away. 0 = none. Does not affect
  /// the computed sums.
  std::uint32_t static_slots = 0;
};

/// The MojC source of the per-node (SPMD) program.
[[nodiscard]] std::string heat_mojc_source(const HeatConfig& cfg);

/// Compiled FIR for the program (typechecks as a side effect).
[[nodiscard]] fir::Program heat_program(const HeatConfig& cfg);

/// Bit-exact sequential reference: the per-rank interior sums after
/// `steps` timesteps (same operation order as the generated program).
[[nodiscard]] std::vector<double> heat_reference_sums(const HeatConfig& cfg);

/// The running cluster, as a chaos callback sees it.
class LocalCluster {
 public:
  /// One agent per rank. With `wire_faults`, every agent is reached
  /// through its own WireChaosProxy with that profile; each proxy's first
  /// connection is the coordinator's, so `reset_conn >= 2` cuts a data
  /// link.
  LocalCluster(std::uint32_t ranks,
               const std::optional<net::WireFaults>& wire_faults);
  ~LocalCluster();

  LocalCluster(const LocalCluster&) = delete;
  LocalCluster& operator=(const LocalCluster&) = delete;

  /// Stop the agent hosting `rank` (NodeAgent::stop()). The coordinator
  /// sees its connection close and resurrects every rank it hosted on the
  /// surviving agents. False when that agent is already stopped, or when
  /// it is the last one running.
  bool kill_host_of(std::uint32_t rank);
  /// Whether a checkpoint image of `rank` is in the store.
  [[nodiscard]] bool has_checkpoint(std::uint32_t rank) const;
  /// Newest checkpoint sequence number of `rank`; 0 when none.
  [[nodiscard]] std::uint64_t latest_seq(std::uint32_t rank) const;
  /// The store's name for `rank`'s checkpoint images.
  [[nodiscard]] static std::string snapshot_name(std::uint32_t rank) {
    return "rank_" + std::to_string(rank);
  }
  [[nodiscard]] dnode::Coordinator& coordinator() { return *coord_; }
  [[nodiscard]] ckpt::CheckpointStore& store() { return *store_; }
  /// Fault counts summed over every proxy (zero without wire faults).
  [[nodiscard]] net::WireStats wire_stats() const;

 private:
  TempDir root_;  ///< outlives everything below, which writes into it
  std::shared_ptr<ckpt::CheckpointStore> store_;
  std::vector<std::unique_ptr<dnode::NodeAgent>> agents_;
  std::vector<bool> stopped_;
  std::vector<std::unique_ptr<net::WireChaosProxy>> proxies_;
  std::unique_ptr<dnode::Coordinator> coord_;
};

struct SpmdRun {
  std::vector<dnode::RankOutcome> ranks;
  /// Every rank reported a result within two minutes.
  bool finished = false;
  /// Finished, and every rank halted cleanly with exit code 0.
  bool all_clean = false;
  std::uint64_t resurrections = 0;
  std::uint64_t poisons_issued = 0;
  // Work, read as metrics-registry deltas around the run (the agents are
  // in this process), so concurrent runs would mix.
  /// VM instructions of every incarnation, killed ones included.
  std::uint64_t instructions = 0;
  std::uint64_t checkpoints = 0;        ///< images packed
  double checkpoint_seconds = 0;        ///< their total pack time
  std::uint64_t image_bytes = 0;        ///< their total size
  /// Bytes the store wrote after dedup: images plus channel logs.
  std::uint64_t bytes_written = 0;
  net::WireStats wire;  ///< LocalCluster::wire_stats() at the end
};

/// Start a copy of `program` on each of `ranks` ranks, run `chaos` (if
/// any) on the caller's thread, and wait for every rank to report.
[[nodiscard]] SpmdRun run_spmd(
    const fir::Program& program, std::uint32_t ranks,
    const std::optional<net::WireFaults>& wire_faults = std::nullopt,
    const std::function<void(LocalCluster&)>& chaos = nullptr);

struct HeatRun : SpmdRun {
  std::vector<double> sums;  ///< per-rank reported sums (NaN if missing)
};

/// run_spmd on the generated heat program, one rank per band.
[[nodiscard]] HeatRun run_heat(
    const HeatConfig& cfg,
    const std::optional<net::WireFaults>& wire_faults = std::nullopt,
    const std::function<void(LocalCluster&)>& chaos = nullptr);

}  // namespace mojave::gridapp
