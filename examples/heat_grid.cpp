// The paper's evaluation application (Figure 2): a distributed 2D heat
// stencil on four node agents (in this process, over loopback TCP), with
// the speculative checkpointing main loop, an injected node failure,
// automatic resurrection from the shared checkpoint store, and
// verification that the answer is identical to the failure-free
// sequential reference.
//
//   $ ./examples/heat_grid
#include <chrono>
#include <cmath>
#include <iostream>
#include <thread>

#include "gridapp/heat.hpp"
#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"

int main() {
  using namespace mojave;

  gridapp::HeatConfig cfg;
  cfg.nodes = 4;
  cfg.rows = 32;
  cfg.cols = 24;
  cfg.steps = 120;
  cfg.checkpoint_interval = 20;

  std::cout << "2D heat diffusion, " << cfg.rows << "x" << cfg.cols
            << " grid, " << cfg.steps << " timesteps, " << cfg.nodes
            << " node agents, checkpoint every " << cfg.checkpoint_interval
            << " steps\n";
  std::cout << "the per-node program is MojC compiled through the Mojave "
               "pipeline;\nits main loop is the paper's Figure 2: "
               "speculate / exchange-or-rollback /\ncompute / "
               "commit+checkpoint\n\n";

  obs::Counter& preserved_ctr =
      obs::MetricsRegistry::instance().counter("spec.blocks_preserved");
  const std::uint64_t preserved_before = preserved_ctr.value();
  Stopwatch sw;
  const auto run =
      gridapp::run_heat(cfg, {}, [&](gridapp::LocalCluster& cl) {
        // Let rank 2 checkpoint at least once, then kill its node.
        for (int i = 0; i < 5000 && !cl.has_checkpoint(2); ++i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        if (cl.has_checkpoint(2) && cl.kill_host_of(2)) {
          std::cout << "!! injected failure: stopped the node hosting "
                       "rank 2\n";
          // Wait for the coordinator to bring rank 2 back elsewhere.
          for (int i = 0; i < 10000 && cl.coordinator().resurrections() == 0;
               ++i) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        } else {
          std::cout << "(rank 2 never checkpointed; skipping fault "
                       "injection)\n";
        }
      });
  const double elapsed = sw.seconds();

  const auto ref = gridapp::heat_reference_sums(cfg);
  bool verified = run.all_clean;
  std::cout << "\nper-rank interior sums (distributed vs reference):\n";
  for (std::uint32_t r = 0; r < cfg.nodes; ++r) {
    const double got = run.sums[r];
    const double want = ref[r];
    const bool match = std::abs(got - want) < 1e-9;
    verified = verified && match;
    std::cout << "  rank " << r << ": " << got << " vs " << want
              << (match ? "  [match]" : "  [MISMATCH]") << "\n";
  }

  std::uint64_t rollbacks = 0;
  for (const auto& rank : run.ranks) {
    rollbacks += rank.rollbacks;
    if (!rank.error.empty()) {
      std::cout << "  rank " << rank.rank << " error: " << rank.error << "\n";
    }
  }
  std::cout << "\nresurrections: " << run.resurrections
            << ", speculation rollbacks: " << rollbacks
            << ", COW blocks preserved: "
            << preserved_ctr.value() - preserved_before << "\n";
  std::cout << "wall time: " << elapsed << " s\n";
  if (run.resurrections == 0) {
    // Without a resurrection the run proves nothing about fault tolerance.
    std::cout << "VERIFICATION FAILED: rank 2 was never resurrected\n";
    return 1;
  }
  std::cout << (verified ? "VERIFIED: fault-tolerant run matches the "
                           "failure-free reference\n"
                         : "VERIFICATION FAILED\n");
  return verified ? 0 : 1;
}
