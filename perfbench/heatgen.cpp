// Writes one heat-stencil workload for the benchmark: the MojC source of
// the per-rank program generated from a gridapp::HeatConfig, and the
// bit-exact sequential reference sums (one "%.17g" line per rank).
//
//   heatgen NODES ROWS COLS STEPS INTERVAL OUT.mjc OUT.sums
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>

#include "gridapp/heat.hpp"

int main(int argc, char** argv) {
  if (argc != 8) {
    std::cerr << "usage: heatgen NODES ROWS COLS STEPS INTERVAL OUT.mjc "
                 "OUT.sums\n";
    return 2;
  }
  mojave::gridapp::HeatConfig cfg;
  cfg.nodes = static_cast<std::uint32_t>(std::strtoul(argv[1], nullptr, 10));
  cfg.rows = static_cast<std::uint32_t>(std::strtoul(argv[2], nullptr, 10));
  cfg.cols = static_cast<std::uint32_t>(std::strtoul(argv[3], nullptr, 10));
  cfg.steps = static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10));
  cfg.checkpoint_interval =
      static_cast<std::uint32_t>(std::strtoul(argv[5], nullptr, 10));
  try {
    std::ofstream src(argv[6], std::ios::trunc);
    src << mojave::gridapp::heat_mojc_source(cfg);
    std::ofstream sums(argv[7], std::ios::trunc);
    for (const double s : mojave::gridapp::heat_reference_sums(cfg)) {
      char line[40];
      std::snprintf(line, sizeof(line), "%.17g\n", s);
      sums << line;
    }
    if (!src || !sums) {
      std::cerr << "heatgen: cannot write outputs\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "heatgen: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
