// E8 — the distributed node runtime on the Figure-2 heat grid: two
// in-process NodeAgents connected by real sockets with the full wire
// protocol (framing, checksums, numbered channels between the agents, a
// control connection to the coordinator) — the paper's LAN setting,
// shrunk to loopback.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <filesystem>

#include "dnode/agent.hpp"
#include "dnode/coord.hpp"
#include "gridapp/heat.hpp"
#include "obs/metrics.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mojave;

gridapp::HeatConfig bench_grid() {
  gridapp::HeatConfig cfg;
  cfg.nodes = 4;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.steps = 40;
  cfg.checkpoint_interval = 10;
  return cfg;
}

fs::path bench_storage() {
  const fs::path dir = fs::temp_directory_path() / "mojave_bench_dnode";
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// The distributed runtime: two agents, real TCP, full join protocol.
void BM_HeatTwoNodeAgents(benchmark::State& state) {
  const auto cfg = bench_grid();
  const fs::path storage = bench_storage();
  double insns = 0;
  for (auto _ : state) {
    dnode::AgentConfig acfg;
    acfg.storage_root = storage;
    dnode::NodeAgent a0(acfg), a1(acfg);

    dnode::CoordinatorConfig ccfg;
    ccfg.agents = {{"127.0.0.1", a0.port()}, {"127.0.0.1", a1.port()}};
    ccfg.num_ranks = cfg.nodes;
    ccfg.recv_timeout_seconds = 30.0;
    dnode::Coordinator coord(std::move(ccfg));
    coord.launch_spmd(gridapp::heat_program(cfg));
    if (!coord.wait_all(120.0)) state.SkipWithError("distributed run hung");
    insns = 0;
    for (const auto& r : coord.results()) {
      if (r.result_kind != 0) state.SkipWithError("rank failed");
      insns += static_cast<double>(r.instructions);
    }
    coord.shutdown_agents();
  }
  state.counters["vm_minsns"] = insns / 1e6;
}

}  // namespace

BENCHMARK(BM_HeatTwoNodeAgents)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // One-line machine-readable record for the perf trajectory: the wire
  // traffic the distributed runs generated, from the metrics registry.
  const auto snap = mojave::obs::MetricsRegistry::instance().snapshot();
  const auto counter = [&](const char* name) -> unsigned long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0ull : it->second;
  };
  std::printf(
      "BENCH_JSON {\"bench\":\"dnode\","
      "\"launches\":%llu,\"data_frames_out\":%llu,\"data_frames_in\":%llu,"
      "\"data_forwards\":%llu,\"replay_requests\":%llu,"
      "\"heartbeats\":%llu,\"corrupt_frames\":%llu,\"link_failures\":%llu}\n",
      counter("node.launches"), counter("node.data_frames_out"),
      counter("node.data_frames_in"), counter("node.data_forwards"),
      counter("dspec.replay_requests"),
      counter("node.heartbeats"), counter("node.corrupt_frames"),
      counter("node.link_failures"));
  return 0;
}
