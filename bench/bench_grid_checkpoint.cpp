// E7 — the grid application: checkpoint-interval overhead and the cost of
// recovery versus restarting from scratch.
//
// Paper (Sections 2 and 5): "Depending on the failure frequency, this
// parameter [the checkpoint interval] can be adjusted to balance the
// overhead of speculations against the expected cost of fault recovery"
// and "the overhead from using speculative execution and process migration
// is small compared to having to re-start the application from scratch".
//
// Shape to reproduce:
//   * runtime grows as the checkpoint interval shrinks (more commits +
//     checkpoint writes), with modest overhead at sane intervals;
//   * completing a run through a mid-run failure (rollback + resurrection)
//     costs far less than the failure-free runtime of a from-scratch
//     restart would add;
//   * with the incremental chunk store, checkpoints after the first write
//     only the changed fraction of the image (the dirty grid band plus VM
//     state), not the full image — reported as incremental_write_ratio in
//     the BENCH_JSON line.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "gridapp/heat.hpp"
#include "obs/metrics.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace mojave;

gridapp::HeatConfig bench_grid(std::uint32_t interval) {
  gridapp::HeatConfig cfg;
  cfg.nodes = 4;
  cfg.rows = 32;
  cfg.cols = 32;
  cfg.steps = 160;
  cfg.checkpoint_interval = interval;
  // A realistic image: the mutable grid rides along with a large block of
  // write-once application state (meshes, tables). The chunk store should
  // upload that block once and dedupe it in every later checkpoint.
  cfg.static_slots = 12288;
  return cfg;
}

/// Failure-free runtime vs checkpoint interval (Arg = interval; 0 = no
/// checkpointing, the baseline).
void BM_GridInterval(benchmark::State& state) {
  const auto interval = static_cast<std::uint32_t>(state.range(0));
  const auto cfg = bench_grid(interval);
  double checkpoints = 0;
  double ckpt_ms = 0;
  double insns = 0;
  double ckpt_kb = 0;
  double written_kb = 0;
  for (auto _ : state) {
    const auto run = gridapp::run_heat(cfg);
    if (!run.all_clean) state.SkipWithError("grid run failed");
    benchmark::DoNotOptimize(run.sums.data());
    checkpoints = static_cast<double>(run.checkpoints);
    ckpt_ms = run.checkpoint_seconds * 1e3;
    insns = static_cast<double>(run.instructions);
    ckpt_kb = run.checkpoints == 0
                  ? 0
                  : static_cast<double>(run.image_bytes) /
                        static_cast<double>(run.checkpoints) / 1024.0;
    written_kb = static_cast<double>(run.bytes_written) / 1024.0;
  }
  state.counters["interval"] = interval;
  state.counters["checkpoints_per_run"] = checkpoints;
  // Deterministic work metrics: wall time on a loaded host is noisy, but
  // the checkpoint cost (pack time) and executed instructions are not.
  state.counters["ckpt_cost_ms"] = ckpt_ms;
  state.counters["vm_minsns"] = insns / 1e6;
  state.counters["image_kb"] = ckpt_kb;
  // Chunk-store delta actually uploaded across the whole run (images and
  // replay logs) — with dedup this stays far below checkpoints_per_run *
  // image_kb.
  state.counters["written_kb"] = written_kb;
}

/// Completion time with one injected failure + resurrection, versus the
/// arithmetic cost of restarting from scratch at the same failure point.
double fault_free_insns_ = 0;
double fault_free_wall_s_ = 0;  // exported in the BENCH_JSON trendline

void BM_GridRecoveryVsRestart(benchmark::State& state) {
  const auto cfg = bench_grid(10);
  double fault_free_s = 0;
  {
    Stopwatch sw;
    const auto run = gridapp::run_heat(cfg);
    if (!run.all_clean) state.SkipWithError("baseline failed");
    fault_free_s = sw.seconds();
    fault_free_wall_s_ = fault_free_s;
    fault_free_insns_ = static_cast<double>(run.instructions);
  }

  // Inject the failure after the victim's 6th checkpoint (step ~60 of
  // 160), detected by watching its snapshot's manifest sequence advance
  // in the chunk store: stop the agent that hosts it. This is where the
  // recovery-vs-restart gap the paper argues for lives: a restart
  // re-executes the whole 6-interval prefix on every node, while recovery
  // re-executes at most one interval.
  constexpr int kKillAfterCheckpoints = 6;
  double faulted_s = 0;
  std::int64_t n = 0;
  double faulted_insns = 0;
  for (auto _ : state) {
    Stopwatch sw;
    const auto run = gridapp::run_heat(
        cfg, {}, [&](gridapp::LocalCluster& cl) {
          for (int spin = 0; spin < 20000; ++spin) {
            if (cl.latest_seq(1) >=
                static_cast<std::uint64_t>(kKillAfterCheckpoints)) {
              break;
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
          }
          cl.kill_host_of(1);
        });
    faulted_s += sw.seconds();
    if (!run.all_clean) state.SkipWithError("faulted run did not recover");
    if (run.resurrections == 0) state.SkipWithError("victim not resurrected");
    faulted_insns = static_cast<double>(run.instructions);
    ++n;
  }
  faulted_s /= static_cast<double>(n);

  // Work lost to the failure under each policy, in VM instructions
  // (every incarnation's, the killed one's included): recovery
  // re-executes ≤ 1 checkpoint interval; a restart at the same point
  // re-pays the whole prefix on every node.
  const double per_interval = fault_free_insns_ / 16.0;  // 160 steps / 10
  state.counters["fault_free_minsns"] = fault_free_insns_ / 1e6;
  state.counters["recovery_lost_minsns"] =
      (faulted_insns - fault_free_insns_) / 1e6;
  state.counters["restart_lost_minsns"] =
      per_interval * kKillAfterCheckpoints / 1e6;
  state.counters["fault_free_ms"] = fault_free_s * 1e3;
  state.counters["with_failure_ms"] = faulted_s * 1e3;
}

}  // namespace

BENCHMARK(BM_GridInterval)->Arg(0)->Arg(5)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);
BENCHMARK(BM_GridRecoveryVsRestart)
    ->Unit(benchmark::kMillisecond)->MinTime(0.5);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // One-line machine-readable record for the perf trajectory, sourced
  // from the process-wide metrics registry (aggregate over every run).
  // incremental_write_ratio is the headline: of the logical bytes in
  // second-and-later checkpoints, the fraction actually uploaded (the
  // rest deduplicated against chunks the store already held).
  const auto snap = mojave::obs::MetricsRegistry::instance().snapshot();
  const auto counter = [&](const char* name) -> unsigned long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0ull : it->second;
  };
  const auto hist_q = [&](const char* name, double q) -> double {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.quantile_us(q);
  };
  const double logical_inc =
      static_cast<double>(counter("ckpt.bytes_logical_incremental"));
  const double written_inc =
      static_cast<double>(counter("ckpt.bytes_written_incremental"));
  const double ratio = logical_inc == 0 ? 1.0 : written_inc / logical_inc;
  std::printf(
      "BENCH_JSON {\"bench\":\"grid_checkpoint\","
      "\"checkpoints\":%llu,\"bytes_logical\":%llu,\"bytes_written\":%llu,"
      "\"bytes_logical_incremental\":%llu,"
      "\"bytes_written_incremental\":%llu,"
      "\"incremental_write_ratio\":%.4f,"
      "\"heat_fault_free_ms\":%.1f,"
      "\"chunks_written\":%llu,\"chunks_deduped\":%llu,"
      "\"chunks_evicted\":%llu,\"restore_fallbacks\":%llu,"
      "\"put_p50_us\":%.1f,\"put_p99_us\":%.1f,\"restore_p50_us\":%.1f}\n",
      counter("ckpt.manifests_written"), counter("ckpt.bytes_logical"),
      counter("ckpt.bytes_written"),
      counter("ckpt.bytes_logical_incremental"),
      counter("ckpt.bytes_written_incremental"), ratio,
      fault_free_wall_s_ * 1e3,
      counter("ckpt.chunks_written"), counter("ckpt.chunks_deduped"),
      counter("ckpt.chunks_evicted"), counter("ckpt.restore_fallbacks"),
      hist_q("ckpt.put_us", 0.5), hist_q("ckpt.put_us", 0.99),
      hist_q("ckpt.restore_us", 0.5));
  return 0;
}
