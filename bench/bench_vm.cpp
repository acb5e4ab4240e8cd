// Backend characterization: bytecode interpreter vs the native x86-64
// tier vs the RISC machine on the same FIR programs.
//
// The paper's architecture supports multiple backends (native IA32 and a
// RISC simulator); this bench quantifies our three. The RISC machine pays
// explicit spill traffic for every FIR variable access (a load/store
// architecture without a register allocator), so the bytecode VM wins by
// a modest constant factor — and the native tier should beat the
// interpreter by >=5x on hot arithmetic loops, with bit-identical
// instruction accounting (asserted here, not assumed).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "frontend/compile.hpp"
#include "native/arch.hpp"
#include "native/engine.hpp"
#include "obs/metrics.hpp"
#include "risc/lower.hpp"
#include "risc/machine.hpp"
#include "support/stopwatch.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;

const char* kWorkloads[] = {
    // 0: tight arithmetic loop
    "int main() { int acc = 0;"
    "  for (int i = 0; i < 20000; i++) { acc = acc * 3 + i; acc &= 65535; }"
    "  return acc; }",
    // 1: heap-heavy stencil-ish loop
    "int main() { ptr a = alloc(64); int acc = 0;"
    "  for (int i = 0; i < 64; i++) { a[i] = i; }"
    "  for (int r = 0; r < 400; r++) {"
    "    for (int i = 1; i < 63; i++) { a[i] = (a[i-1] + a[i+1]) / 2; }"
    "  }"
    "  for (int i = 0; i < 64; i++) { acc += a[i]; }"
    "  return acc; }",
    // 2: call-heavy recursion
    "int fib(int n) { if (n < 2) { return n; }"
    "  int a = fib(n - 1); int b = fib(n - 2); return a + b; }"
    "int main() { return fib(17); }",
    // 3: heap stores inside a speculation level (the Figure 2 loop shape):
    // the first store to `a` clones it copy-on-write, the rest are plain
    "int main() { ptr a = alloc(64); int id = speculate(); int acc = 0;"
    "  for (int i = 0; i < 64; i++) { a[i] = i; }"
    "  for (int r = 0; r < 300; r++) {"
    "    for (int i = 1; i < 63; i++) { a[i] = (a[i-1] + a[i+1]) / 2; }"
    "  }"
    "  commit(id);"
    "  for (int i = 0; i < 64; i++) { acc += a[i]; }"
    "  return acc; }",
};

vm::ProcessConfig tier_config(bool jit) {
  vm::ProcessConfig cfg;
  cfg.jit.enabled = jit;
  cfg.jit.threshold = 64;
  return cfg;
}

void run_backend(benchmark::State& state, bool jit) {
  fir::Program program = frontend::compile_source(
      "w", kWorkloads[state.range(0)]);
  std::int64_t code = 0;
  std::uint64_t insns = 0;
  std::uint64_t compiled = 0;
  std::uint64_t deopts = 0;
  for (auto _ : state) {
    vm::Process p(fir::clone_program(program), tier_config(jit));
    code = p.run().exit_code;
    insns = p.vm().stats().instructions;
    if (const native::Engine* eng = p.vm().native_engine()) {
      compiled = eng->compiled_functions();
      deopts = eng->total_deopts();
    }
  }
  benchmark::DoNotOptimize(code);
  state.counters["insns"] = static_cast<double>(insns);
  if (jit) {
    state.counters["compiled_funcs"] = static_cast<double>(compiled);
    state.counters["deopts"] = static_cast<double>(deopts);
  }
}

/// Pure interpretation — the baseline tier (JIT explicitly off so the
/// MOJAVE_JIT environment cannot skew the comparison).
void BM_BytecodeBackend(benchmark::State& state) {
  run_backend(state, false);
}

/// Tiered execution: interpreter warm-up, then compiled x86-64.
void BM_NativeTier(benchmark::State& state) {
  if (!native::jit_supported()) {
    state.SkipWithError("native tier unsupported on this host");
    return;
  }
  run_backend(state, true);
}

void BM_RiscBackend(benchmark::State& state) {
  fir::Program program = frontend::compile_source(
      "w", kWorkloads[state.range(0)]);
  const risc::RProgram rp = risc::lower(program);
  std::int64_t code = 0;
  std::uint64_t insns = 0;
  double spill_ratio = 0;
  for (auto _ : state) {
    runtime::Heap heap;
    spec::SpeculationManager spec(heap);
    risc::Machine m(heap, spec, rp);
    code = m.run().exit_code;
    insns = m.stats().instructions;
    spill_ratio = static_cast<double>(m.stats().spill_loads +
                                      m.stats().spill_stores) /
                  static_cast<double>(m.stats().instructions);
  }
  benchmark::DoNotOptimize(code);
  state.counters["insns"] = static_cast<double>(insns);
  state.counters["spill_frac"] = spill_ratio;
}

/// Wall time of `runs` fresh processes over workload `w` on one tier,
/// reporting the result and the retired-instruction count so the caller
/// can check the equivalence the deopt protocol guarantees.
double tier_seconds(int w, bool jit, int runs, std::int64_t& code,
                    std::uint64_t& insns) {
  fir::Program program = frontend::compile_source("w", kWorkloads[w]);
  Stopwatch sw;
  for (int r = 0; r < runs; ++r) {
    vm::Process p(fir::clone_program(program), tier_config(jit));
    code = p.run().exit_code;
    insns = p.vm().stats().instructions;
  }
  return sw.seconds() / runs;
}

}  // namespace

BENCHMARK(BM_BytecodeBackend)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NativeTier)->Arg(0)->Arg(1)->Arg(2)->Arg(3)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RiscBackend)->Arg(0)->Arg(1)->Arg(2)
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // One-line machine-readable record for the perf trajectory: hot-loop
  // wall time per tier, the speedup, the native tier's time on a loop
  // that stores inside a speculation level (reported, not gated), and the
  // native tier's own telemetry from the metrics registry. On unsupported
  // hosts the native columns report the interpreter (speedup ~1) and
  // jit_supported says why.
  const bool supported = native::jit_supported();
  const int kRuns = 10;
  // Per-run seconds of workload `w` on each tier (the native column is the
  // interpreter on unsupported hosts); false when the tiers disagree.
  const auto compare_tiers = [&](int w, double& interp_s,
                                 double& native_s) -> bool {
    std::int64_t code_i = 0, code_n = 0;
    std::uint64_t insns_i = 0, insns_n = 0;
    interp_s = tier_seconds(w, false, kRuns, code_i, insns_i);
    native_s =
        supported ? tier_seconds(w, true, kRuns, code_n, insns_n) : interp_s;
    if (supported && (code_i != code_n || insns_i != insns_n)) {
      std::fprintf(stderr,
                   "FATAL: tiers disagree on workload %d (code %lld vs %lld, "
                   "insns %llu vs %llu)\n",
                   w, static_cast<long long>(code_i),
                   static_cast<long long>(code_n),
                   static_cast<unsigned long long>(insns_i),
                   static_cast<unsigned long long>(insns_n));
      return false;
    }
    return true;
  };
  double interp_s = 0, native_s = 0, spec_interp_s = 0, spec_native_s = 0;
  if (!compare_tiers(0, interp_s, native_s) ||
      !compare_tiers(3, spec_interp_s, spec_native_s)) {
    return 1;
  }
  const auto snap = mojave::obs::MetricsRegistry::instance().snapshot();
  const auto counter = [&](const char* name) -> unsigned long long {
    const auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0ull : it->second;
  };
  const auto hist_q = [&](const char* name, double q) -> double {
    const auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? 0.0 : it->second.quantile_us(q);
  };
  std::printf(
      "BENCH_JSON {\"bench\":\"vm\",\"jit_supported\":%d,"
      "\"hot_loop_interp_ms\":%.3f,\"hot_loop_native_ms\":%.3f,"
      "\"native_speedup\":%.2f,\"hot_loop_spec_native_ms\":%.3f,"
      "\"native_compiled_funcs\":%llu,\"native_deopts_guard\":%llu,"
      "\"native_deopts_cold\":%llu,\"native_compile_p50_us\":%.1f}\n",
      supported ? 1 : 0, interp_s * 1e3, native_s * 1e3,
      native_s > 0 ? interp_s / native_s : 0.0, spec_native_s * 1e3,
      counter("native.compiled_funcs"), counter("native.deopts.guard"),
      counter("native.deopts.cold_target"),
      hist_q("native.compile_us", 0.5));
  return 0;
}
