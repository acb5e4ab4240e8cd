// E1/E2 — whole-process migration cost and its breakdown.
//
// Paper (Section 5): "We observed a migration time of 4 seconds for a
// process with a 1MB heap in an untrusted environment that required
// re-compilation of the FIR at the destination. Of this 10% represented
// the actual network transfer and the rest was due to re-compilation. For
// the same process, the binary migration time was under 1 second, of which
// 30% represented the data transfer from source to destination."
//
// Shape to reproduce: untrusted (FIR) migration is dominated by
// destination-side verification + recompilation, not by the wire; trusted
// (binary) migration is several times faster and transfer-bound to a much
// larger degree. Absolute numbers differ (2007 dual-700MHz vs this host;
// native codegen vs bytecode lowering); the network term prices the image
// on the paper's 100 Mbps link, plus a real loopback TCP transfer for
// reference.
//
// Rows: heap size ∈ {200 KB, 1 MB, 5 MB} × {FIR, binary}. Counters give
// the phase breakdown in microseconds and the transfer fraction.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>
#include <thread>

#include "bench/workloads.hpp"
#include "migrate/image.hpp"
#include "migrate/wire.hpp"
#include "net/chaos.hpp"
#include "net/retry.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "support/stopwatch.hpp"

namespace {

using namespace mojave;
using mojave::Stopwatch;

// The paper's interconnect (Section 5): 100 Mbps Ethernet, with a
// per-message latency of 100 µs.
constexpr double kPaperLinkBytesPerSecond = 100e6 / 8.0;
constexpr double kPaperLinkLatencySeconds = 100e-6;

void run_migration(benchmark::State& state, migrate::ImageKind kind) {
  const auto heap_kb = static_cast<std::size_t>(state.range(0));
  const auto code_funcs = static_cast<std::size_t>(state.range(1));
  auto workload = bench::make_migratable_process(heap_kb, code_funcs);

  // A loopback sink that acks frames, to measure a real TCP leg too.
  net::TcpListener sink(0);
  std::thread sink_thread([&] {
    while (auto stream = sink.accept()) {
      while (auto frame = stream->recv_frame()) {
        stream->send_frame(
            std::vector<std::byte>{std::byte{'O'}, std::byte{'K'}});
      }
    }
  });

  double pack_s = 0, unpack_s = 0, recompile_s = 0, typecheck_s = 0,
         link_transfer_s = 0, tcp_transfer_s = 0;
  std::size_t image_bytes = 0;
  std::int64_t iterations = 0;

  for (auto _ : state) {
    Stopwatch total;
    Stopwatch sw;
    auto packed = migrate::pack_process(
        *workload.process, workload.hook->label(),
        workload.hook->resume_fun(), workload.hook->resume_args(), kind);
    pack_s += sw.seconds();
    image_bytes = packed.bytes.size();

    // Network leg 1: the paper's 100 Mbps wire (cost model).
    link_transfer_s += kPaperLinkLatencySeconds +
                       static_cast<double>(packed.bytes.size()) /
                           kPaperLinkBytesPerSecond;

    // Network leg 2: real loopback TCP (connection setup + streaming).
    sw.reset();
    {
      auto stream = net::TcpStream::connect("127.0.0.1", sink.port());
      stream.send_frame(packed.bytes);
      auto ack = stream.recv_frame();
      benchmark::DoNotOptimize(ack);
    }
    tcp_transfer_s += sw.seconds();

    sw.reset();
    auto unpacked = migrate::unpack_process(packed.bytes);
    unpack_s += sw.seconds();
    recompile_s += unpacked.breakdown.recompile_seconds;
    typecheck_s += unpacked.breakdown.typecheck_seconds;
    benchmark::DoNotOptimize(unpacked.process.get());
    ++iterations;
  }
  sink.shutdown();
  sink_thread.join();

  const double n = static_cast<double>(iterations);
  const double total_s = (pack_s + link_transfer_s + unpack_s) / n;
  state.counters["code_funcs"] = static_cast<double>(code_funcs);
  state.counters["image_kb"] =
      static_cast<double>(image_bytes) / 1024.0;
  state.counters["pack_us"] = pack_s / n * 1e6;
  state.counters["net100mbps_us"] = link_transfer_s / n * 1e6;
  state.counters["tcp_loopback_us"] = tcp_transfer_s / n * 1e6;
  state.counters["unpack_us"] = unpack_s / n * 1e6;
  state.counters["verify_us"] = typecheck_s / n * 1e6;
  state.counters["recompile_us"] = recompile_s / n * 1e6;
  state.counters["total_us"] = total_s * 1e6;
  state.counters["transfer_frac"] = link_transfer_s / n / total_s;
  state.counters["recompile_frac"] =
      (recompile_s + typecheck_s) / n / total_s;
}

// E3 — resilient-transport latency under packet loss.
//
// The full idempotent handshake (offer/GO, image/ack — migrate/wire.hpp)
// runs through a WireChaosProxy that drops request and reply frames with
// the given probability, and the client retries under the production
// RetryPolicy. Measures what a lossy WAN costs a migration end to end:
// each retry pays a reconnect plus a jittered backoff, and a retry after
// a lost ack is answered DU from the dedup window instead of re-shipping.
void BM_MigrationResilient(benchmark::State& state) {
  const double drop = static_cast<double>(state.range(0)) / 100.0;
  const std::size_t image_kb = 64;

  // A v2-handshake sink with a dedup window, minus unpack/resume — so the
  // numbers isolate the transport, not destination recompilation.
  net::TcpListener sink(0);
  std::thread sink_thread([&] {
    std::set<std::uint64_t> committed;
    while (auto stream = sink.accept()) {
      try {
        stream->set_io_deadline(2.0);
        const auto offer = stream->recv_frame();
        if (!offer.has_value()) continue;
        const auto id = migrate::decode_offer(*offer);
        if (!id.has_value()) continue;
        if (committed.count(*id) != 0) {
          stream->send_frame(migrate::make_reply(migrate::kReplyDup));
          continue;
        }
        stream->send_frame(migrate::make_reply(migrate::kReplyGo));
        const auto image = stream->recv_frame();
        if (!image.has_value()) continue;
        committed.insert(*id);
        stream->send_frame(migrate::make_reply(migrate::kReplyOk));
      } catch (const NetError&) {
        // proxy cut the connection mid-exchange; the client will retry
      }
    }
  });

  net::WireFaults faults;
  faults.seed = 1000 + state.range(0);
  faults.drop_frame = drop;  // requests and replies alike
  net::WireChaosProxy proxy("127.0.0.1", sink.port(), faults);

  net::RetryPolicy policy;
  policy.max_attempts = 16;
  policy.initial_backoff_seconds = 0.0005;
  policy.max_backoff_seconds = 0.004;
  policy.overall_deadline_seconds = 10.0;
  policy.connect_timeout_seconds = 2.0;
  policy.io_timeout_seconds = 2.0;

  const std::vector<std::byte> image(image_kb * 1024, std::byte{0x5a});
  auto& hist = obs::MetricsRegistry::instance().histogram(
      "bench.mig_drop" + std::to_string(state.range(0)) + "_us");
  std::uint64_t retries = 0;

  for (auto _ : state) {
    Stopwatch total;
    const std::uint64_t id = migrate::fresh_migration_id();
    net::Backoff backoff(policy, id);
    while (true) {
      try {
        auto stream = net::TcpStream::connect("127.0.0.1", proxy.port(),
                                              policy.deadlines());
        stream.send_frame(migrate::encode_offer(id));
        const auto hello = stream.recv_frame();
        if (!hello.has_value()) throw NetError("closed in handshake");
        if (migrate::reply_is(*hello, migrate::kReplyDup)) break;
        if (!migrate::reply_is(*hello, migrate::kReplyGo)) {
          throw NetError("unexpected hello");
        }
        stream.send_frame(image);
        const auto ack = stream.recv_frame();
        if (!ack.has_value()) throw NetError("lost ack");
        break;
      } catch (const NetError&) {
        if (!backoff.retry_after_failure()) break;  // out of budget
        ++retries;
      }
    }
    hist.record_seconds(total.seconds());
  }
  sink.shutdown();
  proxy.stop();
  sink_thread.join();

  state.counters["drop_pct"] = static_cast<double>(state.range(0));
  state.counters["retries"] = static_cast<double>(retries);
  state.counters["image_kb"] = static_cast<double>(image_kb);
}

void BM_MigrationFir(benchmark::State& state) {
  run_migration(state, migrate::ImageKind::kFir);
}

void BM_MigrationBinary(benchmark::State& state) {
  run_migration(state, migrate::ImageKind::kBinary);
}

}  // namespace

// {live heap KB, application functions}. 800 straight-line functions is a
// small scientific application's worth of code.
BENCHMARK(BM_MigrationFir)
    ->Args({200, 800})->Args({1024, 800})->Args({5120, 800})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_MigrationBinary)
    ->Args({200, 800})->Args({1024, 800})->Args({5120, 800})
    ->Unit(benchmark::kMillisecond);
// {drop percent}: packet loss injected on both directions of the proxy.
BENCHMARK(BM_MigrationResilient)
    ->Args({0})->Args({1})->Args({5})
    ->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // One-line machine-readable record for the perf trajectory, sourced
  // from the process-wide metrics registry (aggregate over every run).
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
      "BENCH_JSON {\"bench\":\"migration\",\"images_packed\":%llu,"
      "\"image_bytes_packed\":%llu,\"pack_p50_us\":%.1f,\"pack_p99_us\":%.1f,"
      "\"unpack_p50_us\":%.1f,\"recompile_p50_us\":%.1f,"
      "\"gc_pause_p50_us\":%.1f,\"gc_pause_p99_us\":%.1f,"
      "\"mig_drop0_p50_us\":%.1f,\"mig_drop1_p50_us\":%.1f,"
      "\"mig_drop5_p50_us\":%.1f,\"mig_drop5_p99_us\":%.1f}\n",
      counter("migrate.images_packed"), counter("migrate.image_bytes_packed"),
      hist_q("migrate.pack_us", 0.5), hist_q("migrate.pack_us", 0.99),
      hist_q("migrate.unpack_us", 0.5), hist_q("migrate.recompile_us", 0.5),
      hist_q("gc.pause_us", 0.5), hist_q("gc.pause_us", 0.99),
      hist_q("bench.mig_drop0_us", 0.5), hist_q("bench.mig_drop1_us", 0.5),
      hist_q("bench.mig_drop5_us", 0.5), hist_q("bench.mig_drop5_us", 0.99));
  return 0;
}
