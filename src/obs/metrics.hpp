// Process-wide metrics registry: the single export path for every runtime
// statistic (GC, speculation, migration, VM, network).
//
// Design:
//  * Handles (Counter/Gauge/Histogram) are created once through the
//    registry (mutex-protected name lookup) and then held by the
//    instrumented component; the hot path is a relaxed atomic add with no
//    lock and no allocation.
//  * Histograms use fixed 1-2-5 exponential microsecond buckets, so a
//    record() is a table walk over ~24 entries and an atomic increment —
//    cheap enough for per-collection and per-message latencies.
//  * snapshot() gives a consistent-enough point-in-time copy for dumping;
//    reset() zeroes values but keeps the handles valid (benches reset
//    between phases).
//  * dump_text() / dump_json() render the whole registry; `mojc --stats`
//    and the BENCH_JSON records are built on these.
//
// The legacy per-component stats structs (GcStats, SpecStats, VmStats)
// remain the instance-local views — their increment sites now
// dual-write into this registry, which is the process-wide aggregate.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

namespace mojave::obs {

/// Monotonic event count. Relaxed atomic increments; no lock.
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Instantaneous signed level (active speculation levels, heap bytes).
class Gauge {
 public:
  void set(std::int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    v_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const {
    return v_.load(std::memory_order_relaxed);
  }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> v_{0};
};

/// Fixed-bucket latency histogram. Values are microseconds; buckets are a
/// 1-2-5 exponential ladder from 1 µs to 10 s plus an overflow bucket.
class Histogram {
 public:
  static constexpr std::size_t kNumBounds = 22;
  static constexpr std::size_t kNumBuckets = kNumBounds + 1;  // + overflow

  /// Upper bounds (inclusive) of each bucket, in microseconds.
  static const std::array<double, kNumBounds>& bounds();

  void record_us(double us);
  void record_seconds(double s) { record_us(s * 1e6); }

  struct Snapshot {
    std::uint64_t count = 0;
    double sum_us = 0;
    double min_us = 0;
    double max_us = 0;
    std::array<std::uint64_t, kNumBuckets> buckets{};

    /// Estimated value at quantile q in [0,1] (linear interpolation
    /// within the winning bucket). 0 when empty.
    [[nodiscard]] double quantile_us(double q) const;
    [[nodiscard]] double mean_us() const {
      return count == 0 ? 0 : sum_us / static_cast<double>(count);
    }
  };

  [[nodiscard]] Snapshot snapshot() const;
  void reset();

 private:
  static constexpr std::uint64_t kNoMin = ~std::uint64_t{0};

  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_ns_{0};     // integral ns so fetch_add works
  std::atomic<std::uint64_t> min_ns_{kNoMin};
  std::atomic<std::uint64_t> max_ns_{0};
};

/// Full point-in-time copy of the registry, for tests and dumps.
struct RegistrySnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::int64_t> gauges;
  std::map<std::string, Histogram::Snapshot> histograms;
};

class MetricsRegistry {
 public:
  /// The process-wide registry.
  static MetricsRegistry& instance();

  /// Find-or-create. The returned reference is stable for the process
  /// lifetime; cache it and increment lock-free.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  Histogram& histogram(std::string_view name);

  [[nodiscard]] RegistrySnapshot snapshot() const;

  /// Zero every metric (handles stay valid).
  void reset_all();

  /// One metric per line: `counter gc.minor_collections 3`.
  [[nodiscard]] std::string dump_text() const;
  /// Single JSON object: {"counters":{...},"gauges":{...},"histograms":..}.
  [[nodiscard]] std::string dump_json() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace mojave::obs
