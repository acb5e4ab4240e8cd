#include "net/retry.hpp"

#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>

#include "obs/metrics.hpp"

namespace mojave::net {

namespace {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  return (end == nullptr || *end != '\0') ? fallback : v;
}

/// Read a double from the environment; `fallback` when unset/malformed.
double env_seconds(const char* name, double fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  return (end == nullptr || *end != '\0') ? fallback : v;
}

std::mutex g_defaults_mu;
RetryPolicy g_defaults;          // guarded by g_defaults_mu
bool g_defaults_set = false;     // guarded by g_defaults_mu

/// Publish the active knobs so `--stats` shows what a run actually used.
void publish_gauges(const RetryPolicy& p) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge("config.migrate.max_attempts")
      .set(static_cast<std::int64_t>(p.max_attempts));
  reg.gauge("config.migrate.backoff_ms")
      .set(static_cast<std::int64_t>(p.initial_backoff_seconds * 1e3));
  reg.gauge("config.migrate.deadline_ms")
      .set(static_cast<std::int64_t>(p.overall_deadline_seconds * 1e3));
  reg.gauge("config.net.connect_timeout_ms")
      .set(static_cast<std::int64_t>(p.connect_timeout_seconds * 1e3));
  reg.gauge("config.net.io_timeout_ms")
      .set(static_cast<std::int64_t>(p.io_timeout_seconds * 1e3));
}

}  // namespace

RetryPolicy RetryPolicy::from_env() { return from_env(RetryPolicy{}); }

RetryPolicy RetryPolicy::from_env(RetryPolicy base) {
  base.max_attempts = static_cast<std::uint32_t>(
      env_u64("MOJAVE_MIGRATE_MAX_ATTEMPTS", base.max_attempts));
  base.initial_backoff_seconds =
      env_seconds("MOJAVE_MIGRATE_BACKOFF_MS",
                  base.initial_backoff_seconds * 1e3) /
      1e3;
  base.max_backoff_seconds =
      env_seconds("MOJAVE_MIGRATE_BACKOFF_MAX_MS",
                  base.max_backoff_seconds * 1e3) /
      1e3;
  base.overall_deadline_seconds = env_seconds("MOJAVE_MIGRATE_DEADLINE_S",
                                              base.overall_deadline_seconds);
  base.connect_timeout_seconds =
      env_seconds("MOJAVE_NET_CONNECT_TIMEOUT_S", base.connect_timeout_seconds);
  base.io_timeout_seconds =
      env_seconds("MOJAVE_NET_IO_TIMEOUT_S", base.io_timeout_seconds);
  return base;
}

RetryPolicy RetryPolicy::process_defaults() {
  std::lock_guard<std::mutex> lock(g_defaults_mu);
  if (!g_defaults_set) {
    g_defaults = from_env();
    g_defaults_set = true;
    publish_gauges(g_defaults);
  }
  return g_defaults;
}

void RetryPolicy::set_process_defaults(const RetryPolicy& policy) {
  std::lock_guard<std::mutex> lock(g_defaults_mu);
  g_defaults = policy;
  g_defaults_set = true;
  publish_gauges(g_defaults);
}

Backoff::Backoff(const RetryPolicy& policy, std::uint64_t seed)
    : policy_(policy),
      rng_(seed != 0 ? seed : 0x9e3779b97f4a7c15ULL),
      started_(now_seconds()),
      delay_seconds_(policy.initial_backoff_seconds) {}

double Backoff::elapsed_seconds() const { return now_seconds() - started_; }

bool Backoff::retry_after_failure() {
  if (attempts_ >= policy_.max_attempts) return false;
  double delay = delay_seconds_;
  if (policy_.jitter_fraction > 0) {
    delay *= 1.0 + policy_.jitter_fraction * (2.0 * rng_.uniform() - 1.0);
  }
  if (policy_.overall_deadline_seconds > 0 &&
      elapsed_seconds() + delay >= policy_.overall_deadline_seconds) {
    return false;  // the next attempt could not finish inside the deadline
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(delay));
  delay_seconds_ = std::min(delay_seconds_ * policy_.backoff_multiplier,
                            policy_.max_backoff_seconds);
  ++attempts_;
  return true;
}

}  // namespace mojave::net
