// Retry policy for unreliable transports: bounded attempts, exponential
// backoff with jitter, and an overall deadline. This drives the migration
// client's mcc:// path — the paper's contract is that a
// failed migration degrades to "keep running locally", so the policy's job
// is to decide *when* to stop trying, never to let a failure escape.
//
// Knobs resolve in three layers: compiled defaults < environment variables
// (MOJAVE_MIGRATE_* / MOJAVE_NET_*) < explicit process overrides (mojc
// flags). The active values are published as config.* gauges so
// `mojc --stats` shows what a run actually used.
#pragma once

#include <cstdint>

#include "net/tcp.hpp"
#include "support/rng.hpp"

namespace mojave::net {

struct RetryPolicy {
  std::uint32_t max_attempts = 3;        ///< total tries, including the first
  double initial_backoff_seconds = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_seconds = 1.0;
  double jitter_fraction = 0.2;          ///< delay *= uniform[1-j, 1+j]
  double overall_deadline_seconds = 15.0;  ///< across all attempts; <=0 = off
  double connect_timeout_seconds = 5.0;
  double io_timeout_seconds = 10.0;

  [[nodiscard]] Deadlines deadlines() const {
    return Deadlines{connect_timeout_seconds, io_timeout_seconds};
  }

  /// Compiled defaults overlaid with any MOJAVE_* environment variables:
  ///   MOJAVE_MIGRATE_MAX_ATTEMPTS, MOJAVE_MIGRATE_BACKOFF_MS,
  ///   MOJAVE_MIGRATE_BACKOFF_MAX_MS, MOJAVE_MIGRATE_DEADLINE_S,
  ///   MOJAVE_NET_CONNECT_TIMEOUT_S, MOJAVE_NET_IO_TIMEOUT_S
  [[nodiscard]] static RetryPolicy from_env(RetryPolicy base);
  [[nodiscard]] static RetryPolicy from_env();

  /// The process-wide policy new Migrators copy: from_env() until
  /// set_process_defaults() overrides it (mojc flags do this).
  [[nodiscard]] static RetryPolicy process_defaults();
  static void set_process_defaults(const RetryPolicy& policy);
};

/// Per-operation retry state: tracks attempts and the overall deadline,
/// and sleeps the jittered backoff between them. Seeded so fault-injection
/// tests replay the same schedule.
class Backoff {
 public:
  explicit Backoff(const RetryPolicy& policy, std::uint64_t seed = 0);

  /// Call after a failed attempt. Returns false when the budget (attempts
  /// or overall deadline) is exhausted; otherwise sleeps the backoff delay
  /// and returns true — the caller should try again.
  [[nodiscard]] bool retry_after_failure();

  [[nodiscard]] std::uint32_t attempts() const { return attempts_; }
  [[nodiscard]] double elapsed_seconds() const;

 private:
  RetryPolicy policy_;
  Rng rng_;
  double started_;       // steady-clock seconds
  double delay_seconds_;
  std::uint32_t attempts_ = 1;
};

}  // namespace mojave::net
