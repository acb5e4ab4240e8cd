// The migration server (paper, Section 4.2.1).
//
// "In order to migrate to another machine, the remote machine must run a
// migration server. This is a version of the compiler that will listen for
// incoming migration requests, recompile any inbound processes on the new
// machine, and reconstruct their state before executing them."
//
// The server accepts framed state images over TCP, unpacks them (which
// type-checks and recompiles untrusted FIR images), acknowledges the
// sender — only after which the sender terminates its copy — and runs the
// reconstructed process on its own thread.
//
// Inbound connections may use the idempotent v2 handshake (wire.hpp): an
// OFFER carrying a migration id reserves a slot, the image commits it, and
// any retry of a committed id is answered "DU" without starting a second
// copy — the at-most-once guarantee a lost ack would otherwise break. The
// dedup window remembers the most recent kDedupWindow committed ids.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "migrate/image.hpp"
#include "net/tcp.hpp"

namespace mojave::ckpt {
class CheckpointStore;
}  // namespace mojave::ckpt

namespace mojave::migrate {

class MigrationServer {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< 0 = pick a free port
    /// Address to bind the listener to. The long-standing default keeps
    /// the server loopback-only; pass "0.0.0.0" (or a specific interface)
    /// to accept migrations from other machines.
    std::string bind_address = "127.0.0.1";
    vm::ProcessConfig cfg;
    /// Reject untrusted-kind images (a server for trusted clusters only).
    bool accept_fir = true;
    /// Reject binary images (a server that insists on verification).
    bool accept_binary = true;
    /// When non-empty, every accepted image is journaled into the
    /// content-addressed chunk store at this root (snapshot
    /// "inbound_<program>") *before* the sender is acked — the sender
    /// only discards its copy once the image is durable here, and a
    /// crashed server can be resurrected from the store. Repeated
    /// migrations of the same process dedupe to their delta.
    std::filesystem::path ckpt_journal_root;
    /// Called after unpack, before resume: register host externals,
    /// attach a Migrator for onward migration, etc.
    std::function<void(vm::Process&)> prepare;
    /// Per-syscall deadline on inbound connections so a stalled client
    /// cannot pin a worker thread forever. <= 0 disables.
    double io_timeout_seconds = 30.0;
  };

  /// Committed migration ids remembered for duplicate suppression.
  static constexpr std::size_t kDedupWindow = 1024;

  struct Completed {
    std::string program_name;
    vm::RunResult result;
    UnpackBreakdown breakdown;
    std::string error;  ///< non-empty if unpack or execution failed
  };

  explicit MigrationServer(Options options);
  ~MigrationServer();

  MigrationServer(const MigrationServer&) = delete;
  MigrationServer& operator=(const MigrationServer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return listener_.port(); }
  [[nodiscard]] std::string address() const {
    // A wildcard bind is reachable via loopback; advertise an address a
    // local client can actually dial.
    const std::string host = options_.bind_address == "0.0.0.0"
                                 ? "127.0.0.1"
                                 : options_.bind_address;
    return "migrate://" + host + ":" + std::to_string(port());
  }

  /// Block until `n` processes have finished (or failed) since startup.
  [[nodiscard]] std::vector<Completed> wait_for(std::size_t n);

  [[nodiscard]] std::size_t received() const { return received_.load(); }

  // --- Process census (at-most-once verification for tests/monitoring) --
  /// Processes ever started (resumed) on this server.
  [[nodiscard]] std::size_t processes_started() const {
    return started_.load();
  }
  /// Processes currently running.
  [[nodiscard]] std::size_t live_processes() const { return live_.load(); }
  /// Duplicate offers suppressed by the dedup window.
  [[nodiscard]] std::size_t dedup_hits() const { return dedup_hits_.load(); }

  void stop();

 private:
  /// Handshake reservation states for the at-most-once id window.
  enum class IdState : std::uint8_t { kInFlight, kCommitted };

  void accept_loop();
  void handle(net::TcpStream stream);
  /// Reserve `id` for this attempt. Returns the reply to send when the
  /// image must NOT be accepted (DU/WT), or nullopt when reserved.
  [[nodiscard]] std::optional<std::vector<std::byte>> reserve_id(
      std::uint64_t id);
  void commit_id(std::uint64_t id);
  void release_id(std::uint64_t id);

  Options options_;
  /// Open for the server's lifetime: a store instance dedups against,
  /// and garbage-collects, only the chunks it wrote itself.
  std::shared_ptr<ckpt::CheckpointStore> journal_;
  net::TcpListener listener_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Completed> completed_;
  std::atomic<std::size_t> received_{0};
  std::atomic<std::size_t> started_{0};
  std::atomic<std::size_t> live_{0};
  std::atomic<std::size_t> dedup_hits_{0};
  std::mutex dedup_mu_;
  std::unordered_map<std::uint64_t, IdState> ids_;  // guarded by dedup_mu_
  std::deque<std::uint64_t> committed_order_;       // guarded by dedup_mu_
  std::atomic<bool> stopping_{false};
};

}  // namespace mojave::migrate
