// The per-process migration driver: implements the VM's MigrationHook and
// executes the three protocols when managed code reaches a `migrate`
// pseudo-instruction.
//
// Semantics follow Section 4.2.1 of the paper exactly:
//  * migrate    — pack, ship to the migration server, and on success
//                 terminate locally; "if migration fails for any reason,
//                 the process will continue to execute on the original
//                 machine", and the process itself cannot observe which
//                 happened except through external functions.
//  * suspend    — pack to a file; terminate only if the write succeeded.
//  * checkpoint — pack to a file; always continue running.
//  * ckpt       — incremental checkpoint into the content-addressed chunk
//                 store (src/ckpt): only chunks this Migrator's store has
//                 not written before are written, so steady-state cost is
//                 O(delta), not O(image); always continue running. The
//                 packed image goes to the ckpt sink (set_ckpt_sink):
//                 by default a put that waits for the store's writer, in
//                 a node agent a hand-off that returns at once.
//
// Checkpoint files are written atomically (temp file + rename) so a
// resurrection daemon never sees a torn image — the role NFS played for
// the paper's cluster.
//
// The mcc:// transport runs under a RetryPolicy (deadlines, exponential
// backoff with jitter) and the idempotent v2 handshake (migrate/wire.hpp),
// so transient network failures are retried and a retry after a lost ack
// cannot resurrect the process twice. An exhausted retry budget increments
// migrate.gave_up and falls back to the keep-running-locally path.
#pragma once

#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "migrate/image.hpp"
#include "migrate/protocols.hpp"
#include "net/retry.hpp"
#include "vm/interpreter.hpp"
#include "vm/process.hpp"

namespace mojave::ckpt {
class CheckpointStore;
}  // namespace mojave::ckpt

namespace mojave::migrate {

class Migrator final : public vm::MigrationHook {
 public:
  /// One record per executed migrate instruction, for tests and benches.
  struct Event {
    MigrateLabel label = 0;
    std::string target;
    bool success = false;
    std::size_t image_bytes = 0;
    /// Bytes actually moved to storage/network. Equal to image_bytes for
    /// whole-image protocols; for ckpt:// targets only the chunks the
    /// store did not already hold (the incremental delta), and 0 when the
    /// sink handed the image off (the writer has not written it yet).
    std::size_t bytes_written = 0;
    double pack_seconds = 0;
    double transfer_seconds = 0;
    /// Transport attempts this event consumed (1 = first try succeeded).
    std::uint32_t attempts = 1;
    /// The at-most-once handshake id (mcc:// protocol only).
    std::uint64_t migration_id = 0;
  };

  explicit Migrator(vm::Process& process);
  ~Migrator() override { process_.vm().set_migration_hook(nullptr); }

  /// Override the transport retry policy (defaults to the process-wide
  /// policy: compiled defaults + environment + mojc flags).
  void set_retry_policy(const net::RetryPolicy& policy) {
    retry_policy_ = policy;
  }
  [[nodiscard]] const net::RetryPolicy& retry_policy() const {
    return retry_policy_;
  }

  Migrator(const Migrator&) = delete;
  Migrator& operator=(const Migrator&) = delete;

  /// Where a packed ckpt:// image of `snapshot` goes; returns the chunk
  /// bytes written. The default puts it into the store at the target's
  /// path and waits until it landed. A host with a store of its own (a
  /// node agent: the one it restores ranks from) hands it to that store's
  /// writer and returns 0 at once. No sink retries: a failed checkpoint
  /// leaves the process running, and its next checkpoint is the retry.
  using CkptSink = std::function<std::size_t(
      const std::filesystem::path& store_root, const std::string& snapshot,
      std::vector<std::byte> image)>;
  void set_ckpt_sink(CkptSink sink) { ckpt_sink_ = std::move(sink); }

  Action on_migrate(vm::Interpreter& vm, MigrateLabel label,
                    const std::string& target, FunIndex resume_fun,
                    std::span<const runtime::Value> resume_args) override;

  [[nodiscard]] const std::vector<Event>& events() const { return events_; }

  // --- Checkpoint-file helpers (shared with daemons and benches) ---------

  /// Atomic write: temp file in the same directory, then rename.
  static void write_image_file(const std::filesystem::path& path,
                               std::span<const std::byte> bytes);
  [[nodiscard]] static std::vector<std::byte> read_image_file(
      const std::filesystem::path& path);

 private:
  /// Drive the mcc:// handshake with retries. Returns normally on success
  /// (the destination owns the process); throws MigrateError when the
  /// retry budget is exhausted or the server refuses.
  void transfer_mcc(const MigrateTarget& target,
                    std::span<const std::byte> image, Event& event);

  vm::Process& process_;
  net::RetryPolicy retry_policy_;
  std::vector<Event> events_;
  /// The default sink's store of the last ckpt:// put, held so the next
  /// checkpoint dedups against it and its GC reclaims what later ones
  /// drop: a store instance does both only for chunks it wrote itself.
  std::shared_ptr<ckpt::CheckpointStore> ckpt_store_;
  CkptSink ckpt_sink_;
};

/// Convenience for hosts: reconstruct and resume a process from a
/// checkpoint/suspend file, returning its final result.
struct ResurrectOptions {
  vm::ProcessConfig cfg;
  /// Called after unpack, before resume — the place to register host
  /// externals and (re)attach a Migrator.
  std::function<void(vm::Process&)> prepare;
};

struct ResurrectResult {
  vm::RunResult run;
  UnpackBreakdown breakdown;
};

ResurrectResult resurrect_from_file(const std::filesystem::path& path,
                                    const ResurrectOptions& options = {});

/// Load a checkpoint image from any checkpoint designator: a plain file
/// path, a `checkpoint://` / `suspend://` target, or a `ckpt://root/name`
/// chunk-store URI (restored with integrity verification and manifest
/// fallback). Throws MigrateError when nothing restorable exists.
[[nodiscard]] std::vector<std::byte> read_checkpoint_uri(
    const std::string& uri);

/// resurrect_from_file generalized over read_checkpoint_uri.
ResurrectResult resurrect_from_uri(const std::string& uri,
                                   const ResurrectOptions& options = {});

}  // namespace mojave::migrate
