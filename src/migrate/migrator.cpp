#include "migrate/migrator.hpp"

#include <fstream>

#include "ckpt/store.hpp"
#include "migrate/wire.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"
#include "support/stopwatch.hpp"

namespace mojave::migrate {

namespace {

struct MigrateMetrics {
  obs::Counter& attempts;
  obs::Counter& successes;
  obs::Counter& failures;
  obs::Counter& retries;
  obs::Counter& gave_up;
  obs::Counter& dedup_acks;
  obs::Histogram& transfer_us;

  static MigrateMetrics& get() {
    static MigrateMetrics m{
        obs::MetricsRegistry::instance().counter("migrate.attempts"),
        obs::MetricsRegistry::instance().counter("migrate.successes"),
        obs::MetricsRegistry::instance().counter("migrate.failures"),
        obs::MetricsRegistry::instance().counter("migrate.retries"),
        obs::MetricsRegistry::instance().counter("migrate.gave_up"),
        obs::MetricsRegistry::instance().counter("migrate.dedup_acks"),
        obs::MetricsRegistry::instance().histogram("migrate.transfer_us"),
    };
    return m;
  }
};

}  // namespace

Migrator::Migrator(vm::Process& process)
    : process_(process),
      retry_policy_(net::RetryPolicy::process_defaults()),
      ckpt_sink_([this](const std::filesystem::path& store_root,
                        const std::string& snapshot,
                        std::vector<std::byte> image) {
        ckpt_store_ = ckpt::CheckpointStore::open_shared(store_root);
        return ckpt_store_->put(snapshot, image).bytes_written;
      }) {
  process_.vm().set_migration_hook(this);
}

vm::MigrationHook::Action Migrator::on_migrate(
    vm::Interpreter& vm, MigrateLabel label, const std::string& target_str,
    FunIndex resume_fun, std::span<const runtime::Value> resume_args) {
  if (&vm != &process_.vm()) {
    throw MigrateError("migrator attached to a different process");
  }
  // Keep vm.* counters current: this is a natural safepoint and the image
  // below freezes the process's state.
  vm.flush_metrics();
  MigrateMetrics& m = MigrateMetrics::get();
  m.attempts.inc();
  obs::ScopedSpan span("migrate", "migrate");
  span.set_arg("label", label);
  Event event;
  event.label = label;
  event.target = target_str;

  const MigrateTarget target = MigrateTarget::parse(target_str);

  Stopwatch pack_sw;
  PackResult packed =
      pack_process(process_, label, resume_fun, resume_args, target.kind);
  event.pack_seconds = pack_sw.seconds();
  event.image_bytes = packed.bytes.size();

  Action action = Action::kContinue;
  Stopwatch transfer_sw;
  obs::ScopedSpan transfer_span("migrate", "transfer");
  try {
    switch (target.protocol) {
      case Protocol::kCheckpoint:
        write_image_file(target.path, packed.bytes);
        event.success = true;
        event.bytes_written = packed.bytes.size();
        action = Action::kContinue;  // keep running after a checkpoint
        break;
      case Protocol::kCkpt:
        // Incremental checkpoint: unchanged chunks dedupe against what
        // the store already wrote, so only the delta hits storage.
        event.bytes_written = ckpt_sink_(target.path, target.snapshot,
                                         std::move(packed.bytes));
        event.success = true;
        action = Action::kContinue;
        break;
      case Protocol::kSuspend:
        write_image_file(target.path, packed.bytes);
        event.success = true;
        event.bytes_written = packed.bytes.size();
        action = Action::kExit;  // terminate once the state is on disk
        break;
      case Protocol::kMigrate:
        transfer_mcc(target, packed.bytes, event);
        event.success = true;
        event.bytes_written = packed.bytes.size();
        action = Action::kExit;  // the process now runs at the destination
        break;
    }
  } catch (const Error& e) {
    // "If migration fails for any reason, the process will continue to
    // execute on the original machine."
    MOJAVE_LOG(kWarn, "migrate") << "migration to " << target_str
                                 << " failed: " << e.what();
    event.success = false;
    action = Action::kContinue;
  }
  event.transfer_seconds = transfer_sw.seconds();
  m.transfer_us.record_seconds(event.transfer_seconds);
  (event.success ? m.successes : m.failures).inc();
  events_.push_back(std::move(event));
  return action;
}

void Migrator::transfer_mcc(const MigrateTarget& target,
                            std::span<const std::byte> image, Event& event) {
  MigrateMetrics& m = MigrateMetrics::get();
  const std::uint64_t id = fresh_migration_id();
  event.migration_id = id;
  net::Backoff backoff(retry_policy_, id);
  obs::ScopedSpan span("migrate", "mcc.transfer");
  span.set_arg("migration_id", id);
  while (true) {
    try {
      net::TcpStream stream = net::TcpStream::connect(
          target.host, target.port, retry_policy_.deadlines());
      stream.send_frame(encode_offer(id));
      const auto hello = stream.recv_frame();
      if (!hello.has_value()) {
        throw NetError("server closed during handshake");
      }
      if (reply_is(*hello, kReplyDup)) {
        // An earlier attempt committed; only its ack was lost. The process
        // is already running at the destination — do not send it again.
        m.dedup_acks.inc();
        event.attempts = backoff.attempts();
        return;
      }
      if (reply_is(*hello, kReplyBusy)) {
        throw NetError("earlier attempt still in flight at the server");
      }
      if (!reply_is(*hello, kReplyGo)) {
        throw MigrateError("migration server refused the offer");
      }
      stream.send_frame(image);
      const auto ack = stream.recv_frame();
      if (!ack.has_value()) throw NetError("connection lost awaiting ack");
      if (reply_is(*ack, kReplyOk) || reply_is(*ack, kReplyDup)) {
        event.attempts = backoff.attempts();
        return;
      }
      // An explicit NAK is a policy refusal or unpack failure — retrying
      // the same image cannot succeed.
      throw MigrateError("migration server rejected the image");
    } catch (const NetError& e) {
      // Transient transport failure: refused, timed out, or cut mid-
      // exchange. The idempotent handshake makes a retry safe.
      event.attempts = backoff.attempts();
      if (!backoff.retry_after_failure()) {
        m.gave_up.inc();
        throw MigrateError("gave up after " +
                           std::to_string(backoff.attempts()) +
                           " attempt(s): " + e.what());
      }
      m.retries.inc();
      MOJAVE_LOG(kWarn, "migrate")
          << "mcc attempt " << backoff.attempts() - 1 << " to "
          << target.host << ":" << target.port << " failed (" << e.what()
          << "); retrying";
    }
  }
}

void Migrator::write_image_file(const std::filesystem::path& path,
                                std::span<const std::byte> bytes) {
  namespace fs = std::filesystem;
  if (path.has_parent_path()) fs::create_directories(path.parent_path());
  const fs::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw MigrateError("cannot open " + tmp.string());
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out) throw MigrateError("short write to " + tmp.string());
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) throw MigrateError("rename failed: " + ec.message());
}

std::vector<std::byte> Migrator::read_image_file(
    const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) throw MigrateError("cannot open " + path.string());
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::byte> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in) throw MigrateError("short read from " + path.string());
  return bytes;
}

ResurrectResult resurrect_from_file(const std::filesystem::path& path,
                                    const ResurrectOptions& options) {
  const auto bytes = Migrator::read_image_file(path);
  UnpackResult unpacked = unpack_process(bytes, options.cfg);
  ResurrectResult result;
  result.breakdown = unpacked.breakdown;
  if (options.prepare) options.prepare(*unpacked.process);
  result.run = unpacked.process->resume(unpacked.resume_fun,
                                        std::move(unpacked.resume_args));
  return result;
}

std::vector<std::byte> read_checkpoint_uri(const std::string& uri) {
  if (uri.find("://") == std::string::npos) {
    return Migrator::read_image_file(uri);  // plain file path
  }
  const MigrateTarget target = MigrateTarget::parse(uri);
  switch (target.protocol) {
    case Protocol::kCheckpoint:
    case Protocol::kSuspend:
      return Migrator::read_image_file(target.path);
    case Protocol::kCkpt: {
      const auto store = ckpt::CheckpointStore::open_shared(target.path);
      auto image = store->restore(target.snapshot);
      if (!image.has_value()) {
        throw MigrateError("no restorable checkpoint for " + uri);
      }
      return std::move(*image);
    }
    case Protocol::kMigrate:
      break;
  }
  throw MigrateError("cannot read a checkpoint from " + uri);
}

ResurrectResult resurrect_from_uri(const std::string& uri,
                                   const ResurrectOptions& options) {
  const auto bytes = read_checkpoint_uri(uri);
  UnpackResult unpacked = unpack_process(bytes, options.cfg);
  ResurrectResult result;
  result.breakdown = unpacked.breakdown;
  if (options.prepare) options.prepare(*unpacked.process);
  result.run = unpacked.process->resume(unpacked.resume_fun,
                                        std::move(unpacked.resume_args));
  return result;
}

}  // namespace mojave::migrate
