#include "migrate/server.hpp"

#include "ckpt/store.hpp"
#include "migrate/wire.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/log.hpp"

namespace mojave::migrate {

namespace {

struct ServerMetrics {
  obs::Counter& received;
  obs::Counter& failed;
  obs::Counter& dedup_hits;
  obs::Counter& busy_rejects;
  obs::Gauge& live;

  static ServerMetrics& get() {
    static ServerMetrics m{
        obs::MetricsRegistry::instance().counter("server.images_received"),
        obs::MetricsRegistry::instance().counter("server.images_failed"),
        obs::MetricsRegistry::instance().counter("migrate.dedup_hits"),
        obs::MetricsRegistry::instance().counter("server.busy_rejects"),
        obs::MetricsRegistry::instance().gauge("server.live_processes"),
    };
    return m;
  }
};

/// Program names come from the (untrusted) image; coerce to a valid
/// snapshot identifier.
std::string journal_snapshot_name(const std::string& program) {
  std::string name = "inbound_" + program;
  for (char& c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return name;
}
}  // namespace

MigrationServer::MigrationServer(Options options)
    : options_(std::move(options)),
      journal_(options_.ckpt_journal_root.empty()
                   ? nullptr
                   : ckpt::CheckpointStore::open_shared(
                         options_.ckpt_journal_root)),
      listener_(options_.bind_address, options_.port) {
  accept_thread_ = std::thread([this] { accept_loop(); });
}

MigrationServer::~MigrationServer() { stop(); }

void MigrationServer::stop() {
  if (stopping_.exchange(true)) return;
  listener_.shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void MigrationServer::accept_loop() {
  while (!stopping_.load()) {
    auto stream = listener_.accept();
    if (!stream.has_value()) break;
    std::lock_guard<std::mutex> lock(mu_);
    workers_.emplace_back(
        [this, s = std::make_shared<net::TcpStream>(std::move(*stream))]() mutable {
          handle(std::move(*s));
        });
  }
}

std::optional<std::vector<std::byte>> MigrationServer::reserve_id(
    std::uint64_t id) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  const auto it = ids_.find(id);
  if (it == ids_.end()) {
    ids_.emplace(id, IdState::kInFlight);
    return std::nullopt;  // reserved; caller proceeds to the image phase
  }
  if (it->second == IdState::kCommitted) {
    ++dedup_hits_;
    ServerMetrics::get().dedup_hits.inc();
    return make_reply(kReplyDup);
  }
  // Another attempt with this id is mid-transfer; the client backs off and
  // retries, by which time the first attempt has committed or released.
  ServerMetrics::get().busy_rejects.inc();
  return make_reply(kReplyBusy);
}

void MigrationServer::commit_id(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  ids_[id] = IdState::kCommitted;
  committed_order_.push_back(id);
  while (committed_order_.size() > kDedupWindow) {
    ids_.erase(committed_order_.front());
    committed_order_.pop_front();
  }
}

void MigrationServer::release_id(std::uint64_t id) {
  std::lock_guard<std::mutex> lock(dedup_mu_);
  const auto it = ids_.find(id);
  if (it != ids_.end() && it->second == IdState::kInFlight) ids_.erase(it);
}

void MigrationServer::handle(net::TcpStream stream) {
  stream.set_io_deadline(options_.io_timeout_seconds);
  Completed record;
  bool v2 = false;
  std::uint64_t migration_id = 0;
  bool reserved = false;
  try {
    auto frame = stream.recv_frame();
    if (!frame.has_value()) return;  // client went away

    // v2 handshake: an OFFER reserves the migration id before any bytes
    // of the image move, so duplicate and concurrent retries are answered
    // from the dedup window instead of unpacked into a second process.
    if (const auto id = decode_offer(*frame); id.has_value()) {
      v2 = true;
      migration_id = *id;
      if (auto reply = reserve_id(migration_id); reply.has_value()) {
        stream.send_frame(*reply);
        return;  // DU or WT: no image accepted, no process started
      }
      reserved = true;
      stream.send_frame(make_reply(kReplyGo));
      frame = stream.recv_frame();
      if (!frame.has_value()) {
        release_id(migration_id);  // the attempt died; allow a retry
        return;
      }
    }

    ++received_;
    ServerMetrics::get().received.inc();
    obs::ScopedSpan span("migrate", "server.handle");
    span.set_arg("image_bytes", frame->size());
    span.set_arg("migration_id", migration_id);

    const ImageInfo info = inspect_image(*frame);
    record.program_name = info.program_name;
    if ((info.kind == ImageKind::kFir && !options_.accept_fir) ||
        (info.kind == ImageKind::kBinary && !options_.accept_binary)) {
      throw MigrateError("image kind refused by server policy");
    }

    // Unpack — for FIR images this re-verifies and recompiles the program
    // before the sender is allowed to terminate its copy.
    UnpackResult unpacked = unpack_process(*frame, options_.cfg);
    record.breakdown = unpacked.breakdown;
    if (journal_) {
      // Journal before the ack: the sender terminates its copy on ack, so
      // the image must already be durable (and restorable) here.
      journal_->put(journal_snapshot_name(info.program_name), *frame);
    }
    // Commit before the ack: if the ack is lost, the client's retry must
    // find the id committed (→ DU), not unknown (→ a second copy).
    if (v2) commit_id(migration_id);
    reserved = false;
    try {
      stream.send_frame(make_reply(kReplyOk));
    } catch (const NetError&) {
      // Ack lost — the committed id answers the client's retry with DU.
    }
    stream.close();

    if (options_.prepare) options_.prepare(*unpacked.process);
    ++started_;
    struct LiveGuard {
      std::atomic<std::size_t>& live;
      explicit LiveGuard(std::atomic<std::size_t>& l) : live(l) {
        live.fetch_add(1);
        ServerMetrics::get().live.add(1);
      }
      ~LiveGuard() {
        live.fetch_sub(1);
        ServerMetrics::get().live.add(-1);
      }
    } live_guard(live_);
    record.result = unpacked.process->resume(unpacked.resume_fun,
                                             std::move(unpacked.resume_args));
  } catch (const std::exception& e) {
    if (reserved) release_id(migration_id);
    record.error = e.what();
    ServerMetrics::get().failed.inc();
    MOJAVE_LOG(kWarn, "server") << "inbound migration failed: " << e.what();
    try {
      stream.send_frame(make_reply(kReplyNo));
    } catch (...) {
      // The sender has already gone; it will keep running locally.
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    completed_.push_back(std::move(record));
  }
  cv_.notify_all();
}

std::vector<MigrationServer::Completed> MigrationServer::wait_for(
    std::size_t n) {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return completed_.size() >= n; });
  return completed_;
}

}  // namespace mojave::migrate
