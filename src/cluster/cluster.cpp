#include "cluster/cluster.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "runtime/value_codec.hpp"
#include "support/hash.hpp"
#include "support/log.hpp"

namespace mojave::cluster {

using runtime::Value;

namespace {

/// Thrown out of a network external when this node has been killed; it
/// unwinds the interpreter and terminates the node thread.
struct NodeKilled {};

struct ClusterMetrics {
  obs::Counter& corrupt_frames;
  obs::Counter& resurrections;

  static ClusterMetrics& get() {
    static ClusterMetrics m{
        obs::MetricsRegistry::instance().counter("cluster.corrupt_frames"),
        obs::MetricsRegistry::instance().counter("cluster.resurrections"),
    };
    return m;
  }
};

/// Every cluster message carries a trailing xxh64 of its body so a frame
/// mangled on the wire (the fault matrix flips bytes) is rejected instead
/// of decoded into garbage values.
constexpr std::size_t kChecksumBytes = 8;
/// Spec-level u32 + count u32: the smallest well-formed body.
constexpr std::size_t kMinBodyBytes = 8;

void append_checksum(std::vector<std::byte>& frame) {
  const std::uint64_t h = xxh64(frame);
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    frame.push_back(std::byte{static_cast<std::uint8_t>(h >> (8 * i))});
  }
}

/// Verify and remove the trailing checksum. False = corrupt or truncated;
/// the caller discards the frame and keeps polling (the sender's replay
/// log still holds the clean bytes).
[[nodiscard]] bool strip_verified_checksum(std::vector<std::byte>& frame) {
  if (frame.size() < kMinBodyBytes + kChecksumBytes) return false;
  const std::size_t body = frame.size() - kChecksumBytes;
  std::uint64_t stored = 0;
  for (std::size_t i = 0; i < kChecksumBytes; ++i) {
    stored |= std::to_integer<std::uint64_t>(frame[body + i]) << (8 * i);
  }
  if (stored != xxh64(std::span(frame).first(body))) return false;
  frame.resize(body);
  return true;
}

}  // namespace

Cluster::Cluster(ClusterConfig cfg)
    : cfg_(cfg),
      net_(cfg.num_nodes, cfg.net),
      storage_root_("mojave_cluster_"),
      // Shared with the Migrators running on the node threads (they open
      // the same root from the ckpt:// target), so puts and GC serialize.
      ckpt_store_(ckpt::CheckpointStore::open_shared(storage_root_.path(),
                                                     cfg_.ckpt)) {
  slots_.reserve(cfg_.num_nodes);
  for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i) {
    slots_.push_back(std::make_unique<Slot>());
    slots_.back()->result.rank = i;
  }
  obs::MetricsRegistry::instance()
      .gauge("config.cluster.recv_timeout_ms")
      .set(static_cast<std::int64_t>(cfg_.recv_timeout_seconds * 1e3));
}

Cluster::~Cluster() {
  stopping_.store(true);
  net_.shutdown();
  if (daemon_.joinable()) daemon_.join();
  for (auto& slot : slots_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
}

void Cluster::register_externals(vm::Process& proc, net::NodeId rank) {
  vm::Interpreter& vm = proc.vm();
  Slot& slot = *slots_[rank];
  vm.set_output(&slot.output);

  vm.register_external("node_id",
                       [rank](vm::Interpreter&, std::span<const Value>) {
                         return Value::from_int(rank);
                       });
  vm.register_external(
      "num_nodes", [this](vm::Interpreter&, std::span<const Value>) {
        return Value::from_int(static_cast<std::int64_t>(net_.size()));
      });

  vm.register_external(
      "msg_send",
      [this, rank, &proc](vm::Interpreter& it,
                          std::span<const Value> args) -> Value {
        if (args.size() != 4) throw SafetyError("msg_send arity");
        if (!net_.alive(rank)) throw NodeKilled{};
        const auto dst = static_cast<net::NodeId>(args[0].as_int());
        const auto tag = static_cast<std::int32_t>(args[1].as_int());
        const runtime::PtrValue buf = args[2].as_ptr();
        const std::int64_t count = args[3].as_int();
        if (count < 0) throw SafetyError("msg_send negative count");
        // Encode `count` slots; reads are bounds- and tag-validated.
        Writer vw;
        vw.u32(static_cast<std::uint32_t>(count));
        for (std::int64_t i = 0; i < count; ++i) {
          runtime::write_value(
              vw, it.heap().read_slot(buf.index,
                                      buf.offset + static_cast<std::uint32_t>(i)));
        }
        const auto values = vw.take();
        // Lazy cancellation: a byte-identical re-send (deterministic
        // re-execution after a rollback) is not speculative — its
        // consumers already hold exactly this data.
        const std::uint64_t h = xxh64(values);
        bool duplicate = false;
        {
          Slot& sender_slot = *slots_[rank];
          std::lock_guard<std::mutex> lock(sender_slot.sent_mu);
          auto& prev = sender_slot.sent_hashes[{dst, tag}];
          duplicate = prev == h;
          prev = h;
        }
        Writer w;
        w.u32(duplicate ? 0 : proc.spec().current_level());
        w.u32(static_cast<std::uint32_t>(count));
        w.bytes(std::span(values).subspan(4));
        std::vector<std::byte> frame = w.take();
        append_checksum(frame);
        const bool ok = net_.send(rank, dst, tag, std::move(frame));
        if (!ok) {
          // Dead destination: back off so the rollback-retry loop does not
          // spin while the peer is resurrected.
          std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        return Value::from_int(ok ? 0 : 1);
      });

  vm.register_external(
      "msg_recv",
      [this, rank, &proc](vm::Interpreter& it,
                          std::span<const Value> args) -> Value {
        if (args.size() != 4) throw SafetyError("msg_recv arity");
        const auto src = static_cast<net::NodeId>(args[0].as_int());
        const auto tag = static_cast<std::int32_t>(args[1].as_int());
        const runtime::PtrValue buf = args[2].as_ptr();
        const std::int64_t count = args[3].as_int();
        if (count < 0) throw SafetyError("msg_recv negative count");

        // Poll in short slices so a poison (an upstream rollback) can
        // interrupt a blocked receive.
        std::vector<std::byte> payload;
        double waited = 0;
        while (true) {
          if (tracker_.consume_poison(rank)) return Value::from_int(1);
          const net::RecvStatus status =
              net_.recv(rank, src, tag, payload, 0.005);
          if (status == net::RecvStatus::kOk) {
            if (!strip_verified_checksum(payload)) {
              // Mangled on the wire: discard and keep polling — the
              // sender's replay log (or a timeout + MSG_ROLL) re-delivers
              // the clean bytes.
              ClusterMetrics::get().corrupt_frames.inc();
              MOJAVE_LOG(kDebug, "cluster")
                  << "rank " << rank << " discarded corrupt frame from "
                  << src << " tag " << tag;
              continue;
            }
            break;
          }
          if (status == net::RecvStatus::kPeerFailed) {
            // Back off briefly so the retry loop does not spin while the
            // peer is being resurrected.
            std::this_thread::sleep_for(std::chrono::microseconds(500));
            return Value::from_int(1);  // MSG_ROLL
          }
          if (status == net::RecvStatus::kTimeout) {
            waited += 0.005;
            if (waited >= cfg_.recv_timeout_seconds) {
              MOJAVE_LOG(kDebug, "cluster")
                  << "rank " << rank << " recv timeout from " << src
                  << " tag " << tag;
              return Value::from_int(2);
            }
            continue;
          }
          throw NodeKilled{};  // kSelfFailed / kShutdown
        }
        // A rollback poisons its dependents *before* the rolled-back sender
        // can send anything new, so re-checking here makes the MSG_ROLL
        // delivery deterministic even when a fresh message raced in.
        if (tracker_.consume_poison(rank)) return Value::from_int(1);
        Reader r(payload);
        const SpecLevel sender_level = r.u32();
        const std::uint32_t n = r.u32();
        tracker_.record(src, sender_level, rank, proc.spec().current_level());
        const std::uint32_t to_copy =
            std::min(n, static_cast<std::uint32_t>(count));
        for (std::uint32_t i = 0; i < to_copy; ++i) {
          // write_slot routes through the COW hook, so received data is
          // versioned under the receiver's own speculation.
          it.heap().write_slot(buf.index, buf.offset + i,
                               runtime::read_value(r));
        }
        return Value::from_int(0);
      });

  vm.register_external(
      "checkpoint_target",
      [this, rank](vm::Interpreter& it, std::span<const Value>) -> Value {
        const std::string target =
            "ckpt://" + ckpt_store_->root().string() + "/" +
            snapshot_name(rank);
        return Value::from_ptr(it.heap().alloc_string(target), 0);
      });

  vm.register_external(
      "report_result",
      [this, rank](vm::Interpreter&, std::span<const Value> args) -> Value {
        if (args.size() != 1) throw SafetyError("report_result arity");
        std::lock_guard<std::mutex> lock(mu_);
        slots_[rank]->result.reported = args[0].as_float();
        slots_[rank]->result.has_reported = true;
        return Value::unit();
      });

  vm.register_external("sleep_ms",
                       [](vm::Interpreter&, std::span<const Value> args) {
                         std::this_thread::sleep_for(std::chrono::milliseconds(
                             args.empty() ? 0 : args[0].as_int()));
                         return Value::unit();
                       });

  // Join protocol: this process's rollbacks poison its dependents; its
  // durable commits discharge dependencies on it.
  proc.spec().set_rollback_observer([this, rank](SpecLevel level, bool) {
    tracker_.on_rollback(rank, level);
  });
  proc.spec().set_commit_observer(
      [this, rank] { tracker_.on_commit_to_zero(rank); });
}

void Cluster::record_migrator(net::NodeId rank,
                              const migrate::Migrator& migrator) {
  std::lock_guard<std::mutex> lock(mu_);
  NodeResult& r = slots_[rank]->result;
  for (const auto& event : migrator.events()) {
    if (!event.success) continue;
    ++r.checkpoints;
    r.checkpoint_seconds += event.pack_seconds;
    r.checkpoint_bytes = event.image_bytes;
    r.checkpoint_bytes_written += event.bytes_written;
  }
}

void Cluster::run_body(net::NodeId rank, vm::Process& proc) {
  Slot& slot = *slots_[rank];
  {
    migrate::Migrator migrator(proc);
    try {
      const auto result = proc.run();
      std::lock_guard<std::mutex> lock(mu_);
      slot.result.run = result;
    } catch (const NodeKilled&) {
      std::lock_guard<std::mutex> lock(mu_);
      slot.result.error = "killed";
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      slot.result.error = e.what();
    }
    record_migrator(rank, migrator);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    slot.result.spec = proc.spec().stats();
    slot.result.instructions += proc.vm().stats().instructions;
    slot.result.output = slot.output.str();
  }
  slot.finished.store(true);
}

void Cluster::launch(net::NodeId rank, fir::Program program) {
  Slot& slot = *slots_.at(rank);
  if (slot.launched.load()) throw Error("rank already launched");
  slot.launched.store(true);
  slot.thread = std::thread([this, rank, prog = std::move(program)]() mutable {
    try {
      vm::ProcessConfig pcfg;
      pcfg.heap = cfg_.heap;
      pcfg.max_instructions = cfg_.max_instructions;
      vm::Process proc(std::move(prog), pcfg);
      register_externals(proc, rank);
      run_body(rank, proc);
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      slots_[rank]->result.error = e.what();
      slots_[rank]->finished.store(true);
    }
  });
}

void Cluster::launch_spmd(const fir::Program& program) {
  for (std::uint32_t rank = 0; rank < cfg_.num_nodes; ++rank) {
    launch(rank, fir::clone_program(program));
  }
}

void Cluster::kill(net::NodeId rank) {
  MOJAVE_LOG(kInfo, "cluster") << "killing node " << rank;
  net_.kill(rank);
}

bool Cluster::has_checkpoint(net::NodeId rank) const {
  return ckpt_store_->has_snapshot(snapshot_name(rank));
}

bool Cluster::resurrect(net::NodeId rank) {
  Slot& slot = *slots_.at(rank);
  // At-most-one incarnation: never resurrect a rank that is still alive,
  // and let exactly one of two racing callers claim the dead one.
  if (net_.alive(rank)) return false;
  if (slot.resurrecting.exchange(true)) return false;
  // Restore verifies every chunk and the whole image, and falls back to
  // the previous manifest on any mismatch — a node killed mid-checkpoint
  // resurrects from the last *complete* checkpoint.
  const auto image = ckpt_store_->restore(snapshot_name(rank));
  if (!image.has_value()) {
    slot.resurrecting.store(false);
    return false;
  }
  if (slot.thread.joinable()) slot.thread.join();  // the killed incarnation
  slot.finished.store(false);
  net_.revive(rank);
  ClusterMetrics::get().resurrections.inc();
  MOJAVE_LOG(kInfo, "cluster") << "resurrecting node " << rank
                               << " from checkpoint";
  slot.thread = std::thread([this, rank, img = std::move(*image)] {
    Slot& s = *slots_[rank];
    {
      // This incarnation supersedes the killed one.
      std::lock_guard<std::mutex> lock(mu_);
      s.result.error.clear();
    }
    try {
      vm::ProcessConfig pcfg;
      pcfg.heap = cfg_.heap;
      pcfg.max_instructions = cfg_.max_instructions;
      migrate::UnpackResult unpacked = migrate::unpack_process(img, pcfg);
      register_externals(*unpacked.process, rank);
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++s.result.restarts;
      }
      migrate::Migrator migrator(*unpacked.process);
      const auto result = unpacked.process->resume(
          unpacked.resume_fun, std::move(unpacked.resume_args));
      record_migrator(rank, migrator);
      std::lock_guard<std::mutex> lock(mu_);
      s.result.run = result;
      s.result.spec = unpacked.process->spec().stats();
      s.result.instructions += unpacked.process->vm().stats().instructions;
      s.result.output = s.output.str();
    } catch (const NodeKilled&) {
      std::lock_guard<std::mutex> lock(mu_);
      s.result.error = "killed";
    } catch (const std::exception& e) {
      std::lock_guard<std::mutex> lock(mu_);
      s.result.error = e.what();
    }
    s.finished.store(true);
  });
  // The rank is alive again; the alive guard above now does the fencing.
  slot.resurrecting.store(false);
  return true;
}

void Cluster::enable_auto_resurrection(double poll_interval_seconds) {
  if (daemon_.joinable()) return;
  daemon_ = std::thread([this, poll_interval_seconds] {
    daemon_loop(poll_interval_seconds);
  });
}

void Cluster::daemon_loop(double interval) {
  while (!stopping_.load()) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    for (std::uint32_t rank = 0; rank < cfg_.num_nodes; ++rank) {
      Slot& slot = *slots_[rank];
      if (!slot.launched.load()) continue;
      if (net_.alive(rank)) continue;
      if (!slot.finished.load()) continue;  // still unwinding
      if (!has_checkpoint(rank)) continue;
      if (stopping_.load()) return;
      resurrect(rank);
    }
  }
}

std::vector<NodeResult> Cluster::wait_all() {
  // With the resurrection daemon active, a "killed" slot that still has a
  // checkpoint is not terminal — it will come back. Wait for every slot to
  // reach a terminal state before stopping the daemon and joining.
  const bool daemon_active = daemon_.joinable();
  const auto slot_done = [&](Slot& s) {
    if (!s.finished.load()) return false;
    if (!daemon_active) return true;
    std::lock_guard<std::mutex> lock(mu_);
    if (s.result.error != "killed") return true;
    return !has_checkpoint(s.result.rank);
  };
  while (true) {
    bool all_done = true;
    for (auto& slot : slots_) {
      if (slot->launched.load() && !slot_done(*slot)) {
        all_done = false;
        break;
      }
    }
    if (all_done) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stopping_.store(true);
  if (daemon_.joinable()) daemon_.join();
  for (auto& slot : slots_) {
    if (slot->thread.joinable()) slot->thread.join();
  }
  std::vector<NodeResult> results;
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : slots_) {
    if (slot->launched.load()) results.push_back(slot->result);
  }
  return results;
}

}  // namespace mojave::cluster
