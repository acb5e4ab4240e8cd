// mojc — the Mojave compiler driver.
//
//   mojc run <file.mjc> [--dump-fir] [--trap-spec] [--max-insns N]
//       Compile and execute a MojC program.
//   mojc compile <file.mjc> [-o out.fir]
//       Compile to a serialized FIR image (what migration ships).
//   mojc exec <file.fir>
//       Typecheck, lower and run a serialized FIR image.
//   mojc resume <checkpoint.img>
//       Reconstruct and resume a process from a checkpoint/suspend image
//       (the resurrection entry point daemons use).
//   mojc serve [port] [--bind ADDR]
//       Run a migration server: accept inbound processes, verify,
//       recompile, and execute them.
//   mojc node --storage ROOT [--bind ADDR] [--port P] [--throttle-ms X]
//       Run a node agent: host ranks of a distributed cluster, route
//       messages between agents, checkpoint into the shared store.
//   mojc cluster --nodes host:port,... run <file.mjc>
//       Coordinate a distributed run across node agents: place ranks,
//       detect failures, resurrect from checkpoints, arbitrate the
//       speculation join protocol.
//   mojc inspect <image>
//       Print what an image contains without running it.
//   mojc ckpt <store-root> [list|stats|verify|gc]
//       Inspect (or garbage-collect) an incremental checkpoint store:
//       snapshots, manifests, chunk dedup ratio, integrity.
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "ckpt/store.hpp"
#include "ctrl/lease.hpp"
#include "core/engine.hpp"
#include "dnode/agent.hpp"
#include "dnode/coord.hpp"
#include "fir/serialize.hpp"
#include "fir/printer.hpp"
#include "native/arch.hpp"
#include "native/options.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "risc/disasm.hpp"
#include "risc/lower.hpp"
#include "vm/lowering.hpp"
#include "migrate/image.hpp"
#include "net/retry.hpp"
#include "support/log.hpp"

namespace {

using namespace mojave;

int usage() {
  std::cerr <<
      "usage:\n"
      "  mojc run <file.mjc> [--dump-fir] [--trap-spec] [--no-opt] [--max-insns N]\n"
      "  mojc compile <file.mjc> [-o out.fir]\n"
      "  mojc exec <file.fir>\n"
      "  mojc resume <checkpoint.img | ckpt://root/name>\n"
      "  mojc serve [port] [--bind ADDR]\n"
      "  mojc node --storage ROOT [--bind ADDR] [--port P] [--throttle-ms X]\n"
      "  mojc cluster --nodes host:port,... [--ranks N] [--storage ROOT]\n"
      "       [--balance-interval S] [--balance-threshold X] [--timeout S]\n"
      "       [--wal-root DIR] [--standby] [--lease-ttl S] [--recv-timeout S]\n"
      "       run <file.mjc>\n"
      "  mojc inspect <image>\n"
      "  mojc ckpt <store-root> [list|stats|verify|gc|compact]\n"
      "  mojc dump <file.mjc> [--risc]\n"
      "execution (run/exec/resume/serve/node/cluster):\n"
      "  --jit=on|off|threshold=N  native-tier policy (comma-combinable,\n"
      "                        e.g. --jit=on,threshold=16; MOJAVE_JIT env\n"
      "                        var sets the default). Unsupported hosts\n"
      "                        fall back to the interpreter either way.\n"
      "telemetry (any command):\n"
      "  --stats[=json]        dump the metrics registry to stderr at exit\n"
      "  --trace-out=<file>    record runtime events, write Chrome trace JSON\n"
      "transport (any command; also settable via MOJAVE_* env vars):\n"
      "  --migrate-attempts N  mcc:// retry budget (default 3)\n"
      "  --migrate-backoff-ms X  initial retry backoff, exponential + jitter\n"
      "  --migrate-deadline S  overall deadline across all attempts\n"
      "  --connect-timeout S   TCP connect (and DNS resolve) deadline\n"
      "  --io-timeout S        per-syscall send/recv deadline\n"
      "  active values appear as config.* gauges in --stats\n";
  return 2;
}

struct Flags {
  bool dump_fir = false;
  bool no_opt = false;
  bool trap_spec = false;
  bool stats = false;
  bool stats_json = false;
  std::uint64_t max_insns = 0;
  native::JitOptions jit = native::jit_options_from_env();
  bool jit_flag_given = false;
  bool bad_jit = false;
  std::string trace_out;
  std::string output;
  std::optional<std::uint32_t> migrate_attempts;
  std::optional<double> migrate_backoff_ms;
  std::optional<double> migrate_deadline_s;
  std::optional<double> connect_timeout_s;
  std::optional<double> io_timeout_s;
  std::optional<double> recv_timeout_s;
  // Distributed runtime (mojc node / mojc cluster / mojc serve --bind).
  std::string bind = "127.0.0.1";
  std::uint16_t port = 0;
  std::string storage;
  std::string nodes;
  double throttle_ms = 0;
  std::uint32_t ranks = 4;
  double balance_interval_s = 0;
  double balance_threshold = 1.5;
  double cluster_timeout_s = 300;
  // HA control plane (docs/CONTROL_PLANE.md).
  std::string wal_root;
  bool standby = false;
  double lease_ttl_s = 2.0;
  std::vector<std::string> positional;
};

Flags parse_flags(int argc, char** argv, int first) {
  Flags flags;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--dump-fir") {
      flags.dump_fir = true;
    } else if (arg == "--no-opt") {
      flags.no_opt = true;
    } else if (arg == "--trap-spec") {
      flags.trap_spec = true;
    } else if (arg == "--stats") {
      flags.stats = true;
    } else if (arg == "--stats=json") {
      flags.stats = true;
      flags.stats_json = true;
    } else if (arg.rfind("--jit=", 0) == 0) {
      const std::string spec = arg.substr(std::string("--jit=").size());
      if (native::parse_jit_spec(spec, flags.jit)) {
        flags.jit_flag_given = true;
      } else {
        std::cerr << "mojc: bad --jit spec '" << spec
                  << "' (want on|off|threshold=N)\n";
        flags.bad_jit = true;
      }
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      flags.trace_out = arg.substr(std::string("--trace-out=").size());
    } else if (arg == "--max-insns" && i + 1 < argc) {
      flags.max_insns = std::stoull(argv[++i]);
    } else if (arg == "--migrate-attempts" && i + 1 < argc) {
      flags.migrate_attempts = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--migrate-backoff-ms" && i + 1 < argc) {
      flags.migrate_backoff_ms = std::stod(argv[++i]);
    } else if (arg == "--migrate-deadline" && i + 1 < argc) {
      flags.migrate_deadline_s = std::stod(argv[++i]);
    } else if (arg == "--connect-timeout" && i + 1 < argc) {
      flags.connect_timeout_s = std::stod(argv[++i]);
    } else if (arg == "--io-timeout" && i + 1 < argc) {
      flags.io_timeout_s = std::stod(argv[++i]);
    } else if (arg == "--recv-timeout" && i + 1 < argc) {
      flags.recv_timeout_s = std::stod(argv[++i]);
    } else if (arg == "--bind" && i + 1 < argc) {
      flags.bind = argv[++i];
    } else if (arg == "--port" && i + 1 < argc) {
      flags.port = static_cast<std::uint16_t>(std::stoi(argv[++i]));
    } else if (arg == "--storage" && i + 1 < argc) {
      flags.storage = argv[++i];
    } else if (arg == "--nodes" && i + 1 < argc) {
      flags.nodes = argv[++i];
    } else if (arg == "--throttle-ms" && i + 1 < argc) {
      flags.throttle_ms = std::stod(argv[++i]);
    } else if (arg == "--ranks" && i + 1 < argc) {
      flags.ranks = static_cast<std::uint32_t>(std::stoul(argv[++i]));
    } else if (arg == "--balance-interval" && i + 1 < argc) {
      flags.balance_interval_s = std::stod(argv[++i]);
    } else if (arg == "--balance-threshold" && i + 1 < argc) {
      flags.balance_threshold = std::stod(argv[++i]);
    } else if (arg == "--timeout" && i + 1 < argc) {
      flags.cluster_timeout_s = std::stod(argv[++i]);
    } else if (arg == "--wal-root" && i + 1 < argc) {
      flags.wal_root = argv[++i];
    } else if (arg == "--standby") {
      flags.standby = true;
    } else if (arg == "--lease-ttl" && i + 1 < argc) {
      flags.lease_ttl_s = std::stod(argv[++i]);
    } else if (arg == "-o" && i + 1 < argc) {
      flags.output = argv[++i];
    } else {
      flags.positional.push_back(arg);
    }
  }
  return flags;
}

/// Install transport overrides process-wide: retry-policy flags layer on
/// top of the environment-derived defaults (and win). The resulting
/// values are published as config.* gauges, so --stats shows what the
/// run actually used.
void apply_transport_flags(const Flags& flags) {
  if (flags.jit_flag_given) {
    // Re-export so ProcessConfig instances built from env defaults (node
    // agents, unpacked migrations) honour the flag too.
    const std::string spec =
        flags.jit.enabled
            ? "on,threshold=" + std::to_string(flags.jit.threshold)
            : "off";
    ::setenv("MOJAVE_JIT", spec.c_str(), 1);
  }
  const bool any = flags.migrate_attempts || flags.migrate_backoff_ms ||
                   flags.migrate_deadline_s || flags.connect_timeout_s ||
                   flags.io_timeout_s;
  if (!any) return;
  net::RetryPolicy p = net::RetryPolicy::process_defaults();
  if (flags.migrate_attempts) p.max_attempts = *flags.migrate_attempts;
  if (flags.migrate_backoff_ms) {
    p.initial_backoff_seconds = *flags.migrate_backoff_ms / 1e3;
  }
  if (flags.migrate_deadline_s) {
    p.overall_deadline_seconds = *flags.migrate_deadline_s;
  }
  if (flags.connect_timeout_s) p.connect_timeout_seconds = *flags.connect_timeout_s;
  if (flags.io_timeout_s) p.io_timeout_seconds = *flags.io_timeout_s;
  net::RetryPolicy::set_process_defaults(p);
}

/// End-of-process telemetry export: the Chrome trace file and/or the
/// registry dump, honoured on every exit path (including errors).
void export_telemetry(const Flags& flags) {
  if (!flags.trace_out.empty()) {
    std::ofstream out(flags.trace_out, std::ios::trunc);
    if (out) {
      out << obs::Tracer::instance().dump_chrome_json();
      std::cerr << "[mojc] wrote " << obs::Tracer::instance().recorded()
                << " trace events to " << flags.trace_out << "\n";
    } else {
      std::cerr << "[mojc] cannot write trace to " << flags.trace_out << "\n";
    }
  }
  if (flags.stats) {
    auto& reg = obs::MetricsRegistry::instance();
    std::cerr << (flags.stats_json ? reg.dump_json() + "\n" : reg.dump_text());
  }
}

/// Publish the native-tier policy the run actually uses: 1 when the tier
/// is both requested and available on this host, 0 otherwise.
void publish_jit_gauges(const native::JitOptions& jit) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.gauge("config.jit").set(
      (jit.enabled && native::jit_supported()) ? 1 : 0);
  reg.gauge("config.jit.threshold")
      .set(static_cast<std::int64_t>(jit.threshold));
}

Engine make_engine(const Flags& flags) {
  EngineOptions opts;
  opts.process.trap_to_speculation = flags.trap_spec;
  opts.process.max_instructions = flags.max_insns;
  opts.process.jit = flags.jit;
  opts.optimize = !flags.no_opt;
  if (flags.dump_fir) opts.dump_fir = &std::cerr;
  return Engine(std::move(opts));
}

int report(const EngineResult& result) {
  if (result.run.kind == vm::RunResult::Kind::kMigratedAway) {
    std::cerr << "[mojc] process migrated away or suspended\n";
    return 0;
  }
  std::cerr << "[mojc] halted with code " << result.run.exit_code << " ("
            << result.vm.instructions << " instructions, "
            << result.spec.speculates << " speculations, "
            << result.spec.rollbacks << " rollbacks)\n";
  return static_cast<int>(result.run.exit_code);
}

int cmd_run(const Flags& flags) {
  if (flags.positional.size() != 1) return usage();
  Engine engine = make_engine(flags);
  return report(engine.run_file(flags.positional[0]));
}

int cmd_compile(const Flags& flags) {
  if (flags.positional.size() != 1) return usage();
  Engine engine = make_engine(flags);
  const fir::Program program = engine.compile_file(flags.positional[0]);
  const auto bytes = fir::encode_program(program);
  const std::string out = flags.output.empty()
                              ? flags.positional[0] + ".fir"
                              : flags.output;
  std::ofstream f(out, std::ios::binary | std::ios::trunc);
  if (!f) {
    std::cerr << "cannot write " << out << "\n";
    return 1;
  }
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  std::cerr << "[mojc] wrote " << bytes.size() << " bytes of FIR ("
            << program.functions.size() << " functions) to " << out << "\n";
  return 0;
}

int cmd_exec(const Flags& flags) {
  if (flags.positional.size() != 1) return usage();
  std::ifstream f(flags.positional[0], std::ios::binary);
  if (!f) {
    std::cerr << "cannot open " << flags.positional[0] << "\n";
    return 1;
  }
  std::vector<char> raw((std::istreambuf_iterator<char>(f)),
                        std::istreambuf_iterator<char>());
  const fir::Program program = fir::decode_program(
      std::as_bytes(std::span(raw.data(), raw.size())));
  Engine engine = make_engine(flags);
  return report(engine.run_program(fir::clone_program(program)));
}

int cmd_resume(const Flags& flags) {
  if (flags.positional.size() != 1) return usage();
  Engine engine = make_engine(flags);
  return report(engine.resume_file(flags.positional[0]));
}

int cmd_serve(const Flags& flags) {
  std::uint16_t port = flags.port;
  if (!flags.positional.empty()) {
    port = static_cast<std::uint16_t>(std::stoi(flags.positional[0]));
  }
  Logger::instance().set_level(LogLevel::kInfo);
  Engine engine = make_engine(flags);
  const std::uint16_t bound = engine.serve(port, flags.bind);
  std::cerr << "[mojc] migration server listening on " << flags.bind << ":"
            << bound
            << " — inbound processes are verified, recompiled, and run\n";
  // Serve until killed.
  while (true) std::this_thread::sleep_for(std::chrono::seconds(3600));
}

int cmd_node(const Flags& flags) {
  if (flags.storage.empty()) {
    std::cerr << "mojc node: --storage ROOT is required (the checkpoint "
                 "store shared with every other agent)\n";
    return usage();
  }
  Logger::instance().set_level(LogLevel::kInfo);
  dnode::AgentConfig cfg;
  cfg.bind = flags.bind;
  cfg.port = flags.port;
  cfg.storage_root = flags.storage;
  cfg.throttle_ms = flags.throttle_ms;
  dnode::NodeAgent agent(cfg);
  // The ready line is the launch protocol: a parent (test harness or
  // operator script) reads the chosen port from stdout.
  std::cout << "DNODE_READY port=" << agent.port() << std::endl;
  std::cerr << "[mojc] node agent listening on " << flags.bind << ":"
            << agent.port() << ", storage " << flags.storage << "\n";
  agent.wait();
  agent.stop();
  return 0;
}

int cmd_cluster(const Flags& flags) {
  if (flags.nodes.empty() || flags.positional.size() != 2 ||
      flags.positional[0] != "run") {
    return usage();
  }
  dnode::CoordinatorConfig cfg;
  std::stringstream nodes(flags.nodes);
  std::string entry;
  while (std::getline(nodes, entry, ',')) {
    const auto colon = entry.rfind(':');
    if (colon == std::string::npos) {
      std::cerr << "mojc cluster: bad --nodes entry '" << entry
                << "' (want host:port)\n";
      return usage();
    }
    dnode::AgentAddr addr;
    addr.host = entry.substr(0, colon);
    addr.port = static_cast<std::uint16_t>(std::stoi(entry.substr(colon + 1)));
    cfg.agents.push_back(std::move(addr));
  }
  cfg.num_ranks = flags.ranks;
  cfg.max_instructions = flags.max_insns;
  cfg.balance_interval_seconds = flags.balance_interval_s;
  cfg.balance_threshold = flags.balance_threshold;
  if (flags.recv_timeout_s) cfg.recv_timeout_seconds = *flags.recv_timeout_s;
  cfg.wal_root = flags.wal_root;
  cfg.lease_ttl_seconds = flags.lease_ttl_s;

  if (flags.standby) {
    if (flags.wal_root.empty()) {
      std::cerr << "mojc cluster: --standby requires --wal-root DIR (the "
                   "primary's WAL + lease directory)\n";
      return usage();
    }
    // Hot standby: wait out the primary's lease, then take over its run
    // (replay WAL, seal, re-adopt agents — docs/CONTROL_PLANE.md).
    std::cerr << "[mojc] standby: watching lease under " << flags.wal_root
              << "\n";
    while (true) {
      const auto info = ctrl::Lease::read(flags.wal_root);
      if (!info.has_value() || info->expired(ctrl::Lease::wall_now())) break;
      std::this_thread::sleep_for(std::chrono::duration<double>(
          std::max(0.05, info->ttl_seconds / 4.0)));
    }
    std::cerr << "[mojc] standby: lease expired, taking over\n";
    cfg.resume = true;
  }

  Engine engine = make_engine(flags);
  const fir::Program program = engine.compile_file(flags.positional[1]);

  dnode::Coordinator coord(cfg);
  // A takeover re-adopts the ranks already running; only a fresh run (or
  // a standby that found an empty WAL) launches the program.
  if (!coord.resumed()) coord.launch_spmd(program);
  const bool all_done = coord.wait_all(flags.cluster_timeout_s);

  int rc = all_done ? 0 : 1;
  for (const dnode::RankOutcome& r : coord.results()) {
    if (!r.output.empty()) std::cout << r.output;
    if (r.has_reported) {
      // Machine-readable per-rank result, bit-exact (%.17g round-trips a
      // double): the coordinator-chaos CI job diffs these lines between a
      // failure-free run and a kill-the-primary failover run.
      char line[64];
      std::snprintf(line, sizeof(line), "RANK_SUM rank=%u sum=%.17g\n",
                    r.rank, r.reported);
      std::cout << line;
    }
    if (!r.done) {
      std::cerr << "[mojc] rank " << r.rank << " did not finish\n";
    } else if (r.result_kind == 2) {
      std::cerr << "[mojc] rank " << r.rank << " failed: " << r.error << "\n";
      rc = 1;
    } else {
      std::cerr << "[mojc] rank " << r.rank << " exited " << r.exit_code
                << " (" << r.instructions << " instructions, " << r.rollbacks
                << " rollbacks, " << r.restarts << " restarts)\n";
      if (r.exit_code != 0 && rc == 0) rc = static_cast<int>(r.exit_code);
    }
  }
  std::cerr << "[mojc] cluster: " << coord.resurrections()
            << " resurrection(s), " << coord.migrations() << " migration(s)\n";
  coord.shutdown_agents();
  return rc;
}

int cmd_dump(const Flags& flags, bool risc_backend) {
  if (flags.positional.size() != 1) return usage();
  Engine engine = make_engine(flags);
  const fir::Program program = engine.compile_file(flags.positional[0]);
  std::cout << "=== FIR ===\n" << fir::to_string(program);
  if (risc_backend) {
    std::cout << "=== RISC ===\n" << risc::disassemble(risc::lower(program));
  } else {
    std::cout << "=== bytecode ===\n" << vm::disassemble(vm::lower(program));
  }
  return 0;
}

int cmd_inspect(const Flags& flags) {
  if (flags.positional.size() != 1) return usage();
  const auto bytes =
      migrate::Migrator::read_image_file(flags.positional[0]);
  const auto info = migrate::inspect_image(bytes);
  std::cout << "program:    " << info.program_name << "\n"
            << "kind:       "
            << (info.kind == migrate::ImageKind::kFir
                    ? "FIR (untrusted: destination re-verifies)"
                    : "binary (trusted bytecode)")
            << "\n"
            << "image size: " << info.total_bytes << " bytes\n";
  return 0;
}

int cmd_ckpt(const Flags& flags) {
  if (flags.positional.empty() || flags.positional.size() > 2) return usage();
  const std::string sub =
      flags.positional.size() == 2 ? flags.positional[1] : "list";
  // An absent root would be silently created by the store constructor —
  // for read-only verbs that hides a typo'd path behind "store OK".
  const bool absent = !std::filesystem::exists(flags.positional[0]);
  if (absent && sub == "verify") {
    std::cerr << "mojc ckpt verify: no checkpoint store at '"
              << flags.positional[0]
              << "' (path does not exist; nothing to verify)\n";
    return 2;
  }
  ckpt::CheckpointStore store(flags.positional[0]);

  if (sub == "list") {
    const auto names = store.snapshots();
    if (names.empty()) {
      std::cout << "(empty store)\n";
      return 0;
    }
    for (const std::string& name : names) {
      const auto manifests = store.manifests(name);
      if (manifests.empty()) continue;
      const auto& latest = manifests.back();
      std::cout << name << ": " << manifests.size() << " snapshot(s), latest seq "
                << latest.seq << ", " << latest.image_bytes << " bytes in "
                << latest.chunks.size() << " chunks\n";
    }
    const auto s = store.stats();
    std::cout << "store: " << s.chunks << " chunks, " << s.stored_chunk_bytes
              << " stored bytes for " << s.logical_bytes
              << " logical bytes (dedup x" << s.dedup_ratio() << ")\n";
    return 0;
  }
  if (sub == "stats") {
    const auto s = store.stats();
    std::cout << "snapshots:          " << s.snapshots << "\n"
              << "manifests:          " << s.manifests << "\n"
              << "chunks:             " << s.chunks << "\n"
              << "stored chunk bytes: " << s.stored_chunk_bytes << "\n"
              << "logical bytes:      " << s.logical_bytes << "\n"
              << "latest image bytes: " << s.latest_image_bytes << "\n"
              << "dedup ratio:        " << s.dedup_ratio() << "\n"
              << "engine extents:     " << s.engine.extents << " ("
              << s.engine.extent_file_bytes << " bytes)\n"
              << "engine live chunks: " << s.engine.live_chunks << "\n"
              << "engine live ratio:  " << s.engine.live_ratio() << "\n"
              << "engine cache hits:  " << s.engine.cache_hits << " ("
              << s.engine.cache_hit_rate() << " hit rate)\n"
              << "engine compactions: " << s.engine.compactions << "\n";
    return 0;
  }
  if (sub == "verify") {
    const auto s = store.stats();
    if (s.manifests == 0 && s.chunks == 0) {
      std::cerr << "mojc ckpt verify: store at '" << flags.positional[0]
                << "' is empty (no manifests, no chunks) — nothing to "
                   "verify\n";
      return 2;
    }
    const auto report = store.verify();
    std::cout << "manifests: " << report.manifests_ok << " ok, "
              << report.manifests_corrupt << " corrupt\n"
              << "chunks:    " << report.chunks_ok << " ok, "
              << report.chunks_corrupt << " corrupt, "
              << report.chunks_missing << " missing, "
              << report.chunks_orphaned << " orphaned\n"
              << (report.ok() ? "store OK\n" : "store CORRUPT\n");
    return report.ok() ? 0 : 1;
  }
  if (sub == "gc") {
    const auto gc = store.collect_garbage();
    std::cout << "pruned " << gc.manifests_pruned << " manifest(s), evicted "
              << gc.chunks_evicted << " chunk(s) (" << gc.bytes_evicted
              << " bytes)\n";
    return 0;
  }
  if (sub == "compact") {
    const auto c = store.compact();
    const auto s = store.stats();
    std::cout << "compacted " << c.extents_compacted << " extent(s), rewrote "
              << c.records_rewritten << " record(s), reclaimed "
              << c.bytes_reclaimed << " bytes\n"
              << "store now: " << s.engine.extents << " extent(s), live ratio "
              << s.engine.live_ratio() << "\n";
    return 0;
  }
  return usage();
}

int dispatch(const std::string& cmd, const Flags& flags) {
  if (flags.recv_timeout_s && cmd != "cluster") {
    // The coordinator hands every agent its receive timeout in CONFIG;
    // nothing else has one to set.
    std::cerr << "mojc " << cmd
              << ": --recv-timeout applies to `mojc cluster` only\n";
    return usage();
  }
  if (cmd == "run") return cmd_run(flags);
  if (cmd == "compile") return cmd_compile(flags);
  if (cmd == "exec") return cmd_exec(flags);
  if (cmd == "resume") return cmd_resume(flags);
  if (cmd == "serve") return cmd_serve(flags);
  if (cmd == "node") return cmd_node(flags);
  if (cmd == "cluster") return cmd_cluster(flags);
  if (cmd == "inspect") return cmd_inspect(flags);
  if (cmd == "ckpt") return cmd_ckpt(flags);
  if (cmd == "dump") {
    Flags f = flags;
    bool risc_backend = false;
    std::erase_if(f.positional, [&](const std::string& a) {
      if (a == "--risc") { risc_backend = true; return true; }
      return false;
    });
    return cmd_dump(f, risc_backend);
  }
  return usage();
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  const Flags flags = parse_flags(argc, argv, 2);
  if (flags.bad_jit) return usage();
  apply_transport_flags(flags);
  publish_jit_gauges(flags.jit);
  if (!flags.trace_out.empty()) obs::Tracer::instance().enable();
  try {
    const int rc = dispatch(cmd, flags);
    export_telemetry(flags);
    return rc;
  } catch (const std::exception& e) {
    std::cerr << "mojc: " << e.what() << "\n";
    export_telemetry(flags);
    return 1;
  }
}
