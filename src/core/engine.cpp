#include "core/engine.hpp"

#include <fstream>
#include <ostream>

#include "fir/optimize.hpp"
#include "fir/printer.hpp"
#include "fir/typecheck.hpp"
#include "frontend/compile.hpp"
#include "migrate/image.hpp"
#include "native/compiler.hpp"
#include "obs/metrics.hpp"

namespace mojave {

namespace {

/// What the FIR optimizer removed, as `fir.opt.*` counters for --stats.
void record_optimize_stats(const fir::OptimizeStats& s) {
  auto& reg = obs::MetricsRegistry::instance();
  reg.counter("fir.opt.constants_folded").inc(s.constants_folded);
  reg.counter("fir.opt.copies_propagated").inc(s.copies_propagated);
  reg.counter("fir.opt.branches_folded").inc(s.branches_folded);
  reg.counter("fir.opt.dead_lets_removed").inc(s.dead_lets_removed);
  reg.counter("fir.opt.reads_reused").inc(s.reads_reused);
  reg.counter("fir.opt.stores_forwarded").inc(s.stores_forwarded);
  reg.counter("fir.opt.stores_removed").inc(s.stores_removed);
  reg.counter("fir.opt.exprs_shared").inc(s.exprs_shared);
  reg.counter("fir.opt.compares_simplified").inc(s.compares_simplified);
}

}  // namespace

Engine::Engine(EngineOptions options) : options_(std::move(options)) {}

fir::Program Engine::compile(const std::string& name,
                             const std::string& source) const {
  fir::Program program = frontend::compile_source(name, source);
  if (options_.optimize) {
    // Merge single-use CPS blocks first, so the optimizer's forward pass
    // sees each merged body whole. A merged function stays small enough
    // for the native tier.
    const std::uint64_t inlined = fir::inline_once(
        program, fir::InlineLimits{native::kMaxRegs, native::kMaxCode});
    obs::MetricsRegistry::instance().counter("fir.opt.calls_inlined").inc(
        inlined);
    record_optimize_stats(fir::optimize(program));
  }
  fir::typecheck(program);
  if (options_.dump_fir != nullptr) {
    *options_.dump_fir << fir::to_string(program);
  }
  return program;
}

fir::Program Engine::compile_file(const std::filesystem::path& path) const {
  return compile(path.stem().string(), read_text_file(path));
}

EngineResult Engine::run_source(const std::string& name,
                                const std::string& source) {
  return run_program(compile(name, source));
}

EngineResult Engine::run_file(const std::filesystem::path& path) {
  return run_program(compile_file(path));
}

EngineResult Engine::run_program(fir::Program program) {
  vm::Process process(std::move(program), options_.process);
  process.adopt_hook(std::make_unique<migrate::Migrator>(process));
  return finish(process, process.run());
}

EngineResult Engine::resume_file(const std::filesystem::path& image_path) {
  // Accepts plain files and checkpoint URIs, including ckpt://root/name
  // chunk-store snapshots (restored with verification + fallback).
  const auto bytes = migrate::read_checkpoint_uri(image_path.string());
  migrate::UnpackResult unpacked =
      migrate::unpack_process(bytes, options_.process);
  unpacked.process->adopt_hook(
      std::make_unique<migrate::Migrator>(*unpacked.process));
  vm::Process& process = *unpacked.process;
  return finish(process, process.resume(unpacked.resume_fun,
                                        std::move(unpacked.resume_args)));
}

EngineResult Engine::finish(vm::Process& process, vm::RunResult run) const {
  EngineResult result;
  result.run = run;
  result.spec = process.spec().stats();
  result.vm = process.vm().stats();
  return result;
}

std::uint16_t Engine::serve(std::uint16_t port, const std::string& bind) {
  migrate::MigrationServer::Options opts;
  opts.port = port;
  opts.bind_address = bind;
  opts.cfg = options_.process;
  opts.prepare = [](vm::Process& proc) {
    proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
  };
  server_ = std::make_unique<migrate::MigrationServer>(std::move(opts));
  return server_->port();
}

void Engine::stop_server() {
  if (server_) server_->stop();
  server_.reset();
}

std::string read_text_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw Error("cannot open " + path.string());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

}  // namespace mojave
