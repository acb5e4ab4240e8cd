// The umbrella public API: one include, one class, for the common uses —
// compile MojC, run it, checkpoint it, resume it, serve migrations.
//
//   #include "core/engine.hpp"
//
//   mojave::Engine engine;
//   auto result = engine.run_source("demo", "int main() { return 42; }");
//
// Every process the Engine runs, resumes or serves gets a Migrator, so the
// migrate()/checkpoint primitives work out of the box.
//
// Lower layers stay fully accessible (frontend/, fir/, vm/, migrate/,
// cluster/) for callers that need the individual pieces.
#pragma once

#include <filesystem>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "fir/ir.hpp"
#include "migrate/migrator.hpp"
#include "migrate/server.hpp"
#include "vm/process.hpp"

namespace mojave {

struct EngineOptions {
  vm::ProcessConfig process;
  /// Run the FIR optimizer: single-use block inlining, then constant
  /// folding, copy propagation, redundant-read elimination and DCE.
  bool optimize = true;
  /// Dump the FIR of every compiled program to this stream (diagnostics).
  std::ostream* dump_fir = nullptr;
};

struct EngineResult {
  vm::RunResult run;
  spec::SpecStats spec;
  vm::VmStats vm;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// Compile MojC source text to a verified FIR program.
  [[nodiscard]] fir::Program compile(const std::string& name,
                                     const std::string& source) const;

  /// Compile a .mjc file.
  [[nodiscard]] fir::Program compile_file(
      const std::filesystem::path& path) const;

  /// Compile and run source text.
  EngineResult run_source(const std::string& name, const std::string& source);

  /// Compile and run a file.
  EngineResult run_file(const std::filesystem::path& path);

  /// Run an already-compiled program.
  EngineResult run_program(fir::Program program);

  /// Resume a process from a checkpoint / suspend image file.
  EngineResult resume_file(const std::filesystem::path& image_path);

  /// Serve inbound migrations forever (blocks until stop_server()).
  /// Returns the bound port. `bind` selects the listen interface;
  /// the default keeps the server loopback-only.
  std::uint16_t serve(std::uint16_t port,
                      const std::string& bind = "127.0.0.1");
  void stop_server();

  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:
  EngineResult finish(vm::Process& process, vm::RunResult run) const;

  EngineOptions options_;
  std::unique_ptr<migrate::MigrationServer> server_;
};

/// Read a whole file into a string; throws Error with the path on failure.
[[nodiscard]] std::string read_text_file(const std::filesystem::path& path);

}  // namespace mojave
