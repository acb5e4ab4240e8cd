// Process: one managed Mojave process.
//
// Bundles the pieces the paper's runtime manages together — heap, garbage
// collector, speculation manager, interpreter, and the (optional) FIR
// source of the running code — behind a single owner. The migration
// machinery packs/unpacks Process instances; a node agent hosts one
// Process per rank.
//
// Two construction paths mirror the two migration trust models:
//  * from FIR — typecheck, lower, keep the FIR for future (untrusted)
//    migration;
//  * from precompiled bytecode — the trusted "binary" path, no FIR kept.
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <vector>

#include "fir/ir.hpp"
#include "runtime/heap.hpp"
#include "spec/speculation.hpp"
#include "vm/bytecode.hpp"
#include "vm/interpreter.hpp"

namespace mojave::vm {

struct ProcessConfig {
  runtime::HeapConfig heap;
  std::ostream* output = nullptr;      ///< defaults to std::cout
  std::uint64_t max_instructions = 0;  ///< 0 = unlimited
  /// Convert safety traps inside a speculation into rollbacks (Rx-style).
  bool trap_to_speculation = false;
  /// Native-tier policy; MOJAVE_JIT overrides the defaults, `--jit` (or
  /// the embedding) overrides both.
  native::JitOptions jit = native::jit_options_from_env();
};

class Process {
 public:
  /// Compile (typecheck + lower) and host a FIR program.
  explicit Process(fir::Program program, ProcessConfig cfg = {});

  /// Host precompiled bytecode (trusted path). `intern_strings` is false
  /// when unpack will restore string blocks from an image.
  Process(CompiledProgram compiled, ProcessConfig cfg,
          bool intern_strings = true);

  [[nodiscard]] runtime::Heap& heap() { return heap_; }
  [[nodiscard]] spec::SpeculationManager& spec() { return spec_; }
  [[nodiscard]] Interpreter& vm() { return *vm_; }
  [[nodiscard]] bool has_fir() const { return program_.has_value(); }
  [[nodiscard]] const fir::Program& program() const;

  /// Attach the FIR a trusted unpack decoded alongside the bytecode, so a
  /// reconstructed process can itself migrate again via the FIR path.
  void attach_fir(fir::Program program) {
    program_ = std::move(program);
    program_text_[0].clear();
  }

  /// The program text an image carries: the serialized FIR (`fir`) or
  /// bytecode. Serialized on first use and kept, since neither changes
  /// while the process is hosted; every later checkpoint copies it.
  [[nodiscard]] const std::vector<std::byte>& program_text(bool fir);

  /// Tie a migration hook's lifetime to this process (it is destroyed
  /// before the interpreter, so its detach-on-destruction stays safe).
  void adopt_hook(std::unique_ptr<MigrationHook> hook) {
    owned_hooks_.push_back(std::move(hook));
  }

  RunResult run() { return vm_->run(); }
  RunResult resume(FunIndex fun, std::vector<runtime::Value> args) {
    return vm_->run_from(fun, std::move(args));
  }

 private:
  runtime::Heap heap_;
  spec::SpeculationManager spec_;
  std::optional<fir::Program> program_;
  /// program_text() per kind: [0] FIR, [1] bytecode; empty = not yet.
  std::array<std::vector<std::byte>, 2> program_text_;
  std::unique_ptr<Interpreter> vm_;
  /// Declared after vm_ so hooks are destroyed first.
  std::vector<std::unique_ptr<MigrationHook>> owned_hooks_;
};

}  // namespace mojave::vm
