// The bytecode interpreter: Mojave's execution engine.
//
// Executes one process image: a compiled program, a heap, and a current
// continuation (function + argument registers). Because the FIR is in
// continuation-passing style there is no call stack — control transfer is
// a trampoline, and the complete execution state at any suspension point
// is (function id, argument values), which is what makes whole-process
// migration and speculation rollback tractable (paper, Section 4.2.2:
// "the set of live variables across migration corresponds exactly to the
// arguments passed to function f").
//
// Every heap access performs the runtime safety checks the paper's
// backend emits: pointer-table validation, bounds checks, and tag checks.
#pragma once

#include <array>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "native/options.hpp"
#include "runtime/heap.hpp"
#include "spec/speculation.hpp"
#include "vm/bytecode.hpp"

namespace mojave::native {
class Engine;
}  // namespace mojave::native

namespace mojave::vm {

class Interpreter;

/// Host function callable from managed code. Receives the interpreter (for
/// heap access) and the evaluated arguments; returns the result value,
/// whose tag is checked against the call site's declared type.
using ExternalFn =
    std::function<runtime::Value(Interpreter&, std::span<const runtime::Value>)>;

/// Installed by the migration machinery; receives control at a `migrate`
/// instruction with the full resume continuation.
class MigrationHook {
 public:
  enum class Action {
    kContinue,  ///< resume locally (checkpoint protocol, or migration failed)
    kExit,      ///< the process has moved / suspended: stop running here
  };

  virtual ~MigrationHook() = default;
  virtual Action on_migrate(Interpreter& vm, MigrateLabel label,
                            const std::string& target, FunIndex resume_fun,
                            std::span<const runtime::Value> resume_args) = 0;
};

struct RunResult {
  enum class Kind { kHalted, kMigratedAway } kind = Kind::kHalted;
  std::int64_t exit_code = 0;
};

/// Outcome of one bounded slice of execution (the fiber-scheduler view of
/// a rank: a CPS machine advanced some instructions and stopped at a
/// clean suspension point).
struct SliceResult {
  enum class Status {
    kHalted,        ///< program executed `halt`
    kMigratedAway,  ///< migration hook took the process (or it yielded)
    kPreempted,     ///< slice budget exhausted; resume with run_slice
    kBlocked,       ///< an external called block(); park, then resume
  } status = Status::kHalted;
  std::int64_t exit_code = 0;
  double block_deadline = 0;  ///< kBlocked: the deadline given to block()
};

struct VmStats {
  std::uint64_t instructions = 0;
  std::uint64_t calls = 0;
};

/// Per-opcode-class instruction counts (indexed by OpClass).
using OpClassCounts = std::array<std::uint64_t, kNumOpClasses>;

class Interpreter final : public runtime::RootProvider {
 public:
  /// `intern_strings` is false when an unpack operation will restore the
  /// string blocks from a migrated image instead.
  Interpreter(runtime::Heap& heap, spec::SpeculationManager& spec,
              CompiledProgram compiled, bool intern_strings = true);
  ~Interpreter() override;

  Interpreter(const Interpreter&) = delete;
  Interpreter& operator=(const Interpreter&) = delete;

  void register_external(const std::string& name, ExternalFn fn);
  /// Called by an external that cannot complete without waiting (an empty
  /// mailbox, a pacing gate). Only meaningful under run_slice(): when the
  /// external returns, its result is ignored, the instruction is
  /// un-retired, the interpreter parks exactly before it, and the
  /// scheduler re-executes the external once `deadline_seconds` (a
  /// steady-clock wake-by time; 0 = wake on event only) passes or the
  /// event it waits for arrives. Externals that park must be idempotent
  /// up to the blocking point — re-execution is the resume mechanism,
  /// exactly as for a native-tier deoptimization. A MigrationHook may
  /// block too: the migrate instruction is then re-executed.
  void block(double deadline_seconds) {
    block_requested_ = true;
    block_deadline_ = deadline_seconds;
  }
  void set_migration_hook(MigrationHook* hook) { hook_ = hook; }
  void set_output(std::ostream* out) { out_ = out; }
  [[nodiscard]] std::ostream& out() const { return *out_; }
  /// 0 = unlimited. A fuse for tests and property sweeps.
  void set_max_instructions(std::uint64_t n) { max_instructions_ = n; }

  /// Native-tier policy. Takes effect at the next run_from; replacing the
  /// options drops any engine already built under the previous policy.
  void set_jit_options(const native::JitOptions& opts);
  [[nodiscard]] const native::JitOptions& jit_options() const {
    return jit_opts_;
  }
  /// The native engine, or null while no function has warranted one (JIT
  /// disabled, unsupported host, or simply not yet running).
  [[nodiscard]] native::Engine* native_engine() const { return engine_.get(); }

  /// When enabled, a runtime safety trap (out-of-bounds access, bad tag,
  /// null pointer) raised inside an active speculation rolls the newest
  /// level back with c = kTrapC instead of terminating the process — the
  /// paper's Rx-style recovery: "if a buffer overflow occurs the program
  /// is rolled back ... and a different path of execution (potentially
  /// allocating more memory and retrying) could be taken" (Section 2).
  void set_trap_to_speculation(bool enable) { trap_to_speculation_ = enable; }

  /// The c value delivered to a continuation re-entered by a safety trap.
  static constexpr std::int64_t kTrapC = -2;

  /// Run from the program entry point.
  RunResult run();
  /// Resume at an arbitrary continuation (unpack, speculation re-entry).
  /// The function index and argument tags are validated first.
  RunResult run_from(FunIndex fun, std::vector<runtime::Value> args);

  // --- Resumable slices (the fiber entry points) -----------------------
  //
  // start() arms a continuation; run_slice() advances it by at most
  // `max_insns` instructions and returns at a suspension point: slice
  // budget exhausted (kPreempted, resume by calling run_slice again), an
  // external called block() (kBlocked, the un-retired external will be
  // re-executed on resume), or a terminal state. The suspended frame
  // (registers, pc) lives in the interpreter and is enumerated as GC
  // roots, so a parked fiber survives collections and checkpoints.
  // The native tier composes: a slice may run natively and deoptimize
  // back mid-function; the saved (fun, pc, frame) is the same state.

  /// Arm the continuation (fun, args). Must not be called while a slice
  /// is suspended mid-run.
  void start(FunIndex fun, std::vector<runtime::Value> args);
  /// Advance the armed continuation by at most `max_insns` instructions
  /// (0 = unlimited). Requires start() first; callable again after
  /// kPreempted/kBlocked until a terminal status is returned.
  SliceResult run_slice(std::uint64_t max_insns);
  /// True between start() and a terminal run_slice() status.
  [[nodiscard]] bool slice_active() const { return slice_active_; }

  [[nodiscard]] runtime::Heap& heap() { return heap_; }
  [[nodiscard]] spec::SpeculationManager& spec() { return spec_; }
  [[nodiscard]] const CompiledProgram& compiled() const { return compiled_; }
  [[nodiscard]] const VmStats& stats() const { return stats_; }
  [[nodiscard]] const OpClassCounts& op_class_counts() const {
    return op_class_counts_;
  }

  /// Export the still-unexported instruction/call/opcode-class counts into
  /// the process-wide metrics registry. Runs automatically when run_from
  /// unwinds; hot loops only touch plain per-interpreter counters.
  void flush_metrics();

  /// Interned string blocks: process state, preserved across migration.
  [[nodiscard]] const std::vector<BlockIndex>& string_blocks() const {
    return string_blocks_;
  }
  void set_string_blocks(std::vector<BlockIndex> blocks) {
    string_blocks_ = std::move(blocks);
  }

  void enumerate_roots(runtime::RootVisitor& visitor) override;

 private:
  void setup_function_table();
  void intern_strings();
  void validate_call(const CompiledFunction& fn,
                     std::span<const runtime::Value> args) const;
  [[nodiscard]] FunIndex resolve_callee(const runtime::Value& v) const;
  /// The dispatch loop shared by run_from (unlimited) and run_slice.
  SliceResult exec_slice(std::uint64_t max_insns);

  runtime::Heap& heap_;
  spec::SpeculationManager& spec_;
  CompiledProgram compiled_;
  std::map<std::string, ExternalFn> externals_;
  /// externals_ resolved per external id (compiled_.ext_names), null
  /// until registered; map nodes never move, so the pointers stay valid.
  std::vector<const ExternalFn*> ext_fns_;
  /// Argument buffer for external calls, sized for the widest call site.
  std::vector<runtime::Value> ext_args_;
  bool block_requested_ = false;
  double block_deadline_ = 0;
  MigrationHook* hook_ = nullptr;
  std::ostream* out_;

  std::vector<runtime::Value> regs_;
  FunIndex pending_fun_ = 0;
  std::vector<runtime::Value> pending_args_;
  /// Slice suspension state: when mid_function_, the armed continuation
  /// is (pending_fun_, resume_pc_, regs_) rather than a function entry.
  std::size_t resume_pc_ = 0;
  bool mid_function_ = false;
  bool slice_active_ = false;
  std::vector<BlockIndex> string_blocks_;
  VmStats stats_;
  OpClassCounts op_class_counts_{};
  /// What has already been flushed to the registry (delta tracking).
  VmStats exported_stats_;
  OpClassCounts exported_classes_{};
  std::uint64_t max_instructions_ = 0;
  bool trap_to_speculation_ = false;
  native::JitOptions jit_opts_ = native::jit_options_from_env();
  std::unique_ptr<native::Engine> engine_;
};

/// Installs the standard host externals (I/O, clocks, introspection).
void install_default_externals(Interpreter& vm);

}  // namespace mojave::vm
