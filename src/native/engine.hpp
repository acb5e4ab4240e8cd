// The native execution engine: compile policy, code cache, and the
// interpreter-facing run protocol.
//
// The Engine owns the machine-code side of the tiered VM. The interpreter
// offers it every control transfer (function entry); the engine counts
// transfers per function, compiles a function once it crosses the hotness
// threshold, and from then on runs it natively until the code deoptimizes.
// A deopt hands back (function, pc) plus the full virtual register frame,
// and the interpreter resumes mid-function as if it had executed every
// retired instruction itself — budget, per-class counters and call counts
// included. Compiled code can chain across functions through direct jumps
// without returning, so one try_run may retire millions of instructions.
//
// The engine's frame and argument buffer are GC roots (RootProvider):
// helper calls from native code may allocate and therefore collect.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "native/abi.hpp"
#include "native/codecache.hpp"
#include "native/compiler.hpp"
#include "native/options.hpp"
#include "runtime/gc.hpp"
#include "runtime/heap.hpp"
#include "spec/speculation.hpp"
#include "support/common.hpp"
#include "vm/bytecode.hpp"

namespace mojave::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace mojave::obs

namespace mojave::native {

/// One native run request/response. The interpreter fills the `in` fields;
/// on a true return the engine has executed natively and updated the `out`
/// fields to the deoptimization point.
struct RunIo {
  /// in: current register file of `fun`; out: register file at the deopt
  /// point (sized to the deopt function's num_regs).
  std::vector<runtime::Value>* regs = nullptr;
  /// Interned string blocks (interpreter state).
  const std::vector<BlockIndex>* strings = nullptr;
  /// The interpreter's per-opcode-class counters; updated in place.
  std::uint64_t* class_counts = nullptr;
  /// The interpreter's lifetime call counter; updated in place.
  std::uint64_t* calls = nullptr;
  /// in: instruction allowance; out: allowance remaining.
  std::int64_t budget = 0;
  /// in: function to run; out: function to resume interpreting.
  FunIndex fun = 0;
  /// out: bytecode pc to resume at.
  std::uint32_t pc = 0;
  /// out: DeoptReason for telemetry.
  std::uint32_t reason = 0;
};

class Engine final : public runtime::RootProvider {
 public:
  Engine(runtime::Heap& heap, spec::SpeculationManager& spec,
         const vm::CompiledProgram& prog, JitOptions opts);
  ~Engine() override;

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Offer a control transfer into `io.fun`. Returns false when the
  /// function is not (yet) compiled — the interpreter proceeds as usual —
  /// or true after running natively up to a deoptimization point.
  [[nodiscard]] bool try_run(RunIo& io);

  [[nodiscard]] const JitOptions& options() const { return opts_; }
  [[nodiscard]] std::uint64_t compiled_functions() const { return compiled_; }
  [[nodiscard]] std::size_t code_bytes() const { return cache_.used_bytes(); }
  [[nodiscard]] std::uint64_t deopt_count(DeoptReason r) const {
    return deopts_[static_cast<std::size_t>(r)];
  }
  [[nodiscard]] std::uint64_t total_deopts() const {
    std::uint64_t t = 0;
    for (const std::uint64_t v : deopts_) t += v;
    return t;
  }
  /// True once `fun` has been compiled (for tests and introspection).
  [[nodiscard]] bool is_compiled(FunIndex fun) const {
    return fun < status_.size() && status_[fun] == Status::kCompiled;
  }

  void enumerate_roots(runtime::RootVisitor& visitor) override;

 private:
  enum class Status : std::uint8_t { kCold, kCompiled, kFailed };

  void compile(FunIndex fun);

  runtime::Heap& heap_;
  spec::SpeculationManager& spec_;
  const vm::CompiledProgram& prog_;
  JitOptions opts_;

  CodeCache cache_;
  std::vector<Status> status_;
  std::vector<std::uint32_t> hot_;
  /// Post-prologue entry per function (read by direct jumps), or null.
  std::vector<const void*> entries_;
  /// Full C-callable entry per function, or null.
  std::vector<NativeFn> full_entries_;
  /// Per function: the registers to reset at each deopt pc.
  std::vector<DeoptResets> resets_;

  /// The native frame: max num_regs Values. Wherever compiled code hands
  /// control to C++ (a helper call or a deopt), every register the running
  /// function has written is current; the others may hold stale values
  /// from a caller (conservative GC roots) until a deopt resets them.
  std::vector<runtime::Value> frame_;

  std::uint64_t compiled_ = 0;
  std::array<std::uint64_t, kNumDeoptReasons> deopts_{};

  obs::Counter* compiled_funcs_metric_ = nullptr;
  obs::Gauge* code_cache_bytes_metric_ = nullptr;
  obs::Histogram* compile_us_metric_ = nullptr;
  std::array<obs::Counter*, kNumDeoptReasons> deopt_metrics_{};
};

}  // namespace mojave::native
