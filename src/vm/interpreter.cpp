#include "vm/interpreter.hpp"

#include <algorithm>
#include <chrono>
#include <iostream>

#include "fir/ir.hpp"
#include "native/arch.hpp"
#include "native/engine.hpp"
#include "obs/metrics.hpp"
#include "support/error.hpp"
#include "vm/eval.hpp"

namespace mojave::vm {

using runtime::PtrValue;
using runtime::Tag;
using runtime::Value;

namespace {

struct VmMetrics {
  obs::Counter& instructions;
  obs::Counter& calls;
  std::array<obs::Counter*, kNumOpClasses> classes;

  static VmMetrics& get() {
    static VmMetrics m = [] {
      auto& reg = obs::MetricsRegistry::instance();
      VmMetrics v{reg.counter("vm.instructions"), reg.counter("vm.calls"), {}};
      for (std::size_t i = 0; i < kNumOpClasses; ++i) {
        v.classes[i] = &reg.counter(
            std::string("vm.ops.") +
            op_class_name(static_cast<OpClass>(i)));
      }
      return v;
    }();
    return m;
  }
};

/// Flushes on scope exit so metrics survive exceptions out of run_from.
struct MetricsFlusher {
  Interpreter& vm;
  ~MetricsFlusher() { vm.flush_metrics(); }
};

}  // namespace

Interpreter::Interpreter(runtime::Heap& heap, spec::SpeculationManager& spec,
                         CompiledProgram compiled, bool intern)
    : heap_(heap),
      spec_(spec),
      compiled_(std::move(compiled)),
      out_(&std::cout) {
  heap_.add_root_provider(this);
  (void)VmMetrics::get();  // register vm.* metrics eagerly
  setup_function_table();
  if (intern) intern_strings();
  ext_fns_.assign(compiled_.ext_names.size(), nullptr);
  std::size_t widest = 0;
  for (const CompiledFunction& f : compiled_.functions) {
    for (const Insn& I : f.code) {
      if (I.op == Op::kExternal) widest = std::max(widest, I.args.size());
    }
  }
  ext_args_.resize(widest);
  install_default_externals(*this);
}

void Interpreter::flush_metrics() {
  // The dispatch loop counts per opcode class only; the instruction total
  // is their sum (keeps the hot loop at a single memory counter).
  std::uint64_t total = 0;
  for (const std::uint64_t v : op_class_counts_) total += v;
  stats_.instructions = total;

  VmMetrics& m = VmMetrics::get();
  m.instructions.inc(stats_.instructions - exported_stats_.instructions);
  m.calls.inc(stats_.calls - exported_stats_.calls);
  exported_stats_ = stats_;
  for (std::size_t i = 0; i < kNumOpClasses; ++i) {
    m.classes[i]->inc(op_class_counts_[i] - exported_classes_[i]);
  }
  exported_classes_ = op_class_counts_;
}

Interpreter::~Interpreter() { heap_.remove_root_provider(this); }

void Interpreter::set_jit_options(const native::JitOptions& opts) {
  jit_opts_ = opts;
  engine_.reset();
}

void Interpreter::setup_function_table() {
  // Function-table order must match compiled-program order exactly — the
  // paper: "migration must be careful to preserve order in the pointer and
  // function tables". FunIndex i always denotes compiled function i.
  heap_.funs().clear();
  for (const CompiledFunction& f : compiled_.functions) {
    heap_.funs().insert(runtime::FunctionEntry{f.name, f.arity, f.fir_id});
  }
}

void Interpreter::intern_strings() {
  string_blocks_.clear();
  string_blocks_.reserve(compiled_.strings.size());
  for (const std::string& s : compiled_.strings) {
    string_blocks_.push_back(heap_.alloc_string(s));
  }
}

void Interpreter::register_external(const std::string& name, ExternalFn fn) {
  const ExternalFn& slot = externals_[name] = std::move(fn);
  for (std::size_t i = 0; i < ext_fns_.size(); ++i) {
    if (compiled_.ext_names[i] == name) ext_fns_[i] = &slot;
  }
}

void Interpreter::enumerate_roots(runtime::RootVisitor& visitor) {
  for (const Value& v : regs_) visitor.value_root(v);
  for (const Value& v : pending_args_) visitor.value_root(v);
  for (BlockIndex idx : string_blocks_) visitor.index_root(idx);
}

FunIndex Interpreter::resolve_callee(const Value& v) const {
  const FunIndex idx = v.as_fun();
  (void)heap_.funs().get(idx);  // validates against the function table
  if (idx >= compiled_.functions.size()) {
    throw SafetyError("call to unknown function " + std::to_string(idx));
  }
  return idx;
}

void Interpreter::validate_call(const CompiledFunction& fn,
                                std::span<const Value> args) const {
  if (args.size() != fn.arity) {
    throw SafetyError("call of " + fn.name + " with " +
                      std::to_string(args.size()) + " args, expected " +
                      std::to_string(fn.arity));
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i].tag() != fn.param_tags[i]) {
      throw SafetyError("argument " + std::to_string(i) + " of " + fn.name +
                        " has tag " + runtime::tag_name(args[i].tag()) +
                        ", expected " +
                        runtime::tag_name(fn.param_tags[i]));
    }
  }
}

RunResult Interpreter::run() {
  return run_from(compiled_.entry, {});
}

RunResult Interpreter::run_from(FunIndex fun, std::vector<Value> args) {
  MetricsFlusher flusher{*this};
  start(fun, std::move(args));
  const SliceResult r = exec_slice(0);
  slice_active_ = false;
  switch (r.status) {
    case SliceResult::Status::kMigratedAway:
      return RunResult{RunResult::Kind::kMigratedAway, r.exit_code};
    case SliceResult::Status::kBlocked:
      // An agent-style external escaped into a plain run: there is no
      // scheduler to park under, so this is a programming error.
      throw Error("external would block outside run_slice");
    default:
      return RunResult{RunResult::Kind::kHalted, r.exit_code};
  }
}

void Interpreter::start(FunIndex fun, std::vector<Value> args) {
  if (slice_active_ && mid_function_) {
    throw Error("start() while a slice is suspended mid-function");
  }
  pending_fun_ = fun;
  pending_args_ = std::move(args);
  mid_function_ = false;
  slice_active_ = true;
}

SliceResult Interpreter::run_slice(std::uint64_t max_insns) {
  if (!slice_active_) throw Error("run_slice without start()");
  SliceResult r;
  try {
    r = exec_slice(max_insns);
  } catch (...) {
    slice_active_ = false;
    flush_metrics();
    throw;
  }
  if (r.status == SliceResult::Status::kHalted ||
      r.status == SliceResult::Status::kMigratedAway) {
    slice_active_ = false;
    flush_metrics();
  }
  return r;
}

SliceResult Interpreter::exec_slice(std::uint64_t max_insns) {
  // Build the native engine on first use. When the tier is disabled or
  // the host cannot run it, `engine` stays null and this function is a
  // pure interpreter — bit-identical behaviour either way.
  if (jit_opts_.enabled && engine_ == nullptr && native::jit_supported()) {
    engine_ = std::make_unique<native::Engine>(heap_, spec_, compiled_,
                                               jit_opts_);
  }
  native::Engine* engine = jit_opts_.enabled ? engine_.get() : nullptr;

  // 0 means "unlimited"; folding that into a sentinel keeps the per-
  // instruction budget check to a single compare. `executed` mirrors the
  // lifetime instruction count in a register; the authoritative total is
  // derived from op_class_counts_ in flush_metrics(). Two ceilings share
  // that compare: the lifetime fuse (throws) and the slice budget
  // (preempts); `limit` is the lower of the two.
  const std::uint64_t insn_budget =
      max_instructions_ != 0 ? max_instructions_ : ~std::uint64_t{0};
  std::uint64_t executed = 0;
  for (const std::uint64_t v : op_class_counts_) executed += v;
  const std::uint64_t slice_limit =
      max_insns != 0 && max_insns < ~std::uint64_t{0} - executed
          ? executed + max_insns
          : ~std::uint64_t{0};
  const std::uint64_t limit = std::min(insn_budget, slice_limit);
  // The external or migration hook running the instruction at `at`
  // called block(): un-retire the instruction and park exactly before it.
  // Resume re-executes it, which must be idempotent up to its blocking
  // point.
  const auto park_before = [&](std::size_t at, const Insn& insn) {
    block_requested_ = false;
    --executed;
    --op_class_counts_[insn.cls];
    resume_pc_ = at;
    mid_function_ = true;
    return SliceResult{SliceResult::Status::kBlocked, 0, block_deadline_};
  };

  while (true) {
    const CompiledFunction* f = &compiled_.function(pending_fun_);
    std::size_t pc = 0;
    if (mid_function_) {
      // Resuming a preempted/blocked slice: regs_ already hold the frame
      // of pending_fun_ at resume_pc_ — skip entry validation and the
      // native offer (that happens at control transfers only).
      mid_function_ = false;
      pc = resume_pc_;
    } else {
      validate_call(*f, pending_args_);
      ++stats_.calls;

      regs_.assign(f->num_regs, Value::unit());
      for (std::size_t i = 0; i < pending_args_.size(); ++i) {
        regs_[i] = pending_args_[i];
      }
      pending_args_.clear();

      if (engine != nullptr) {
        // Offer the transfer to the native tier. On success the engine ran
        // compiled code up to a deoptimization point and regs_ now holds
        // the register file of (io.fun, io.pc); resume interpreting right
        // there. The slice budget rides the same allowance: compiled code
        // deoptimizes with kBudget when it cannot cover the next block,
        // and the dispatch loop below turns that into a preemption.
        native::RunIo io;
        io.regs = &regs_;
        io.strings = &string_blocks_;
        io.class_counts = op_class_counts_.data();
        io.calls = &stats_.calls;
        io.budget = static_cast<std::int64_t>(std::min<std::uint64_t>(
            limit - executed,
            static_cast<std::uint64_t>(INT64_MAX)));
        io.fun = pending_fun_;
        const std::int64_t given = io.budget;
        if (engine->try_run(io)) {
          executed += static_cast<std::uint64_t>(given - io.budget);
          pending_fun_ = io.fun;
          f = &compiled_.function(io.fun);
          pc = io.pc;
        }
      }
    }
    bool transfer = false;
    while (!transfer) {
      if (pc >= f->code.size()) {
        throw SafetyError("program counter fell off the end of " + f->name);
      }
      const Insn& I = f->code[pc];
      ++op_class_counts_[I.cls];
      if (++executed > limit) {
        if (executed > insn_budget) {
          throw Error("instruction budget exhausted");
        }
        // Slice budget exhausted: un-retire this instruction and park
        // exactly before it — the resumed slice re-executes it.
        --executed;
        --op_class_counts_[I.cls];
        resume_pc_ = pc;
        mid_function_ = true;
        return SliceResult{SliceResult::Status::kPreempted, 0, 0};
      }
      try {
      switch (I.op) {
        case Op::kLoadUnit:
          regs_[I.dst] = Value::unit();
          break;
        case Op::kLoadInt:
          regs_[I.dst] = Value::from_int(I.imm);
          break;
        case Op::kLoadFloat:
          regs_[I.dst] = Value::from_float(I.fimm);
          break;
        case Op::kLoadString:
          if (I.aux >= string_blocks_.size()) {
            throw SafetyError("string id out of range");
          }
          regs_[I.dst] = Value::from_ptr(string_blocks_[I.aux], 0);
          break;
        case Op::kLoadFun:
          (void)heap_.funs().get(I.aux);
          regs_[I.dst] = Value::from_fun(I.aux);
          break;
        case Op::kLoadNull:
          regs_[I.dst] = Value::from_ptr(kNullIndex, 0);
          break;
        case Op::kMove:
          regs_[I.dst] = regs_[I.r1];
          break;
        case Op::kUnop:
          regs_[I.dst] = eval_unop(static_cast<fir::Unop>(I.sub), regs_[I.r1]);
          break;
        case Op::kBinop:
          regs_[I.dst] = eval_binop(static_cast<fir::Binop>(I.sub),
                                    regs_[I.r1], regs_[I.r2]);
          break;
        case Op::kAllocTagged: {
          const std::int64_t n = regs_[I.r1].as_int();
          if (n < 0 || n > static_cast<std::int64_t>(UINT32_MAX)) {
            throw SafetyError("alloc size out of range");
          }
          const Value init = regs_[I.r2];
          regs_[I.dst] = Value::from_ptr(
              heap_.alloc_tagged(static_cast<std::uint32_t>(n), init), 0);
          break;
        }
        case Op::kAllocRaw: {
          const std::int64_t n = regs_[I.r1].as_int();
          if (n < 0 || n > static_cast<std::int64_t>(UINT32_MAX)) {
            throw SafetyError("alloc_raw size out of range");
          }
          regs_[I.dst] = Value::from_ptr(
              heap_.alloc_raw(static_cast<std::uint32_t>(n)), 0);
          break;
        }
        case Op::kRead: {
          const PtrValue p = regs_[I.r1].as_ptr();
          const std::uint32_t off =
              effective_offset(p, regs_[I.r2].as_int());
          const Value v = heap_.read_slot(p.index, off);
          if (v.tag() != static_cast<Tag>(I.sub)) {
            throw SafetyError(
                std::string("read produced ") + runtime::tag_name(v.tag()) +
                ", expected " +
                runtime::tag_name(static_cast<Tag>(I.sub)));
          }
          regs_[I.dst] = v;
          break;
        }
        case Op::kWrite: {
          const PtrValue p = regs_[I.r1].as_ptr();
          const std::uint32_t off =
              effective_offset(p, regs_[I.r2].as_int());
          heap_.write_slot(p.index, off, regs_[I.r3]);
          break;
        }
        case Op::kRawLoad: {
          const PtrValue p = regs_[I.r1].as_ptr();
          const std::uint32_t off =
              effective_offset(p, regs_[I.r2].as_int());
          regs_[I.dst] = Value::from_int(heap_.raw_load(p.index, off, I.sub));
          break;
        }
        case Op::kRawStore: {
          const PtrValue p = regs_[I.r1].as_ptr();
          const std::uint32_t off =
              effective_offset(p, regs_[I.r2].as_int());
          heap_.raw_store(p.index, off, I.sub, regs_[I.r3].as_int());
          break;
        }
        case Op::kRawLoadF: {
          const PtrValue p = regs_[I.r1].as_ptr();
          const std::uint32_t off =
              effective_offset(p, regs_[I.r2].as_int());
          regs_[I.dst] = Value::from_float(heap_.raw_load_f64(p.index, off));
          break;
        }
        case Op::kRawStoreF: {
          const PtrValue p = regs_[I.r1].as_ptr();
          const std::uint32_t off =
              effective_offset(p, regs_[I.r2].as_int());
          heap_.raw_store_f64(p.index, off, regs_[I.r3].as_float());
          break;
        }
        case Op::kLen: {
          const PtrValue p = regs_[I.r1].as_ptr();
          regs_[I.dst] =
              Value::from_int(static_cast<std::int64_t>(heap_.deref(p.index)->h.count));
          break;
        }
        case Op::kPtrAdd: {
          const PtrValue p = regs_[I.r1].as_ptr();
          const std::uint32_t off =
              effective_offset(p, regs_[I.r2].as_int());
          regs_[I.dst] = Value::from_ptr(p.index, off);
          break;
        }
        case Op::kJump:
          pc = I.aux;
          continue;
        case Op::kJumpIfZero:
          if (regs_[I.r1].as_int() == 0) {
            pc = I.aux;
            continue;
          }
          break;
        case Op::kTailCall: {
          pending_fun_ = resolve_callee(regs_[I.r1]);
          pending_args_.clear();
          for (std::uint16_t r : I.args) pending_args_.push_back(regs_[r]);
          transfer = true;
          break;
        }
        case Op::kSpeculate: {
          const FunIndex callee = resolve_callee(regs_[I.r1]);
          spec::SavedContinuation cont;
          cont.fun = callee;
          for (std::uint16_t r : I.args) cont.args.push_back(regs_[r]);
          const SpecLevel level = spec_.speculate(cont);
          pending_fun_ = callee;
          pending_args_.clear();
          pending_args_.push_back(
              Value::from_int(static_cast<std::int64_t>(level)));
          for (std::uint16_t r : I.args) pending_args_.push_back(regs_[r]);
          transfer = true;
          break;
        }
        case Op::kCommit: {
          const std::int64_t level = regs_[I.r1].as_int();
          if (level <= 0) throw SpecError("commit of non-positive level");
          spec_.commit(static_cast<SpecLevel>(level));
          pending_fun_ = resolve_callee(regs_[I.r2]);
          pending_args_.clear();
          for (std::uint16_t r : I.args) pending_args_.push_back(regs_[r]);
          transfer = true;
          break;
        }
        case Op::kRollback:
        case Op::kAbort: {
          const std::int64_t level = regs_[I.r1].as_int();
          if (level <= 0) throw SpecError("rollback of non-positive level");
          const std::int64_t c = regs_[I.r2].as_int();
          const bool retry = I.op == Op::kRollback;
          spec::RollbackOutcome outcome =
              spec_.rollback(static_cast<SpecLevel>(level), c, retry);
          pending_fun_ = outcome.continuation.fun;
          pending_args_.clear();
          pending_args_.push_back(Value::from_int(outcome.continuation.c));
          for (const Value& v : outcome.continuation.args) {
            pending_args_.push_back(v);
          }
          transfer = true;
          break;
        }
        case Op::kMigrate: {
          const std::string target =
              heap_.read_string(regs_[I.r1].as_ptr());
          const FunIndex callee = resolve_callee(regs_[I.r2]);
          pending_args_.clear();
          for (std::uint16_t r : I.args) pending_args_.push_back(regs_[r]);
          if (hook_ == nullptr) {
            throw MigrateError("migrate instruction with no migration hook");
          }
          block_requested_ = false;
          const auto action =
              hook_->on_migrate(*this, I.aux, target, callee, pending_args_);
          // The hook must wait (a checkpoint still being written).
          if (block_requested_) return park_before(pc, I);
          if (action == MigrationHook::Action::kExit) {
            return SliceResult{SliceResult::Status::kMigratedAway, 0, 0};
          }
          // "If migration fails for any reason, the process will continue
          // to execute on the original machine" — and the checkpoint
          // protocol always continues.
          pending_fun_ = callee;
          transfer = true;
          break;
        }
        case Op::kExternal: {
          const ExternalFn* fn =
              I.aux < ext_fns_.size() ? ext_fns_[I.aux] : nullptr;
          if (fn == nullptr) {
            if (I.aux >= compiled_.ext_names.size()) {
              throw SafetyError("external id out of range");
            }
            throw SafetyError("call of unregistered external: " +
                              compiled_.ext_names[I.aux]);
          }
          for (std::size_t i = 0; i < I.args.size(); ++i) {
            ext_args_[i] = regs_[I.args[i]];
          }
          block_requested_ = false;
          const Value result =
              (*fn)(*this, std::span<const Value>(ext_args_.data(),
                                                  I.args.size()));
          if (block_requested_) return park_before(pc, I);
          if (result.tag() != static_cast<Tag>(I.sub)) {
            throw SafetyError("external " + compiled_.ext_names[I.aux] +
                              " returned " + runtime::tag_name(result.tag()) +
                              ", declared " +
                              runtime::tag_name(static_cast<Tag>(I.sub)));
          }
          regs_[I.dst] = result;
          break;
        }
        case Op::kHalt:
          return SliceResult{SliceResult::Status::kHalted,
                             regs_[I.r1].as_int(), 0};
      }
      ++pc;
      } catch (const SafetyError&) {
        // Rx-style recovery: convert the trap into a rollback of the
        // newest speculation level and resume at its continuation.
        if (!trap_to_speculation_ || spec_.current_level() == 0) throw;
        spec::RollbackOutcome outcome =
            spec_.rollback(spec_.current_level(), kTrapC, /*retry=*/true);
        pending_fun_ = outcome.continuation.fun;
        pending_args_.clear();
        pending_args_.push_back(Value::from_int(outcome.continuation.c));
        for (const Value& v : outcome.continuation.args) {
          pending_args_.push_back(v);
        }
        transfer = true;
      }
    }
  }
}

void install_default_externals(Interpreter& vm) {
  vm.register_external(
      "print_string",
      [](Interpreter& it, std::span<const Value> args) -> Value {
        if (args.size() != 1) throw SafetyError("print_string arity");
        it.out() << it.heap().read_string(args[0].as_ptr());
        return Value::unit();
      });
  vm.register_external(
      "print_int", [](Interpreter& it, std::span<const Value> args) -> Value {
        if (args.size() != 1) throw SafetyError("print_int arity");
        it.out() << args[0].as_int();
        return Value::unit();
      });
  vm.register_external(
      "print_float",
      [](Interpreter& it, std::span<const Value> args) -> Value {
        if (args.size() != 1) throw SafetyError("print_float arity");
        it.out() << args[0].as_float();
        return Value::unit();
      });
  vm.register_external(
      "clock_us", [](Interpreter&, std::span<const Value> args) -> Value {
        if (!args.empty()) throw SafetyError("clock_us arity");
        const auto now =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
        return Value::from_int(static_cast<std::int64_t>(now));
      });
  vm.register_external(
      "spec_level", [](Interpreter& it, std::span<const Value> args) -> Value {
        if (!args.empty()) throw SafetyError("spec_level arity");
        return Value::from_int(
            static_cast<std::int64_t>(it.spec().current_level()));
      });
  vm.register_external(
      "heap_live_bytes",
      [](Interpreter& it, std::span<const Value> args) -> Value {
        if (!args.empty()) throw SafetyError("heap_live_bytes arity");
        return Value::from_int(
            static_cast<std::int64_t>(it.heap().live_bytes()));
      });
}

}  // namespace mojave::vm
