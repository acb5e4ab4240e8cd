#include "native/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>

#include "native/compiler.hpp"
#include "obs/metrics.hpp"
#include "vm/eval.hpp"

namespace mojave::native {

using runtime::PtrValue;
using runtime::Value;

// --- C helpers (see helpers.hpp for the contract) ---------------------------
//
// Each helper replays the interpreter's case block for its opcode through
// the same heap entry points, so allocation hooks, copy-on-write and write
// barriers behave identically. Any VM exception is swallowed into a 0
// return: the caller deoptimizes and the interpreter re-executes the
// instruction, raising the identical error through a normal unwind path.

extern "C" std::uint64_t moj_nat_alloc_tagged(NativeContext* ctx,
                                              std::uint64_t nreg,
                                              std::uint64_t initreg,
                                              std::uint64_t dstreg) {
  try {
    Value* frame = ctx->frame;
    const std::int64_t n = frame[nreg].as_int();
    if (n < 0 || n > static_cast<std::int64_t>(UINT32_MAX)) return 0;
    const Value init = frame[initreg];
    frame[dstreg] = Value::from_ptr(
        ctx->heap->alloc_tagged(static_cast<std::uint32_t>(n), init), 0);
    return 1;
  } catch (...) {
    return 0;
  }
}

extern "C" std::uint64_t moj_nat_alloc_raw(NativeContext* ctx,
                                           std::uint64_t nreg,
                                           std::uint64_t dstreg) {
  try {
    Value* frame = ctx->frame;
    const std::int64_t n = frame[nreg].as_int();
    if (n < 0 || n > static_cast<std::int64_t>(UINT32_MAX)) return 0;
    frame[dstreg] = Value::from_ptr(
        ctx->heap->alloc_raw(static_cast<std::uint32_t>(n)), 0);
    return 1;
  } catch (...) {
    return 0;
  }
}

extern "C" std::uint64_t moj_nat_write_slot(NativeContext* ctx,
                                            std::uint64_t preg,
                                            std::uint64_t offreg,
                                            std::uint64_t vreg) {
  try {
    Value* frame = ctx->frame;
    const PtrValue p = frame[preg].as_ptr();
    const std::uint32_t off =
        vm::effective_offset(p, frame[offreg].as_int());
    ctx->heap->write_slot(p.index, off, frame[vreg]);
    return 1;
  } catch (...) {
    return 0;
  }
}

extern "C" std::uint64_t moj_nat_raw_store(NativeContext* ctx,
                                           std::uint64_t preg,
                                           std::uint64_t offreg,
                                           std::uint64_t vreg,
                                           std::uint64_t width) {
  try {
    Value* frame = ctx->frame;
    const PtrValue p = frame[preg].as_ptr();
    const std::uint32_t off =
        vm::effective_offset(p, frame[offreg].as_int());
    ctx->heap->raw_store(p.index, off, static_cast<std::uint32_t>(width),
                         frame[vreg].as_int());
    return 1;
  } catch (...) {
    return 0;
  }
}

extern "C" std::uint64_t moj_nat_raw_store_f(NativeContext* ctx,
                                             std::uint64_t preg,
                                             std::uint64_t offreg,
                                             std::uint64_t vreg) {
  try {
    Value* frame = ctx->frame;
    const PtrValue p = frame[preg].as_ptr();
    const std::uint32_t off =
        vm::effective_offset(p, frame[offreg].as_int());
    ctx->heap->raw_store_f64(p.index, off, frame[vreg].as_float());
    return 1;
  } catch (...) {
    return 0;
  }
}

// --- Options ----------------------------------------------------------------

bool parse_jit_spec(const std::string& spec, JitOptions& out) {
  if (spec.empty()) return false;
  JitOptions r = out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string part =
        comma == std::string::npos ? spec.substr(pos)
                                   : spec.substr(pos, comma - pos);
    if (part == "on" || part == "1") {
      r.enabled = true;
    } else if (part == "off" || part == "0") {
      r.enabled = false;
    } else if (part.rfind("threshold=", 0) == 0) {
      const std::string num = part.substr(10);
      if (num.empty() ||
          num.find_first_not_of("0123456789") != std::string::npos ||
          num.size() > 9) {
        return false;
      }
      r.threshold = static_cast<std::uint32_t>(std::stoul(num));
      r.enabled = true;
    } else {
      return false;
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  out = r;
  return true;
}

JitOptions jit_options_from_env() {
  JitOptions o;
  if (const char* env = std::getenv("MOJAVE_JIT")) {
    (void)parse_jit_spec(env, o);  // malformed env spec: keep defaults
  }
  return o;
}

// --- Engine -----------------------------------------------------------------

Engine::Engine(runtime::Heap& heap, spec::SpeculationManager& spec,
               const vm::CompiledProgram& prog, JitOptions opts)
    : heap_(heap), spec_(spec), prog_(prog), opts_(opts) {
  const std::size_t n = prog_.functions.size();
  status_.assign(n, Status::kCold);
  hot_.assign(n, 0);
  entries_.assign(n, nullptr);
  full_entries_.assign(n, nullptr);
  resets_.assign(n, DeoptResets{});

  std::size_t max_regs = 1;
  for (const vm::CompiledFunction& f : prog_.functions) {
    max_regs = std::max(max_regs, static_cast<std::size_t>(f.num_regs));
  }
  frame_.assign(max_regs, Value::unit());

  auto& reg = obs::MetricsRegistry::instance();
  compiled_funcs_metric_ = &reg.counter("native.compiled_funcs");
  code_cache_bytes_metric_ = &reg.gauge("native.code_cache_bytes");
  compile_us_metric_ = &reg.histogram("native.compile_us");
  for (std::size_t i = 0; i < kNumDeoptReasons; ++i) {
    deopt_metrics_[i] = &reg.counter(
        std::string("native.deopts.") +
        deopt_reason_name(static_cast<DeoptReason>(i)));
  }

  heap_.add_root_provider(this);
}

Engine::~Engine() { heap_.remove_root_provider(this); }

void Engine::enumerate_roots(runtime::RootVisitor& visitor) {
  for (const Value& v : frame_) visitor.value_root(v);
}

void Engine::compile(FunIndex fun) {
  const auto t0 = std::chrono::steady_clock::now();
  CompileResult r = compile_function(prog_, fun);
  Status st = Status::kFailed;
  if (r.ok) {
    const void* code = cache_.publish(r.code.data(), r.code.size());
    if (code != nullptr) {
      full_entries_[fun] =
          reinterpret_cast<NativeFn>(reinterpret_cast<std::uintptr_t>(code));
      entries_[fun] =
          static_cast<const std::uint8_t*>(code) + r.jump_entry;
      resets_[fun] = std::move(r.resets);
      st = Status::kCompiled;
      ++compiled_;
      compiled_funcs_metric_->inc();
      code_cache_bytes_metric_->set(
          static_cast<std::int64_t>(cache_.used_bytes()));
    }
  }
  status_[fun] = st;
  const auto dt = std::chrono::duration_cast<std::chrono::nanoseconds>(
      std::chrono::steady_clock::now() - t0);
  compile_us_metric_->record_us(static_cast<double>(dt.count()) / 1000.0);
}

bool Engine::try_run(RunIo& io) {
  const FunIndex fun = io.fun;
  if (fun >= status_.size()) return false;
  if (status_[fun] != Status::kCompiled) {
    if (status_[fun] != Status::kCold) return false;
    if (++hot_[fun] < opts_.threshold) return false;
    compile(fun);
    if (status_[fun] != Status::kCompiled) return false;
  }
  // A shrunken string table (possible mid-unpack) would invalidate the
  // static bounds proof behind kLoadString; refuse to run.
  if (io.strings->size() < prog_.strings.size()) return false;
  if (io.budget <= 0) return false;

  NativeContext ctx;
  ctx.frame = frame_.data();
  ctx.table_view = heap_.table().view();
  ctx.spec_levels = spec_.level_count_addr();
  ctx.spec_top_epoch = spec_.top_epoch_addr();
  ctx.class_counts = io.class_counts;
  ctx.calls = io.calls;
  ctx.budget_left = io.budget;
  ctx.entries = entries_.data();
  ctx.string_indices = io.strings->data();
  ctx.heap = &heap_;
  ctx.deopt_fun = fun;
  ctx.deopt_pc = 0;
  ctx.deopt_reason = static_cast<std::uint32_t>(DeoptReason::kGuard);

  std::copy(io.regs->begin(), io.regs->end(), frame_.begin());

  full_entries_[fun](&ctx);

  // Rebuild the interpreter's register file at the deopt point. The deopt
  // stub wrote back every register the function had cached; a register
  // no path to this pc has written still holds what the caller left there
  // (direct jumps do not clear), so it is reset to the unit a pure
  // interpreter would hold at (deopt_fun, pc).
  const vm::CompiledFunction& df = prog_.functions[ctx.deopt_fun];
  io.regs->assign(frame_.begin(), frame_.begin() + df.num_regs);
  if (const DeoptResets::Bits* unwritten =
          resets_[ctx.deopt_fun].find(ctx.deopt_pc)) {
    for (std::uint32_t r = 0; r < df.num_regs; ++r) {
      if ((((*unwritten)[r >> 6] >> (r & 63)) & 1) != 0) {
        (*io.regs)[r] = Value::unit();
      }
    }
  }

  // Wipe the frame so stale values cannot linger as GC roots or survive a
  // speculation rollback-release window.
  std::fill(frame_.begin(), frame_.end(), Value::unit());

  io.budget = ctx.budget_left;
  io.fun = ctx.deopt_fun;
  io.pc = ctx.deopt_pc;
  io.reason = ctx.deopt_reason;
  if (ctx.deopt_reason < kNumDeoptReasons) {
    ++deopts_[ctx.deopt_reason];
    deopt_metrics_[ctx.deopt_reason]->inc();
  }
  return true;
}

}  // namespace mojave::native
