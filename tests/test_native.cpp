// Native-tier tests: the arch probe, tier equivalence (differential fuzz
// of randomly generated loop/arithmetic programs against the interpreter,
// including instruction accounting), deoptimization at speculation and
// budget boundaries, copy-on-write stores issued inside speculation
// levels, and native<->interpreter migration round trips.
//
// Every test that needs generated code skips — not fails — on hosts where
// the probe reports the tier unavailable (non-x86-64, W^X-restricted).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <random>
#include <span>
#include <sstream>
#include <vector>

#include "fir/builder.hpp"
#include "fir/legalize.hpp"
#include "fir/optimize.hpp"
#include "frontend/compile.hpp"
#include "gridapp/heat.hpp"
#include "migrate/image.hpp"
#include "migrate/migrator.hpp"
#include "migrate/protocols.hpp"
#include "native/arch.hpp"
#include "native/compiler.hpp"
#include "native/engine.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
using fir::Atom;
using fir::Binop;
using fir::ProgramBuilder;
using fir::Type;
using fir::VarId;

namespace fs = std::filesystem;

vm::ProcessConfig jit_on(std::uint32_t threshold = 1) {
  vm::ProcessConfig cfg;
  cfg.jit.enabled = true;
  cfg.jit.threshold = threshold;
  return cfg;
}

vm::ProcessConfig jit_off() {
  vm::ProcessConfig cfg;
  cfg.jit.enabled = false;
  return cfg;
}

/// sum(0..n-1) via a self-tail-calling loop — the canonical hot shape.
fir::Program make_sum_loop(std::int64_t n) {
  ProgramBuilder pb("sum_loop");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare("loop", {Type::integer(), Type::integer()});
  {
    auto fb = pb.define(main_id, {});
    fb.tail_call(Atom::fun_ref(loop_id), {Atom::integer(0), Atom::integer(0)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "acc"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0), Atom::integer(n));
    fb.branch(
        fb.v(done), [&](auto& t) { t.halt(t.arg(1)); },
        [&](auto& e) {
          auto acc = e.let_binop("acc2", Binop::kAdd, e.arg(1), e.arg(0));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), e.v(acc)});
        });
  }
  return pb.take("main");
}

struct TierRun {
  std::int64_t exit_code = 0;
  std::uint64_t instructions = 0;
  std::uint64_t calls = 0;
  vm::OpClassCounts class_counts{};
  std::uint64_t compiled = 0;
  std::uint64_t deopts = 0;
  std::uint64_t cow_clones = 0;
  std::uint64_t blocks_preserved = 0;
};

TierRun run_tier(fir::Program prog, const vm::ProcessConfig& cfg) {
  vm::Process p(std::move(prog), cfg);
  TierRun out;
  out.exit_code = p.run().exit_code;
  out.instructions = p.vm().stats().instructions;
  out.calls = p.vm().stats().calls;
  out.class_counts = p.vm().op_class_counts();
  if (const native::Engine* eng = p.vm().native_engine()) {
    out.compiled = eng->compiled_functions();
    out.deopts = eng->total_deopts();
  }
  out.cow_clones = p.heap().stats().cow_clones;
  out.blocks_preserved = p.spec().stats().blocks_preserved;
  return out;
}

/// The two tiers must be observationally identical: same result, same
/// retired instruction count, same per-opcode-class breakdown, same call
/// count. This is the acceptance bar for every deopt/accounting path.
void expect_tiers_agree(const TierRun& native, const TierRun& interp) {
  EXPECT_EQ(native.exit_code, interp.exit_code);
  EXPECT_EQ(native.instructions, interp.instructions);
  EXPECT_EQ(native.calls, interp.calls);
  EXPECT_EQ(native.class_counts, interp.class_counts);
}

TEST(NativeArch, ProbeIsStableAndSane) {
  const bool first = native::jit_supported();
  EXPECT_EQ(native::jit_supported(), first);  // cached, not flapping
#if defined(__x86_64__)
  // On the CI hosts this suite targets, x86-64 implies the probe passes
  // unless the platform forbids W^X flips entirely; either answer must
  // still leave the interpreter fully functional (checked below).
#endif
  fir::Program prog = make_sum_loop(100);
  vm::Process p(std::move(prog), jit_off());
  EXPECT_EQ(p.run().exit_code, 4950);
}

TEST(NativeTier, HotLoopCompilesAndMatchesInterpreter) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  const TierRun n = run_tier(make_sum_loop(50000), jit_on(2));
  const TierRun i = run_tier(make_sum_loop(50000), jit_off());
  expect_tiers_agree(n, i);
  EXPECT_EQ(n.exit_code, 50000LL * 49999 / 2);
  EXPECT_GE(n.compiled, 1u);  // the loop crossed the threshold
  EXPECT_EQ(i.compiled, 0u);  // no engine when disabled
}

TEST(NativeTier, ColdThresholdKeepsFunctionsInterpreted) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // One transfer into main + a handful into loop; a huge threshold means
  // nothing ever compiles and the run is pure interpretation.
  const TierRun n = run_tier(make_sum_loop(10), jit_on(1u << 30));
  EXPECT_EQ(n.exit_code, 45);
  EXPECT_EQ(n.compiled, 0u);
  EXPECT_EQ(n.deopts, 0u);
}

// ---------------------------------------------------------------------------
// Differential fuzz: random loop/arithmetic programs, both tiers,
// bit-identical results and instruction accounting.
// ---------------------------------------------------------------------------

/// A random straight-line body of integer arithmetic inside a hot loop.
/// Loop-carried state (a, b) and a heap accumulator make every generated
/// instruction observable in the final hash. Divisors are positive
/// constants so both tiers face the same (defined) semantics.
fir::Program make_int_fuzz(std::uint32_t seed, std::int64_t iters) {
  std::mt19937 rng(seed);
  auto rnd = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  static const Binop kOps[] = {
      Binop::kAdd, Binop::kSub, Binop::kMul, Binop::kAnd, Binop::kOr,
      Binop::kXor, Binop::kShl, Binop::kShr, Binop::kLt,  Binop::kLe,
      Binop::kGt,  Binop::kGe,  Binop::kEq,  Binop::kNe,  Binop::kDiv,
      Binop::kMod};

  ProgramBuilder pb("fuzz");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare(
      "loop", {Type::integer(), Type::integer(), Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(0));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(0), Atom::integer(rnd(-1000, 1000)),
                  Atom::integer(rnd(-1000, 1000)), fb.v(buf)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "a", "b", "buf"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(iters));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          auto acc = t.let_read("acc", Type::integer(), t.arg(3),
                                Atom::integer(0));
          auto h1 = t.let_binop("h1", Binop::kXor, t.v(acc), t.arg(1));
          auto h2 = t.let_binop("h2", Binop::kXor, t.v(h1), t.arg(2));
          auto lo = t.let_binop("lo", Binop::kAnd, t.v(h2),
                                Atom::integer(0x7fffffff));
          t.halt(t.v(lo));
        },
        [&](auto& e) {
          std::vector<VarId> pool;
          auto operand = [&]() -> Atom {
            const std::int64_t pick = rnd(0, 9);
            if (pick < 3) return e.arg(static_cast<std::uint32_t>(pick));
            if (pick < 5 || pool.empty()) return Atom::integer(rnd(-64, 64));
            return e.v(pool[static_cast<std::size_t>(
                rnd(0, static_cast<std::int64_t>(pool.size()) - 1))]);
          };
          const std::int64_t nops = rnd(4, 12);
          for (std::int64_t k = 0; k < nops; ++k) {
            const Binop op =
                kOps[static_cast<std::size_t>(rnd(0, std::ssize(kOps) - 1))];
            Atom lhs = operand();
            // Division by a positive constant only: zero divisors trap and
            // INT64_MIN / -1 overflows — both are separate tests.
            Atom rhs = (op == Binop::kDiv || op == Binop::kMod)
                           ? Atom::integer(rnd(1, 9))
                           : operand();
            pool.push_back(
                e.let_binop("t" + std::to_string(k), op, lhs, rhs));
          }
          auto acc = e.let_read("acc", Type::integer(), e.arg(3),
                                Atom::integer(0));
          auto mix = e.let_binop("mix", Binop::kAdd, e.v(acc),
                                 e.v(pool.back()));
          e.write(e.arg(3), Atom::integer(0), e.v(mix));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          auto pick = [&]() {
            return e.v(pool[static_cast<std::size_t>(
                rnd(0, static_cast<std::int64_t>(pool.size()) - 1))]);
          };
          e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), pick(), pick(),
                                               e.arg(3)});
        });
  }
  return pb.take("main");
}

/// Float fuzz: carried doubles through FAdd/FSub/FMul/FDiv and float
/// compares; the final value is hashed bit-exactly through a raw byte
/// buffer (raw_storef + 8-byte raw_load), so "close enough" cannot pass.
fir::Program make_float_fuzz(std::uint32_t seed, std::int64_t iters) {
  std::mt19937 rng(seed);
  auto rnd = [&](std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(rng);
  };
  static const Binop kFOps[] = {Binop::kFAdd, Binop::kFSub, Binop::kFMul,
                                Binop::kFDiv};
  static const Binop kFCmps[] = {Binop::kFLt, Binop::kFLe, Binop::kFGt,
                                 Binop::kFGe, Binop::kFEq, Binop::kFNe};

  ProgramBuilder pb("ffuzz");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare(
      "loop", {Type::integer(), Type::real(), Type::real(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto raw = fb.let_alloc_raw("raw", Atom::integer(8));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(0), Atom::real(rnd(-100, 100) / 7.0),
                  Atom::real(rnd(1, 100) / 3.0), fb.v(raw)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "x", "y", "raw"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(iters));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          t.raw_storef(t.arg(3), Atom::integer(0), t.arg(1));
          auto bits = t.let_raw_load("bits", 8, t.arg(3), Atom::integer(0));
          auto lo = t.let_binop("lo", Binop::kAnd, t.v(bits),
                                Atom::integer(0x7fffffff));
          t.halt(t.v(lo));
        },
        [&](auto& e) {
          std::vector<VarId> fpool;
          auto foperand = [&]() -> Atom {
            const std::int64_t pick = rnd(0, 5);
            if (pick < 2) return e.arg(1);
            if (pick < 3) return e.arg(2);
            if (pick < 4 || fpool.empty()) {
              return Atom::real(rnd(-50, 50) / 9.0);
            }
            return e.v(fpool[static_cast<std::size_t>(
                rnd(0, static_cast<std::int64_t>(fpool.size()) - 1))]);
          };
          const std::int64_t nops = rnd(3, 8);
          for (std::int64_t k = 0; k < nops; ++k) {
            const Binop op = kFOps[static_cast<std::size_t>(
                rnd(0, std::ssize(kFOps) - 1))];
            fpool.push_back(e.let_binop("f" + std::to_string(k), op,
                                        foperand(), foperand()));
          }
          // A float compare steers an int add so branch directions depend
          // on float state (NaN-compare semantics included).
          const Binop cmp = kFCmps[static_cast<std::size_t>(
              rnd(0, std::ssize(kFCmps) - 1))];
          auto c = e.let_binop("c", cmp, foperand(), foperand());
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          auto i2 = e.let_binop("i2", Binop::kAdd, e.v(i1), e.v(c));
          auto pick = [&]() {
            return e.v(fpool[static_cast<std::size_t>(
                rnd(0, static_cast<std::int64_t>(fpool.size()) - 1))]);
          };
          e.tail_call(Atom::fun_ref(loop_id),
                      {e.v(i2), pick(), pick(), e.arg(3)});
        });
  }
  return pb.take("main");
}

TEST(NativeDifferential, IntFuzzBothTiersBitIdentical) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  for (std::uint32_t seed = 1; seed <= 12; ++seed) {
    const TierRun n = run_tier(make_int_fuzz(seed, 300), jit_on(1));
    const TierRun i = run_tier(make_int_fuzz(seed, 300), jit_off());
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_tiers_agree(n, i);
    EXPECT_GE(n.compiled, 1u);
  }
}

TEST(NativeDifferential, FloatFuzzBothTiersBitIdentical) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  for (std::uint32_t seed = 100; seed <= 108; ++seed) {
    const TierRun n = run_tier(make_float_fuzz(seed, 200), jit_on(1));
    const TierRun i = run_tier(make_float_fuzz(seed, 200), jit_off());
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_tiers_agree(n, i);
  }
}

TEST(NativeDifferential, DivideByZeroTrapsIdenticallyMidLoop) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // loop(i): if i >= 100 halt 0; q = 1000 / (50 - i)  -- traps at i == 50,
  // after the loop is hot. The native tier must deopt on the guard and let
  // the interpreter raise the canonical SafetyError at the same point.
  auto make = [] {
    ProgramBuilder pb("divtrap");
    auto main_id = pb.declare("main", {});
    auto loop_id = pb.declare("loop", {Type::integer(), Type::integer()});
    {
      auto fb = pb.define(main_id, {});
      fb.tail_call(Atom::fun_ref(loop_id),
                   {Atom::integer(0), Atom::integer(0)});
    }
    {
      auto fb = pb.define(loop_id, {"i", "acc"});
      auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                               Atom::integer(100));
      fb.branch(
          fb.v(done), [&](auto& t) { t.halt(t.arg(1)); },
          [&](auto& e) {
            auto d = e.let_binop("d", Binop::kSub, Atom::integer(50),
                                 e.arg(0));
            auto q = e.let_binop("q", Binop::kDiv, Atom::integer(1000),
                                 e.v(d));
            auto acc = e.let_binop("acc2", Binop::kAdd, e.arg(1), e.v(q));
            auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0),
                                  Atom::integer(1));
            e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), e.v(acc)});
          });
    }
    return pb.take("main");
  };

  vm::OpClassCounts counts_native{}, counts_interp{};
  {
    vm::Process p(make(), jit_on(1));
    EXPECT_THROW((void)p.run(), SafetyError);
    counts_native = p.vm().op_class_counts();
    ASSERT_NE(p.vm().native_engine(), nullptr);
    EXPECT_GE(p.vm().native_engine()->deopt_count(
                  native::DeoptReason::kGuard),
              1u);
  }
  {
    vm::Process p(make(), jit_off());
    EXPECT_THROW((void)p.run(), SafetyError);
    counts_interp = p.vm().op_class_counts();
  }
  // The interpreter re-executes the trapping division itself, so the two
  // tiers must have retired exactly the same multiset of instructions.
  EXPECT_EQ(counts_native, counts_interp);
}

TEST(NativeDifferential, Int64MinOverMinusOneWrapsInEveryTier) {
  // INT64_MIN / -1 overflows: the hardware divider faults (SIGFPE) and C++
  // leaves it undefined. MojC defines it as INT64_MIN, and INT64_MIN % -1
  // as 0, in the constant folder, the interpreter and the native tier.
  // Multiplication and addition wrap too: x * y + x - 1 is
  // INT64_MIN + INT64_MIN - 1 = -1.
  const std::string src =
      "int main() { int x = 0 - 9223372036854775807 - 1; int y = 0 - 1;"
      "  int q = x / y; int m = x % y; int w = x * y + x - 1;"
      "  if (q == x && m == 0 && w == 0 - 1) { return q; }"
      "  return 1; }";
  const auto run = [&](bool fold, const vm::ProcessConfig& cfg) {
    fir::Program p = frontend::compile_source("wrap", src);
    if (fold) (void)fir::optimize(p);
    vm::Process proc(std::move(p), cfg);
    const std::int64_t code = proc.run().exit_code;
    if (const native::Engine* eng = proc.vm().native_engine()) {
      // The division ran natively and handed the -1 divisor back.
      EXPECT_GE(eng->deopt_count(native::DeoptReason::kGuard), 1u);
    }
    return code;
  };
  EXPECT_EQ(run(true, jit_off()), INT64_MIN);   // constant folder
  EXPECT_EQ(run(false, jit_off()), INT64_MIN);  // interpreter
  if (native::jit_supported()) {
    EXPECT_EQ(run(false, jit_on(1)), INT64_MIN);  // native tier
  }
}

TEST(NativeDifferential, InstructionFuseFiresAtSamePoint) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // Pre-paid chunk budgeting + stub refunds must make the fuse land on the
  // same instruction as pure interpretation.
  auto cfg_n = jit_on(1);
  cfg_n.max_instructions = 5000;
  auto cfg_i = jit_off();
  cfg_i.max_instructions = 5000;
  vm::OpClassCounts counts_native{}, counts_interp{};
  {
    vm::Process p(make_sum_loop(1u << 20), cfg_n);
    EXPECT_THROW((void)p.run(), Error);  // "instruction budget exhausted"
    counts_native = p.vm().op_class_counts();
  }
  {
    vm::Process p(make_sum_loop(1u << 20), cfg_i);
    EXPECT_THROW((void)p.run(), Error);
    counts_interp = p.vm().op_class_counts();
  }
  EXPECT_EQ(counts_native, counts_interp);
}

// ---------------------------------------------------------------------------
// Deoptimization at speculation sites.
// ---------------------------------------------------------------------------

TEST(NativeDeopt, ForcedRollbackRestoresHeapFromNativeWrites) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // main: buf = alloc(1, 3); speculate body(c, buf)
  // body: first entry runs a *hot native loop* of speculative heap writes,
  // then aborts — every write must be rolled back even though they were
  // issued from compiled code (via the logging write barrier helper).
  ProgramBuilder pb("native_rollback");
  auto main_id = pb.declare("main", {});
  auto body_id = pb.declare("body", {Type::integer(), Type::ptr()});
  auto spin_id = pb.declare("spin",
                            {Type::integer(), Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(3));
    fb.speculate(Atom::fun_ref(body_id), {fb.v(buf)});
  }
  {
    auto fb = pb.define(body_id, {"c", "buf"});
    auto live = fb.let_binop("live", Binop::kGt, fb.arg(0), Atom::integer(0));
    fb.branch(
        fb.v(live),
        [&](auto& t) {
          t.tail_call(Atom::fun_ref(spin_id),
                      {Atom::integer(0), t.arg(0), t.arg(1)});
        },
        [&](auto& e) {
          auto x = e.let_read("x", Type::integer(), e.arg(1),
                              Atom::integer(0));
          e.halt(e.v(x));
        });
  }
  {
    auto fb = pb.define(spin_id, {"j", "c", "buf"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(200));
    fb.branch(
        fb.v(done),
        [&](auto& t) { t.abort_spec(t.arg(1), Atom::integer(0)); },
        [&](auto& e) {
          auto acc = e.let_read("acc", Type::integer(), e.arg(2),
                                Atom::integer(0));
          auto acc1 = e.let_binop("acc1", Binop::kAdd, e.v(acc), e.arg(0));
          e.write(e.arg(2), Atom::integer(0), e.v(acc1));
          auto j1 = e.let_binop("j1", Binop::kAdd, e.arg(0),
                                Atom::integer(1));
          e.tail_call(Atom::fun_ref(spin_id), {e.v(j1), e.arg(1), e.arg(2)});
        });
  }
  vm::Process p(pb.take("main"), jit_on(1));
  EXPECT_EQ(p.run().exit_code, 3);  // all 200 native writes undone
  const native::Engine* eng = p.vm().native_engine();
  ASSERT_NE(eng, nullptr);
  EXPECT_GE(eng->compiled_functions(), 1u);
  EXPECT_GE(eng->deopt_count(native::DeoptReason::kSpeculate), 1u);
  EXPECT_GE(eng->deopt_count(native::DeoptReason::kRollback), 1u);
}

// ---------------------------------------------------------------------------
// Stores inside a speculation level: the inlined copy-on-write epoch test.
// ---------------------------------------------------------------------------

/// How a SpecStores program leaves its speculation.
enum class SpecFinish {
  kCommit,  ///< commit the level: the writes stand
  kAbort,   ///< abort the level: contents from before it come back
  kNested,  ///< inner level (commit), more outer writes, then outer abort
};

constexpr std::int64_t kSpecStoreIters = 300;

/// main fills a tagged block T (4 int slots) and a raw block R (4 int64s,
/// then 2 doubles) and speculates. Inside, a hot loop issues kWrite,
/// kRawStore and kRawStoreF on every iteration to blocks allocated before
/// the level; the level then ends per `finish`. The exit code is a
/// checksum of T and R.
fir::Program make_spec_stores(SpecFinish finish) {
  ProgramBuilder pb("spec_stores");
  const std::vector<Type> state = {Type::integer(), Type::ptr(), Type::ptr(),
                                   Type::integer()};  // c, T, R, c1
  std::vector<Type> spin_params = {Type::integer()};  // j
  spin_params.insert(spin_params.end(), state.begin(), state.end());
  auto main_id = pb.declare("main", {});
  auto outer_id = pb.declare("outer", {Type::integer(), Type::ptr(),
                                       Type::ptr()});
  auto spin1_id = pb.declare("spin1", spin_params);
  auto after1_id = pb.declare("after1", state);
  auto inner_id = pb.declare("inner", state);
  auto spin2_id = pb.declare("spin2", spin_params);
  auto after2_id = pb.declare("after2", state);
  auto spin3_id = pb.declare("spin3", spin_params);
  auto abort_id = pb.declare("abort_outer", state);
  auto check_id = pb.declare("check", {Type::ptr(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto t = fb.let_alloc("T", Atom::integer(4), Atom::integer(3));
    auto r = fb.let_alloc_raw("R", Atom::integer(48));
    for (int k = 0; k < 4; ++k) {
      fb.raw_store(8, fb.v(r), Atom::integer(8 * k), Atom::integer(10 + k));
    }
    fb.raw_storef(fb.v(r), Atom::integer(32), Atom::real(0.5));
    fb.raw_storef(fb.v(r), Atom::integer(40), Atom::real(7.0));
    fb.speculate(Atom::fun_ref(outer_id), {fb.v(t), fb.v(r)});
  }
  {
    // First entry (c > 0) writes; abort re-enters with c == 0 to check.
    auto fb = pb.define(outer_id, {"c", "T", "R"});
    auto live = fb.let_binop("live", Binop::kGt, fb.arg(0), Atom::integer(0));
    fb.branch(
        fb.v(live),
        [&](auto& t) {
          t.tail_call(Atom::fun_ref(spin1_id),
                      {Atom::integer(0), t.arg(0), t.arg(1), t.arg(2),
                       Atom::integer(0)});
        },
        [&](auto& e) {
          e.tail_call(Atom::fun_ref(check_id), {e.arg(1), e.arg(2)});
        });
  }
  // spin(j, c, T, R, c1): the three store kinds per iteration, then next.
  const auto define_spin = [&](std::uint32_t id, std::uint32_t next,
                               std::int64_t bias) {
    auto fb = pb.define(id, {"j", "c", "T", "R", "c1"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(kSpecStoreIters));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          t.tail_call(Atom::fun_ref(next),
                      {t.arg(1), t.arg(2), t.arg(3), t.arg(4)});
        },
        [&](auto& e) {
          auto val = e.let_binop("val", Binop::kAdd, e.arg(0),
                                 Atom::integer(bias));
          auto slot = e.let_binop("slot", Binop::kAnd, e.arg(0),
                                  Atom::integer(3));
          e.write(e.arg(2), e.v(slot), e.v(val));
          auto off = e.let_binop("off", Binop::kMul, e.v(slot),
                                 Atom::integer(8));
          e.raw_store(8, e.arg(3), e.v(off), e.v(val));
          auto parity = e.let_binop("parity", Binop::kAnd, e.arg(0),
                                    Atom::integer(1));
          auto foff0 = e.let_binop("foff0", Binop::kMul, e.v(parity),
                                   Atom::integer(8));
          auto foff = e.let_binop("foff", Binop::kAdd, e.v(foff0),
                                  Atom::integer(32));
          auto fval = e.let_unop("fval", fir::Unop::kFloatOfInt, e.v(val));
          e.raw_storef(e.arg(3), e.v(foff), e.v(fval));
          auto j1 = e.let_binop("j1", Binop::kAdd, e.arg(0),
                                Atom::integer(1));
          e.tail_call(Atom::fun_ref(id),
                      {e.v(j1), e.arg(1), e.arg(2), e.arg(3), e.arg(4)});
        });
  };
  define_spin(spin1_id, after1_id, 100);
  define_spin(spin2_id, after2_id, 1000);
  define_spin(spin3_id, abort_id, 5000);
  {
    auto fb = pb.define(after1_id, {"c", "T", "R", "c1"});
    switch (finish) {
      case SpecFinish::kCommit:
        fb.commit(fb.arg(0), Atom::fun_ref(check_id), {fb.arg(1), fb.arg(2)});
        break;
      case SpecFinish::kAbort:
        fb.abort_spec(fb.arg(0), Atom::integer(0));
        break;
      case SpecFinish::kNested:
        fb.speculate(Atom::fun_ref(inner_id),
                     {fb.arg(1), fb.arg(2), fb.arg(0)});
        break;
    }
  }
  {
    // inner(c2, T, R, c1): nested level over the same blocks.
    auto fb = pb.define(inner_id, {"c2", "T", "R", "c1"});
    fb.tail_call(Atom::fun_ref(spin2_id), {Atom::integer(0), fb.arg(0),
                                           fb.arg(1), fb.arg(2), fb.arg(3)});
  }
  {
    // Commit the inner level, then keep writing in the outer one: the
    // blocks now carry the inner epoch, newer than the outer's.
    auto fb = pb.define(after2_id, {"c2", "T", "R", "c1"});
    fb.commit(fb.arg(0), Atom::fun_ref(spin3_id),
              {Atom::integer(0), fb.arg(3), fb.arg(1), fb.arg(2), fb.arg(3)});
  }
  {
    auto fb = pb.define(abort_id, {"c", "T", "R", "c1"});
    fb.abort_spec(fb.arg(0), Atom::integer(0));
  }
  {
    auto fb = pb.define(check_id, {"T", "R"});
    Atom sum = Atom::integer(0);
    for (int k = 0; k < 4; ++k) {
      auto x = fb.let_read("x", Type::integer(), fb.arg(0), Atom::integer(k));
      auto y = fb.let_raw_load("y", 8, fb.arg(1), Atom::integer(8 * k));
      auto s1 = fb.let_binop("s1", Binop::kAdd, sum, fb.v(x));
      sum = fb.v(fb.let_binop("s2", Binop::kAdd, fb.v(s1), fb.v(y)));
    }
    for (int k = 0; k < 2; ++k) {
      auto f = fb.let_raw_loadf("f", fb.arg(1), Atom::integer(32 + 8 * k));
      auto f2 = fb.let_binop("f2", Binop::kFMul, fb.v(f), Atom::real(2.0));
      auto i = fb.let_unop("i", fir::Unop::kIntOfFloat, fb.v(f2));
      sum = fb.v(fb.let_binop("s3", Binop::kAdd, sum, fb.v(i)));
    }
    fb.halt(sum);
  }
  return pb.take("main");
}

// Checksum of the contents main writes before speculating: T = 3,3,3,3;
// R = 10..13, 0.5, 7.0 (doubled and truncated: 1 + 14).
constexpr std::int64_t kSpecStorePreSum = 4 * 3 + (10 + 11 + 12 + 13) + 15;

void expect_spec_stores(SpecFinish finish, std::int64_t want_exit,
                        std::uint64_t want_clones) {
  const TierRun n = run_tier(make_spec_stores(finish), jit_on(1));
  const TierRun i = run_tier(make_spec_stores(finish), jit_off());
  expect_tiers_agree(n, i);
  EXPECT_GE(n.compiled, 1u);
  EXPECT_EQ(n.exit_code, want_exit);
  // One clone per block per level entered, however many stores follow.
  EXPECT_EQ(n.cow_clones, want_clones);
  EXPECT_EQ(i.cow_clones, want_clones);
  EXPECT_EQ(n.blocks_preserved, want_clones);
  EXPECT_EQ(i.blocks_preserved, want_clones);
}

TEST(NativeSpecStores, CommitClonesEachBlockOnce) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // The last iterations j = 296..299 store j + 100 into T[0..3] and R's
  // four int64s; j = 298, 299 into its two doubles (doubled by check).
  const std::int64_t ints = 2 * (396 + 397 + 398 + 399);
  expect_spec_stores(SpecFinish::kCommit, ints + 2 * 398 + 2 * 399, 2);
}

TEST(NativeSpecStores, AbortRestoresContentsFromBeforeTheLevel) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  expect_spec_stores(SpecFinish::kAbort, kSpecStorePreSum, 2);
}

TEST(NativeSpecStores, NestedLevelClonesAgainAndRollsBack) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // Outer level: T and R cloned once; the nested level clones both again;
  // writes after the nested commit need no clone. The outer abort brings
  // back the contents from before the outer level.
  expect_spec_stores(SpecFinish::kNested, kSpecStorePreSum, 4);
}

// ---------------------------------------------------------------------------
// Native <-> interpreter migration round trips.
// ---------------------------------------------------------------------------

/// Counts to `total` via a hot loop, checkpointing every `interval` steps.
fir::Program make_ckpt_counter(const std::string& target, std::int64_t total,
                               std::int64_t interval) {
  ProgramBuilder pb("native_counter");
  auto main_id = pb.declare("main", {});
  auto loop_id =
      pb.declare("loop", {Type::integer(), Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(0));
    fb.tail_call(Atom::fun_ref(loop_id),
                 {Atom::integer(1), Atom::integer(total), fb.v(buf)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "total", "buf"});
    auto done = fb.let_binop("done", Binop::kGt, fb.arg(0), fb.arg(1));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          auto x = t.let_read("x", Type::integer(), t.arg(2),
                              Atom::integer(0));
          t.halt(t.v(x));
        },
        [&](auto& e) {
          auto old = e.let_read("old", Type::integer(), e.arg(2),
                                Atom::integer(0));
          auto acc = e.let_binop("acc", Binop::kAdd, e.v(old), e.arg(0));
          e.write(e.arg(2), Atom::integer(0), e.v(acc));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0),
                                Atom::integer(1));
          auto m = e.let_binop("m", Binop::kMod, e.arg(0),
                               Atom::integer(interval));
          auto hit = e.let_unop("hit", fir::Unop::kNot, e.v(m));
          e.branch(
              e.v(hit),
              [&](auto& t2) {
                auto tgt =
                    t2.let_atom("tgt", Type::ptr(), pb.str(target));
                t2.migrate(7, t2.v(tgt), Atom::fun_ref(loop_id),
                           {t2.v(i1), t2.arg(1), t2.arg(2)});
              },
              [&](auto& e2) {
                e2.tail_call(Atom::fun_ref(loop_id),
                             {e2.v(i1), e2.arg(1), e2.arg(2)});
              });
        });
  }
  return pb.take("main");
}

TEST(NativeMigrate, HotProcessCheckpointsAndResumesOnEitherTier) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  const fs::path dir = fs::temp_directory_path() / "mojave_native_ckpt";
  fs::create_directories(dir);
  const fs::path file = dir / "hot.img";
  fs::remove(file);
  constexpr std::int64_t kTotal = 500, kInterval = 64;
  constexpr std::int64_t kSum = kTotal * (kTotal + 1) / 2;

  // Run natively hot; every checkpoint is a migrate-site deopt, and the
  // packed image must be byte-compatible with pure-interpreter images.
  vm::Process p(make_ckpt_counter("checkpoint://" + file.string(), kTotal,
                                  kInterval),
                jit_on(1));
  migrate::Migrator mig(p);
  const auto result = p.run();
  EXPECT_EQ(result.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(result.exit_code, kSum);
  const native::Engine* eng = p.vm().native_engine();
  ASSERT_NE(eng, nullptr);
  EXPECT_GE(eng->compiled_functions(), 1u);
  EXPECT_GE(eng->deopt_count(native::DeoptReason::kMigrate), 1u);
  ASSERT_TRUE(fs::exists(file));

  // Resume the native-born image on a pure interpreter...
  {
    migrate::ResurrectOptions opts;
    opts.cfg = jit_off();
    opts.prepare = [](vm::Process& proc) {
      proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
    };
    auto res = migrate::resurrect_from_file(file, opts);
    EXPECT_EQ(res.run.kind, vm::RunResult::Kind::kHalted);
    EXPECT_EQ(res.run.exit_code, kSum);
  }
  // ...and again on a native tier (interpreter-born state runs native).
  {
    migrate::ResurrectOptions opts;
    opts.cfg = jit_on(1);
    opts.prepare = [](vm::Process& proc) {
      proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
    };
    auto res = migrate::resurrect_from_file(file, opts);
    EXPECT_EQ(res.run.kind, vm::RunResult::Kind::kHalted);
    EXPECT_EQ(res.run.exit_code, kSum);
  }
}

TEST(NativeMigrate, SuspendedHotLoopResumesIdenticallyOnBothTiers) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  const fs::path dir = fs::temp_directory_path() / "mojave_native_susp";
  fs::create_directories(dir);
  const fs::path file = dir / "hot.img";
  fs::remove(file);
  constexpr std::int64_t kTotal = 500, kInterval = 200;
  constexpr std::int64_t kSum = kTotal * (kTotal + 1) / 2;

  // Suspend mid-loop while the loop is native-hot: the image captures
  // state a deopt handed back, in the unchanged process-image format.
  vm::Process p(make_ckpt_counter("suspend://" + file.string(), kTotal,
                                  kInterval),
                jit_on(1));
  migrate::Migrator mig(p);
  EXPECT_EQ(p.run().kind, vm::RunResult::Kind::kMigratedAway);
  ASSERT_TRUE(fs::exists(file));
  const std::vector<std::byte> img = migrate::Migrator::read_image_file(file);

  // The same image must finish with the same sum whether the destination
  // resumes it interpreted or native (it re-suspends at each interval hit,
  // so hop until halt, re-reading the fresh image).
  for (const bool dest_jit : {false, true}) {
    std::vector<std::byte> hop_img = img;
    std::int64_t final_code = -1;
    for (int hop = 0; hop < 8; ++hop) {
      auto unpacked = migrate::unpack_process(
          hop_img, dest_jit ? jit_on(1) : jit_off());
      migrate::Migrator m(*unpacked.process);
      const auto r = unpacked.process->resume(unpacked.resume_fun,
                                              std::move(unpacked.resume_args));
      if (r.kind == vm::RunResult::Kind::kHalted) {
        final_code = r.exit_code;
        break;
      }
      hop_img = migrate::Migrator::read_image_file(file);
    }
    EXPECT_EQ(final_code, kSum) << (dest_jit ? "native" : "interpreted")
                                << " destination";
  }
}

// ---------------------------------------------------------------------------
// Lazy register reset: direct jumps leave a callee's unwritten registers
// holding the caller's values; each deopt rebuilds them from a table.
// ---------------------------------------------------------------------------

vm::Insn op(vm::Op o) {
  vm::Insn i;
  i.op = o;
  i.cls = static_cast<std::uint8_t>(vm::op_class(o));
  return i;
}

vm::Insn load_int(std::uint16_t dst, std::int64_t v) {
  vm::Insn i = op(vm::Op::kLoadInt);
  i.dst = dst;
  i.imm = v;
  return i;
}

vm::Insn load_fun(std::uint16_t dst, std::uint32_t fun) {
  vm::Insn i = op(vm::Op::kLoadFun);
  i.dst = dst;
  i.aux = fun;
  return i;
}

vm::Insn binop(Binop b, std::uint16_t dst, std::uint16_t r1, std::uint16_t r2) {
  vm::Insn i = op(vm::Op::kBinop);
  i.sub = static_cast<std::uint8_t>(b);
  i.dst = dst;
  i.r1 = r1;
  i.r2 = r2;
  return i;
}

vm::Insn jump(vm::Op o, std::uint32_t target, std::uint16_t cond = 0) {
  vm::Insn i = op(o);
  i.aux = target;
  i.r1 = cond;
  return i;
}

vm::Insn call(vm::Op o, std::uint16_t r1, std::vector<std::uint16_t> args) {
  vm::Insn i = op(o);
  i.r1 = r1;
  i.args = std::move(args);
  return i;
}

/// `dst = dump(r0 .. r(n-1))`: hands the whole register file to the host.
vm::Insn dump_all(std::uint16_t dst, std::uint16_t n) {
  vm::Insn i = op(vm::Op::kExternal);
  i.dst = dst;
  i.sub = static_cast<std::uint8_t>(runtime::Tag::kUnit);
  i.aux = 0;
  for (std::uint16_t r = 0; r < n; ++r) i.args.push_back(r);
  return i;
}

vm::CompiledFunction bytecode_fn(std::string name,
                                 std::vector<runtime::Tag> params,
                                 std::uint16_t num_regs) {
  vm::CompiledFunction f;
  f.name = std::move(name);
  f.arity = static_cast<std::uint32_t>(params.size());
  f.param_tags = std::move(params);
  f.num_regs = num_regs;
  return f;
}

enum class ForcedDeopt { kGuard, kBudget, kHelperTrap, kColdTarget, kExternal };

constexpr std::uint16_t kCallerRegs = 40;
constexpr std::uint16_t kCalleeRegs = 24;

/// Three functions:
///   0 main(i):  halt i once i >= 2; otherwise fill all 40 registers with
///               ints and floats, then direct-jump to g(-1, i).
///   1 g(m1, i): a chain of [load_int w, 100 + w; jump next] chunks over a
///               random subset of its 24 registers. The forced deopt sits
///               before write `at`: a div by m1 (guard), an alloc of m1
///               slots (helper trap), a tail call to the never-run h (cold
///               target), the dump itself (external), or nothing (budget,
///               which a tight allowance trips at that chunk). Then g dumps
///               its register file and continues with main(i + 1).
///   2 h(m1, i): halt i.
/// `written` receives g's writes before the deopt point, in order.
vm::CompiledProgram make_reset_program(ForcedDeopt kind, std::size_t at,
                                       std::uint32_t seed,
                                       std::vector<std::uint16_t>* written,
                                       std::uint32_t* deopt_pc) {
  using runtime::Tag;
  using vm::Op;
  std::mt19937 rng(seed);
  vm::CompiledProgram prog;
  prog.name = "reset";
  prog.ext_names = {"dump"};

  vm::CompiledFunction main =
      bytecode_fn("main", {Tag::kInt}, kCallerRegs);
  main.code = {load_int(1, 2), binop(Binop::kGe, 2, 0, 1),
               jump(Op::kJumpIfZero, 4, 2), call(Op::kHalt, 0, {})};
  for (std::uint16_t r = 3; r < kCallerRegs; ++r) {
    if (r % 2 == 0) {
      main.code.push_back(load_int(r, 1000 + r));
    } else {
      vm::Insn f = op(Op::kLoadFloat);
      f.dst = r;
      f.fimm = 0.5 + r;
      main.code.push_back(f);
    }
  }
  main.code.push_back(load_int(1, -1));
  main.code.push_back(load_fun(2, 1));
  main.code.push_back(call(Op::kTailCall, 2, {1, 0}));

  // Registers 2 .. kCalleeRegs-2 in random order, a random prefix of them
  // written; the last register receives the dump's unit result.
  std::vector<std::uint16_t> regs;
  for (std::uint16_t r = 2; r + 1 < kCalleeRegs; ++r) regs.push_back(r);
  std::shuffle(regs.begin(), regs.end(), rng);
  regs.resize(12);
  const std::uint16_t scratch = kCalleeRegs - 1;

  vm::CompiledFunction g =
      bytecode_fn("g", {Tag::kInt, Tag::kInt}, kCalleeRegs);
  const auto here = [&] { return static_cast<std::uint32_t>(g.code.size()); };
  for (std::size_t k = 0; k <= regs.size(); ++k) {
    if (k == at) {
      *deopt_pc = here();
      switch (kind) {
        case ForcedDeopt::kGuard:  // the native div deopts on a -1 divisor
          g.code.push_back(binop(Binop::kDiv, scratch, 1, 0));
          break;
        case ForcedDeopt::kHelperTrap: {  // alloc(-1) traps in the helper
          vm::Insn a = op(Op::kAllocTagged);
          a.dst = scratch;
          a.r1 = 0;
          a.r2 = 1;
          g.code.push_back(a);
          break;
        }
        case ForcedDeopt::kColdTarget:
          g.code.push_back(load_fun(scratch, 2));
          *deopt_pc = here();
          g.code.push_back(call(Op::kTailCall, scratch, {0, 1}));
          break;
        case ForcedDeopt::kExternal:
          g.code.push_back(dump_all(scratch, kCalleeRegs));
          break;
        case ForcedDeopt::kBudget:
          break;
      }
      if (kind == ForcedDeopt::kColdTarget) {
        written->push_back(scratch);
      }
    }
    if (k == regs.size()) break;
    if (k < at) written->push_back(regs[k]);
    g.code.push_back(load_int(regs[k], 100 + regs[k]));
    g.code.push_back(jump(Op::kJump, here() + 1));
  }
  if (kind != ForcedDeopt::kExternal) {
    g.code.push_back(dump_all(scratch, kCalleeRegs));
  }
  g.code.push_back(load_int(scratch, 1));
  g.code.push_back(binop(Binop::kAdd, scratch, 1, scratch));
  g.code.push_back(load_fun(regs[0], 0));
  g.code.push_back(call(Op::kTailCall, regs[0], {scratch}));

  vm::CompiledFunction h = bytecode_fn("h", {Tag::kInt, Tag::kInt}, 2);
  h.code = {call(Op::kHalt, 1, {})};

  prog.functions = {std::move(main), std::move(g), std::move(h)};
  for (std::uint32_t i = 0; i < prog.functions.size(); ++i) {
    prog.functions[i].fir_id = i;
  }
  return prog;
}

std::vector<std::string> render(const std::vector<runtime::Value>& regs) {
  std::vector<std::string> out;
  for (const runtime::Value& v : regs) out.push_back(v.to_string());
  return out;
}

/// Drives native::Engine directly: compiles g by running it once, then
/// enters main natively so g is reached through a direct jump, and returns
/// the interpreter frame the engine rebuilt at the deopt.
struct EngineDeopt {
  native::RunIo io;
  std::vector<runtime::Value> regs;
};

EngineDeopt run_engine_to_deopt(const vm::CompiledProgram& prog,
                                std::int64_t budget) {
  runtime::Heap heap;
  spec::SpeculationManager spec(heap);
  native::Engine engine(heap, spec, prog,
                        native::JitOptions{.enabled = true, .threshold = 1});
  const std::vector<BlockIndex> strings;
  vm::OpClassCounts counts{};
  std::uint64_t calls = 0;
  EngineDeopt out;
  const auto run = [&](FunIndex fun, std::vector<runtime::Value> regs,
                       std::int64_t allowance) {
    out.regs = std::move(regs);
    out.io = native::RunIo{};
    out.io.regs = &out.regs;
    out.io.strings = &strings;
    out.io.class_counts = counts.data();
    out.io.calls = &calls;
    out.io.budget = allowance;
    out.io.fun = fun;
    EXPECT_TRUE(engine.try_run(out.io));
  };
  std::vector<runtime::Value> g_regs(kCalleeRegs, runtime::Value::unit());
  g_regs[0] = runtime::Value::from_int(-1);
  g_regs[1] = runtime::Value::from_int(0);
  run(1, g_regs, 1 << 20);
  EXPECT_TRUE(engine.is_compiled(1));
  std::vector<runtime::Value> main_regs(kCallerRegs, runtime::Value::unit());
  main_regs[0] = runtime::Value::from_int(0);
  run(0, main_regs, budget);
  return out;
}

TEST(NativeLazyReset, DeoptAtEveryPcRebuildsTheInterpreterFrame) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  using R = native::DeoptReason;
  const std::pair<ForcedDeopt, R> kinds[] = {
      {ForcedDeopt::kGuard, R::kGuard},
      {ForcedDeopt::kBudget, R::kBudget},
      {ForcedDeopt::kHelperTrap, R::kHelperTrap},
      {ForcedDeopt::kColdTarget, R::kColdTarget},
      {ForcedDeopt::kExternal, R::kExternal}};
  for (const auto& [kind, reason] : kinds) {
    for (std::size_t at = 0; at <= 12; ++at) {
      SCOPED_TRACE("reason " + std::string(native::deopt_reason_name(reason)) +
                   ", before write " + std::to_string(at));
      std::vector<std::uint16_t> written;
      std::uint32_t pc = 0;
      const vm::CompiledProgram prog =
          make_reset_program(kind, at, 7 + static_cast<std::uint32_t>(at),
                             &written, &pc);
      // main runs every instruction but its halt (pc 3); g's chunks
      // before write `at` cost two each, so a budget deopt lands there.
      const std::size_t main_cost = prog.functions[0].code.size() - 1;
      const std::int64_t budget =
          kind == ForcedDeopt::kBudget
              ? static_cast<std::int64_t>(main_cost + 2 * at)
              : std::int64_t{1} << 20;
      const EngineDeopt d = run_engine_to_deopt(prog, budget);
      EXPECT_EQ(d.io.fun, 1u);
      EXPECT_EQ(d.io.pc, pc);
      EXPECT_EQ(d.io.reason, static_cast<std::uint32_t>(reason));
      // What a pure interpreter holds at (g, pc): the arguments, g's own
      // writes so far, unit everywhere else — never main's values.
      std::vector<runtime::Value> want(kCalleeRegs, runtime::Value::unit());
      want[0] = runtime::Value::from_int(-1);
      want[1] = runtime::Value::from_int(0);
      for (const std::uint16_t r : written) {
        want[r] = r == kCalleeRegs - 1 ? runtime::Value::from_fun(2)
                                       : runtime::Value::from_int(100 + r);
      }
      EXPECT_EQ(render(d.regs), render(want));
    }
  }
}

/// One whole run through vm::Interpreter, in slices of `slice` (0 = one
/// slice): every dumped register file, the outcome and the accounting.
struct RegRun {
  std::vector<std::vector<std::string>> dumps;
  std::string outcome;
  vm::OpClassCounts counts{};
  std::uint64_t calls = 0;

  bool operator==(const RegRun&) const = default;
};

RegRun run_regs(const vm::CompiledProgram& prog, const vm::ProcessConfig& cfg,
                std::uint64_t slice, std::uint64_t* call_deopts = nullptr) {
  vm::Process p(vm::CompiledProgram(prog), cfg, /*intern_strings=*/true);
  RegRun out;
  p.vm().register_external(
      "dump", [&](vm::Interpreter&, std::span<const runtime::Value> args) {
        out.dumps.push_back(
            render(std::vector<runtime::Value>(args.begin(), args.end())));
        return runtime::Value::unit();
      });
  try {
    p.vm().start(0, {runtime::Value::from_int(0)});
    vm::SliceResult r;
    do {
      r = p.vm().run_slice(slice);
    } while (r.status == vm::SliceResult::Status::kPreempted);
    out.outcome = "halt " + std::to_string(r.exit_code);
  } catch (const Error& e) {
    out.outcome = e.what();
  }
  out.counts = p.vm().op_class_counts();
  out.calls = p.vm().stats().calls;
  if (call_deopts != nullptr) {
    const native::Engine* eng = p.vm().native_engine();
    *call_deopts =
        eng == nullptr ? 0 : eng->deopt_count(native::DeoptReason::kCall);
  }
  return out;
}

TEST(NativeLazyReset, DeoptingRunsMatchTheInterpreterExactly) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  for (const ForcedDeopt kind :
       {ForcedDeopt::kGuard, ForcedDeopt::kBudget, ForcedDeopt::kHelperTrap,
        ForcedDeopt::kColdTarget, ForcedDeopt::kExternal}) {
    for (std::size_t at = 0; at <= 12; at += 3) {
      std::vector<std::uint16_t> written;
      std::uint32_t pc = 0;
      const vm::CompiledProgram prog = make_reset_program(
          kind, at, 11 + static_cast<std::uint32_t>(at), &written, &pc);
      // Slices of every small size put budget deopts on every chunk.
      for (const std::uint64_t slice : {0, 1, 2, 3, 5, 8, 13, 29, 47}) {
        SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)) +
                     ", at " + std::to_string(at) + ", slice " +
                     std::to_string(slice));
        const RegRun native = run_regs(prog, jit_on(1), slice);
        const RegRun interp = run_regs(prog, jit_off(), slice);
        EXPECT_EQ(native.dumps, interp.dumps);
        EXPECT_EQ(native.outcome, interp.outcome);
        EXPECT_EQ(native.counts, interp.counts);
        EXPECT_EQ(native.calls, interp.calls);
      }
    }
  }
}

/// main(i) fills its registers and jumps to g(flag); g is `body`.
vm::CompiledProgram make_eager_program(std::vector<vm::Insn> body) {
  using runtime::Tag;
  vm::CompiledProgram prog;
  prog.name = "eager";
  prog.ext_names = {"dump"};
  vm::CompiledFunction main = bytecode_fn("main", {Tag::kInt}, kCallerRegs);
  main.code = {load_int(1, 2), binop(Binop::kGe, 2, 0, 1),
               jump(vm::Op::kJumpIfZero, 4, 2), call(vm::Op::kHalt, 0, {})};
  for (std::uint16_t r = 3; r < kCallerRegs; ++r) {
    main.code.push_back(load_int(r, 1000 + r));
  }
  main.code.push_back(load_int(1, 0));
  main.code.push_back(load_fun(2, 1));
  main.code.push_back(call(vm::Op::kTailCall, 2, {1, 0}));
  vm::CompiledFunction g = bytecode_fn("g", {Tag::kInt, Tag::kInt}, 8);
  g.code = std::move(body);
  prog.functions = {std::move(main), std::move(g)};
  prog.functions[1].fir_id = 1;
  return prog;
}

TEST(NativeLazyReset, RegistersADeoptCannotRebuildAreClearedEagerly) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  using vm::Op;
  // g(flag, i): r5 = r3 reads r3 before any write; r4 is written only when
  // flag != 0, and the two paths join at the dump (a deopt point). r6 is
  // written on both paths before the join and needs no clear.
  const auto tail = [](std::vector<vm::Insn> code) {
    code.push_back(load_int(7, 1));
    code.push_back(binop(Binop::kAdd, 7, 1, 7));
    code.push_back(load_fun(2, 0));
    code.push_back(call(Op::kTailCall, 2, {7}));
    return code;
  };
  vm::Insn move = op(Op::kMove);
  move.dst = 5;
  move.r1 = 3;
  const vm::CompiledProgram prog = make_eager_program(tail({
      move,                         // 0: r5 = r3
      jump(Op::kJumpIfZero, 5, 0),  // 1: flag == 0 → 5
      load_int(4, 9),               // 2
      load_int(6, 1),               // 3
      jump(Op::kJump, 6),           // 4
      load_int(6, 2),               // 5
      dump_all(7, 8),               // 6: join, deopt point
  }));

  const native::CompileResult r = native::compile_function(prog, 1);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.eager_clears, (std::vector<std::uint16_t>{3, 4}));
  // At the join no path has written r2, r3 or r7: the deopt resets them.
  const native::DeoptResets::Bits* unwritten = r.resets.find(6);
  ASSERT_NE(unwritten, nullptr);
  EXPECT_EQ((*unwritten)[0] & 0xff, (1u << 2) | (1u << 3) | (1u << 7));

  // Through a direct jump from a caller whose registers hold 1000 + r,
  // the dump must show unit in r3, r4 (flag == 0 path) and r5, as the
  // interpreter does.
  const RegRun native = run_regs(prog, jit_on(1), 0);
  const RegRun interp = run_regs(prog, jit_off(), 0);
  ASSERT_EQ(interp.dumps.size(), 2u);
  EXPECT_EQ(interp.dumps[1][3], runtime::Value::unit().to_string());
  EXPECT_EQ(interp.dumps[1][4], runtime::Value::unit().to_string());
  EXPECT_EQ(native.dumps, interp.dumps);
  EXPECT_EQ(native.outcome, interp.outcome);
  EXPECT_EQ(native.counts, interp.counts);
}

TEST(NativeLazyReset, FrontendCpsBlocksNeedNoEagerClears) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // Code lowered from the FIR binds every variable before its uses and has
  // no control-flow joins, so no jump entry zeroes anything — for the
  // heat program as the frontend emits it, and after block inlining.
  gridapp::HeatConfig cfg;
  cfg.nodes = 2;
  cfg.checkpoint_interval = 5;
  for (const bool inlined : {false, true}) {
    fir::Program program = frontend::compile_source(
        "heat", gridapp::heat_mojc_source(cfg));
    if (inlined) {
      (void)fir::inline_once(
          program, fir::InlineLimits{native::kMaxRegs, native::kMaxCode});
      (void)fir::optimize(program);
    }
    vm::Process p(std::move(program), jit_off());
    const vm::CompiledProgram& compiled = p.vm().compiled();
    bool saw_then6 = false;
    for (FunIndex f = 0; f < compiled.functions.size(); ++f) {
      SCOPED_TRACE(compiled.functions[f].name);
      const native::CompileResult r = native::compile_function(compiled, f);
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_TRUE(r.eager_clears.empty());
      saw_then6 = saw_then6 || compiled.functions[f].name == "compute$then6";
    }
    EXPECT_EQ(saw_then6, !inlined);  // then6 merges into compute$loop3
  }
}

// ---------------------------------------------------------------------------
// Direct-jump argument moves: only the positions whose source register is
// not already the destination move, with no arity cliff.
// ---------------------------------------------------------------------------

enum class MoveShape { kSwap, kRotate, kAllButOne };

/// fun(p0 .. p(n-2), cnt) with n int parameters: cnt' = cnt - 1; at zero
/// it dumps p0 .. p(n-1) and halts with p0, otherwise it tail-calls
/// `target` with cnt' last and the other parameters permuted by `shape`:
/// p0 and p1 swapped, p0 <- p1 <- p2 <- p0 rotated (in both, each moved
/// register is another move's destination), or all kept in place.
vm::CompiledFunction move_fn(std::string name, std::uint16_t n,
                             MoveShape shape, std::uint32_t target) {
  using vm::Op;
  const std::uint16_t cnt = n - 1;
  const std::uint16_t one = n;
  const std::uint16_t next = n + 1;
  const std::uint16_t fun = n + 2;
  vm::CompiledFunction f = bytecode_fn(
      std::move(name), std::vector<runtime::Tag>(n, runtime::Tag::kInt),
      static_cast<std::uint16_t>(n + 3));
  std::vector<std::uint16_t> args(n);
  for (std::uint16_t i = 0; i < n; ++i) args[i] = i;
  switch (shape) {
    case MoveShape::kSwap: std::swap(args[0], args[1]); break;
    case MoveShape::kRotate:
      args[0] = 1;
      args[1] = 2;
      args[2] = 0;
      break;
    case MoveShape::kAllButOne: break;
  }
  args[cnt] = next;  // n >= 4: the counter is never a permuted position
  f.code = {load_int(one, 1),                    // 0
            binop(Binop::kSub, next, cnt, one),  // 1
            jump(Op::kJumpIfZero, 5, next),      // 2: cnt' == 0 → 5
            load_fun(fun, target),               // 3
            call(Op::kTailCall, fun, args),      // 4
            dump_all(fun, n),                    // 5
            call(Op::kHalt, 0, {})};             // 6
  return f;
}

/// main loads p_i = 1000 + 7i and cnt = 37, then enters f; f and g jump
/// to each other with shapes `a` and `b`.
vm::CompiledProgram make_move_program(std::uint16_t n, MoveShape a,
                                      MoveShape b) {
  using vm::Op;
  vm::CompiledProgram prog;
  prog.name = "moves";
  prog.ext_names = {"dump"};
  vm::CompiledFunction main = bytecode_fn("main", {runtime::Tag::kInt},
                                          static_cast<std::uint16_t>(n + 1));
  for (std::uint16_t i = 0; i + 1 < n; ++i) {
    main.code.push_back(load_int(i, 1000 + 7 * i));
  }
  main.code.push_back(load_int(n - 1, 37));
  main.code.push_back(load_fun(n, 1));
  std::vector<std::uint16_t> args(n);
  for (std::uint16_t i = 0; i < n; ++i) args[i] = i;
  main.code.push_back(call(Op::kTailCall, n, args));
  prog.functions = {std::move(main), move_fn("f", n, a, 2),
                    move_fn("g", n, b, 1)};
  for (std::uint32_t i = 0; i < prog.functions.size(); ++i) {
    prog.functions[i].fir_id = i;
  }
  return prog;
}

TEST(NativeParallelMove, PartialMovesMatchTheInterpreter) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  using S = MoveShape;
  const std::pair<S, S> pairs[] = {{S::kSwap, S::kAllButOne},
                                   {S::kRotate, S::kSwap},
                                   {S::kRotate, S::kAllButOne},
                                   {S::kAllButOne, S::kAllButOne}};
  // 40 parameters is past the old 32-argument direct-jump limit.
  for (const std::uint16_t n : {4, 9, 40}) {
    for (const auto& [a, b] : pairs) {
      for (const std::uint64_t slice : {0, 7}) {
        SCOPED_TRACE("n " + std::to_string(n) + ", shapes " +
                     std::to_string(static_cast<int>(a)) + "/" +
                     std::to_string(static_cast<int>(b)) + ", slice " +
                     std::to_string(slice));
        const vm::CompiledProgram prog = make_move_program(n, a, b);
        // A wrong move can lose the counter; the fuse turns that into a
        // failed comparison instead of a hang.
        vm::ProcessConfig on = jit_on(1);
        vm::ProcessConfig off = jit_off();
        on.max_instructions = off.max_instructions = 100'000;
        std::uint64_t call_deopts = 1;
        const RegRun native = run_regs(prog, on, slice, &call_deopts);
        const RegRun interp = run_regs(prog, off, slice);
        ASSERT_EQ(interp.dumps.size(), 1u);
        EXPECT_EQ(native.dumps, interp.dumps);
        EXPECT_EQ(native.outcome, interp.outcome);
        EXPECT_EQ(native.counts, interp.counts);
        EXPECT_EQ(native.calls, interp.calls);
        EXPECT_EQ(call_deopts, 0u);  // every f <-> g jump was direct
      }
    }
  }
}

TEST(NativeParallelMove, LoopWithFortyLocalsStaysNative) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // Every local is a parameter of the loop's CPS blocks, so each jump
  // passes 40+ arguments; none may fall back to the interpreter.
  std::string src = "int main() {\n";
  for (int i = 0; i < 40; ++i) {
    src += "  int a" + std::to_string(i) + " = " + std::to_string(i) + ";\n";
  }
  src += "  int i = 0;\n  while (i < 3000) {\n";
  for (int i = 0; i < 40; i += 3) {
    src += "    a" + std::to_string(i) + " = a" + std::to_string(i) + " + a" +
           std::to_string((i + 7) % 40) + " + i;\n";
  }
  src += "    i = i + 1;\n  }\n  int s = 0;\n";
  for (int i = 0; i < 40; ++i) {
    src += "  s = (s * 3) ^ a" + std::to_string(i) + ";\n";
  }
  src += "  exit(s & 65535);\n}\n";
  for (const bool optimized : {false, true}) {
    SCOPED_TRACE(optimized ? "optimized" : "as emitted");
    fir::Program program = frontend::compile_source("forty", src);
    if (optimized) {
      (void)fir::inline_once(
          program, fir::InlineLimits{native::kMaxRegs, native::kMaxCode});
      (void)fir::optimize(program);
    }
    vm::ProcessConfig on = jit_on(1);
    vm::ProcessConfig off = jit_off();
    on.max_instructions = off.max_instructions = 50'000'000;
    vm::Process interp(fir::clone_program(program), off);
    vm::Process native(std::move(program), on);
    const auto want = interp.run();
    const auto got = native.run();
    ASSERT_EQ(want.kind, vm::RunResult::Kind::kHalted);
    EXPECT_EQ(got.kind, want.kind);
    EXPECT_EQ(got.exit_code, want.exit_code);
    const native::Engine* eng = native.vm().native_engine();
    ASSERT_NE(eng, nullptr);
    EXPECT_EQ(eng->deopt_count(native::DeoptReason::kCall), 0u);
    EXPECT_EQ(native.vm().stats().instructions,
              interp.vm().stats().instructions);
  }
}

// ---------------------------------------------------------------------------
// Register cache: inside a chunk, values live in machine registers and the
// frame is written back only at chunk ends, in deopt stubs and before
// helper calls. Every deopt must still rebuild the interpreter's frame.
// ---------------------------------------------------------------------------

constexpr std::uint16_t kKernelRegs = 40;
constexpr std::uint16_t kKernelScratch = kKernelRegs - 1;
constexpr std::uint16_t kKernelMainRegs = 48;

vm::Insn load_float(std::uint16_t dst, double v) {
  vm::Insn i = op(vm::Op::kLoadFloat);
  i.dst = dst;
  i.fimm = v;
  return i;
}

vm::Insn unop(fir::Unop u, std::uint16_t dst, std::uint16_t r1) {
  vm::Insn i = op(vm::Op::kUnop);
  i.sub = static_cast<std::uint8_t>(u);
  i.dst = dst;
  i.r1 = r1;
  return i;
}

vm::Insn read_slot(runtime::Tag t, std::uint16_t dst, std::uint16_t p,
                   std::uint16_t off) {
  vm::Insn i = op(vm::Op::kRead);
  i.sub = static_cast<std::uint8_t>(t);
  i.dst = dst;
  i.r1 = p;
  i.r2 = off;
  return i;
}

vm::Insn write_slot(std::uint16_t p, std::uint16_t off, std::uint16_t v) {
  vm::Insn i = op(vm::Op::kWrite);
  i.r1 = p;
  i.r2 = off;
  i.r3 = v;
  return i;
}

vm::Insn alloc_tagged(std::uint16_t dst, std::uint16_t n, std::uint16_t init) {
  vm::Insn i = op(vm::Op::kAllocTagged);
  i.dst = dst;
  i.r1 = n;
  i.r2 = init;
  return i;
}

/// The straight-line body of k(m1, i, p): constants used as operands,
/// more live integer temporaries than the cache has GPRs, float
/// temporaries, and reads and a store through the one pointer p.
std::vector<vm::Insn> kernel_body() {
  using runtime::Tag;
  std::vector<vm::Insn> k = {
      load_int(3, 1),                             // c1
      load_int(4, 2),                             // c2
      read_slot(Tag::kFloat, 5, 2, 4),            // f0 = p[2]
      load_int(6, 3),                             // c3
      read_slot(Tag::kFloat, 7, 2, 6),            // f1 = p[3]
      binop(Binop::kFAdd, 8, 5, 7),               // f2
      load_float(9, 0.25),                        // k
      binop(Binop::kFMul, 10, 9, 8),              // f3 = k * f2
      binop(Binop::kAdd, 11, 1, 3),               // a0 = i + 1
  };
  // a1 .. a14: a chain that keeps every temporary alive to the end.
  static const Binop kChain[] = {Binop::kMul, Binop::kAdd, Binop::kXor,
                                 Binop::kSub, Binop::kOr,  Binop::kShl,
                                 Binop::kAnd, Binop::kShr, Binop::kLt};
  for (std::uint16_t j = 0; j < 14; ++j) {
    const std::uint16_t dst = 12 + j;
    const std::uint16_t rhs = j % 3 == 0 ? 3 : (j % 3 == 1 ? 11 : dst - 1);
    k.push_back(binop(kChain[j % std::size(kChain)], dst, dst - 1, rhs));
  }
  const std::vector<vm::Insn> tail = {
      write_slot(2, 3, 10),                       // p[1] = f3
      read_slot(Tag::kFloat, 26, 2, 3),           // f4 = p[1]
      unop(fir::Unop::kFloatOfInt, 27, 25),       // f5
      binop(Binop::kFAdd, 28, 27, 26),            // f6
      read_slot(Tag::kFloat, 29, 2, 4),           // f7 = p[2] again
      binop(Binop::kFSub, 30, 28, 29),            // f8
      unop(fir::Unop::kIntOfFloat, 31, 30),       // a15
      binop(Binop::kAdd, 32, 31, 12),             // a16 = a15 + a1
      unop(fir::Unop::kNeg, 33, 32),              // a17
      binop(Binop::kDiv, 34, 33, 6),              // a18 = a17 / 3
      binop(Binop::kFLt, 35, 29, 28),             // float compare
      binop(Binop::kEq, 36, 34, 33),              // int compare
  };
  k.insert(k.end(), tail.begin(), tail.end());
  return k;
}

enum class ChunkEnd { kDirectJump, kFallThrough };

/// The forced deopt spliced in at one pc of the kernel chunk (kExternal:
/// a `dump` of the register file).
enum class Force { kGuard, kHelperTrap, kColdTarget, kExternal, kNone };

/// Four functions:
///   0 main(i):     halt i once i >= 3; otherwise allocate p (8 float
///                  slots 0.5 + k), fill every other register with junk,
///                  and jump directly to k(-1, i, p).
///   1 k(m1, i, p): the kernel chunk ending per `end`, with `force`
///                  spliced in before kernel position `at`; afterwards
///                  (fall-through only) it dumps its register file. Then
///                  again(m1, i + 1).
///   2 h(m1, i):    halt i (never compiled: a jump to it is cold).
///   3 again(m1, i): main(i).
/// `deopt_pc` receives the pc in k where the forced deopt sits.
vm::CompiledProgram make_kernel_program(ChunkEnd end, Force force,
                                        std::size_t at,
                                        std::uint32_t* deopt_pc) {
  using runtime::Tag;
  using vm::Op;
  vm::CompiledProgram prog;
  prog.name = "kernel";
  prog.ext_names = {"dump"};

  vm::CompiledFunction main = bytecode_fn("main", {Tag::kInt}, kKernelMainRegs);
  main.code = {load_int(1, 3), binop(Binop::kGe, 2, 0, 1),
               jump(Op::kJumpIfZero, 4, 2), call(Op::kHalt, 0, {}),
               load_int(1, 8), load_float(3, 1.5), alloc_tagged(4, 1, 3)};
  for (std::int64_t s = 0; s < 8; ++s) {
    main.code.push_back(load_int(5, s));
    main.code.push_back(load_float(6, 0.5 + static_cast<double>(s)));
    main.code.push_back(write_slot(4, 5, 6));
  }
  for (std::uint16_t r = 5; r < kKernelMainRegs; ++r) {
    main.code.push_back(r % 2 == 0 ? load_int(r, 7000 + r)
                                   : load_float(r, 0.125 + r));
  }
  main.code.push_back(load_int(1, -1));
  main.code.push_back(load_fun(2, 1));
  vm::Insn enter = call(Op::kTailCall, 2, {1, 0, 4});
  main.code.push_back(enter);

  vm::CompiledFunction k =
      bytecode_fn("k", {Tag::kInt, Tag::kInt, Tag::kPtr}, kKernelRegs);
  const std::vector<vm::Insn> body = kernel_body();
  // The fall-through shape opens with a branch on m1 (never taken) to the
  // instruction after the kernel, which makes that a chunk start.
  if (end == ChunkEnd::kFallThrough) k.code.push_back(vm::Insn{});
  const std::uint16_t s = kKernelScratch;
  // i + 1 replaces i in place: a dirty identity position of the jump.
  std::vector<vm::Insn> next = {load_int(37, 1), binop(Binop::kAdd, 1, 1, 37),
                                load_fun(s, 3), call(Op::kTailCall, s, {0, 1})};
  std::vector<vm::Insn> chunk = body;
  if (end == ChunkEnd::kDirectJump) {
    // Positions past the body are the direct jump's own instructions.
    chunk.insert(chunk.end(), next.begin(), next.end());
  }
  for (std::size_t j = 0; j <= chunk.size(); ++j) {
    if (j == at) {
      *deopt_pc = static_cast<std::uint32_t>(k.code.size());
      switch (force) {
        case Force::kGuard:  // the native div deopts on a -1 divisor
          k.code.push_back(binop(Binop::kDiv, s, 1, 0));
          break;
        case Force::kHelperTrap:  // alloc(-1) traps in the helper
          k.code.push_back(alloc_tagged(s, 0, 0));
          break;
        case Force::kColdTarget:
          k.code.push_back(load_fun(s, 2));
          *deopt_pc = static_cast<std::uint32_t>(k.code.size());
          k.code.push_back(call(Op::kTailCall, s, {0, 1}));
          break;
        case Force::kExternal:
          k.code.push_back(dump_all(s, kKernelRegs));
          break;
        case Force::kNone:
          break;
      }
    }
    if (j < chunk.size()) k.code.push_back(chunk[j]);
  }
  if (end == ChunkEnd::kFallThrough) {
    k.code[0] =
        jump(Op::kJumpIfZero, static_cast<std::uint32_t>(k.code.size()), 0);
    k.code.push_back(dump_all(s, kKernelRegs));
    k.code.insert(k.code.end(), next.begin(), next.end());
  }

  vm::CompiledFunction h = bytecode_fn("h", {Tag::kInt, Tag::kInt}, 2);
  h.code = {call(Op::kHalt, 1, {})};
  vm::CompiledFunction again = bytecode_fn("again", {Tag::kInt, Tag::kInt}, 3);
  again.code = {load_fun(2, 0), call(Op::kTailCall, 2, {1})};

  prog.functions = {std::move(main), std::move(k), std::move(h),
                    std::move(again)};
  for (std::uint32_t i = 0; i < prog.functions.size(); ++i) {
    prog.functions[i].fir_id = i;
  }
  return prog;
}

/// The interpreter's frame, accounting and call count at the first `dump`
/// of a pure interpreter run (the dump itself not yet retired).
struct DumpPoint {
  std::vector<std::string> regs;
  vm::OpClassCounts counts{};
  std::uint64_t calls = 0;
};

DumpPoint interpreter_at_first_dump(const vm::CompiledProgram& prog) {
  vm::Process p(vm::CompiledProgram(prog), jit_off(), /*intern_strings=*/true);
  DumpPoint out;
  bool seen = false;
  p.vm().register_external(
      "dump", [&](vm::Interpreter& it, std::span<const runtime::Value> args) {
        if (!seen) {
          seen = true;
          out.regs =
              render(std::vector<runtime::Value>(args.begin(), args.end()));
          out.counts = it.op_class_counts();
          --out.counts[static_cast<std::size_t>(vm::OpClass::kExternal)];
          out.calls = it.stats().calls;
        }
        return runtime::Value::unit();
      });
  p.vm().start(0, {runtime::Value::from_int(0)});
  try {
    vm::SliceResult r;
    do {
      r = p.vm().run_slice(0);
    } while (r.status == vm::SliceResult::Status::kPreempted);
  } catch (const Error&) {
    // The dump's unit result may break what follows it; only the first
    // dump matters.
  }
  EXPECT_TRUE(seen);
  return out;
}

/// Drives native::Engine directly: compiles k (a first run that deopts on
/// its null pointer), then enters main natively, so k is reached through
/// a direct jump from a caller whose registers all hold junk. Returns the
/// frame the engine rebuilt at k's deopt and the native accounting.
struct NativeDeopt {
  native::RunIo io;
  std::vector<runtime::Value> regs;
  vm::OpClassCounts counts{};
  std::uint64_t calls = 0;
};

NativeDeopt native_to_deopt(const vm::CompiledProgram& prog) {
  runtime::Heap heap;
  spec::SpeculationManager spec(heap);
  native::Engine engine(heap, spec, prog,
                        native::JitOptions{.enabled = true, .threshold = 1});
  const std::vector<BlockIndex> strings;
  NativeDeopt out;
  const auto run = [&](FunIndex fun, std::vector<runtime::Value> regs) {
    out.regs = std::move(regs);
    out.counts = {};
    out.calls = 0;
    out.io = native::RunIo{};
    out.io.regs = &out.regs;
    out.io.strings = &strings;
    out.io.class_counts = out.counts.data();
    out.io.calls = &out.calls;
    out.io.budget = 1 << 20;
    out.io.fun = fun;
    EXPECT_TRUE(engine.try_run(out.io));
  };
  std::vector<runtime::Value> k_regs(kKernelRegs, runtime::Value::unit());
  k_regs[0] = runtime::Value::from_int(-1);
  k_regs[1] = runtime::Value::from_int(0);
  k_regs[2] = runtime::Value::from_ptr(kNullIndex, 0);
  run(1, k_regs);
  EXPECT_TRUE(engine.is_compiled(1));
  std::vector<runtime::Value> main_regs(kKernelMainRegs,
                                        runtime::Value::unit());
  main_regs[0] = runtime::Value::from_int(0);
  run(0, main_regs);
  return out;
}

TEST(NativeRegCache, DeoptAtEveryPcRebuildsTheInterpreterFrame) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  using R = native::DeoptReason;
  const std::pair<Force, R> kinds[] = {{Force::kGuard, R::kGuard},
                                       {Force::kHelperTrap, R::kHelperTrap},
                                       {Force::kColdTarget, R::kColdTarget},
                                       {Force::kExternal, R::kExternal}};
  const std::size_t body = kernel_body().size();
  for (const ChunkEnd end : {ChunkEnd::kDirectJump, ChunkEnd::kFallThrough}) {
    // The direct-jump chunk also ends in its four jump instructions.
    const std::size_t last = end == ChunkEnd::kDirectJump ? body + 3 : body;
    for (const auto& [force, reason] : kinds) {
      for (std::size_t at = 0; at <= last; ++at) {
        SCOPED_TRACE(std::string(end == ChunkEnd::kDirectJump
                                     ? "direct jump"
                                     : "fall through") +
                     ", reason " + native::deopt_reason_name(reason) +
                     ", before kernel position " + std::to_string(at));
        std::uint32_t pc = 0;
        std::uint32_t dump_pc = 0;
        const vm::CompiledProgram forced =
            make_kernel_program(end, force, at, &pc);
        // The reference: the same prefix with a dump at the deopt pc (for
        // a cold target, in place of the tail call after the ldfn).
        vm::CompiledProgram reference =
            make_kernel_program(end, force, at, &dump_pc);
        reference.functions[1].code[pc] = dump_all(kKernelScratch, kKernelRegs);

        const NativeDeopt n = native_to_deopt(forced);
        const DumpPoint want = interpreter_at_first_dump(reference);
        EXPECT_EQ(n.io.fun, 1u);
        EXPECT_EQ(n.io.pc, pc);
        EXPECT_EQ(n.io.reason, static_cast<std::uint32_t>(reason));
        EXPECT_EQ(render(n.regs), want.regs);
        EXPECT_EQ(n.counts, want.counts);
        // The interpreter also counts its own entry into main.
        EXPECT_EQ(n.calls + 1, want.calls);
      }
    }
  }
}

TEST(NativeRegCache, SlicedRunsMatchTheInterpreterExactly) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // Small slices put a budget deopt at every chunk start; the forced
  // guard and helper trap re-execute in the interpreter.
  for (const ChunkEnd end : {ChunkEnd::kDirectJump, ChunkEnd::kFallThrough}) {
    for (const Force force :
         {Force::kNone, Force::kGuard, Force::kHelperTrap}) {
      for (const std::size_t at : {std::size_t{0}, std::size_t{9},
                                   std::size_t{22}, std::size_t{30}}) {
        std::uint32_t pc = 0;
        const vm::CompiledProgram prog =
            make_kernel_program(end, force, at, &pc);
        // A lost argument would loop forever; the fuse turns that into a
        // failed comparison.
        vm::ProcessConfig on = jit_on(1);
        vm::ProcessConfig off = jit_off();
        on.max_instructions = off.max_instructions = 100'000;
        for (const std::uint64_t slice : {0, 1, 2, 3, 5, 8, 13, 29, 47}) {
          SCOPED_TRACE("end " + std::to_string(static_cast<int>(end)) +
                       ", force " + std::to_string(static_cast<int>(force)) +
                       ", at " + std::to_string(at) + ", slice " +
                       std::to_string(slice));
          const RegRun native = run_regs(prog, on, slice);
          const RegRun interp = run_regs(prog, off, slice);
          EXPECT_EQ(native.dumps, interp.dumps);
          EXPECT_EQ(native.outcome, interp.outcome);
          EXPECT_EQ(native.counts, interp.counts);
          EXPECT_EQ(native.calls, interp.calls);
        }
      }
    }
  }
}

/// main allocates P = [10, 20, 30, 40] and speculates. Inside the level a
/// hot loop reads P[1], allocates a 64-slot block (a small heap makes that
/// helper collect, moving P), reads P[1] again through the same pointer
/// register, stores P[1] and P[2] (the level's first store to P clones it
/// in the helper and redirects P to the clone), reads P[2] back, and folds
/// the reads into an accumulator it prints at the end. Then the level
/// aborts and the re-entry halts with a checksum of P, which must be the
/// pre-level one.
fir::Program make_safepoint_program(std::int64_t iters) {
  ProgramBuilder pb("safepoint");
  auto main_id = pb.declare("main", {});
  auto body_id = pb.declare("body", {Type::integer(), Type::ptr()});
  auto loop_id = pb.declare("loop", {Type::integer(), Type::integer(),
                                     Type::ptr(), Type::integer()});
  {
    auto fb = pb.define(main_id, {});
    auto p = fb.let_alloc("P", Atom::integer(4), Atom::integer(0));
    for (int k = 0; k < 4; ++k) {
      fb.write(fb.v(p), Atom::integer(k), Atom::integer(10 * (k + 1)));
    }
    fb.speculate(Atom::fun_ref(body_id), {fb.v(p)});
  }
  {
    auto fb = pb.define(body_id, {"c", "P"});
    auto live = fb.let_binop("live", Binop::kGt, fb.arg(0), Atom::integer(0));
    fb.branch(
        fb.v(live),
        [&](auto& t) {
          t.tail_call(Atom::fun_ref(loop_id),
                      {Atom::integer(0), Atom::integer(0), t.arg(1), t.arg(0)});
        },
        [&](auto& e) {
          Atom sum = Atom::integer(0);
          for (int k = 0; k < 4; ++k) {
            auto x = e.let_read("x", Type::integer(), e.arg(1),
                                Atom::integer(k));
            auto m = e.let_binop("m", Binop::kMul, sum, Atom::integer(100));
            sum = e.v(e.let_binop("s", Binop::kAdd, e.v(m), e.v(x)));
          }
          e.halt(sum);
        });
  }
  {
    auto fb = pb.define(loop_id, {"i", "acc", "P", "c"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0),
                             Atom::integer(iters));
    fb.branch(
        fb.v(done),
        [&](auto& t) {
          (void)t.let_external("u", Type::unit(), "print_int", {t.arg(1)});
          t.abort_spec(t.arg(3), Atom::integer(0));
        },
        [&](auto& e) {
          auto x = e.let_read("x", Type::integer(), e.arg(2), Atom::integer(1));
          auto q = e.let_alloc("q", Atom::integer(64), Atom::integer(3));
          auto y = e.let_read("y", Type::integer(), e.arg(2), Atom::integer(1));
          auto z = e.let_read("z", Type::integer(), e.v(q), Atom::integer(5));
          auto y1 = e.let_binop("y1", Binop::kAdd, e.v(y), Atom::integer(1));
          e.write(e.arg(2), Atom::integer(1), e.v(y1));
          auto y2 = e.let_binop("y2", Binop::kAdd, e.v(y), e.v(z));
          e.write(e.arg(2), Atom::integer(2), e.v(y2));
          auto w = e.let_read("w", Type::integer(), e.arg(2), Atom::integer(2));
          auto a1 = e.let_binop("a1", Binop::kAdd, e.arg(1), e.v(x));
          auto a2 = e.let_binop("a2", Binop::kAdd, e.v(a1), e.v(w));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          e.tail_call(Atom::fun_ref(loop_id),
                      {e.v(i1), e.v(a2), e.arg(2), e.arg(3)});
        });
  }
  return pb.take("main");
}

TEST(NativeRegCache, HelperCallsAreSafepointsForCachedPointers) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  constexpr std::int64_t kIters = 400;
  struct Outcome {
    TierRun run;
    std::string printed;
    std::uint64_t collections = 0;
    std::uint64_t bytes_evacuated = 0;
  };
  // One space of 32 KB, every collection a full compacting cycle: the
  // 1 KB block each iteration allocates forces one every few dozen
  // iterations, and it moves every live block.
  const auto small_heap = [](vm::ProcessConfig& cfg) {
    cfg.heap.generational = false;
    cfg.heap.old_capacity = 32 * 1024;
  };
  const auto run = [&](vm::ProcessConfig cfg) {
    std::ostringstream printed;
    cfg.output = &printed;
    small_heap(cfg);
    Outcome o;
    o.run = run_tier(make_safepoint_program(kIters), cfg);
    o.printed = printed.str();
    return o;
  };
  // run_tier owns its Process; a second run reads the GC statistics.
  const auto gc_of = [&](vm::ProcessConfig cfg, Outcome& o) {
    small_heap(cfg);
    std::ostringstream sink;
    cfg.output = &sink;
    vm::Process p(make_safepoint_program(kIters), cfg);
    (void)p.run();
    const runtime::GcStats& gc = p.heap().stats().gc;
    o.collections = gc.minor_collections + gc.major_collections;
    o.bytes_evacuated = gc.bytes_evacuated;
  };
  Outcome native = run(jit_on(1));
  Outcome interp = run(jit_off());
  gc_of(jit_on(1), native);
  gc_of(jit_off(), interp);

  expect_tiers_agree(native.run, interp.run);
  EXPECT_GE(native.run.compiled, 1u);
  // Every iteration reads x (= y), stores x + 1 and x + 3, and reads the
  // latter back: the accumulator is sum(2x + 3) over x = 20 .. 20 + kIters - 1.
  std::int64_t want = 0;
  for (std::int64_t x = 20; x < 20 + kIters; ++x) want += 2 * x + 3;
  EXPECT_EQ(native.printed, std::to_string(want));
  EXPECT_EQ(interp.printed, native.printed);
  // The abort brings back the contents from before the level.
  EXPECT_EQ(native.run.exit_code, 10203040);
  EXPECT_EQ(interp.run.exit_code, 10203040);
  // The level's first store to P cloned it; the collector ran inside the
  // allocation helper and moved blocks while compiled code held P.
  EXPECT_GE(native.run.cow_clones, 1u);
  EXPECT_EQ(native.run.cow_clones, interp.run.cow_clones);
  EXPECT_GT(native.collections, 5u);
  EXPECT_GT(native.bytes_evacuated, 0u);
}

TEST(NativeRegCache, LongRunsRefillTheBudgetWindowExactly) {
  if (!native::jit_supported()) GTEST_SKIP() << "native tier unsupported";
  // About 6.3 M instructions in one native run: the budget window (1 M)
  // is refilled several times and the packed counters flushed each time.
  const std::int64_t n = 1'000'000;
  const TierRun native = run_tier(make_sum_loop(n), jit_on(1));
  const TierRun interp = run_tier(make_sum_loop(n), jit_off());
  expect_tiers_agree(native, interp);
  EXPECT_EQ(native.exit_code, n * (n - 1) / 2);
  EXPECT_GT(native.instructions, std::uint64_t{3} << 20);
  // A fuse several windows in lands on the same instruction.
  for (const std::uint64_t fuse :
       {std::uint64_t{1} << 20, std::uint64_t{3'500'001}}) {
    vm::OpClassCounts counts[2]{};
    for (const bool jit : {true, false}) {
      vm::ProcessConfig cfg = jit ? jit_on(1) : jit_off();
      cfg.max_instructions = fuse;
      vm::Process p(make_sum_loop(n), cfg);
      EXPECT_THROW((void)p.run(), Error);
      counts[jit ? 0 : 1] = p.vm().op_class_counts();
    }
    EXPECT_EQ(counts[0], counts[1]) << "fuse " << fuse;
  }
}

// ---------------------------------------------------------------------------
// FIR legalization (the canonicalization pass the native tier relies on).
// ---------------------------------------------------------------------------

TEST(Legalize, CanonicalizesConstLeftOperands) {
  ProgramBuilder pb("leg");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto v = fb.let_atom("v", Type::integer(), Atom::integer(9));
    // Commutative: swapped. Compare: mirrored. Sub: must stay put (there
    // is no mirror for it).
    auto a = fb.let_binop("a", Binop::kAdd, Atom::integer(1), fb.v(v));
    auto c = fb.let_binop("c", Binop::kLt, Atom::integer(3), fb.v(v));
    auto s = fb.let_binop("s", Binop::kSub, Atom::integer(10), fb.v(v));
    auto t1 = fb.let_binop("t1", Binop::kAdd, fb.v(a), fb.v(c));
    auto t2 = fb.let_binop("t2", Binop::kAdd, fb.v(t1), fb.v(s));
    fb.halt(fb.v(t2));
  }
  fir::Program prog = pb.take("main");
  EXPECT_EQ(fir::legalize(prog), 2u);  // a and c rewritten, s untouched
  EXPECT_EQ(fir::legalize(prog), 0u);  // idempotent
  // (1+9) + (3<9) + (10-9) = 10 + 1 + 1
  vm::Process p(std::move(prog));
  EXPECT_EQ(p.run().exit_code, 12);
}

TEST(Legalize, MirroredComparesPreserveSemantics) {
  auto eval = [](Binop op, std::int64_t lhs_const, std::int64_t rhs_var) {
    ProgramBuilder pb("mirror");
    auto main_id = pb.declare("main", {});
    {
      auto fb = pb.define(main_id, {});
      auto v = fb.let_atom("v", Type::integer(), Atom::integer(rhs_var));
      auto c = fb.let_binop("c", op, Atom::integer(lhs_const), fb.v(v));
      fb.halt(fb.v(c));
    }
    vm::Process p(pb.take("main"));  // Process ctor legalizes
    return p.run().exit_code;
  };
  for (std::int64_t k : {-3, 4, 5, 6}) {
    EXPECT_EQ(eval(Binop::kLt, 5, k), 5 < k ? 1 : 0);
    EXPECT_EQ(eval(Binop::kLe, 5, k), 5 <= k ? 1 : 0);
    EXPECT_EQ(eval(Binop::kGt, 5, k), 5 > k ? 1 : 0);
    EXPECT_EQ(eval(Binop::kGe, 5, k), 5 >= k ? 1 : 0);
  }
}

}  // namespace
