// Optimizer tests: each pass individually, re-typechecking after
// optimization, and the equivalence property — an optimized program must
// behave identically to the original, on hand-written MojC programs and
// on randomized builder programs alike.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <span>
#include <sstream>
#include <tuple>

#include "core/engine.hpp"
#include "fir/builder.hpp"
#include "fir/optimize.hpp"
#include "fir/printer.hpp"
#include "fir/typecheck.hpp"
#include "frontend/compile.hpp"
#include "migrate/image.hpp"
#include "migrate/migrator.hpp"
#include "obs/metrics.hpp"
#include "support/rng.hpp"
#include "vm/lowering.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
namespace fs = std::filesystem;
using fir::Atom;
using fir::Binop;
using fir::Program;
using fir::ProgramBuilder;
using fir::Type;
using fir::Unop;

std::size_t count_exprs(const fir::Expr* e) {
  std::size_t n = 0;
  for (; e != nullptr; e = e->next.get()) {
    ++n;
    if (e->kind == fir::ExprKind::kIf) return n + count_exprs(e->els.get()) +
                                              count_exprs(e->next.get()) - 1;
  }
  return n;
}

std::size_t program_size(const Program& p) {
  std::size_t n = 0;
  for (const auto& fn : p.functions) n += count_exprs(fn.body.get());
  return n;
}

TEST(Optimize, FoldsConstantArithmetic) {
  ProgramBuilder pb("fold");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto a = fb.let_binop("a", Binop::kAdd, Atom::integer(2), Atom::integer(3));
    auto b = fb.let_binop("b", Binop::kMul, fb.v(a), Atom::integer(4));
    auto c = fb.let_unop("c", Unop::kNeg, fb.v(b));
    fb.halt(fb.v(c));
  }
  Program p = pb.take("main");
  const auto stats = fir::optimize(p);
  EXPECT_GE(stats.constants_folded, 3u);
  fir::typecheck(p);
  // Everything folded: the body is a single halt of the literal -20.
  EXPECT_EQ(p.functions[0].body->kind, fir::ExprKind::kHalt);
  EXPECT_EQ(p.functions[0].body->a.i, -20);
  vm::Process proc(std::move(p));
  EXPECT_EQ(proc.run().exit_code, -20);
}

TEST(Optimize, DoesNotFoldDivisionByLiteralZero) {
  ProgramBuilder pb("divzero");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto a = fb.let_binop("a", Binop::kDiv, Atom::integer(1), Atom::integer(0));
    fb.halt(fb.v(a));
  }
  Program p = pb.take("main");
  (void)fir::optimize(p);
  fir::typecheck(p);
  // The trap is the program's behaviour; it must survive optimization.
  vm::Process proc(std::move(p));
  EXPECT_THROW((void)proc.run(), SafetyError);
}

TEST(Optimize, FoldsBranchesOnLiterals) {
  ProgramBuilder pb("branch");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto cond =
        fb.let_binop("cond", Binop::kLt, Atom::integer(3), Atom::integer(5));
    fb.branch(fb.v(cond), [](auto& t) { t.halt(Atom::integer(1)); },
              [](auto& e) { e.halt(Atom::integer(2)); });
  }
  Program p = pb.take("main");
  const auto stats = fir::optimize(p);
  EXPECT_EQ(stats.branches_folded, 1u);
  EXPECT_EQ(p.functions[0].body->kind, fir::ExprKind::kHalt);
  EXPECT_EQ(p.functions[0].body->a.i, 1);
}

TEST(Optimize, RemovesDeadPureLets) {
  ProgramBuilder pb("dead");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto x = fb.let_atom("x", Type::integer(), Atom::integer(5));
    // Not foldable (operand is a parameter-like unknown)? Use an alloc to
    // create an unknown, then dead arithmetic on a live value.
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(3));
    auto live = fb.let_read("live", Type::integer(), fb.v(buf),
                            Atom::integer(0));
    auto dead = fb.let_binop("dead", Binop::kAdd, fb.v(live), fb.v(x));
    (void)dead;  // never used
    fb.halt(fb.v(live));
  }
  Program p = pb.take("main");
  const std::size_t before = program_size(p);
  const auto stats = fir::optimize(p);
  EXPECT_GE(stats.dead_lets_removed, 1u);
  EXPECT_LT(program_size(p), before);
  fir::typecheck(p);
  vm::Process proc(std::move(p));
  EXPECT_EQ(proc.run().exit_code, 3);
}

TEST(Optimize, KeepsEffectfulOperations) {
  // Allocation, writes, reads, externals, speculation: none may vanish
  // even when their results are unused.
  ProgramBuilder pb("effects");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto u = fb.let_external("u", Type::unit(), "print_string",
                             {pb.str("kept\n")});
    (void)u;
    auto buf = fb.let_alloc("buf", Atom::integer(2), Atom::integer(0));
    fb.write(fb.v(buf), Atom::integer(0), Atom::integer(1));
    auto r = fb.let_read("r", Type::integer(), fb.v(buf), Atom::integer(0));
    (void)r;  // forwarded from the write, which proved it cannot trap
    fb.halt(Atom::integer(0));
  }
  Program p = pb.take("main");
  (void)fir::optimize(p);
  std::ostringstream out;
  vm::ProcessConfig cfg;
  cfg.output = &out;
  vm::Process proc(std::move(p), cfg);
  EXPECT_EQ(proc.run().exit_code, 0);
  EXPECT_EQ(out.str(), "kept\n");
}

std::int64_t run_program(Program p, std::string* output = nullptr) {
  std::ostringstream out;
  vm::ProcessConfig cfg;
  cfg.output = &out;
  cfg.max_instructions = 10'000'000;
  vm::Process proc(std::move(p), cfg);
  const auto r = proc.run();
  EXPECT_EQ(r.kind, vm::RunResult::Kind::kHalted);
  if (output) *output = out.str();
  return r.exit_code;
}

TEST(Optimize, MojcProgramsBehaveIdentically) {
  const char* sources[] = {
      "int main() { int a = 3; int b = a * 7 + 2; return b - a; }",
      "int main() { ptr x = alloc(4); int i = 0;"
      "  while (i < 4) { x[i] = i * i; i = i + 1; }"
      "  return x[0] + x[1] + x[2] + x[3]; }",
      "int f(int n) { if (n < 2) { return n; } int a = f(n-1);"
      "  int b = f(n-2); return a + b; }"
      "int main() { return f(10); }",
      "int main() { ptr a = alloc(1); a[0] = 5; int id = speculate();"
      "  if (id > 0) { a[0] = 9; abort(id); } return a[0] * 10 + id; }",
  };
  for (const char* src : sources) {
    Program plain = frontend::compile_source("plain", src);
    Program opt = fir::clone_program(plain);
    (void)fir::optimize(opt);
    fir::typecheck(opt);
    std::string out_plain;
    std::string out_opt;
    const auto a = run_program(std::move(plain), &out_plain);
    const auto b = run_program(std::move(opt), &out_opt);
    EXPECT_EQ(a, b) << src;
    EXPECT_EQ(out_plain, out_opt) << src;
  }
}

/// Equivalence property on randomized straight-line + branching programs.
class OptimizeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizeProperty, RandomProgramsAreEquivalentAfterOptimization) {
  Rng rng(GetParam());
  ProgramBuilder pb("rand");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(4),
                            Atom::integer(static_cast<std::int64_t>(
                                rng.below(100))));
    fir::Atom last =
        fb.v(fb.let_read("seed", Type::integer(), fb.v(buf),
                         Atom::integer(0)));
    for (int i = 0; i < 40; ++i) {
      const auto roll = rng.below(6);
      if (roll < 3) {
        // Mix of constant and value operands: folding + propagation fuel.
        const Binop ops[] = {Binop::kAdd, Binop::kSub, Binop::kMul,
                             Binop::kAnd, Binop::kOr,  Binop::kXor,
                             Binop::kLt,  Binop::kGe};
        const Atom rhs =
            rng.chance(0.5)
                ? Atom::integer(static_cast<std::int64_t>(rng.below(50)) + 1)
                : last;
        last = fb.v(fb.let_binop("b" + std::to_string(i),
                                 ops[rng.below(8)], last, rhs));
      } else if (roll == 3) {
        last = fb.v(fb.let_unop("u" + std::to_string(i),
                                static_cast<Unop>(rng.below(3)), last));
      } else if (roll == 4) {
        auto copy = fb.let_atom("c" + std::to_string(i), Type::integer(),
                                Atom::integer(static_cast<std::int64_t>(
                                    rng.below(1000))));
        last = fb.v(fb.let_binop("m" + std::to_string(i), Binop::kXor, last,
                                 fb.v(copy)));
      } else {
        // Dead code: an unused chain of pure lets.
        auto d1 = fb.let_binop("d" + std::to_string(i), Binop::kAdd, last,
                               Atom::integer(7));
        (void)fb.let_unop("e" + std::to_string(i), Unop::kBitNot, fb.v(d1));
      }
    }
    fb.write(fb.v(buf), Atom::integer(1), last);
    auto readback =
        fb.let_read("rb", Type::integer(), fb.v(buf), Atom::integer(1));
    auto masked = fb.let_binop("mask", Binop::kAnd, fb.v(readback),
                               Atom::integer(0xffff));
    fb.halt(fb.v(masked));
  }
  Program plain = pb.take("main");
  Program opt = fir::clone_program(plain);
  const auto stats = fir::optimize(opt);
  fir::typecheck(opt);
  EXPECT_GT(stats.total(), 0u);
  EXPECT_LE(program_size(opt), program_size(plain));
  EXPECT_EQ(run_program(std::move(plain)), run_program(std::move(opt)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizeProperty,
                         ::testing::Values(101, 202, 303, 404, 505, 606, 707,
                                           808, 909, 1010));

/// Observable behaviour of one run: printed output, then either the exit
/// code or the trap message.
struct Outcome {
  std::string output;
  bool trapped = false;
  std::string error;
  std::int64_t exit_code = 0;

  bool operator==(const Outcome&) const = default;
};

/// Runs `p` with a `poke(ptr, int)` external that stores an int through the
/// pointer, so an external call changes heap contents behind the FIR.
Outcome run_outcome(Program p) {
  std::ostringstream out;
  vm::ProcessConfig cfg;
  cfg.output = &out;
  cfg.max_instructions = 1'000'000;
  vm::Process proc(std::move(p), cfg);
  proc.vm().register_external(
      "poke", [](vm::Interpreter& it, std::span<const runtime::Value> args) {
        const runtime::PtrValue ptr = args[0].as_ptr();
        it.heap().write_slot(ptr.index, ptr.offset,
                             runtime::Value::from_int(args[1].as_int()));
        return runtime::Value::unit();
      });
  Outcome o;
  try {
    o.exit_code = proc.run().exit_code;
  } catch (const Error& e) {
    o.trapped = true;
    o.error = e.what();
  }
  o.output = out.str();
  return o;
}

/// A random heap-heavy body over one 6-slot block reached as p, as q (the
/// same pointer under a second variable) and as d = ptr_add(p, 1), plus a
/// raw block. Reads, writes, repeated expressions, externals and raw
/// stores interleave; a few operations trap (out of bounds, wrong tag,
/// null, division by zero) and must still trap at the same point.
Program make_alias_program(Rng& rng) {
  ProgramBuilder pb("alias");
  auto main_id = pb.declare("main", {});
  auto body_id = pb.declare(
      "body", {Type::ptr(), Type::ptr(), Type::ptr(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto blk = fb.let_alloc("blk", Atom::integer(6),
                            Atom::integer(static_cast<std::int64_t>(
                                rng.below(9))));
    auto raw = fb.let_alloc_raw("raw", Atom::integer(32));
    auto d = fb.let_ptr_add("d", fb.v(blk), Atom::integer(1));
    fb.tail_call(Atom::fun_ref(body_id),
                 {fb.v(blk), fb.v(blk), fb.v(d), fb.v(raw)});
  }
  auto fb = pb.define(body_id, {"p", "q", "d", "raw"});
  std::vector<Atom> ints = {Atom::integer(1)};
  std::vector<Atom> cmps;
  std::vector<std::tuple<Binop, Atom, Atom>> exprs;
  std::vector<std::pair<Atom, Atom>> reads;
  const auto pick = [&](const std::vector<Atom>& from) {
    return from[rng.below(from.size())];
  };
  const auto base = [&] { return fb.arg(static_cast<std::uint32_t>(
                              rng.below(3))); };
  // Literal offsets 0..4 stay in bounds for p, q and d; a dynamic one is
  // masked into 0..3.
  const auto offset = [&] {
    if (rng.chance(0.7)) {
      return Atom::integer(static_cast<std::int64_t>(rng.below(5)));
    }
    return fb.v(fb.let_binop("i", Binop::kAnd, pick(ints), Atom::integer(3)));
  };
  for (int n = 0; n < 30; ++n) {
    const auto roll = rng.below(1000);  // trapping ops are rare
    if (roll < 220) {
      const Atom b = base();
      const Atom o = offset();
      ints.push_back(fb.v(fb.let_read("r", Type::integer(), b, o)));
      reads.emplace_back(b, o);
    } else if (roll < 300 && !reads.empty()) {
      // Re-read an earlier (base, offset) pair: reuse fuel.
      const auto& [b, o] = reads[rng.below(reads.size())];
      ints.push_back(fb.v(fb.let_read("rr", Type::integer(), b, o)));
    } else if (roll < 450) {
      const Atom v = rng.chance(0.5) ? pick(ints)
                                     : Atom::integer(static_cast<std::int64_t>(
                                           rng.below(100)));
      fb.write(base(), offset(), v);
    } else if (roll < 580) {
      // Division and modulo stay rare: a zero divisor traps the program.
      const Binop ops[] = {Binop::kAdd, Binop::kSub, Binop::kXor,
                           Binop::kMul, Binop::kLt,  Binop::kEq};
      const Binop pick_op =
          rng.chance(0.1) ? (rng.chance(0.5) ? Binop::kDiv : Binop::kMod)
                          : ops[rng.below(6)];
      std::tuple<Binop, Atom, Atom> ex{pick_op, pick(ints), pick(ints)};
      if (!exprs.empty() && rng.chance(0.4)) {
        ex = exprs[rng.below(exprs.size())];  // repeat: CSE fuel
      }
      exprs.push_back(ex);
      const auto [op, a, b] = ex;
      const Atom r = fb.v(fb.let_binop("e", op, a, b));
      ints.push_back(r);
      if (op == Binop::kLt || op == Binop::kEq) cmps.push_back(r);
    } else if (roll < 630 && !cmps.empty()) {
      ints.push_back(fb.v(
          fb.let_binop("ne", Binop::kNe, pick(cmps), Atom::integer(0))));
    } else if (roll < 700) {
      (void)fb.let_external("pr", Type::unit(), "print_int", {pick(ints)});
    } else if (roll < 760) {
      (void)fb.let_external("pk", Type::unit(), "poke", {base(), pick(ints)});
    } else if (roll < 810) {
      fb.raw_store(8, fb.arg(3),
                   Atom::integer(8 * static_cast<std::int64_t>(rng.below(4))),
                   pick(ints));
    } else if (roll < 850) {
      ints.push_back(fb.v(fb.let_raw_load(
          "rl", 8, fb.arg(3),
          Atom::integer(8 * static_cast<std::int64_t>(rng.below(4))))));
    } else if (roll < 856) {
      // A float in an int slot: later int reads of it trap (wrong tag).
      fb.write(base(), Atom::integer(static_cast<std::int64_t>(rng.below(5))),
               Atom::real(2.5));
    } else if (roll < 862) {
      auto f = fb.let_read("f", Type::real(), base(),
                           Atom::integer(static_cast<std::int64_t>(
                               rng.below(5))));
      (void)fb.let_external("pf", Type::unit(), "print_float", {fb.v(f)});
    } else if (roll < 866) {
      // Out of bounds: slot 6 of p/q, slot 6 through d's offset 1.
      const std::uint32_t which = static_cast<std::uint32_t>(rng.below(3));
      ints.push_back(fb.v(fb.let_read(
          "oob", Type::integer(), fb.arg(which),
          Atom::integer(which == 2 ? 5 : 6))));
    } else if (roll < 869) {
      ints.push_back(fb.v(fb.let_read("nul", Type::integer(),
                                      Atom::null_ptr(), Atom::integer(0))));
    } else {
      (void)fb.let_external("pr", Type::unit(), "print_int", {pick(ints)});
    }
  }
  Atom acc = Atom::integer(0);
  for (std::size_t k = ints.size() > 6 ? ints.size() - 6 : 0; k < ints.size();
       ++k) {
    acc = fb.v(fb.let_binop("acc", Binop::kXor, acc, ints[k]));
  }
  fb.halt(fb.v(fb.let_binop("res", Binop::kAnd, acc, Atom::integer(0xffff))));
  return pb.take("main");
}

TEST(OptimizeAlias, RandomHeapProgramsBehaveIdentically) {
  fir::OptimizeStats total;
  int traps = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    Rng rng(seed);
    Program plain = make_alias_program(rng);
    Program opt = fir::clone_program(plain);
    const auto stats = fir::optimize(opt);
    fir::typecheck(opt);
    EXPECT_LE(program_size(opt), program_size(plain)) << "seed " << seed;
    const Outcome a = run_outcome(std::move(plain));
    const Outcome b = run_outcome(std::move(opt));
    EXPECT_EQ(a, b) << "seed " << seed << ": plain '" << a.output << "' "
                    << a.error << " vs optimized '" << b.output << "' "
                    << b.error;
    traps += a.trapped ? 1 : 0;
    total.reads_reused += stats.reads_reused;
    total.stores_forwarded += stats.stores_forwarded;
    total.exprs_shared += stats.exprs_shared;
    total.compares_simplified += stats.compares_simplified;
  }
  // The sweep exercises every rewrite and both outcomes.
  EXPECT_GT(traps, 30);
  EXPECT_LT(traps, 270);
  EXPECT_GT(total.reads_reused, 0u);
  EXPECT_GT(total.stores_forwarded, 0u);
  EXPECT_GT(total.exprs_shared, 0u);
  EXPECT_GT(total.compares_simplified, 0u);
}

/// Reads of `frame` at each literal offset in a body (both if-arms).
void count_frame_reads(const fir::Expr* e, fir::VarId frame,
                       std::map<std::int64_t, int>& counts) {
  for (; e != nullptr; e = e->next.get()) {
    if (e->kind == fir::ExprKind::kLetRead &&
        e->a.kind == Atom::Kind::kVar && e->a.var == frame &&
        e->b.kind == Atom::Kind::kInt) {
      ++counts[e->b.i];
    }
    if (e->kind == fir::ExprKind::kIf) {
      count_frame_reads(e->els.get(), frame, counts);
    }
  }
}

TEST(OptimizeAlias, StencilBodyReadsEachFrameSlotOnce) {
  // A heat-stencil body whose locals live in a heap frame block: every
  // use re-reads it, and the four neighbour values are spilled to frame
  // slots and read back.
  enum : std::int64_t { kU = 2, kV = 3, kC = 6, kR = 8, kCol = 10 };
  ProgramBuilder pb("then6");
  auto main_id = pb.declare("main", {});
  auto body_id = pb.declare("body", {Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto frame = fb.let_alloc("frame", Atom::integer(15), Atom::integer(0));
    auto u = fb.let_alloc("u", Atom::integer(64), Atom::real(1.5));
    auto v = fb.let_alloc("v", Atom::integer(64), Atom::real(0.0));
    fb.write(fb.v(frame), Atom::integer(kU), fb.v(u));
    fb.write(fb.v(frame), Atom::integer(kV), fb.v(v));
    fb.write(fb.v(frame), Atom::integer(kC), Atom::integer(8));
    fb.write(fb.v(frame), Atom::integer(kR), Atom::integer(3));
    fb.write(fb.v(frame), Atom::integer(kCol), Atom::integer(4));
    fb.tail_call(Atom::fun_ref(body_id), {fb.v(frame)});
  }
  {
    auto fb = pb.define(body_id, {"frame"});
    const Atom frame = fb.arg(0);
    const auto slot = [&](const char* name, Type ty, std::int64_t k) {
      return fb.v(fb.let_read(name, std::move(ty), frame, Atom::integer(k)));
    };
    const std::int64_t deltas[4][2] = {{-1, 0}, {1, 0}, {0, -1}, {0, 1}};
    for (int n = 0; n < 4; ++n) {
      const Atom u = slot("u", Type::ptr(), kU);
      const Atom r = slot("r", Type::integer(), kR);
      const Atom rr = fb.v(fb.let_binop("t", Binop::kAdd, r,
                                        Atom::integer(deltas[n][0])));
      const Atom c = slot("C", Type::integer(), kC);
      const Atom row = fb.v(fb.let_binop("t", Binop::kMul, rr, c));
      const Atom col = slot("c", Type::integer(), kCol);
      const Atom idx0 = fb.v(fb.let_binop("t", Binop::kAdd, row, col));
      const Atom idx = fb.v(fb.let_binop("t", Binop::kAdd, idx0,
                                         Atom::integer(deltas[n][1])));
      const Atom f = fb.v(fb.let_read("f", Type::real(), u, idx));
      fb.write(frame, Atom::integer(11 + n), f);
    }
    const Atom v = slot("v", Type::ptr(), kV);
    const Atom r = slot("r", Type::integer(), kR);
    const Atom c = slot("C", Type::integer(), kC);
    const Atom row = fb.v(fb.let_binop("t", Binop::kMul, r, c));
    const Atom col = slot("c", Type::integer(), kCol);
    const Atom idx = fb.v(fb.let_binop("t", Binop::kAdd, row, col));
    Atom sum = slot("up1", Type::real(), 11);
    for (int n = 1; n < 4; ++n) {
      sum = fb.v(fb.let_binop("t", Binop::kFAdd, sum,
                              slot("nb", Type::real(), 11 + n)));
    }
    const Atom avg = fb.v(fb.let_binop("t", Binop::kFMul, Atom::real(0.25),
                                       sum));
    fb.write(v, idx, avg);
    const Atom back = fb.v(fb.let_read("back", Type::real(), v, idx));
    const Atom out = fb.v(fb.let_binop("o", Binop::kFMul, back,
                                       Atom::real(100.0)));
    fb.halt(fb.v(fb.let_unop("code", Unop::kIntOfFloat, out)));
  }
  Program plain = pb.take("main");
  Program opt = fir::clone_program(plain);
  const auto stats = fir::optimize(opt);
  fir::typecheck(opt);
  std::map<std::int64_t, int> counts;
  const fir::Function& body = opt.functions[body_id];
  count_frame_reads(body.body.get(), /*frame=*/0, counts);
  const std::map<std::int64_t, int> want = {
      {kU, 1}, {kV, 1}, {kC, 1}, {kR, 1}, {kCol, 1}};
  EXPECT_EQ(counts, want) << fir::to_string(opt);
  EXPECT_EQ(stats.stores_forwarded, 5u);  // the four spills + v's slot
  EXPECT_GT(stats.exprs_shared, 0u);      // r * C, r * C + c
  EXPECT_EQ(run_outcome(std::move(plain)), run_outcome(std::move(opt)));
}

// ---------------------------------------------------------------------------
// Single-use block inlining.
// ---------------------------------------------------------------------------

constexpr fir::InlineLimits kNoLimit{1u << 30, 1u << 30};

/// Every migration continues locally (the protocol's failure path).
class StayHook final : public vm::MigrationHook {
 public:
  Action on_migrate(vm::Interpreter&, MigrateLabel, const std::string&,
                    FunIndex, std::span<const runtime::Value>) override {
    return Action::kContinue;
  }
};

Outcome run_blocks(Program p) {
  std::ostringstream out;
  vm::ProcessConfig cfg;
  cfg.output = &out;
  cfg.max_instructions = 1'000'000;
  vm::Process proc(std::move(p), cfg);
  StayHook hook;
  proc.vm().set_migration_hook(&hook);
  Outcome o;
  try {
    o.exit_code = proc.run().exit_code;
  } catch (const Error& e) {
    o.trapped = true;
    o.error = e.what();
  }
  o.output = out.str();
  return o;
}

/// A random program in the frontend's CPS shape: main allocates an 8-slot
/// frame and enters blocks b0..b(n-1), each taking the frame (and
/// sometimes an int). Blocks only call later blocks, so every run ends.
/// The mix holds chains of single-use blocks, blocks called from several
/// sites, self-loops, a continuation-carrying function `cc` with a
/// function `kont` passed to it as a value, and speculate / commit /
/// abort / migrate inside block bodies.
Program make_block_program(Rng& rng) {
  ProgramBuilder pb("blocks");
  const std::size_t n = 6 + rng.below(8);
  const auto main_id = pb.declare("main", {});
  std::vector<std::uint32_t> blocks;
  std::vector<bool> takes_x;
  for (std::size_t i = 0; i < n; ++i) {
    takes_x.push_back(rng.chance(0.3));
    std::vector<Type> params{Type::ptr()};
    if (takes_x.back()) params.push_back(Type::integer());
    blocks.push_back(pb.declare("b" + std::to_string(i), params));
  }
  const auto kont_id = pb.declare("kont", {Type::integer(), Type::ptr()});
  const auto cc_id = pb.declare(
      "cc", {Type::ptr(), Type::fun({Type::integer(), Type::ptr()})});
  bool cc_used = false;
  MigrateLabel label = 1;

  const auto call_block = [&](fir::FunctionBuilder& fb, Atom frame,
                              std::size_t j, Atom x) {
    std::vector<Atom> args{frame};
    if (takes_x[j]) args.push_back(x);
    fb.tail_call(Atom::fun_ref(blocks[j]), std::move(args));
  };
  const auto int_atom = [&](Atom var) {
    return rng.chance(0.5) ? var
                           : Atom::integer(static_cast<std::int64_t>(
                                 rng.below(50)));
  };
  {
    auto fb = pb.define(main_id, {});
    const Atom frame =
        fb.v(fb.let_alloc("frame", Atom::integer(8), Atom::integer(0)));
    for (std::int64_t s = 0; s < 8; ++s) {
      fb.write(frame, Atom::integer(s),
               Atom::integer(static_cast<std::int64_t>(rng.below(4))));
    }
    call_block(fb, frame, 0, Atom::integer(3));
  }
  // Functions whose bodies are written after the block that needs them.
  std::vector<std::function<void()>> deferred;
  for (std::size_t i = 0; i < n; ++i) {
    auto fb = pb.define(blocks[i], takes_x[i]
                                       ? std::vector<std::string>{"frame", "x"}
                                       : std::vector<std::string>{"frame"});
    const Atom frame = fb.arg(0);
    Atom acc = takes_x[i] ? fb.arg(1) : Atom::integer(1);
    for (std::uint64_t k = 0, ops = 1 + rng.below(3); k < ops; ++k) {
      const Atom slot = Atom::integer(static_cast<std::int64_t>(rng.below(6)));
      const Atom v = fb.v(fb.let_read("v", Type::integer(), frame, slot));
      acc = fb.v(fb.let_binop("acc", rng.chance(0.5) ? Binop::kAdd
                                                      : Binop::kXor,
                              acc, v));
      if (rng.chance(0.5)) fb.write(frame, slot, acc);
      if (rng.chance(0.2)) {
        (void)fb.let_external("p", Type::unit(), "print_int", {acc});
      }
    }
    if (i + 1 == n) {
      Atom sum = Atom::integer(0);
      for (std::int64_t s = 0; s < 8; ++s) {
        sum = fb.v(fb.let_binop(
            "sum", Binop::kAdd, sum,
            fb.v(fb.let_read("s", Type::integer(), frame, Atom::integer(s)))));
      }
      fb.halt(fb.v(fb.let_binop("h", Binop::kAnd, sum, Atom::integer(0xffff))));
      continue;
    }
    const std::size_t j = i + 1 + rng.below(n - i - 1);
    const std::size_t k = i + 1 + rng.below(n - i - 1);
    const auto roll = rng.below(100);
    if (roll < 35) {
      call_block(fb, frame, j, int_atom(acc));
    } else if (roll < 55) {
      const Atom c =
          fb.v(fb.let_binop("c", Binop::kAnd, acc, Atom::integer(1)));
      fb.branch(
          c, [&](auto& t) { call_block(t, frame, j, int_atom(acc)); },
          [&](auto& e) { call_block(e, frame, k, int_atom(acc)); });
    } else if (roll < 70) {
      // Self-loop on a countdown in slot 6, re-armed on the way out.
      const Atom c = fb.v(fb.let_read("n", Type::integer(), frame,
                                      Atom::integer(6)));
      const Atom more = fb.v(fb.let_binop("more", Binop::kGt, c,
                                          Atom::integer(0)));
      fb.branch(
          more,
          [&](auto& t) {
            t.write(frame, Atom::integer(6),
                    t.v(t.let_binop("n1", Binop::kSub, c, Atom::integer(1))));
            std::vector<Atom> args{frame};
            if (takes_x[i]) args.push_back(acc);
            t.tail_call(Atom::fun_ref(blocks[i]), std::move(args));
          },
          [&](auto& e) {
            e.write(frame, Atom::integer(6), Atom::integer(2));
            call_block(e, frame, j, int_atom(acc));
          });
    } else if (roll < 82) {
      const auto spec_id = pb.declare("spec" + std::to_string(i),
                                      {Type::integer(), Type::ptr()});
      fb.speculate(Atom::fun_ref(spec_id), {frame});
      const bool commit = rng.chance(0.5);
      deferred.push_back([&, spec_id, commit, j] {
        auto sb = pb.define(spec_id, {"c", "frame"});
        const Atom lvl = sb.arg(0);
        const Atom f = sb.arg(1);
        const Atom in = sb.v(sb.let_binop("in", Binop::kGt, lvl,
                                          Atom::integer(0)));
        sb.branch(
            in,
            [&](auto& t) {
              t.write(f, Atom::integer(5), lvl);
              if (commit) {
                std::vector<Atom> args{f};
                if (takes_x[j]) args.push_back(Atom::integer(7));
                t.commit(lvl, Atom::fun_ref(blocks[j]), std::move(args));
              } else {
                t.abort_spec(lvl, Atom::integer(0));
              }
            },
            [&](auto& e) { call_block(e, f, j, Atom::integer(8)); });
      });
    } else if (roll < 90 && !cc_used) {
      cc_used = true;
      fb.tail_call(Atom::fun_ref(cc_id), {frame, Atom::fun_ref(kont_id)});
      deferred.push_back([&, j] {
        auto kb = pb.define(kont_id, {"v", "frame"});
        kb.write(kb.arg(1), Atom::integer(4), kb.arg(0));
        call_block(kb, kb.arg(1), j, kb.arg(0));
      });
    } else {
      const Atom tgt = fb.v(fb.let_atom("tgt", Type::ptr(),
                                        pb.str("local://stay")));
      std::vector<Atom> args{frame};
      if (takes_x[j]) args.push_back(int_atom(acc));
      fb.migrate(label++, tgt, Atom::fun_ref(blocks[j]), std::move(args));
    }
  }
  for (const auto& define : deferred) define();
  {
    auto cb = pb.define(cc_id, {"frame", "k"});
    const Atom v = cb.v(cb.let_read("v", Type::integer(), cb.arg(0),
                                    Atom::integer(0)));
    cb.tail_call(cb.arg(1),
                 {cb.v(cb.let_binop("v1", Binop::kAdd, v, Atom::integer(1))),
                  cb.arg(0)});
  }
  if (!cc_used) {
    auto kb = pb.define(kont_id, {"v", "frame"});
    kb.halt(kb.arg(0));
  }
  return pb.take("main");
}

/// How a program refers to one function, by name.
struct Refs {
  int count = 0;
  bool tail_callee = false;  ///< some reference is a tail call's callee
  std::string host;          ///< the function holding that tail call
};

std::map<std::string, Refs> collect_refs(const Program& p) {
  std::map<std::string, Refs> refs;
  for (const fir::Function& fn : p.functions) refs[fn.name];
  const std::function<void(const fir::Function&, const fir::Expr*)> walk =
      [&](const fir::Function& fn, const fir::Expr* e) {
        for (; e != nullptr; e = e->next.get()) {
          const auto note = [&](const Atom& a) {
            if (a.kind != Atom::Kind::kFunRef) return;
            Refs& r = refs[p.functions[a.fun].name];
            ++r.count;
            if (e->kind == fir::ExprKind::kTailCall && &a == &e->fun) {
              r.tail_callee = true;
              r.host = fn.name;
            }
          };
          note(e->a);
          note(e->b);
          note(e->c_atom);
          note(e->fun);
          for (const Atom& a : e->args) note(a);
          if (e->kind == fir::ExprKind::kIf) walk(fn, e->els.get());
        }
      };
  for (const fir::Function& fn : p.functions) walk(fn, fn.body.get());
  return refs;
}

/// The functions the pass may inline: referenced once, as the callee of a
/// tail call in another function, not the entry, no function parameters.
std::set<std::string> candidates(const Program& p) {
  std::set<std::string> out;
  const auto refs = collect_refs(p);
  for (const fir::Function& fn : p.functions) {
    const Refs& r = refs.at(fn.name);
    const bool fun_param =
        std::any_of(fn.param_tys.begin(), fn.param_tys.end(),
                    [](const Type& t) { return t.kind == fir::TyKind::kFun; });
    if (r.count == 1 && r.tail_callee && r.host != fn.name &&
        fn.id != p.entry && !fun_param) {
      out.insert(fn.name);
    }
  }
  return out;
}

std::set<MigrateLabel> migrate_labels(const Program& p) {
  std::set<MigrateLabel> labels;
  const std::function<void(const fir::Expr*)> walk = [&](const fir::Expr* e) {
    for (; e != nullptr; e = e->next.get()) {
      if (e->kind == fir::ExprKind::kMigrate) {
        EXPECT_TRUE(labels.insert(e->label).second) << "label " << e->label;
      }
      if (e->kind == fir::ExprKind::kIf) walk(e->els.get());
    }
  };
  for (const fir::Function& fn : p.functions) walk(fn.body.get());
  return labels;
}

TEST(InlineOnce, RandomBlockProgramsBehaveIdentically) {
  std::uint64_t total = 0;
  std::size_t shrunk = 0;
  std::map<fir::ExprKind, int> moved;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Program plain = make_block_program(rng);
    fir::typecheck(plain);
    Program merged = fir::clone_program(plain);
    const std::uint64_t inlined = fir::inline_once(merged, kNoLimit);
    total += inlined;
    fir::typecheck(merged);

    // Only candidates go, and none is left behind.
    std::set<std::string> before, after;
    for (const auto& fn : plain.functions) before.insert(fn.name);
    for (const auto& fn : merged.functions) after.insert(fn.name);
    std::set<std::string> removed;
    std::set_difference(before.begin(), before.end(), after.begin(),
                        after.end(), std::inserter(removed, removed.end()));
    const std::set<std::string> allowed = candidates(plain);
    for (const std::string& name : removed) {
      EXPECT_TRUE(allowed.contains(name)) << name << " was not a candidate";
      for (const fir::Expr* e = plain.find(name)->body.get(); e != nullptr;
           e = e->next.get()) {
        ++moved[e->kind];
      }
    }
    EXPECT_EQ(removed.size(), inlined);
    EXPECT_TRUE(candidates(merged).empty());
    EXPECT_TRUE(after.contains("cc"));
    EXPECT_TRUE(after.contains("kont"));

    // Dense ids, the same entry, unique labels, and a smaller program.
    for (std::uint32_t i = 0; i < merged.functions.size(); ++i) {
      EXPECT_EQ(merged.functions[i].id, i);
    }
    EXPECT_EQ(merged.functions[merged.entry].name, "main");
    EXPECT_EQ(migrate_labels(merged), migrate_labels(plain));
    EXPECT_EQ(program_size(merged) + inlined, program_size(plain));
    shrunk += merged.functions.size() < plain.functions.size() ? 1 : 0;

    // Merging is idempotent, and the optimizer still applies on top.
    Program again = fir::clone_program(merged);
    EXPECT_EQ(fir::inline_once(again, kNoLimit), 0u);
    (void)fir::optimize(again);
    fir::typecheck(again);

    const Outcome a = run_blocks(std::move(plain));
    const Outcome b = run_blocks(std::move(merged));
    const Outcome c = run_blocks(std::move(again));
    EXPECT_EQ(a, b) << a.error << " vs " << b.error;
    EXPECT_EQ(a, c) << a.error << " vs " << c.error;
    EXPECT_FALSE(a.trapped) << a.error;
  }
  EXPECT_GT(total, 400u);
  EXPECT_GT(shrunk, 180u);
  // Bodies that speculate or migrate were moved too.
  EXPECT_GT(moved[fir::ExprKind::kSpeculate], 10);
  EXPECT_GT(moved[fir::ExprKind::kMigrate], 10);
}

TEST(InlineOnce, MergedFunctionsStayWithinTheBackendLimits) {
  std::uint64_t refused = 0;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    Program plain = make_block_program(rng);
    const fir::InlineLimits tight{14, 60};
    Program merged = fir::clone_program(plain);
    const std::uint64_t inlined = fir::inline_once(merged, tight);
    Program free = fir::clone_program(plain);
    refused += fir::inline_once(free, kNoLimit) - inlined;
    fir::typecheck(merged);

    // A function either kept its original size or fits the limits, which
    // count exactly what lowering produces.
    const vm::CompiledProgram lo_plain = vm::lower(plain);
    const vm::CompiledProgram lo_merged = vm::lower(merged);
    std::map<std::string, const vm::CompiledFunction*> original;
    for (const auto& f : lo_plain.functions) original[f.name] = &f;
    for (const auto& f : lo_merged.functions) {
      const vm::CompiledFunction& o = *original.at(f.name);
      if (f.code.size() == o.code.size() && f.num_regs == o.num_regs) continue;
      EXPECT_LE(f.num_regs, tight.max_regs) << f.name;
      EXPECT_LE(f.code.size(), tight.max_insns) << f.name;
    }
    EXPECT_EQ(run_blocks(std::move(plain)), run_blocks(std::move(merged)));
  }
  EXPECT_GT(refused, 0u);  // the limits did bite
}

TEST(InlineOnce, RefusesFunctionsThatBreakTheRules) {
  // entry → a (single-use block: goes), a → self-loop s (two references:
  // stays), s → c, which takes a continuation (stays), c → k via value
  // (stays); k is the only tail callee of c but is referenced as a value.
  ProgramBuilder pb("rules");
  const auto main_id = pb.declare("main", {});
  const auto a_id = pb.declare("a", {Type::integer()});
  const auto s_id = pb.declare("s", {Type::integer()});
  const auto k_ty = Type::fun({Type::integer()});
  const auto c_id = pb.declare("c", {Type::integer(), k_ty});
  const auto k_id = pb.declare("k", {Type::integer()});
  {
    auto fb = pb.define(main_id, {});
    fb.tail_call(Atom::fun_ref(a_id), {Atom::integer(5)});
  }
  {
    auto fb = pb.define(a_id, {"n"});
    fb.tail_call(Atom::fun_ref(s_id), {fb.arg(0)});
  }
  {
    auto fb = pb.define(s_id, {"n"});
    const auto more = fb.let_binop("more", Binop::kGt, fb.arg(0),
                                   Atom::integer(0));
    fb.branch(
        fb.v(more),
        [&](auto& t) {
          t.tail_call(Atom::fun_ref(s_id),
                      {t.v(t.let_binop("m", Binop::kSub, t.arg(0),
                                       Atom::integer(1)))});
        },
        [&](auto& e) {
          e.tail_call(Atom::fun_ref(c_id),
                      {Atom::integer(40), Atom::fun_ref(k_id)});
        });
  }
  {
    auto fb = pb.define(c_id, {"v", "k"});
    fb.tail_call(fb.arg(1), {fb.v(fb.let_binop("w", Binop::kAdd, fb.arg(0),
                                               Atom::integer(2)))});
  }
  {
    auto fb = pb.define(k_id, {"r"});
    fb.halt(fb.arg(0));
  }
  Program p = pb.take("main");
  EXPECT_EQ(fir::inline_once(p, kNoLimit), 1u);
  fir::typecheck(p);
  std::vector<std::string> names;
  for (const auto& fn : p.functions) names.push_back(fn.name);
  EXPECT_EQ(names, (std::vector<std::string>{"main", "s", "c", "k"}));
  // a's body (a call of s with the argument substituted) now ends main.
  EXPECT_EQ(p.functions[0].body->kind, fir::ExprKind::kTailCall);
  EXPECT_EQ(p.functions[0].body->fun.fun, 1u);
  EXPECT_EQ(p.functions[0].body->args[0].i, 5);
  vm::Process proc(std::move(p));
  EXPECT_EQ(proc.run().exit_code, 42);
}

TEST(InlineOnce, MergedLoopMigratesMidRunAndResumes) {
  const fs::path dir = fs::temp_directory_path() / "mojave_inline_mig";
  fs::create_directories(dir);
  const fs::path file = dir / "loop.img";
  fs::remove(file);
  const std::string src =
      "int main() { ptr a = alloc(2); int i = 0; int s = 0;"
      "  while (i < 100) {"
      "    if (i % 7 == 3) { a[0] = a[0] + i; } else { s = s + i * i; }"
      "    if (i == 37) { migrate(\"suspend://" + file.string() + "\"); }"
      "    i = i + 1;"
      "  }"
      "  return s + a[0]; }";
  std::int64_t want = 0;
  for (std::int64_t i = 0; i < 100; ++i) want += i % 7 == 3 ? i : i * i;

  Program p = frontend::compile_source("mig", src);
  const std::size_t functions = p.functions.size();
  EXPECT_GT(fir::inline_once(p, kNoLimit), 0u);
  EXPECT_LT(p.functions.size(), functions);
  (void)fir::optimize(p);
  {
    vm::Process proc(std::move(p));
    migrate::Migrator mig(proc);
    EXPECT_EQ(proc.run().kind, vm::RunResult::Kind::kMigratedAway);
  }
  ASSERT_TRUE(fs::exists(file));
  auto unpacked = migrate::unpack_process(
      migrate::Migrator::read_image_file(file), vm::ProcessConfig{});
  migrate::Migrator mig(*unpacked.process);
  const auto r = unpacked.process->resume(unpacked.resume_fun,
                                          std::move(unpacked.resume_args));
  EXPECT_EQ(r.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(r.exit_code, want);
  fs::remove(file);
}

TEST(InlineOnce, EngineCompileCountsInlinedCalls) {
  auto& counter =
      obs::MetricsRegistry::instance().counter("fir.opt.calls_inlined");
  const std::string src =
      "int main() { int i = 0; int s = 0;"
      "  while (i < 10) { if (i < 5) { s = s + i; } i = i + 1; }"
      "  return s; }";
  const std::uint64_t before = counter.value();
  Engine engine;
  const Program p = engine.compile("t", src);
  EXPECT_GT(counter.value(), before);
  EXPECT_EQ(engine.run_program(fir::clone_program(p)).run.exit_code, 10);

  // --no-opt leaves every block in place.
  const std::uint64_t mid = counter.value();
  EngineOptions opts;
  opts.optimize = false;
  const Program plain = Engine(opts).compile("t", src);
  EXPECT_EQ(counter.value(), mid);
  EXPECT_EQ(plain.functions.size(),
            frontend::compile_source("t", src).functions.size());
  EXPECT_EQ(p.functions.size() + (counter.value() - before),
            plain.functions.size());
}

}  // namespace
