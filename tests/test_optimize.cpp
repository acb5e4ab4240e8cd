// Optimizer tests: each pass individually, re-typechecking after
// optimization, and the equivalence property — an optimized program must
// behave identically to the original, on hand-written MojC programs and
// on randomized builder programs alike.
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <tuple>

#include "fir/builder.hpp"
#include "fir/optimize.hpp"
#include "fir/printer.hpp"
#include "fir/typecheck.hpp"
#include "frontend/compile.hpp"
#include "support/rng.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
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
  // The shape the frontend gives the heat stencil's inner body: every
  // local lives in a heap frame, every use re-reads it, and the four
  // neighbour values are spilled to frame slots and read back.
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

}  // namespace
