// Tests for the extended MojC syntax (for / do-while / compound
// assignment / ++ / --), the migration-equivalence property (a program
// that checkpoints mid-run and is resumed must compute exactly what the
// uninterrupted program computes — for randomized programs), and a
// randomized differential of the frontend's CPS conversion against a C++
// oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "fir/ir.hpp"
#include "fir/optimize.hpp"
#include "frontend/compile.hpp"
#include "migrate/image.hpp"
#include "migrate/migrator.hpp"
#include "native/compiler.hpp"
#include "support/rng.hpp"
#include "support/wrap.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
namespace fs = std::filesystem;

std::int64_t run_mojc(const std::string& src) {
  vm::ProcessConfig cfg;
  cfg.max_instructions = 50'000'000;
  vm::Process p(frontend::compile_source("t", src), cfg);
  const auto r = p.run();
  EXPECT_EQ(r.kind, vm::RunResult::Kind::kHalted);
  return r.exit_code;
}

TEST(FrontendExt, ForLoop) {
  EXPECT_EQ(run_mojc("int main() { int acc = 0;"
                     "  for (int i = 1; i <= 10; i++) { acc += i; }"
                     "  return acc; }"),
            55);
}

TEST(FrontendExt, ForLoopContinueRunsStep) {
  // If continue skipped the step, this would loop forever (caught by the
  // instruction fuse); correct semantics: 0+1+2+4 = 7 for i in 0..4 \ {3}.
  EXPECT_EQ(run_mojc("int main() { int acc = 0;"
                     "  for (int i = 0; i < 5; i++) {"
                     "    if (i == 3) { continue; }"
                     "    acc += i;"
                     "  }"
                     "  return acc; }"),
            7);
}

TEST(FrontendExt, ForLoopBreakAndInfiniteHeader) {
  EXPECT_EQ(run_mojc("int main() { int n = 0;"
                     "  for (;;) { n++; if (n == 9) { break; } }"
                     "  return n; }"),
            9);
}

TEST(FrontendExt, ForScopesInitVariable) {
  // The induction variable is scoped to the loop.
  EXPECT_THROW(
      (void)run_mojc("int main() { for (int i = 0; i < 3; i++) { } "
                     "return i; }"),
      TypeError);
}

TEST(FrontendExt, NestedForLoops) {
  EXPECT_EQ(run_mojc("int main() { int acc = 0;"
                     "  for (int i = 0; i < 4; i++) {"
                     "    for (int j = 0; j < 4; j++) {"
                     "      if (j > i) { continue; }"
                     "      acc += 1;"
                     "    }"
                     "  }"
                     "  return acc; }"),
            10);  // 1+2+3+4
}

TEST(FrontendExt, DoWhileRunsAtLeastOnce) {
  EXPECT_EQ(run_mojc("int main() { int n = 0;"
                     "  do { n++; } while (n < 0);"
                     "  return n; }"),
            1);
  EXPECT_EQ(run_mojc("int main() { int n = 0;"
                     "  do { n += 2; } while (n < 10);"
                     "  return n; }"),
            10);
}

TEST(FrontendExt, CompoundAssignmentOnScalars) {
  EXPECT_EQ(run_mojc("int main() { int x = 7;"
                     "  x += 3; x *= 2; x -= 4; x /= 2; x %= 5;"
                     "  return x; }"),
            3);  // ((7+3)*2-4)/2 = 8; 8%5 = 3
}

TEST(FrontendExt, CompoundAssignmentOnSlots) {
  EXPECT_EQ(run_mojc("int main() { ptr a = alloc(3); int i = 1;"
                     "  a[i] = 10;"
                     "  a[i] += 5;"
                     "  a[i + 0] *= 2;"
                     "  return a[1]; }"),
            30);
}

TEST(FrontendExt, IncrementDecrementStatements) {
  EXPECT_EQ(run_mojc("int main() { int x = 5; x++; x++; x--; return x; }"),
            6);
}

TEST(FrontendExt, FloatCompoundAssignment) {
  EXPECT_EQ(run_mojc("int main() { float f = 1.5; f += 2.5; f *= 2.0;"
                     "  return f2i(f); }"),
            8);
}

// --- Migration equivalence property ------------------------------------------

/// Generate a random MojC program with a checkpoint in the middle of its
/// computation; run it straight through (checkpoint protocol continues),
/// then resume the written image and compare: the resumed run must finish
/// with the same result as the uninterrupted run's remainder.
class MigrateEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

std::string random_program(Rng& rng, const std::string& ckpt_path) {
  std::ostringstream src;
  src << "int main() {\n  int acc = " << rng.below(100) << ";\n"
      << "  ptr a = alloc(8);\n"
      << "  for (int i = 0; i < 8; i++) { a[i] = i * "
      << (1 + rng.below(9)) << "; }\n";
  // Phase 1: some arithmetic.
  for (int i = 0; i < 6; ++i) {
    switch (rng.below(4)) {
      case 0: src << "  acc += a[" << rng.below(8) << "];\n"; break;
      case 1: src << "  acc *= " << (1 + rng.below(4)) << ";\n"; break;
      case 2: src << "  acc -= " << rng.below(50) << ";\n"; break;
      default:
        src << "  if (acc % 2 == 0) { acc += 7; } else { acc -= 3; }\n";
    }
  }
  src << "  migrate(\"checkpoint://" << ckpt_path << "\");\n";
  // Phase 2: more arithmetic after the checkpoint.
  for (int i = 0; i < 6; ++i) {
    switch (rng.below(3)) {
      case 0: src << "  acc += a[" << rng.below(8) << "] + " << i << ";\n";
        break;
      case 1: src << "  acc ^= " << rng.below(255) << ";\n"; break;
      default: src << "  for (int k = 0; k < 3; k++) { acc += k; }\n";
    }
  }
  src << "  return acc & 65535;\n}\n";
  return src.str();
}

TEST_P(MigrateEquivalence, ResumedRunMatchesUninterruptedRun) {
  Rng rng(GetParam());
  const fs::path dir = fs::temp_directory_path() / "mojave_equiv";
  fs::create_directories(dir);
  const fs::path ckpt =
      dir / ("s" + std::to_string(GetParam()) + ".img");
  fs::remove(ckpt);

  const std::string src = random_program(rng, ckpt.string());
  fir::Program program = frontend::compile_source("equiv", src);

  // Uninterrupted run (the checkpoint protocol continues execution).
  vm::Process straight(fir::clone_program(program));
  migrate::Migrator mig(straight);
  const auto direct = straight.run();
  ASSERT_EQ(direct.kind, vm::RunResult::Kind::kHalted);
  ASSERT_TRUE(fs::exists(ckpt));

  // Resume the image: phase 2 recomputes from the checkpointed state.
  const auto resumed = migrate::resurrect_from_file(
      ckpt, {.cfg = {}, .prepare = [](vm::Process& proc) {
               proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
             }});
  ASSERT_EQ(resumed.run.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(resumed.run.exit_code, direct.exit_code) << src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, MigrateEquivalence,
                         ::testing::Values(7, 14, 21, 28, 35, 42, 49, 56, 63,
                                           70));

// --- Randomized differential against an oracle -------------------------------
//
// A seeded generator builds a MojC program as a small AST; the same AST is
// printed as MojC and evaluated by a C++ oracle. The programs exercise what
// the CPS conversion must get right about locals: nested scopes with
// shadowing (including `int x = x + 1;`), while/for/do-while with
// break/continue, if/else, user calls with locals live across them, locals
// mutated inside speculate followed by commit, abort(id, c) or rollback
// (nested levels included), and a checkpoint:// migrate in the middle of a
// loop. The compiled program must halt with the oracle's value in both
// tiers, optimized or not, and so must a resume of its checkpoint image.

struct GExpr;
using GE = std::shared_ptr<const GExpr>;
struct GExpr {
  enum class K { kLit, kVar, kElem, kBin } k = K::kLit;
  std::int64_t lit = 0;  ///< kLit value; kElem index into `a`
  std::string name;      ///< kVar
  std::string op;        ///< kBin
  GE l, r;
};

enum class GK {
  kDecl,        // int name = e;   (int name; when e is null)
  kAssign,      // name = e;
  kStore,       // a[n] = e;
  kFloat,       // fz = (fz * 0.5) + i2f(e % 1000);
  kFoldFloat,   // name = (name * 31) + f2i(fz * 4.0);
  kCall,        // [int] name = f<n>(args);   (a declaration iff flag)
  kIf,          // if (e) { body } else { other }
  kBlock,       // { body }
  kWhile,       // int name = 0; while (name < n) { name = name + 1; body }
  kFor,         // for (int name = 0; name < n; name++) { body }
  kDo,          // int name = 0; do { name = name + 1; body } while (name < n);
  kBreakIf,     // if (e) { break; }
  kContinueIf,  // if (e) { continue; }
  kSpec,        // int name = speculate(); ...   (see Emitter::stmt)
  kMigrateAt,   // if (name == n) { migrate("checkpoint://..."); }
};

struct GStmt;
using GS = std::shared_ptr<const GStmt>;
using GBlock = std::vector<GS>;
struct GStmt {
  GK k = GK::kAssign;
  std::string name;
  std::int64_t n = 0;
  bool flag = false;
  int outcome = 0;  ///< kSpec: 0 commit, 1 abort(id, -n), 2 rollback(id, -n)
  GE e;
  std::vector<GE> args;
  GBlock body, other;
};

struct GFun {
  std::string name;
  std::vector<std::string> params;
  GBlock body;  ///< shares the parameters' scope, as in MojC
  GE ret;
};

struct GProgram {
  std::vector<GFun> helpers;
  GBlock main;  ///< ends by computing `h`, which main returns
};

constexpr int kHeapSlots = 8;

GE g_lit(std::int64_t v) {
  auto e = std::make_shared<GExpr>();
  e->lit = v;
  return e;
}

GE g_var(const std::string& name) {
  auto e = std::make_shared<GExpr>();
  e->k = GExpr::K::kVar;
  e->name = name;
  return e;
}

GE g_elem(std::int64_t i) {
  auto e = std::make_shared<GExpr>();
  e->k = GExpr::K::kElem;
  e->lit = i;
  return e;
}

GE g_bin(const std::string& op, GE l, GE r) {
  auto e = std::make_shared<GExpr>();
  e->k = GExpr::K::kBin;
  e->op = op;
  e->l = std::move(l);
  e->r = std::move(r);
  return e;
}

class OracleGen {
 public:
  explicit OracleGen(std::uint64_t seed) : rng_(seed) {}

  GProgram program() {
    GProgram p;
    const int nhelpers = 1 + static_cast<int>(rng_.below(3));
    for (int f = 0; f < nhelpers; ++f) {
      GFun fn;
      fn.name = "f" + std::to_string(f);
      scopes_ = {{}};
      const int nparams = 1 + static_cast<int>(rng_.below(3));
      for (int i = 0; i < nparams; ++i) {
        fn.params.push_back("p" + std::to_string(i));
        scopes_.back().push_back({fn.params.back(), true});
      }
      const Where at{.heap = false, .funs = f, .loops = 0, .specs = 0,
                     .depth = 0};
      fn.body = stmts(at, 2 + static_cast<int>(rng_.below(4)));
      fn.ret = expr(at, 2);
      arity_.push_back(fn.params.size());
      p.helpers.push_back(std::move(fn));
    }

    // main's own `ptr a` and `float fz` are declared by the emitter.
    scopes_ = {{}};
    const Where at{.heap = true, .funs = nhelpers, .loops = 0, .specs = 0,
                   .depth = 0};
    p.main = stmts(at, 3 + static_cast<int>(rng_.below(4)));
    {
      // The checkpoint loop: migrate once, mid-loop, outside any level.
      auto loop = std::make_shared<GStmt>();
      loop->k = GK::kFor;
      loop->name = fresh("i");
      loop->n = 2 + static_cast<std::int64_t>(rng_.below(3));
      auto mig = std::make_shared<GStmt>();
      mig->k = GK::kMigrateAt;
      mig->name = loop->name;
      mig->n = static_cast<std::int64_t>(
          rng_.below(static_cast<std::uint64_t>(loop->n)));
      scopes_.push_back({{loop->name, false}});
      Where body = at;
      body.depth = 1;
      loop->body = block(body, 1 + static_cast<int>(rng_.below(3)));
      loop->body.insert(loop->body.begin(), mig);
      scopes_.pop_back();
      p.main.push_back(loop);
    }
    for (GS& st : stmts(at, 2 + static_cast<int>(rng_.below(4)))) {
      p.main.push_back(std::move(st));
    }
    // h folds every visible local, the heap array and fz.
    const std::vector<std::string> vars = visible(false);
    auto h = std::make_shared<GStmt>();
    h->k = GK::kDecl;
    h->name = "h";
    h->e = g_lit(0);
    p.main.push_back(h);
    const auto fold = [&](GE e) {
      auto st = std::make_shared<GStmt>();
      st->name = "h";
      st->e = g_bin("+", g_bin("*", g_var("h"), g_lit(31)), std::move(e));
      p.main.push_back(st);
    };
    for (const std::string& v : vars) fold(g_var(v));
    for (int i = 0; i < kHeapSlots; ++i) fold(g_elem(i));
    auto ff = std::make_shared<GStmt>();
    ff->k = GK::kFoldFloat;
    ff->name = "h";
    p.main.push_back(ff);
    return p;
  }

 private:
  /// What the statement being generated may use.
  struct Where {
    bool heap;  ///< in main: `a` and `fz` exist
    int funs;   ///< helpers f0..f<funs-1> are callable
    int loops;  ///< enclosing loops a break/continue may leave
    int specs;  ///< enclosing speculation levels
    int depth;  ///< statement nesting
  };

  std::string fresh(const std::string& stem) {
    return stem + std::to_string(uniq_++);
  }

  /// Visible locals (the innermost binding of each name).
  std::vector<std::string> visible(bool writable_only) const {
    std::vector<std::string> seen;
    std::vector<std::string> out;
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      for (const auto& [name, writable] : *it) {
        if (std::find(seen.begin(), seen.end(), name) != seen.end()) continue;
        seen.push_back(name);
        if (writable || !writable_only) out.push_back(name);
      }
    }
    return out;
  }

  const std::string& pick(const std::vector<std::string>& v) {
    return v[rng_.below(v.size())];
  }

  std::int64_t below(std::uint64_t n) {
    return static_cast<std::int64_t>(rng_.below(n));
  }

  GE expr(const Where& at, int depth) {
    if (depth <= 0 || rng_.below(10) < 4) {
      const std::uint64_t t = rng_.below(10);
      const std::vector<std::string> vars = visible(false);
      if (t < 5 && !vars.empty()) return g_var(pick(vars));
      if (t < 7 && at.heap) return g_elem(below(kHeapSlots));
      return g_lit(below(20));
    }
    static const std::vector<std::string> ops = {"+", "-", "*", "^",
                                                 "&", "%", "+"};
    const std::string& op = pick(ops);
    GE l = expr(at, depth - 1);
    GE r = op == "%" ? g_lit(1 + below(9)) : expr(at, depth - 1);
    return g_bin(op, std::move(l), std::move(r));
  }

  GE cond(const Where& at) {
    static const std::vector<std::string> cmps = {"<", "==", "!=", ">="};
    GE c = g_bin(pick(cmps), expr(at, 1), expr(at, 1));
    if (rng_.below(4) == 0) {
      c = g_bin(rng_.below(2) == 0 ? "&&" : "||", c,
                g_bin(pick(cmps), expr(at, 1), expr(at, 1)));
    }
    return c;
  }

  /// A name not yet declared in the innermost scope (it may shadow an
  /// outer one), or "" when the pool is used up there.
  std::string decl_name() {
    static const std::vector<std::string> pool = {"x", "y", "z", "p0", "p1"};
    std::vector<std::string> free;
    for (const std::string& n : pool) {
      bool taken = false;
      for (const auto& [name, w] : scopes_.back()) taken = taken || name == n;
      if (!taken) free.push_back(n);
    }
    return free.empty() ? "" : pick(free);
  }

  GBlock stmts(const Where& at, int n) {
    GBlock b;
    for (int i = 0; i < n; ++i) b.push_back(stmt(at));
    return b;
  }

  GBlock block(const Where& at, int n) {
    scopes_.emplace_back();
    GBlock b = stmts(at, n);
    scopes_.pop_back();
    return b;
  }

  GS stmt(const Where& at) {
    auto s = std::make_shared<GStmt>();
    Where in = at;
    in.depth = at.depth + 1;
    const bool nest = at.depth < 3;
    for (;;) {
      switch (rng_.below(17)) {
        case 0:
        case 1:
        case 2:  // the initializer still sees an outer binding of the name
          s->name = decl_name();
          if (s->name.empty()) continue;
          s->k = GK::kDecl;
          if (rng_.below(5) != 0) s->e = expr(at, 2);
          scopes_.back().push_back({s->name, true});
          return s;
        case 3:
        case 4: {
          const std::vector<std::string> w = visible(true);
          if (w.empty()) continue;
          s->k = GK::kAssign;
          s->name = pick(w);
          s->e = expr(at, 2);
          return s;
        }
        case 5:
          if (!at.heap) continue;
          s->k = rng_.below(3) == 0 ? GK::kFloat : GK::kStore;
          s->n = below(kHeapSlots);
          s->e = expr(at, 2);
          return s;
        case 6:
        case 7: {  // the locals in scope live across the call
          if (at.funs == 0) continue;
          s->k = GK::kCall;
          s->n = below(static_cast<std::uint64_t>(at.funs));
          const std::vector<std::string> w = visible(true);
          s->flag = w.empty() || rng_.below(2) == 0;
          s->name = s->flag ? decl_name() : pick(w);
          if (s->name.empty()) continue;
          for (std::size_t i = 0; i < arity_[static_cast<std::size_t>(s->n)];
               ++i) {
            s->args.push_back(expr(at, 1));
          }
          if (s->flag) scopes_.back().push_back({s->name, true});
          return s;
        }
        case 8:
        case 9:
          if (!nest) continue;
          s->k = GK::kIf;
          s->e = cond(at);
          s->body = block(in, 1 + static_cast<int>(rng_.below(3)));
          if (rng_.below(3) != 0) {
            s->other = block(in, 1 + static_cast<int>(rng_.below(2)));
          }
          return s;
        case 10:
          if (!nest) continue;
          s->k = GK::kBlock;
          s->body = block(in, 1 + static_cast<int>(rng_.below(3)));
          return s;
        case 11:
        case 12: {
          if (!nest || at.loops >= 2) continue;
          static const GK kinds[] = {GK::kWhile, GK::kFor, GK::kDo};
          s->k = kinds[rng_.below(3)];
          s->name = fresh("i");
          s->n = 1 + below(4);
          Where body = in;
          body.loops = at.loops + 1;
          // A while/do counter lives in the enclosing scope, a for counter
          // in the init scope; the body only reads it.
          if (s->k == GK::kFor) scopes_.emplace_back();
          scopes_.back().push_back({s->name, false});
          s->body = block(body, 1 + static_cast<int>(rng_.below(3)));
          if (s->k == GK::kFor) scopes_.pop_back();
          return s;
        }
        case 13:
        case 14:
          if (at.loops == 0) continue;
          s->k = rng_.below(2) == 0 ? GK::kBreakIf : GK::kContinueIf;
          s->e = cond(at);
          return s;
        default: {  // no break/continue ever leaves a level
          if (!nest || at.specs >= 2) continue;
          s->k = GK::kSpec;
          s->name = fresh("s");  // a level number: never an operand
          s->outcome = static_cast<int>(rng_.below(3));
          s->n = 1 + below(5);
          Where body = in;
          body.loops = 0;
          body.specs = at.specs + 1;
          s->body = block(body, 1 + static_cast<int>(rng_.below(4)));
          if (s->outcome == 2) {
            s->other = block(body, 1 + static_cast<int>(rng_.below(3)));
          }
          return s;
        }
      }
    }
  }

  Rng rng_;
  std::vector<std::vector<std::pair<std::string, bool>>> scopes_;
  std::vector<std::size_t> arity_;
  int uniq_ = 0;
};

/// Prints a GProgram as MojC.
class Emitter {
 public:
  explicit Emitter(std::string ckpt) : ckpt_(std::move(ckpt)) {}

  std::string program(const GProgram& p) {
    for (const GFun& f : p.helpers) {
      out_ << "int " << f.name << "(";
      for (std::size_t i = 0; i < f.params.size(); ++i) {
        out_ << (i == 0 ? "" : ", ") << "int " << f.params[i];
      }
      out_ << ") {\n";
      stmts(f.body, 1);
      out_ << "  return " << expr(*f.ret) << ";\n}\n";
    }
    out_ << "int main() {\n  ptr a = alloc(" << kHeapSlots << ");\n";
    for (int i = 0; i < kHeapSlots; ++i) {
      out_ << "  a[" << i << "] = " << 3 * i + 1 << ";\n";
    }
    out_ << "  float fz;\n";
    stmts(p.main, 1);
    out_ << "  return h;\n}\n";
    return out_.str();
  }

 private:
  static std::string expr(const GExpr& e) {
    switch (e.k) {
      case GExpr::K::kLit: return std::to_string(e.lit);
      case GExpr::K::kVar: return e.name;
      case GExpr::K::kElem: return "a[" + std::to_string(e.lit) + "]";
      case GExpr::K::kBin:
        return "(" + expr(*e.l) + " " + e.op + " " + expr(*e.r) + ")";
    }
    return "?";
  }

  void stmts(const GBlock& b, int ind) {
    for (const GS& s : b) stmt(*s, ind);
  }

  void line(int ind, const std::string& text) {
    out_ << std::string(static_cast<std::size_t>(2 * ind), ' ') << text
         << "\n";
  }

  void stmt(const GStmt& s, int ind) {
    const std::string n = std::to_string(s.n);
    switch (s.k) {
      case GK::kDecl:
        line(ind, "int " + s.name +
                      (s.e != nullptr ? " = " + expr(*s.e) : "") + ";");
        return;
      case GK::kAssign: line(ind, s.name + " = " + expr(*s.e) + ";"); return;
      case GK::kStore: line(ind, "a[" + n + "] = " + expr(*s.e) + ";");
        return;
      case GK::kFloat:
        line(ind, "fz = (fz * 0.5) + i2f(" + expr(*s.e) + " % 1000);");
        return;
      case GK::kFoldFloat:
        line(ind, s.name + " = (" + s.name + " * 31) + f2i(fz * 4.0);");
        return;
      case GK::kCall: {
        std::string call = "f" + n + "(";
        for (std::size_t i = 0; i < s.args.size(); ++i) {
          call += (i == 0 ? "" : ", ") + expr(*s.args[i]);
        }
        line(ind, (s.flag ? "int " : "") + s.name + " = " + call + ");");
        return;
      }
      case GK::kIf:
        line(ind, "if (" + expr(*s.e) + ") {");
        stmts(s.body, ind + 1);
        if (!s.other.empty()) {
          line(ind, "} else {");
          stmts(s.other, ind + 1);
        }
        line(ind, "}");
        return;
      case GK::kBlock:
        line(ind, "{");
        stmts(s.body, ind + 1);
        line(ind, "}");
        return;
      case GK::kWhile:
        line(ind, "int " + s.name + " = 0;");
        line(ind, "while (" + s.name + " < " + n + ") {");
        line(ind + 1, s.name + " = " + s.name + " + 1;");
        stmts(s.body, ind + 1);
        line(ind, "}");
        return;
      case GK::kFor:
        line(ind, "for (int " + s.name + " = 0; " + s.name + " < " + n + "; " +
                      s.name + "++) {");
        stmts(s.body, ind + 1);
        line(ind, "}");
        return;
      case GK::kDo:
        line(ind, "int " + s.name + " = 0;");
        line(ind, "do {");
        line(ind + 1, s.name + " = " + s.name + " + 1;");
        stmts(s.body, ind + 1);
        line(ind, "} while (" + s.name + " < " + n + ");");
        return;
      case GK::kBreakIf: line(ind, "if (" + expr(*s.e) + ") { break; }");
        return;
      case GK::kContinueIf:
        line(ind, "if (" + expr(*s.e) + ") { continue; }");
        return;
      case GK::kSpec: {
        static const char* const ends[] = {"commit(", "abort(", "rollback("};
        line(ind, "int " + s.name + " = speculate();");
        line(ind, "if (" + s.name + " > 0) {");
        stmts(s.body, ind + 1);
        line(ind + 1, ends[s.outcome] + s.name +
                          (s.outcome == 0 ? "" : ", 0 - " + n) + ");");
        line(ind, "}");
        if (s.outcome == 2) {
          // The retry re-enters the level with c = -n.
          line(ind, "if (" + s.name + " < 0) {");
          stmts(s.other, ind + 1);
          line(ind + 1, "int l" + s.name + " = spec_level();");
          line(ind + 1, "commit(l" + s.name + ");");
          line(ind, "}");
        }
        return;
      }
      case GK::kMigrateAt:
        line(ind, "if (" + s.name + " == " + n + ") { migrate(\"checkpoint://" +
                      ckpt_ + "\"); }");
        return;
    }
  }

  std::string ckpt_;
  std::ostringstream out_;
};

/// Evaluates a GProgram directly, with MojC's semantics.
class Oracle {
 public:
  explicit Oracle(const GProgram& p) : p_(p) {}

  std::int64_t run_main() {
    heap_.clear();
    for (int i = 0; i < kHeapSlots; ++i) heap_.push_back(3 * i + 1);
    Env env;
    env.scopes.emplace_back();
    (void)exec_stmts(p_.main, env);
    return env.at("h");
  }

 private:
  struct Env {
    std::vector<std::map<std::string, std::int64_t>> scopes;
    double fz = 0.0;

    std::int64_t& at(const std::string& name) {
      for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        const auto f = it->find(name);
        if (f != it->end()) return f->second;
      }
      throw std::logic_error("oracle: unbound " + name);
    }
  };

  enum class Flow { kNext, kBreak, kContinue };

  std::int64_t eval(const GExpr& e, Env& env) {
    switch (e.k) {
      case GExpr::K::kLit: return e.lit;
      case GExpr::K::kVar: return env.at(e.name);
      case GExpr::K::kElem: return heap_[static_cast<std::size_t>(e.lit)];
      case GExpr::K::kBin: break;
    }
    const std::int64_t a = eval(*e.l, env);
    const std::int64_t b = eval(*e.r, env);
    if (e.op == "+") return wrap_add(a, b);
    if (e.op == "-") return wrap_sub(a, b);
    if (e.op == "*") return wrap_mul(a, b);
    if (e.op == "^") return a ^ b;
    if (e.op == "&") return a & b;
    if (e.op == "%") return wrap_mod(a, b);
    if (e.op == "<") return a < b ? 1 : 0;
    if (e.op == "==") return a == b ? 1 : 0;
    if (e.op == "!=") return a != b ? 1 : 0;
    if (e.op == ">=") return a >= b ? 1 : 0;
    if (e.op == "&&") return a != 0 && b != 0 ? 1 : 0;
    if (e.op == "||") return a != 0 || b != 0 ? 1 : 0;
    throw std::logic_error("oracle: operator " + e.op);
  }

  Flow exec_stmts(const GBlock& b, Env& env) {
    for (const GS& s : b) {
      const Flow f = exec(*s, env);
      if (f != Flow::kNext) return f;
    }
    return Flow::kNext;
  }

  Flow exec_block(const GBlock& b, Env& env) {
    env.scopes.emplace_back();
    const Flow f = exec_stmts(b, env);
    env.scopes.pop_back();
    return f;
  }

  /// A loop body `{ name = name + 1; body }` (while and do-while).
  Flow counted_body(const GStmt& s, Env& env) {
    env.scopes.emplace_back();
    ++env.at(s.name);
    const Flow f = exec_stmts(s.body, env);
    env.scopes.pop_back();
    return f;
  }

  std::int64_t call(const GFun& f, const std::vector<std::int64_t>& args) {
    Env env;
    env.scopes.emplace_back();
    for (std::size_t i = 0; i < args.size(); ++i) {
      env.scopes.back()[f.params[i]] = args[i];
    }
    (void)exec_stmts(f.body, env);
    return eval(*f.ret, env);
  }

  Flow exec(const GStmt& s, Env& env) {
    switch (s.k) {
      case GK::kDecl: {
        const std::int64_t v = s.e != nullptr ? eval(*s.e, env) : 0;
        env.scopes.back()[s.name] = v;
        return Flow::kNext;
      }
      case GK::kAssign: env.at(s.name) = eval(*s.e, env); return Flow::kNext;
      case GK::kStore:
        heap_[static_cast<std::size_t>(s.n)] = eval(*s.e, env);
        return Flow::kNext;
      case GK::kFloat:
        env.fz = env.fz * 0.5 +
                 static_cast<double>(wrap_mod(eval(*s.e, env), 1000));
        return Flow::kNext;
      case GK::kFoldFloat:
        env.at(s.name) = wrap_add(wrap_mul(env.at(s.name), 31),
                                  static_cast<std::int64_t>(env.fz * 4.0));
        return Flow::kNext;
      case GK::kCall: {
        std::vector<std::int64_t> args;
        for (const GE& a : s.args) args.push_back(eval(*a, env));
        const std::int64_t v =
            call(p_.helpers[static_cast<std::size_t>(s.n)], args);
        if (s.flag) {
          env.scopes.back()[s.name] = v;
        } else {
          env.at(s.name) = v;
        }
        return Flow::kNext;
      }
      case GK::kIf:
        return exec_block(eval(*s.e, env) != 0 ? s.body : s.other, env);
      case GK::kBlock: return exec_block(s.body, env);
      case GK::kWhile:
        env.scopes.back()[s.name] = 0;
        while (env.at(s.name) < s.n) {
          if (counted_body(s, env) == Flow::kBreak) break;
        }
        return Flow::kNext;
      case GK::kFor:
        env.scopes.push_back({{s.name, 0}});
        for (; env.at(s.name) < s.n; ++env.at(s.name)) {
          if (exec_block(s.body, env) == Flow::kBreak) break;
        }
        env.scopes.pop_back();
        return Flow::kNext;
      case GK::kDo:
        env.scopes.back()[s.name] = 0;
        do {
          if (counted_body(s, env) == Flow::kBreak) break;
        } while (env.at(s.name) < s.n);
        return Flow::kNext;
      case GK::kBreakIf:
        return eval(*s.e, env) != 0 ? Flow::kBreak : Flow::kNext;
      case GK::kContinueIf:
        return eval(*s.e, env) != 0 ? Flow::kContinue : Flow::kNext;
      case GK::kSpec: {
        // abort and rollback put the locals and the heap back as they
        // were at speculate(); rollback then runs the retry block.
        const Env saved_env = env;
        const std::vector<std::int64_t> saved_heap = heap_;
        (void)exec_block(s.body, env);
        if (s.outcome != 0) {
          env = saved_env;
          heap_ = saved_heap;
        }
        if (s.outcome == 2) (void)exec_block(s.other, env);
        return Flow::kNext;
      }
      case GK::kMigrateAt: return Flow::kNext;
    }
    return Flow::kNext;
  }

  const GProgram& p_;
  std::vector<std::int64_t> heap_;
};

class FrontendOracle : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontendOracle, EveryTierAndTheResumedImageMatchTheOracle) {
  const fs::path dir = fs::temp_directory_path() / "mojave_oracle";
  fs::create_directories(dir);
  for (std::uint64_t k = 0; k < 6; ++k) {
    const std::uint64_t seed = GetParam() * 100 + k;
    const fs::path ckpt = dir / ("s" + std::to_string(seed) + ".img");
    const GProgram gp = OracleGen(seed).program();
    const std::string src = Emitter(ckpt.string()).program(gp);
    const std::int64_t want = Oracle(gp).run_main();

    const fir::Program plain = frontend::compile_source("oracle", src);
    fir::Program opt = fir::clone_program(plain);
    (void)fir::inline_once(
        opt, fir::InlineLimits{native::kMaxRegs, native::kMaxCode});
    (void)fir::optimize(opt);
    for (const bool optimized : {false, true}) {
      for (const bool jit : {false, true}) {
        SCOPED_TRACE("seed " + std::to_string(seed) +
                     (optimized ? " optimized" : " unoptimized") +
                     (jit ? " threshold=1" : " jit=off") + "\n" + src);
        fs::remove(ckpt);
        vm::ProcessConfig cfg;
        cfg.max_instructions = 20'000'000;
        cfg.jit = native::JitOptions{.enabled = jit, .threshold = 1};
        vm::Process p(fir::clone_program(optimized ? opt : plain), cfg);
        migrate::Migrator mig(p);
        const auto run = p.run();
        ASSERT_EQ(run.kind, vm::RunResult::Kind::kHalted);
        EXPECT_EQ(run.exit_code, want);
        ASSERT_TRUE(fs::exists(ckpt));

        // The image resumes mid-loop and must finish the same way.
        const auto resumed = migrate::resurrect_from_file(
            ckpt, {.cfg = cfg, .prepare = [](vm::Process& proc) {
                     proc.adopt_hook(std::make_unique<migrate::Migrator>(proc));
                   }});
        ASSERT_EQ(resumed.run.kind, vm::RunResult::Kind::kHalted);
        EXPECT_EQ(resumed.run.exit_code, want);
      }
    }
    fs::remove(ckpt);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontendOracle,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
