// MojC frontend tests: parsing, semantic errors, and end-to-end execution
// of compiled programs — including the paper's Figure 1 speculative
// transfer example.
#include <gtest/gtest.h>

#include <sstream>

#include "frontend/compile.hpp"
#include "frontend/parser.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;

std::int64_t run_mojc(const std::string& src, std::string* output = nullptr) {
  fir::Program prog = frontend::compile_source("test", src);
  std::ostringstream out;
  vm::ProcessConfig cfg;
  cfg.output = &out;
  cfg.max_instructions = 50'000'000;
  vm::Process p(std::move(prog), cfg);
  const auto r = p.run();
  EXPECT_EQ(r.kind, vm::RunResult::Kind::kHalted);
  if (output != nullptr) *output = out.str();
  return r.exit_code;
}

TEST(Frontend, ReturnsLiteral) {
  EXPECT_EQ(run_mojc("int main() { return 42; }"), 42);
}

TEST(Frontend, ArithmeticAndPrecedence) {
  EXPECT_EQ(run_mojc("int main() { return 2 + 3 * 4 - 6 / 2; }"), 11);
  EXPECT_EQ(run_mojc("int main() { return (2 + 3) * 4 % 7; }"), 6);
  EXPECT_EQ(run_mojc("int main() { return 1 << 4 | 3; }"), 19);
}

TEST(Frontend, FloatsAndConversions) {
  EXPECT_EQ(run_mojc("int main() { float x = 2.5; float y = x * 2.0; "
                     "return f2i(y); }"),
            5);
  EXPECT_EQ(run_mojc("int main() { float x = i2f(7) / 2.0; "
                     "return f2i(x * 2.0); }"),
            7);
  // Implicit int→float promotion in mixed arithmetic.
  EXPECT_EQ(run_mojc("int main() { float x = 1 + 0.5; return f2i(x * 2.0); }"),
            3);
}

TEST(Frontend, WhileLoopAndMutation) {
  EXPECT_EQ(run_mojc("int main() { int i = 0; int acc = 0;"
                     "  while (i < 10) { acc = acc + i; i = i + 1; }"
                     "  return acc; }"),
            45);
}

TEST(Frontend, BreakAndContinue) {
  EXPECT_EQ(run_mojc("int main() { int i = 0; int acc = 0;"
                     "  while (1) {"
                     "    i = i + 1;"
                     "    if (i > 10) { break; }"
                     "    if (i % 2 == 0) { continue; }"
                     "    acc = acc + i;"
                     "  }"
                     "  return acc; }"),
            25);  // 1+3+5+7+9
}

TEST(Frontend, ShortCircuitInConditions) {
  // RHS of && must not be evaluated when LHS is false: reading a[9] would
  // trap on the 2-slot block.
  EXPECT_EQ(run_mojc("int main() { ptr a = alloc(2); int i = 9;"
                     "  if (i < 2 && a[i] == 0) { return 1; }"
                     "  return 2; }"),
            2);
  EXPECT_EQ(run_mojc("int main() { ptr a = alloc(2); int i = 9;"
                     "  if (i >= 2 || a[i] == 0) { return 1; }"
                     "  return 2; }"),
            1);
}

TEST(Frontend, FunctionCallsAndRecursion) {
  EXPECT_EQ(run_mojc("int fib(int n) {"
                     "  if (n < 2) { return n; }"
                     "  int a = fib(n - 1);"
                     "  int b = fib(n - 2);"
                     "  return a + b;"
                     "}"
                     "int main() { return fib(12); }"),
            144);
}

TEST(Frontend, VoidFunctionsAndGlobalsViaPointers) {
  EXPECT_EQ(run_mojc("void bump(ptr cell, int by) {"
                     "  cell[0] = cell[0] + by;"
                     "}"
                     "int main() {"
                     "  ptr cell = alloc(1);"
                     "  bump(cell, 3); bump(cell, 4);"
                     "  return cell[0];"
                     "}"),
            7);
}

TEST(Frontend, ArraysAndRawMemory) {
  EXPECT_EQ(run_mojc("int main() {"
                     "  ptr a = alloc(10);"
                     "  int i = 0;"
                     "  while (i < 10) { a[i] = i * i; i = i + 1; }"
                     "  ptr r = alloc_raw(8);"
                     "  store32(r, 0, a[7]);"
                     "  return load32(r, 0) + len(a);"
                     "}"),
            59);
}

TEST(Frontend, FloatArrays) {
  EXPECT_EQ(run_mojc("int main() {"
                     "  ptr a = alloc(4);"
                     "  a[0] = 1.5; a[1] = 2.5;"
                     "  float s = readf(a, 0) + readf(a, 1);"
                     "  return f2i(s);"
                     "}"),
            4);
}

TEST(Frontend, PrintExternals) {
  std::string out;
  EXPECT_EQ(run_mojc("int main() {"
                     "  print_string(\"x=\"); print_int(41 + 1);"
                     "  print_string(\"\\n\");"
                     "  return 0; }",
                     &out),
            0);
  EXPECT_EQ(out, "x=42\n");
}

TEST(Frontend, SpeculationCommit) {
  EXPECT_EQ(run_mojc("int main() {"
                     "  ptr a = alloc(1); a[0] = 10;"
                     "  int id = speculate();"
                     "  if (id > 0) {"
                     "    a[0] = 20;"
                     "    commit(id);"
                     "    return a[0];"
                     "  }"
                     "  return a[0];"
                     "}"),
            20);
}

TEST(Frontend, SpeculationAbortRestoresLocalsAndHeap) {
  // Both the heap array AND the local variable x roll back: x is an
  // argument of the continuation speculate() saved with the level.
  EXPECT_EQ(run_mojc("int main() {"
                     "  ptr a = alloc(1); a[0] = 10;"
                     "  int x = 1;"
                     "  int id = speculate();"
                     "  if (id > 0) {"
                     "    a[0] = 20; x = 2;"
                     "    abort(id);"
                     "  }"
                     "  return a[0] * 100 + x * 10 + id;"
                     "}"),
            1010);  // a[0]=10 restored, x=1 restored, id=0 after abort
}

TEST(Frontend, Figure1TransferAtomicity) {
  // The paper's Figure 1 (bottom): a speculative transfer that swaps the
  // first k "bytes" (slots here) of two objects; injected write failure
  // aborts the speculation, and the objects must be untouched.
  const std::string src = R"(
    // read/write with injected failure: fail_at selects which write fails.
    int try_transfer(ptr obj1, ptr obj2, int k, int fail_at) {
      int id = speculate();
      if (id > 0) {
        // copy obj1 -> tmp1, obj2 -> tmp2
        ptr tmp1 = alloc(k);
        ptr tmp2 = alloc(k);
        int i = 0;
        while (i < k) { tmp1[i] = obj1[i]; tmp2[i] = obj2[i]; i = i + 1; }
        // write obj1 <- tmp2 (maybe failing), obj2 <- tmp1
        i = 0;
        while (i < k) {
          if (fail_at == i) { abort(id); }
          obj1[i] = tmp2[i];
          i = i + 1;
        }
        i = 0;
        while (i < k) {
          if (fail_at == k + i) { abort(id); }
          obj2[i] = tmp1[i];
          i = i + 1;
        }
        commit(id);
        return 1;  // success
      }
      return 0;  // speculation aborted -> failure, state restored
    }

    int main() {
      ptr a = alloc(4);
      ptr b = alloc(4);
      int i = 0;
      while (i < 4) { a[i] = 100 + i; b[i] = 200 + i; i = i + 1; }

      // Failing transfer mid-way through the second write: must be a no-op.
      int ok = try_transfer(a, b, 4, 6);
      if (ok != 0) { return 1; }
      i = 0;
      while (i < 4) {
        if (a[i] != 100 + i) { return 2; }
        if (b[i] != 200 + i) { return 3; }
        i = i + 1;
      }

      // Successful transfer: contents must be swapped.
      ok = try_transfer(a, b, 4, 0 - 1);
      if (ok == 0) { return 4; }
      i = 0;
      while (i < 4) {
        if (a[i] != 200 + i) { return 5; }
        if (b[i] != 100 + i) { return 6; }
        i = i + 1;
      }
      return 0;
    }
  )";
  EXPECT_EQ(run_mojc(src), 0);
}

TEST(Frontend, NestedSpeculations) {
  EXPECT_EQ(run_mojc("int main() {"
                     "  ptr a = alloc(1); a[0] = 1;"
                     "  int outer = speculate();"
                     "  if (outer > 0) {"
                     "    a[0] = 2;"
                     "    int inner = speculate();"
                     "    if (inner > 0) {"
                     "      a[0] = 3;"
                     "      abort(inner);"
                     "    }"
                     "    int mid = a[0];"
                     "    commit(outer);"
                     "    return mid * 10 + a[0];"
                     "  }"
                     "  return 0 - 1;"
                     "}"),
            22);
}

TEST(Frontend, RollbackRetries) {
  // rollback(id, c) re-enters the speculation with the new c.
  EXPECT_EQ(run_mojc("int main() {"
                     "  ptr a = alloc(1); a[0] = 5;"
                     "  int id = speculate();"
                     "  if (id > 0) {"
                     "    a[0] = 99;"
                     "    rollback(id, 0 - 7);"
                     "  }"
                     "  int lvl = spec_level();"
                     "  commit(lvl);"
                     "  return a[0] * 100 + lvl * 10 + (0 - id);"
                     "}"),
            517);  // 5*100 + 1*10 + 7
}

TEST(Frontend, SemanticErrors) {
  EXPECT_THROW(run_mojc("int main() { return x; }"), TypeError);
  EXPECT_THROW(run_mojc("int main() { int x = 1; int x = 2; return x; }"),
               TypeError);
  EXPECT_THROW(run_mojc("int main() { float f = 1.5; return f; }"), TypeError);
  EXPECT_THROW(run_mojc("void f() {} int main() { int x = f(); return x; }"),
               TypeError);
  EXPECT_THROW(run_mojc("int main() { return undeclared_fn(); }"), TypeError);
  EXPECT_THROW(run_mojc("int main() { speculate(); return 0; }"), TypeError);
  EXPECT_THROW(run_mojc("int main() { break; }"), TypeError);
  EXPECT_THROW(run_mojc("int g(int a) { return a; }"
                        "int main() { return g(1) + 1; }"),
               TypeError);  // user calls cannot nest in expressions
}

TEST(Frontend, ParseErrors) {
  EXPECT_THROW(run_mojc("int main() { return 1 }"), ParseError);
  EXPECT_THROW(run_mojc("int main( { return 1; }"), ParseError);
  EXPECT_THROW(run_mojc("int main() { \"unterminated }"), ParseError);
  EXPECT_THROW(run_mojc("int main() { int x = 1e; return x; }"), ParseError);
}

TEST(Frontend, ScopesAreLexical) {
  EXPECT_EQ(run_mojc("int main() {"
                     "  int x = 1;"
                     "  { int y = 10; x = x + y; }"
                     "  { int y = 20; x = x + y; }"
                     "  return x;"
                     "}"),
            31);
  // A name declared inside a block is not visible outside it.
  EXPECT_THROW(run_mojc("int main() { { int y = 1; } return y; }"), TypeError);
}

TEST(Frontend, ExternDeclarations) {
  fir::Program prog = frontend::compile_source(
      "ext", "extern int my_host_fn(int, int);"
             "int main() { int r = my_host_fn(20, 22); return r; }");
  vm::Process p(std::move(prog));
  p.vm().register_external(
      "my_host_fn",
      [](vm::Interpreter&, std::span<const runtime::Value> args) {
        return runtime::Value::from_int(args[0].as_int() + args[1].as_int());
      });
  EXPECT_EQ(p.run().exit_code, 42);
}

}  // namespace
