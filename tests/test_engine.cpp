// Engine (umbrella API) tests: compile/run/resume/serve round trips, the
// exact surface the mojc CLI and downstream embedders use.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "core/engine.hpp"
#include "fir/ir.hpp"
#include "frontend/compile.hpp"
#include "gridapp/heat.hpp"
#include "obs/metrics.hpp"

namespace {

using namespace mojave;
namespace fs = std::filesystem;

TEST(Engine, RunSource) {
  Engine engine;
  const auto result = engine.run_source("t", "int main() { return 6 * 7; }");
  EXPECT_EQ(result.run.exit_code, 42);
  EXPECT_GT(result.vm.instructions, 0u);
}

TEST(Engine, OptimizerIsOnByDefaultAndCanBeDisabled) {
  const std::string src =
      "int main() { int a = 2 + 3; int b = a * a; return b; }";
  Engine on;
  EngineOptions off_opts;
  off_opts.optimize = false;
  Engine off(off_opts);
  const auto r_on = on.run_source("t", src);
  const auto r_off = off.run_source("t", src);
  EXPECT_EQ(r_on.run.exit_code, 25);
  EXPECT_EQ(r_off.run.exit_code, 25);
  // The optimized program executes strictly fewer instructions.
  EXPECT_LT(r_on.vm.instructions, r_off.vm.instructions);
}

TEST(Engine, CompileRecordsOptimizerCounters) {
  // f's returns read k/kenv back from the frame slots its entry wrote,
  // which store forwarding replaces; the optimizer also shares the
  // repeated `a * b`.
  const std::string src =
      "int f(int a, int b) { int c = a * b; int d = a * b;"
      "  if (c < d) { return 1; } return c + d; }"
      "int main() { int x = f(6, 7); return x; }";
  auto& reg = obs::MetricsRegistry::instance();
  const auto value = [&](const char* name) {
    return reg.counter(name).value();
  };
  const std::uint64_t forwarded = value("fir.opt.stores_forwarded");
  const std::uint64_t shared = value("fir.opt.exprs_shared");
  const std::uint64_t compares = value("fir.opt.compares_simplified");
  Engine engine;
  EXPECT_EQ(engine.run_source("t", src).run.exit_code, 84);
  EXPECT_GT(value("fir.opt.stores_forwarded"), forwarded);
  EXPECT_GT(value("fir.opt.exprs_shared"), shared);
  EXPECT_GT(value("fir.opt.compares_simplified"), compares);
}

/// Every heap access in `e` (both if-arms) whose base is variable `frame`:
/// the literal offsets of reads, and a count of everything else.
void frame_accesses(const fir::Expr* e, fir::VarId frame,
                    std::vector<std::int64_t>& read_slots, int& other) {
  using fir::ExprKind;
  for (; e != nullptr; e = e->next.get()) {
    const bool on_frame =
        e->a.kind == fir::Atom::Kind::kVar && e->a.var == frame;
    switch (e->kind) {
      case ExprKind::kLetRead:
        if (on_frame && e->b.kind == fir::Atom::Kind::kInt) {
          read_slots.push_back(e->b.i);
        } else if (on_frame) {
          ++other;
        }
        break;
      case ExprKind::kWrite:
      case ExprKind::kLetRawLoad:
      case ExprKind::kRawStore:
      case ExprKind::kLetRawLoadF:
      case ExprKind::kRawStoreF:
      case ExprKind::kLetLen:
      case ExprKind::kLetPtrAdd:
        if (on_frame) ++other;
        break;
      case ExprKind::kIf:
        frame_accesses(e->els.get(), frame, read_slots, other);
        break;
      default:
        break;
    }
  }
}

TEST(Engine, HeatComputeBlocksTouchOnlyTheReturnSlotsOfTheFrame) {
  // MojC locals are CPS block parameters, so once compiled (inlining and
  // the optimizer included) the heat kernel's blocks use their `frame`
  // only to return through k/kenv (slots 0 and 1).
  gridapp::HeatConfig cfg;
  cfg.nodes = 4;
  cfg.rows = 64;
  cfg.cols = 256;
  cfg.steps = 200;
  cfg.checkpoint_interval = 20;
  Engine engine;
  const fir::Program program =
      engine.compile("heat", gridapp::heat_mojc_source(cfg));
  int blocks = 0;
  for (const fir::Function& fn : program.functions) {
    if (fn.name.rfind("compute$", 0) != 0) continue;
    SCOPED_TRACE(fn.name);
    ++blocks;
    ASSERT_GE(fn.arity(), 1u);
    const fir::VarId frame = fn.arity() - 1;
    ASSERT_EQ(fn.var_names.at(frame), "frame");
    std::vector<std::int64_t> read_slots;
    int other = 0;
    frame_accesses(fn.body.get(), frame, read_slots, other);
    EXPECT_EQ(other, 0);
    for (const std::int64_t slot : read_slots) {
      EXPECT_TRUE(slot == 0 || slot == 1) << "reads frame slot " << slot;
    }
  }
  EXPECT_GE(blocks, 3);  // the loops and joins of compute's two sweeps
}

/// Frame writes (home-slot stores) in `e`, both if-arms included.
int frame_writes(const fir::Expr* e, fir::VarId frame) {
  int n = 0;
  for (; e != nullptr; e = e->next.get()) {
    if (e->kind == fir::ExprKind::kWrite &&
        e->a.kind == fir::Atom::Kind::kVar && e->a.var == frame) {
      ++n;
    }
    if (e->kind == fir::ExprKind::kIf) n += frame_writes(e->els.get(), frame);
  }
  return n;
}

TEST(Engine, CallAfterCallStoresOnlyTheLocalsItChanged) {
  // Before a user call every local in scope goes to its home slot. In the
  // part that follows a call, the locals it read back from those slots
  // are already there: only `a`, assigned from the first call, is
  // stored before the second.
  fir::Program program = frontend::compile_source("calls", R"(
    int f(int v) { return v + 1; }
    int main() {
      int x = 1;
      int y = 2;
      int z = 3;
      int a = f(x);
      int b = f(y);
      return a + b + z;
    }
  )");
  int parts = 0;
  for (const fir::Function& fn : program.functions) {
    if (fn.name.rfind("main$", 0) != 0) continue;
    const fir::VarId frame = fn.arity() - 1;
    ASSERT_EQ(fn.var_names.at(frame), "frame");
    SCOPED_TRACE(fn.name);
    const int writes = frame_writes(fn.body.get(), frame);
    if (fn.name.find("ret") != std::string::npos && writes > 0) {
      ++parts;
      EXPECT_EQ(writes, 1);
    }
  }
  EXPECT_EQ(parts, 1) << "one return part makes the second call";
  Engine engine;
  EXPECT_EQ(engine.run_program(std::move(program)).run.exit_code, 2 + 3 + 3);
}

TEST(Engine, CompileFileAndRunFile) {
  const fs::path dir = fs::temp_directory_path() / "mojave_engine_test";
  fs::create_directories(dir);
  const fs::path src = dir / "prog.mjc";
  {
    std::ofstream f(src);
    f << "int main() { print_string(\"file!\"); return 3; }";
  }
  Engine engine;
  const fir::Program program = engine.compile_file(src);
  EXPECT_EQ(program.name, "prog");
  EXPECT_EQ(engine.run_file(src).run.exit_code, 3);
}

TEST(Engine, CheckpointThenResumeFile) {
  const fs::path dir = fs::temp_directory_path() / "mojave_engine_ckpt";
  fs::create_directories(dir);
  const fs::path img = dir / "state.img";
  fs::remove(img);

  Engine engine;
  const std::string src = "int main() {"
                          "  int x = 10;"
                          "  migrate(\"suspend://" + img.string() + "\");"
                          "  return x + 32;"
                          "}";
  const auto first = engine.run_source("ckpt", src);
  EXPECT_EQ(first.run.kind, vm::RunResult::Kind::kMigratedAway);
  ASSERT_TRUE(fs::exists(img));

  const auto resumed = engine.resume_file(img);
  EXPECT_EQ(resumed.run.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(resumed.run.exit_code, 42);
}

TEST(Engine, ServeAcceptsMigrationsFromAnotherEngine) {
  Engine server_engine;
  const std::uint16_t port = server_engine.serve(0);
  ASSERT_GT(port, 0);

  Engine client;
  const std::string src =
      "int main() {"
      "  int x = 41;"
      "  migrate(\"migrate://127.0.0.1:" + std::to_string(port) + "\");"
      "  return x + 1;"
      "}";
  const auto local = client.run_source("hop", src);
  EXPECT_EQ(local.run.kind, vm::RunResult::Kind::kMigratedAway);
  server_engine.stop_server();
}

TEST(Engine, MissingFileIsAnError) {
  Engine engine;
  EXPECT_THROW((void)engine.run_file("/no/such/file.mjc"), Error);
  EXPECT_THROW((void)engine.resume_file("/no/such/image.img"), Error);
}

TEST(Engine, DumpFirGoesToTheConfiguredStream) {
  std::ostringstream dump;
  EngineOptions opts;
  opts.dump_fir = &dump;
  Engine engine(opts);
  (void)engine.run_source("d", "int main() { return 1; }");
  EXPECT_NE(dump.str().find("fun main"), std::string::npos);
  EXPECT_NE(dump.str().find("halt"), std::string::npos);
}

}  // namespace
