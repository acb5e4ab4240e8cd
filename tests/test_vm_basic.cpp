// End-to-end sanity tests for the builder → typecheck → lower → interpret
// pipeline, including the speculation primitives at the FIR level.
#include <gtest/gtest.h>

#include <sstream>

#include "fir/builder.hpp"
#include "fir/printer.hpp"
#include "fir/serialize.hpp"
#include "fir/typecheck.hpp"
#include "vm/process.hpp"

namespace {

using namespace mojave;
using fir::Atom;
using fir::Binop;
using fir::ProgramBuilder;
using fir::Type;
using runtime::Value;

TEST(VmBasic, HaltWithCode) {
  ProgramBuilder pb("halt");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    fb.halt(Atom::integer(42));
  }
  vm::Process p(pb.take("main"));
  const auto result = p.run();
  EXPECT_EQ(result.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(result.exit_code, 42);
}

TEST(VmBasic, LoopViaRecursion) {
  // sum 1..10 with a CPS loop: loop(i, acc) = i > 10 ? halt acc : loop(i+1, acc+i)
  ProgramBuilder pb("sum");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare("loop", {Type::integer(), Type::integer()});
  {
    auto fb = pb.define(main_id, {});
    fb.tail_call(Atom::fun_ref(loop_id), {Atom::integer(1), Atom::integer(0)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "acc"});
    auto done = fb.let_binop("done", Binop::kGt, fb.arg(0), Atom::integer(10));
    fb.branch(
        fb.v(done), [&](auto& t) { t.halt(t.arg(1)); },
        [&](auto& e) {
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          auto a1 = e.let_binop("a1", Binop::kAdd, e.arg(1), e.arg(0));
          e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), e.v(a1)});
        });
  }
  vm::Process p(pb.take("main"));
  EXPECT_EQ(p.run().exit_code, 55);
}

TEST(VmBasic, HeapReadWrite) {
  ProgramBuilder pb("heap");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(4), Atom::integer(0));
    fb.write(fb.v(buf), Atom::integer(2), Atom::integer(99));
    auto x = fb.let_read("x", Type::integer(), fb.v(buf), Atom::integer(2));
    fb.halt(fb.v(x));
  }
  vm::Process p(pb.take("main"));
  EXPECT_EQ(p.run().exit_code, 99);
}

TEST(VmBasic, RawBlockLittleEndian) {
  ProgramBuilder pb("raw");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc_raw("buf", Atom::integer(16));
    fb.raw_store(4, fb.v(buf), Atom::integer(0), Atom::integer(0x01020304));
    // Little-endian: byte 0 must be 0x04.
    auto b0 = fb.let_raw_load("b0", 1, fb.v(buf), Atom::integer(0));
    fb.halt(fb.v(b0));
  }
  vm::Process p(pb.take("main"));
  EXPECT_EQ(p.run().exit_code, 0x04);
}

TEST(VmBasic, OutOfBoundsReadIsSafetyError) {
  ProgramBuilder pb("oob");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(2), Atom::integer(0));
    auto x = fb.let_read("x", Type::integer(), fb.v(buf), Atom::integer(5));
    fb.halt(fb.v(x));
  }
  vm::Process p(pb.take("main"));
  EXPECT_THROW(p.run(), SafetyError);
}

TEST(VmBasic, SpeculateCommitKeepsWrites) {
  // main: buf = alloc; speculate body(c, buf)
  // body(c, buf): buf[0] = 7; commit [c] done(buf)
  // done(buf): halt buf[0]
  ProgramBuilder pb("spec_commit");
  auto main_id = pb.declare("main", {});
  auto body_id = pb.declare("body", {Type::integer(), Type::ptr()});
  auto done_id = pb.declare("done", {Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(0));
    fb.speculate(Atom::fun_ref(body_id), {fb.v(buf)});
  }
  {
    auto fb = pb.define(body_id, {"c", "buf"});
    fb.write(fb.arg(1), Atom::integer(0), Atom::integer(7));
    fb.commit(fb.arg(0), Atom::fun_ref(done_id), {fb.arg(1)});
  }
  {
    auto fb = pb.define(done_id, {"buf"});
    auto x = fb.let_read("x", Type::integer(), fb.arg(0), Atom::integer(0));
    fb.halt(fb.v(x));
  }
  vm::Process p(pb.take("main"));
  EXPECT_EQ(p.run().exit_code, 7);
}

TEST(VmBasic, AbortRestoresHeapAndReportsZeroC) {
  // body(c, buf): if c > 0 { buf[0] = 7; abort [c, 0] } else halt buf[0]
  // After abort, re-entry has c == 0 and buf[0] must be back to its initial 3.
  ProgramBuilder pb("spec_abort");
  auto main_id = pb.declare("main", {});
  auto body_id = pb.declare("body", {Type::integer(), Type::ptr()});
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
          t.write(t.arg(1), Atom::integer(0), Atom::integer(7));
          t.abort_spec(t.arg(0), Atom::integer(0));
        },
        [&](auto& e) {
          auto x =
              e.let_read("x", Type::integer(), e.arg(1), Atom::integer(0));
          e.halt(e.v(x));
        });
  }
  vm::Process p(pb.take("main"));
  EXPECT_EQ(p.run().exit_code, 3);
}

TEST(VmBasic, RollbackRetriesWithNewC) {
  // Retry semantics: rollback re-enters the level; second pass must see the
  // restored value and a changed c, then commit.
  ProgramBuilder pb("spec_retry");
  auto main_id = pb.declare("main", {});
  auto body_id = pb.declare("body", {Type::integer(), Type::ptr()});
  auto done_id = pb.declare("done", {Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(1), Atom::integer(10));
    fb.speculate(Atom::fun_ref(body_id), {fb.v(buf)});
  }
  {
    auto fb = pb.define(body_id, {"c", "buf"});
    // c > 0 means first entry (c == level id); retry passes c = -5.
    auto first = fb.let_binop("first", Binop::kGt, fb.arg(0), Atom::integer(0));
    fb.branch(
        fb.v(first),
        [&](auto& t) {
          t.write(t.arg(1), Atom::integer(0), Atom::integer(77));
          t.rollback(t.arg(0), Atom::integer(-5));
        },
        [&](auto& e) {
          // Value restored (10), c changed to -5, and we are inside the
          // automatically re-entered level — commit it and finish.
          auto lvl = e.let_external("lvl", Type::integer(), "spec_level", {});
          e.commit(e.v(lvl), Atom::fun_ref(done_id), {e.arg(1)});
        });
  }
  {
    auto fb = pb.define(done_id, {"buf"});
    auto x = fb.let_read("x", Type::integer(), fb.arg(0), Atom::integer(0));
    fb.halt(fb.v(x));
  }
  vm::Process p(pb.take("main"));
  EXPECT_EQ(p.run().exit_code, 10);
}

TEST(VmBasic, ExternalPrint) {
  ProgramBuilder pb("hello");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto u = fb.let_external("u", Type::unit(), "print_string",
                             {pb.str("hello, mojave\n")});
    (void)u;
    fb.halt(Atom::integer(0));
  }
  std::ostringstream out;
  vm::ProcessConfig cfg;
  cfg.output = &out;
  vm::Process p(pb.take("main"), cfg);
  EXPECT_EQ(p.run().exit_code, 0);
  EXPECT_EQ(out.str(), "hello, mojave\n");
}

TEST(VmBasic, SerializationRoundTripPreservesBehaviour) {
  ProgramBuilder pb("roundtrip");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare("loop", {Type::integer(), Type::integer()});
  {
    auto fb = pb.define(main_id, {});
    fb.tail_call(Atom::fun_ref(loop_id), {Atom::integer(0), Atom::integer(1)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "acc"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0), Atom::integer(6));
    fb.branch(
        fb.v(done), [&](auto& t) { t.halt(t.arg(1)); },
        [&](auto& e) {
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          auto a1 = e.let_binop("a1", Binop::kMul, e.arg(1), Atom::integer(2));
          e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), e.v(a1)});
        });
  }
  fir::Program original = pb.take("main");
  const auto bytes = fir::encode_program(original);
  fir::Program decoded = fir::decode_program(bytes);
  EXPECT_EQ(fir::to_string(original), fir::to_string(decoded));

  vm::Process p(std::move(decoded));
  EXPECT_EQ(p.run().exit_code, 64);
}

/// A CPS loop big enough to be preempted many times: run to completion in
/// tiny slices and the answer, instruction count, and preemption count
/// must all line up with the unbounded run. This is the contract the
/// fiber scheduler stands on.
TEST(VmBasic, SlicedRunMatchesUnboundedRun) {
  const auto build = [] {
    ProgramBuilder pb("sum1k");
    auto main_id = pb.declare("main", {});
    auto loop_id = pb.declare("loop", {Type::integer(), Type::integer()});
    {
      auto fb = pb.define(main_id, {});
      fb.tail_call(Atom::fun_ref(loop_id),
                   {Atom::integer(1), Atom::integer(0)});
    }
    {
      auto fb = pb.define(loop_id, {"i", "acc"});
      auto done =
          fb.let_binop("done", Binop::kGt, fb.arg(0), Atom::integer(1000));
      fb.branch(
          fb.v(done), [&](auto& t) { t.halt(t.arg(1)); },
          [&](auto& e) {
            auto i1 =
                e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
            auto a1 = e.let_binop("a1", Binop::kAdd, e.arg(1), e.arg(0));
            e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), e.v(a1)});
          });
    }
    return pb.take("main");
  };

  vm::Process whole(build());
  const auto full = whole.run();
  ASSERT_EQ(full.kind, vm::RunResult::Kind::kHalted);
  EXPECT_EQ(full.exit_code, 1000 * 1001 / 2);
  const std::uint64_t full_insns = whole.vm().stats().instructions;

  vm::Process sliced(build());
  auto& vm = sliced.vm();
  vm.start(vm.compiled().entry, {});
  ASSERT_TRUE(vm.slice_active());
  int preemptions = 0;
  vm::SliceResult r;
  do {
    r = vm.run_slice(50);
    if (r.status == vm::SliceResult::Status::kPreempted) ++preemptions;
    ASSERT_NE(r.status, vm::SliceResult::Status::kBlocked);
    ASSERT_LT(preemptions, 100000) << "slice loop ran away";
  } while (r.status == vm::SliceResult::Status::kPreempted);
  ASSERT_EQ(r.status, vm::SliceResult::Status::kHalted);
  EXPECT_FALSE(vm.slice_active());
  EXPECT_EQ(r.exit_code, full.exit_code);
  EXPECT_EQ(vm.stats().instructions, full_insns)
      << "preemption must not retire extra instructions";
  EXPECT_GT(preemptions, 10) << "budget of 50 never preempted a ~1k-iter loop";
}

/// An external that blocks is re-executed on resume (Interpreter::block
/// un-retires it), so a gated external must see every attempt while the
/// program observes exactly one successful call with the right result.
TEST(VmBasic, WouldBlockParksAndReExecutesExternal) {
  ProgramBuilder pb("blocky");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    auto v = fb.let_external("v", Type::integer(), "gated_value", {});
    auto v2 = fb.let_binop("v2", Binop::kAdd, fb.v(v), Atom::integer(1));
    fb.halt(fb.v(v2));
  }
  vm::Process p(pb.take("main"));
  auto& vm = p.vm();
  int attempts = 0;
  vm.register_external(
      "gated_value",
      [&](vm::Interpreter& it, std::span<const runtime::Value>) -> Value {
        if (++attempts < 3) {
          it.block(123.5);
          return Value::unit();
        }
        return Value::from_int(41);
      });
  vm.start(vm.compiled().entry, {});
  auto r = vm.run_slice(0);
  ASSERT_EQ(r.status, vm::SliceResult::Status::kBlocked);
  EXPECT_DOUBLE_EQ(r.block_deadline, 123.5);
  EXPECT_TRUE(vm.slice_active());
  const std::uint64_t parked_insns = vm.stats().instructions;

  r = vm.run_slice(0);  // blocks again (attempt 2)
  ASSERT_EQ(r.status, vm::SliceResult::Status::kBlocked);
  EXPECT_EQ(vm.stats().instructions, parked_insns)
      << "a blocked external must be un-retired, not counted per retry";

  r = vm.run_slice(0);  // attempt 3 succeeds
  ASSERT_EQ(r.status, vm::SliceResult::Status::kHalted);
  EXPECT_EQ(r.exit_code, 42);
  EXPECT_EQ(attempts, 3);
}

}  // namespace
