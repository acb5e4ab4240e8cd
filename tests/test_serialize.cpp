// Serialization robustness: FIR program and bytecode round trips, and
// rejection of corrupt/hostile streams — the property an untrusted
// migration server depends on. Includes a randomized bit-flip sweep: a
// mutated program stream must either decode to something the typechecker
// accepts or be rejected with a typed error, never crash.
#include <gtest/gtest.h>

#include "fir/builder.hpp"
#include "fir/printer.hpp"
#include "fir/serialize.hpp"
#include "fir/typecheck.hpp"
#include "runtime/value_codec.hpp"
#include "support/rng.hpp"
#include "vm/bytecode.hpp"
#include "vm/lowering.hpp"

namespace {

using namespace mojave;
using fir::Atom;
using fir::Binop;
using fir::Program;
using fir::ProgramBuilder;
using fir::Type;

Program sample_program() {
  ProgramBuilder pb("sample");
  auto main_id = pb.declare("main", {});
  auto loop_id = pb.declare("loop", {Type::integer(), Type::ptr()});
  auto k_id = pb.declare("k", {Type::integer(), Type::ptr()});
  {
    auto fb = pb.define(main_id, {});
    auto buf = fb.let_alloc("buf", Atom::integer(8), Atom::integer(0));
    fb.tail_call(Atom::fun_ref(loop_id), {Atom::integer(0), fb.v(buf)});
  }
  {
    auto fb = pb.define(loop_id, {"i", "buf"});
    auto done = fb.let_binop("done", Binop::kGe, fb.arg(0), Atom::integer(8));
    fb.branch(
        fb.v(done),
        [&](auto& t) { t.speculate(Atom::fun_ref(k_id), {t.arg(1)}); },
        [&](auto& e) {
          e.write(e.arg(1), e.arg(0), e.arg(0));
          auto i1 = e.let_binop("i1", Binop::kAdd, e.arg(0), Atom::integer(1));
          e.tail_call(Atom::fun_ref(loop_id), {e.v(i1), e.arg(1)});
        });
  }
  {
    auto fb = pb.define(k_id, {"c", "buf"});
    auto tgt = fb.let_atom("t", Type::ptr(), pb.str("checkpoint://x"));
    fb.migrate(3, fb.v(tgt), Atom::fun_ref(k_id),
               {Atom::integer(0), fb.arg(1)});
  }
  return pb.take("main");
}

std::vector<std::byte> bytes_of(std::initializer_list<int> v) {
  std::vector<std::byte> out;
  for (const int b : v) out.push_back(static_cast<std::byte>(b));
  return out;
}

/// The canonical byte order, pinned against hand-written vectors: every
/// image, manifest and wire frame depends on it.
TEST(Serialize, WriterEmitsCanonicalLittleEndianBytes) {
  const auto take = [](auto&& fill) {
    Writer w;
    fill(w);
    return w.take();
  };
  EXPECT_EQ(take([](Writer& w) { w.u16(0x1234); }), bytes_of({0x34, 0x12}));
  EXPECT_EQ(take([](Writer& w) { w.u32(0x89abcdefu); }),
            bytes_of({0xef, 0xcd, 0xab, 0x89}));
  EXPECT_EQ(take([](Writer& w) { w.u64(0x0123456789abcdefull); }),
            bytes_of({0xef, 0xcd, 0xab, 0x89, 0x67, 0x45, 0x23, 0x01}));
  EXPECT_EQ(take([](Writer& w) { w.i64(-2); }),
            bytes_of({0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));
  EXPECT_EQ(take([](Writer& w) { w.i32(-3); }),
            bytes_of({0xfd, 0xff, 0xff, 0xff}));
  EXPECT_EQ(take([](Writer& w) { w.f64(1.5); }),  // 0x3ff8000000000000
            bytes_of({0, 0, 0, 0, 0, 0, 0xf8, 0x3f}));
  EXPECT_EQ(take([](Writer& w) {
              runtime::write_value(w, runtime::Value::from_int(-2));
            }),
            bytes_of({1, 0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}));
  EXPECT_EQ(take([](Writer& w) {
              runtime::write_value(w, runtime::Value::from_float(-0.25));
            }),  // 0xbfd0000000000000
            bytes_of({2, 0, 0, 0, 0, 0, 0, 0xd0, 0xbf}));
  EXPECT_EQ(take([](Writer& w) {
              runtime::write_value(w, runtime::Value::from_ptr(0x0102, 7));
            }),
            bytes_of({3, 0x02, 0x01, 0, 0, 7, 0, 0, 0}));
  // Mixed widths back to back, after a reserve, land in order.
  EXPECT_EQ(take([](Writer& w) {
              w.reserve(64);
              w.u8(0xaa);
              w.u16(0x0201);
              w.u32(0x06050403);
              w.patch_u32(1, 0x0d0c0b0a);
            }),
            bytes_of({0xaa, 0x0a, 0x0b, 0x0c, 0x0d, 0x05, 0x06}));
  Writer w;
  w.u64(0x1122334455667788ull);
  w.f64(-0.25);
  Reader r(w.view());
  EXPECT_EQ(r.u64(), 0x1122334455667788ull);
  EXPECT_EQ(r.f64(), -0.25);
  EXPECT_TRUE(r.done());
}

TEST(Serialize, ProgramRoundTripIsExact) {
  const Program p = sample_program();
  const auto bytes = fir::encode_program(p);
  const Program q = fir::decode_program(bytes);
  EXPECT_EQ(fir::to_string(p), fir::to_string(q));
  EXPECT_EQ(p.entry, q.entry);
  EXPECT_EQ(p.strings, q.strings);
  // Round trip again: stable fixed point.
  EXPECT_EQ(bytes, fir::encode_program(q));
}

TEST(Serialize, DecodedProgramStillTypechecks) {
  const Program q = fir::decode_program(fir::encode_program(sample_program()));
  EXPECT_NO_THROW(fir::typecheck(q));
}

TEST(Serialize, RejectsTruncationAtEveryPrefix) {
  const auto bytes = fir::encode_program(sample_program());
  // Every strict prefix must be rejected cleanly.
  for (std::size_t len : {std::size_t{0}, std::size_t{1}, bytes.size() / 4,
                          bytes.size() / 2, bytes.size() - 1}) {
    EXPECT_THROW((void)fir::decode_program(
                     std::span(bytes.data(), len)),
                 ImageError)
        << "prefix " << len;
  }
}

TEST(Serialize, RejectsTrailingGarbage) {
  auto bytes = fir::encode_program(sample_program());
  bytes.push_back(std::byte{0});
  EXPECT_THROW((void)fir::decode_program(bytes), ImageError);
}

TEST(Serialize, BitFlipsNeverCrashTheDecoder) {
  const auto bytes = fir::encode_program(sample_program());
  Rng rng(2024);
  int decoded_ok = 0;
  int rejected = 0;
  for (int trial = 0; trial < 400; ++trial) {
    auto mutated = bytes;
    const std::size_t flips = 1 + rng.below(4);
    for (std::size_t f = 0; f < flips; ++f) {
      const std::size_t pos = rng.below(mutated.size());
      mutated[pos] ^= std::byte{
          static_cast<std::uint8_t>(1u << rng.below(8))};
    }
    try {
      const Program p = fir::decode_program(mutated);
      // If it decodes, the typechecker is the next line of defence; it
      // must also either accept or throw TypeError — never crash.
      try {
        fir::typecheck(p);
        ++decoded_ok;
      } catch (const TypeError&) {
        ++rejected;
      }
    } catch (const Error&) {
      ++rejected;
    }
  }
  // Most mutations must be caught somewhere.
  EXPECT_GT(rejected, 0);
  EXPECT_EQ(decoded_ok + rejected, 400);
}

TEST(Serialize, CompiledProgramRoundTrip) {
  const vm::CompiledProgram cp = vm::lower(sample_program());
  Writer w;
  vm::serialize_compiled(w, cp);
  Reader r(w.view());
  const vm::CompiledProgram cq = vm::deserialize_compiled(r);
  EXPECT_TRUE(r.done());
  ASSERT_EQ(cq.functions.size(), cp.functions.size());
  EXPECT_EQ(cq.entry, cp.entry);
  EXPECT_EQ(cq.strings, cp.strings);
  EXPECT_EQ(cq.ext_names, cp.ext_names);
  EXPECT_EQ(cq.migrate_labels, cp.migrate_labels);
  for (std::size_t i = 0; i < cp.functions.size(); ++i) {
    const auto& a = cp.functions[i];
    const auto& b = cq.functions[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.arity, b.arity);
    EXPECT_EQ(a.num_regs, b.num_regs);
    ASSERT_EQ(a.code.size(), b.code.size());
    for (std::size_t k = 0; k < a.code.size(); ++k) {
      EXPECT_EQ(a.code[k].op, b.code[k].op);
      EXPECT_EQ(a.code[k].dst, b.code[k].dst);
      EXPECT_EQ(a.code[k].imm, b.code[k].imm);
      EXPECT_EQ(a.code[k].args, b.code[k].args);
    }
  }
}

TEST(Serialize, BytecodeDecoderRejectsBadOpcodesAndSizes) {
  const vm::CompiledProgram cp = vm::lower(sample_program());
  Writer w;
  vm::serialize_compiled(w, cp);
  auto bytes = w.take();
  // Find and corrupt the first opcode byte region aggressively: flipping
  // random bytes must never crash.
  Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    auto mutated = bytes;
    mutated[rng.below(mutated.size())] = std::byte{0xff};
    Reader r(mutated);
    try {
      (void)vm::deserialize_compiled(r);
    } catch (const Error&) {
      // expected for most mutations
    }
  }
  SUCCEED();
}

/// Property: random builder-generated programs survive the round trip.
class SerializeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SerializeProperty, RandomProgramsRoundTrip) {
  Rng rng(GetParam());
  ProgramBuilder pb("rand");
  auto main_id = pb.declare("main", {});
  {
    auto fb = pb.define(main_id, {});
    fir::Atom last = Atom::integer(1);
    for (int i = 0; i < 30; ++i) {
      switch (rng.below(4)) {
        case 0:
          last = fb.v(fb.let_binop(
              "b" + std::to_string(i),
              static_cast<Binop>(rng.below(10)), last,
              Atom::integer(static_cast<std::int64_t>(rng.below(100) + 1))));
          break;
        case 1:
          last = fb.v(fb.let_atom("a" + std::to_string(i), Type::integer(),
                                  Atom::integer(static_cast<std::int64_t>(
                                      rng.below(1000)))));
          break;
        case 2: {
          auto p = fb.let_alloc("p" + std::to_string(i),
                                Atom::integer(4), last);
          fb.write(fb.v(p), Atom::integer(0), last);
          break;
        }
        default:
          last = fb.v(fb.let_unop("u" + std::to_string(i),
                                  static_cast<fir::Unop>(rng.below(3)), last));
          break;
      }
    }
    fb.halt(last);
  }
  const Program p = pb.take("main");
  fir::typecheck(p);
  const Program q = fir::decode_program(fir::encode_program(p));
  EXPECT_EQ(fir::to_string(p), fir::to_string(q));
  fir::typecheck(q);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SerializeProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
