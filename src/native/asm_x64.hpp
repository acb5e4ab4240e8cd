// A minimal direct x86-64 instruction emitter (no LLVM, no external
// assembler): exactly the instruction subset the bytecode compiler needs.
//
// Encodings follow the Intel SDM: optional legacy prefix (66/F2), REX,
// opcode, ModRM (+SIB), displacement, immediate. Memory operands are
// always [base (+ index*scale) + disp32]; the only ModRM subtleties that
// matter are the SIB escape when the base is RSP/R12 and the REX
// extension bits for R8-R15.
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

namespace mojave::native {

enum Reg : std::uint8_t {
  RAX = 0, RCX = 1, RDX = 2, RBX = 3, RSP = 4, RBP = 5, RSI = 6, RDI = 7,
  R8 = 8, R9 = 9, R10 = 10, R11 = 11, R12 = 12, R13 = 13, R14 = 14, R15 = 15,
};

enum Xmm : std::uint8_t {
  XMM0 = 0, XMM1 = 1, XMM2 = 2, XMM3 = 3, XMM4 = 4, XMM5 = 5, XMM6 = 6,
  XMM7 = 7, XMM8 = 8, XMM9 = 9, XMM10 = 10, XMM11 = 11, XMM12 = 12,
  XMM13 = 13, XMM14 = 14, XMM15 = 15,
};

/// ModRM condition-code nibbles (Jcc = 0F 80+cc, SETcc = 0F 90+cc).
enum Cc : std::uint8_t {
  kB = 0x2,   ///< unsigned <
  kAe = 0x3,  ///< unsigned >=
  kE = 0x4,
  kNe = 0x5,
  kBe = 0x6,  ///< unsigned <=
  kA = 0x7,   ///< unsigned >
  kS = 0x8,   ///< sign (negative)
  kNs = 0x9,
  kL = 0xC,
  kGe = 0xD,
  kLe = 0xE,
  kG = 0xF,
};

/// [base + index*scale + disp]; index == kNoIndex means no SIB index.
struct Mem {
  Reg base;
  std::int32_t disp = 0;
  std::uint8_t index = kNoIndex;  ///< Reg value, or kNoIndex
  std::uint8_t scale = 1;         ///< 1, 2, 4 or 8

  static constexpr std::uint8_t kNoIndex = 0xff;
};

[[nodiscard]] inline Mem mem(Reg base, std::int32_t disp) {
  return Mem{base, disp, Mem::kNoIndex, 1};
}
[[nodiscard]] inline Mem mem(Reg base, Reg index, std::uint8_t scale,
                             std::int32_t disp) {
  return Mem{base, disp, static_cast<std::uint8_t>(index), scale};
}

class Assembler {
 public:
  using Label = std::int32_t;

  [[nodiscard]] Label make_label() {
    targets_.push_back(-1);
    return static_cast<Label>(targets_.size() - 1);
  }
  void bind(Label l) { targets_[static_cast<std::size_t>(l)] = pos(); }
  [[nodiscard]] bool is_bound(Label l) const {
    return targets_[static_cast<std::size_t>(l)] >= 0;
  }

  [[nodiscard]] std::int32_t pos() const {
    return static_cast<std::int32_t>(buf_.size());
  }
  [[nodiscard]] const std::uint8_t* data() const { return buf_.data(); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Patch every recorded rel32 fixup; all labels must be bound.
  [[nodiscard]] bool finalize() {
    for (const Fixup& f : fixups_) {
      const std::int32_t target = targets_[static_cast<std::size_t>(f.label)];
      if (target < 0) return false;
      const std::int32_t rel = target - (f.pos + 4);
      std::memcpy(&buf_[static_cast<std::size_t>(f.pos)], &rel, 4);
    }
    return true;
  }

  // --- moves ------------------------------------------------------------

  void mov_rr(Reg dst, Reg src) { alu_rr(0x89, dst, src); }
  /// mov r32, r32: copies the low half and zeroes the high half.
  void mov_rr32(Reg dst, Reg src) {
    rex(false, src >> 3, 0, dst >> 3);
    emit8(0x89);
    modrm_reg(src & 7, dst);
  }
  void mov_rm64(Reg dst, Mem m) { op_rm(0x8B, dst, m, /*w=*/true); }
  void mov_mr64(Mem m, Reg src) { op_rm(0x89, src, m, /*w=*/true); }
  void mov_rm32(Reg dst, Mem m) { op_rm(0x8B, dst, m, /*w=*/false); }
  void mov_mr32(Mem m, Reg src) { op_rm(0x89, src, m, /*w=*/false); }
  /// mov word ptr [m], src16 (66-prefixed).
  void mov_mr16(Mem m, Reg src) {
    emit8(0x66);
    op_rm(0x89, src, m, /*w=*/false);
  }
  /// mov byte ptr [m], src8 (use AL/CL/DL/BL only).
  void mov_mr8(Mem m, Reg src) { op_rm(0x88, src, m, /*w=*/false); }
  void movzx8_rm(Reg dst, Mem m) { op_rm_0f(0xB6, dst, m, /*w=*/false); }
  /// Sign-extending loads for raw_load widths 1/2/4.
  void movsx8_rm(Reg dst, Mem m) { op_rm_0f(0xBE, dst, m, /*w=*/true); }
  void movsx16_rm(Reg dst, Mem m) { op_rm_0f(0xBF, dst, m, /*w=*/true); }
  void movsx32_rm(Reg dst, Mem m) {  // movsxd
    prefix_mem_nopcode(m, /*w=*/true, dst >> 3);
    emit8(0x63);
    modrm_mem(dst & 7, m);
  }

  void mov_ri64(Reg r, std::uint64_t v) {
    rex(true, 0, 0, r >> 3);
    emit8(0xB8 | (r & 7));
    emit64(v);
  }
  void mov_ri32(Reg r, std::uint32_t v) {  // zero-extends into r64
    if (r >= 8) emit8(0x41);
    emit8(0xB8 | (r & 7));
    emit32(v);
  }
  /// mov r64, imm32 sign-extended to 64 bits.
  void mov_ri64s(Reg r, std::int32_t v) {
    rex(true, 0, 0, r >> 3);
    emit8(0xC7);
    modrm_reg(0, r);
    emit32(static_cast<std::uint32_t>(v));
  }
  /// Loads `v` into `r` with the shortest of the three encodings.
  void mov_imm(Reg r, std::int64_t v) {
    if (v >= 0 && v <= static_cast<std::int64_t>(UINT32_MAX)) {
      mov_ri32(r, static_cast<std::uint32_t>(v));
    } else if (v >= INT32_MIN && v <= INT32_MAX) {
      mov_ri64s(r, static_cast<std::int32_t>(v));
    } else {
      mov_ri64(r, static_cast<std::uint64_t>(v));
    }
  }
  /// mov qword ptr [m], imm32 (sign-extended to 64 bits).
  void mov_mi64(Mem m, std::int32_t v) {
    prefix_mem(0xC7, 0, m, /*w=*/true);
    emit32(static_cast<std::uint32_t>(v));
  }
  void mov_mi32(Mem m, std::int32_t v) {
    prefix_mem(0xC7, 0, m, /*w=*/false);
    emit32(static_cast<std::uint32_t>(v));
  }
  void lea(Reg dst, Mem m) { op_rm(0x8D, dst, m, /*w=*/true); }

  // --- ALU --------------------------------------------------------------

  void add_rr(Reg dst, Reg src) { alu_rr(0x01, dst, src); }
  void sub_rr(Reg dst, Reg src) { alu_rr(0x29, dst, src); }
  void and_rr(Reg dst, Reg src) { alu_rr(0x21, dst, src); }
  void or_rr(Reg dst, Reg src) { alu_rr(0x09, dst, src); }
  void xor_rr(Reg dst, Reg src) { alu_rr(0x31, dst, src); }
  void cmp_rr(Reg a, Reg b) { alu_rr(0x39, a, b); }
  void test_rr(Reg a, Reg b) { alu_rr(0x85, a, b); }

  void add_ri(Reg r, std::int32_t v) { alu_ri(0, r, v); }
  void or_ri(Reg r, std::int32_t v) { alu_ri(1, r, v); }
  void and_ri(Reg r, std::int32_t v) { alu_ri(4, r, v); }
  void sub_ri(Reg r, std::int32_t v) { alu_ri(5, r, v); }
  void xor_ri(Reg r, std::int32_t v) { alu_ri(6, r, v); }
  void cmp_ri(Reg r, std::int32_t v) { alu_ri(7, r, v); }
  /// imul dst, src, imm32.
  void imul_rri(Reg dst, Reg src, std::int32_t v) {
    rex(true, dst >> 3, 0, src >> 3);
    emit8(0x69);
    modrm_reg(dst & 7, src);
    emit32(static_cast<std::uint32_t>(v));
  }

  void cmp_rm64(Reg reg, Mem m) { op_rm(0x3B, reg, m, /*w=*/true); }
  /// add / sub qword ptr [m], reg.
  void add_mr64(Mem m, Reg src) { op_rm(0x01, src, m, /*w=*/true); }
  void sub_mr64(Mem m, Reg src) { op_rm(0x29, src, m, /*w=*/true); }
  void add_rm64(Reg reg, Mem m) { op_rm(0x03, reg, m, /*w=*/true); }
  /// push / pop qword ptr [m].
  void push_m(Mem m) { prefix_mem(0xFF, 6, m, /*w=*/false, /*imm=*/false); }
  void pop_m(Mem m) { prefix_mem(0x8F, 0, m, /*w=*/false, /*imm=*/false); }

  /// add qword ptr [m], imm32 / sub / etc via /digit.
  void add_mi64(Mem m, std::int32_t v) { alu_mi(0, m, v); }
  void cmp_mi64(Mem m, std::int32_t v) { alu_mi(7, m, v); }
  /// test al, al — for uint64-in-rax helper results use test_rr instead.
  void test_al() {
    emit8(0x84);
    emit8(0xC0);
  }
  void cmp_mi8(Mem m, std::uint8_t v) {  // cmp byte ptr [m], imm8
    prefix_mem_nopcode(m, /*w=*/false, /*reg_ext=*/0);
    emit8(0x80);
    modrm_mem(7, m);
    emit8(v);
  }

  void imul_rr(Reg dst, Reg src) { op_rr_0f(0xAF, dst, src); }
  void cqo() {
    emit8(0x48);
    emit8(0x99);
  }
  void idiv_r(Reg r) { unary_r(7, r); }
  void neg_r(Reg r) { unary_r(3, r); }
  void not_r(Reg r) { unary_r(2, r); }

  void shl_cl(Reg r) { shift_cl(4, r); }
  void sar_cl(Reg r) { shift_cl(7, r); }
  void shl_ri(Reg r, std::uint8_t n) { shift_ri(4, r, n); }
  void shr_ri(Reg r, std::uint8_t n) { shift_ri(5, r, n); }
  void sar_ri(Reg r, std::uint8_t n) { shift_ri(7, r, n); }

  /// setcc on the low byte of any register (SIL/DIL/BPL need a bare REX).
  void setcc(Cc cc, Reg r8) {
    if (r8 >= 4) emit8(static_cast<std::uint8_t>(0x40 | (r8 >> 3)));
    emit8(0x0F);
    emit8(0x90 | cc);
    modrm_reg(0, r8);
  }
  void movzx_r8(Reg dst, Reg src8) {
    rex(true, dst >> 3, 0, src8 >> 3);
    emit8(0x0F);
    emit8(0xB6);
    modrm_reg(dst & 7, src8);
  }

  // --- control ----------------------------------------------------------

  void jcc(Cc cc, Label l) {
    emit8(0x0F);
    emit8(0x80 | cc);
    fixup(l);
  }
  void jmp(Label l) {
    emit8(0xE9);
    fixup(l);
  }
  /// call rel32 to a label in the same code buffer.
  void call(Label l) {
    emit8(0xE8);
    fixup(l);
  }
  void jmp_r(Reg r) {
    if (r >= 8) emit8(0x41);
    emit8(0xFF);
    modrm_reg(4, r);
  }
  void call_r(Reg r) {
    if (r >= 8) emit8(0x41);
    emit8(0xFF);
    modrm_reg(2, r);
  }
  void push_r(Reg r) {
    if (r >= 8) emit8(0x41);
    emit8(0x50 | (r & 7));
  }
  void pop_r(Reg r) {
    if (r >= 8) emit8(0x41);
    emit8(0x58 | (r & 7));
  }
  void ret() { emit8(0xC3); }

  // --- SSE2 scalar double ----------------------------------------------

  void movsd_xm(Xmm x, Mem m) { sse_mem(0xF2, 0x10, x, m); }
  void movsd_mx(Mem m, Xmm x) { sse_mem(0xF2, 0x11, x, m); }
  void addsd(Xmm dst, Xmm src) { sse_rr(0xF2, 0x58, dst, src); }
  void subsd(Xmm dst, Xmm src) { sse_rr(0xF2, 0x5C, dst, src); }
  void mulsd(Xmm dst, Xmm src) { sse_rr(0xF2, 0x59, dst, src); }
  void divsd(Xmm dst, Xmm src) { sse_rr(0xF2, 0x5E, dst, src); }
  /// cmpsd dst, src, pred — pred: 0=eq 1=lt 2=le 4=neq.
  void cmpsd(Xmm dst, Xmm src, std::uint8_t pred) {
    sse_rr(0xF2, 0xC2, dst, src);
    emit8(pred);
  }
  void xorpd(Xmm dst, Xmm src) { sse_rr(0x66, 0x57, dst, src); }
  /// Full-register copy (no dependency on the old contents of dst).
  void movapd(Xmm dst, Xmm src) { sse_rr(0x66, 0x28, dst, src); }
  void cvttsd2si(Reg dst, Xmm src) {
    emit8(0xF2);
    rex(true, dst >> 3, 0, src >> 3);
    emit8(0x0F);
    emit8(0x2C);
    modrm_reg(dst & 7, static_cast<Reg>(src & 7));
  }
  void cvtsi2sd(Xmm dst, Reg src) {
    emit8(0xF2);
    rex(true, dst >> 3, 0, src >> 3);
    emit8(0x0F);
    emit8(0x2A);
    modrm_reg(dst & 7, static_cast<Reg>(src & 7));
  }
  void movq_xr(Xmm dst, Reg src) {
    emit8(0x66);
    rex(true, dst >> 3, 0, src >> 3);
    emit8(0x0F);
    emit8(0x6E);
    modrm_reg(dst & 7, static_cast<Reg>(src & 7));
  }
  void movq_rx(Reg dst, Xmm src) {
    emit8(0x66);
    rex(true, src >> 3, 0, dst >> 3);
    emit8(0x0F);
    emit8(0x7E);
    modrm_reg(src & 7, static_cast<Reg>(dst & 7));
  }

 private:
  struct Fixup {
    Label label;
    std::int32_t pos;  ///< position of the rel32 field
  };

  void emit8(std::uint8_t b) { buf_.push_back(b); }
  void emit32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void emit64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void fixup(Label l) {
    fixups_.push_back(Fixup{l, pos()});
    emit32(0);
  }

  void rex(bool w, int r, int x, int b) {
    const std::uint8_t v = static_cast<std::uint8_t>(
        0x40 | (w ? 8 : 0) | ((r & 1) << 2) | ((x & 1) << 1) | (b & 1));
    if (v != 0x40 || w) emit8(v);
    else if ((r | x | b) != 0) emit8(v);
    // A bare 0x40 REX is only required for SPL/BPL/SIL/DIL, which this
    // emitter never addresses as bytes.
  }

  void modrm_reg(std::uint8_t reg, Reg rm) {
    emit8(static_cast<std::uint8_t>(0xC0 | ((reg & 7) << 3) | (rm & 7)));
  }

  void modrm_mem(std::uint8_t reg, Mem m) {
    const std::uint8_t base = m.base & 7;
    const bool need_sib = (m.index != Mem::kNoIndex) || base == 4;  // RSP/R12
    const bool disp8 = m.disp >= -128 && m.disp <= 127;
    const std::uint8_t mod = disp8 ? 0x40 : 0x80;
    if (need_sib) {
      emit8(static_cast<std::uint8_t>(mod | ((reg & 7) << 3) | 4));
      std::uint8_t ss = 0;
      switch (m.scale) {
        case 1: ss = 0; break;
        case 2: ss = 1; break;
        case 4: ss = 2; break;
        default: ss = 3; break;
      }
      const std::uint8_t idx =
          m.index == Mem::kNoIndex ? 4 : (m.index & 7);  // 4 = no index
      emit8(static_cast<std::uint8_t>((ss << 6) | (idx << 3) | base));
    } else {
      emit8(static_cast<std::uint8_t>(mod | ((reg & 7) << 3) | base));
    }
    if (disp8) {
      emit8(static_cast<std::uint8_t>(m.disp));
    } else {
      emit32(static_cast<std::uint32_t>(m.disp));
    }
  }

  void prefix_mem_nopcode(Mem m, bool w, int reg_ext) {
    const int x = m.index != Mem::kNoIndex ? (m.index >> 3) : 0;
    rex(w, reg_ext, x, m.base >> 3);
  }

  /// opcode /reg, [mem] single-byte-opcode form.
  void op_rm(std::uint8_t opcode, Reg reg, Mem m, bool w) {
    prefix_mem_nopcode(m, w, reg >> 3);
    emit8(opcode);
    modrm_mem(reg & 7, m);
  }
  /// 0F-prefixed opcode /reg, [mem].
  void op_rm_0f(std::uint8_t opcode, Reg reg, Mem m, bool w) {
    prefix_mem_nopcode(m, w, reg >> 3);
    emit8(0x0F);
    emit8(opcode);
    modrm_mem(reg & 7, m);
  }
  /// opcode /digit, [mem] (+ trailing imm32 unless imm=false).
  void prefix_mem(std::uint8_t opcode, std::uint8_t digit, Mem m, bool w,
                  bool imm = true) {
    prefix_mem_nopcode(m, w, 0);
    emit8(opcode);
    modrm_mem(digit, m);
    (void)imm;
  }

  void alu_rr(std::uint8_t opcode, Reg rm, Reg reg) {
    // Encodings like 01 /r are "op rm, reg": rm is the destination.
    rex(true, reg >> 3, 0, rm >> 3);
    emit8(opcode);
    modrm_reg(reg & 7, rm);
  }
  void op_rr_0f(std::uint8_t opcode, Reg reg, Reg rm) {
    rex(true, reg >> 3, 0, rm >> 3);
    emit8(0x0F);
    emit8(opcode);
    modrm_reg(reg & 7, rm);
  }
  /// 83 /digit ib when the immediate fits a signed byte, else 81 /digit id.
  void alu_ri(std::uint8_t digit, Reg r, std::int32_t v) {
    rex(true, 0, 0, r >> 3);
    const bool short_imm = v >= -128 && v <= 127;
    emit8(short_imm ? 0x83 : 0x81);
    modrm_reg(digit, r);
    imm8_or_32(short_imm, v);
  }
  void alu_mi(std::uint8_t digit, Mem m, std::int32_t v) {
    prefix_mem_nopcode(m, /*w=*/true, 0);
    const bool short_imm = v >= -128 && v <= 127;
    emit8(short_imm ? 0x83 : 0x81);
    modrm_mem(digit, m);
    imm8_or_32(short_imm, v);
  }
  void imm8_or_32(bool short_imm, std::int32_t v) {
    if (short_imm) emit8(static_cast<std::uint8_t>(v));
    else emit32(static_cast<std::uint32_t>(v));
  }
  void unary_r(std::uint8_t digit, Reg r) {
    rex(true, 0, 0, r >> 3);
    emit8(0xF7);
    modrm_reg(digit, r);
  }
  void shift_cl(std::uint8_t digit, Reg r) {
    rex(true, 0, 0, r >> 3);
    emit8(0xD3);
    modrm_reg(digit, r);
  }
  void shift_ri(std::uint8_t digit, Reg r, std::uint8_t n) {
    rex(true, 0, 0, r >> 3);
    emit8(0xC1);
    modrm_reg(digit, r);
    emit8(n);
  }

  /// Mandatory prefix, [REX], 0F opcode, ModRM for reg-reg SSE forms.
  void sse_rr(std::uint8_t prefix, std::uint8_t opcode, Xmm dst, Xmm src) {
    emit8(prefix);
    rex(false, dst >> 3, 0, src >> 3);
    emit8(0x0F);
    emit8(opcode);
    modrm_reg(dst & 7, static_cast<Reg>(src & 7));
  }
  void sse_mem(std::uint8_t prefix, std::uint8_t opcode, Xmm x, Mem m) {
    emit8(prefix);
    prefix_mem_nopcode(m, /*w=*/false, x >> 3);
    emit8(0x0F);
    emit8(opcode);
    modrm_mem(x & 7, m);
  }

  std::vector<std::uint8_t> buf_;
  std::vector<std::int32_t> targets_;
  std::vector<Fixup> fixups_;
};

}  // namespace mojave::native
