#include "fir/optimize.hpp"

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "support/error.hpp"
#include "support/wrap.hpp"

namespace mojave::fir {

namespace {

/// Fold a unop over a literal; nullopt when not foldable.
std::optional<Atom> fold_unop(Unop op, const Atom& a) {
  if (a.kind == Atom::Kind::kInt) {
    switch (op) {
      case Unop::kNeg:
        return Atom::integer(wrap_neg(a.i));
      case Unop::kNot:
        return Atom::integer(a.i == 0 ? 1 : 0);
      case Unop::kBitNot:
        return Atom::integer(~a.i);
      case Unop::kFloatOfInt:
        return Atom::real(static_cast<double>(a.i));
      default:
        return std::nullopt;
    }
  }
  if (a.kind == Atom::Kind::kFloat) {
    switch (op) {
      case Unop::kFNeg:
        return Atom::real(-a.f);
      case Unop::kIntOfFloat:
        return Atom::integer(static_cast<std::int64_t>(a.f));
      default:
        return std::nullopt;
    }
  }
  return std::nullopt;
}

/// Fold a binop over literals with the interpreter's exact semantics.
/// Division/modulo by a literal zero are left alone: the trap happens at
/// run time, as the language defines.
std::optional<Atom> fold_binop(Binop op, const Atom& a, const Atom& b) {
  if (a.kind == Atom::Kind::kInt && b.kind == Atom::Kind::kInt) {
    const std::int64_t x = a.i;
    const std::int64_t y = b.i;
    switch (op) {
      case Binop::kAdd: return Atom::integer(wrap_add(x, y));
      case Binop::kSub: return Atom::integer(wrap_sub(x, y));
      case Binop::kMul: return Atom::integer(wrap_mul(x, y));
      case Binop::kDiv:
        if (y == 0) return std::nullopt;
        return Atom::integer(wrap_div(x, y));
      case Binop::kMod:
        if (y == 0) return std::nullopt;
        return Atom::integer(wrap_mod(x, y));
      case Binop::kAnd: return Atom::integer(x & y);
      case Binop::kOr: return Atom::integer(x | y);
      case Binop::kXor: return Atom::integer(x ^ y);
      case Binop::kShl: return Atom::integer(x << (y & 63));
      case Binop::kShr: return Atom::integer(x >> (y & 63));
      case Binop::kLt: return Atom::integer(x < y ? 1 : 0);
      case Binop::kLe: return Atom::integer(x <= y ? 1 : 0);
      case Binop::kGt: return Atom::integer(x > y ? 1 : 0);
      case Binop::kGe: return Atom::integer(x >= y ? 1 : 0);
      case Binop::kEq: return Atom::integer(x == y ? 1 : 0);
      case Binop::kNe: return Atom::integer(x != y ? 1 : 0);
      default: return std::nullopt;
    }
  }
  if (a.kind == Atom::Kind::kFloat && b.kind == Atom::Kind::kFloat) {
    const double x = a.f;
    const double y = b.f;
    switch (op) {
      case Binop::kFAdd: return Atom::real(x + y);
      case Binop::kFSub: return Atom::real(x - y);
      case Binop::kFMul: return Atom::real(x * y);
      case Binop::kFDiv: return Atom::real(x / y);
      case Binop::kFLt: return Atom::integer(x < y ? 1 : 0);
      case Binop::kFLe: return Atom::integer(x <= y ? 1 : 0);
      case Binop::kFGt: return Atom::integer(x > y ? 1 : 0);
      case Binop::kFGe: return Atom::integer(x >= y ? 1 : 0);
      case Binop::kFEq: return Atom::integer(x == y ? 1 : 0);
      case Binop::kFNe: return Atom::integer(x != y ? 1 : 0);
      default: return std::nullopt;
    }
  }
  return std::nullopt;
}

/// An atom as a map key: kind plus the one payload that kind uses (float
/// literals by bit pattern, so -0.0 and 0.0 stay distinct).
using AtomKey = std::pair<Atom::Kind, std::int64_t>;

AtomKey atom_key(const Atom& a) {
  switch (a.kind) {
    case Atom::Kind::kInt: return {a.kind, a.i};
    case Atom::Kind::kFloat: return {a.kind, std::bit_cast<std::int64_t>(a.f)};
    case Atom::Kind::kVar: return {a.kind, a.var};
    case Atom::Kind::kFunRef: return {a.kind, a.fun};
    case Atom::Kind::kString: return {a.kind, a.string_id};
    default: return {a.kind, 0};
  }
}

bool is_comparison(Binop op) {
  return (op >= Binop::kLt && op <= Binop::kNe) || op >= Binop::kFLt;
}

Type unop_type(Unop op) {
  return op == Unop::kFNeg || op == Unop::kFloatOfInt ? Type::real()
                                                      : Type::integer();
}

Type binop_type(Binop op) {
  return binop_yields_int(op) ? Type::integer() : Type::real();
}

/// What a slot is known to hold: `read(base, off)` would yield `value`,
/// which has static type `ty`.
struct SlotFact {
  VarId base = 0;
  AtomKey off;
  Atom value;
  Type ty;
  bool from_write = false;
};

/// (kind, operator, operand, operand) of an available unop/binop.
using PureKey = std::tuple<ExprKind, std::uint8_t, AtomKey, AtomKey>;

/// Everything the forward pass knows at one program point. Copied into
/// both arms of an `if` and never merged.
struct Facts {
  std::map<VarId, Atom> env;          ///< copies and constants
  std::vector<SlotFact> slots;        ///< heap slots with known contents
  std::map<PureKey, VarId> pure;      ///< available unop/binop results
};

class FunctionOptimizer {
 public:
  explicit FunctionOptimizer(OptimizeStats& stats) : stats_(stats) {}

  void run(Function& fn) {
    var_ty_.assign(fn.num_vars, std::nullopt);
    is_cmp_.assign(fn.num_vars, false);
    for (std::uint32_t i = 0; i < fn.arity(); ++i) var_ty_[i] = fn.param_tys[i];
    forward(fn.body, Facts{});
    std::set<VarId> used;
    backward(fn.body, used);
  }

 private:
  void subst(Atom& a, const std::map<VarId, Atom>& env) {
    if (a.kind != Atom::Kind::kVar) return;
    const auto it = env.find(a.var);
    if (it != env.end()) {
      a = it->second;
      ++stats_.copies_propagated;
    }
  }

  void subst_all(Expr& e, const std::map<VarId, Atom>& env) {
    subst(e.a, env);
    subst(e.b, env);
    subst(e.c_atom, env);
    subst(e.fun, env);
    for (Atom& a : e.args) subst(a, env);
  }

  /// Static type of an atom a read may be replaced by; nullopt for the
  /// atoms that are not tracked (strings and function references).
  std::optional<Type> forwardable_type(const Atom& a) const {
    switch (a.kind) {
      case Atom::Kind::kUnit: return Type::unit();
      case Atom::Kind::kInt: return Type::integer();
      case Atom::Kind::kFloat: return Type::real();
      case Atom::Kind::kNull: return Type::ptr();
      case Atom::Kind::kVar:
        return a.var < var_ty_.size() ? var_ty_[a.var] : std::nullopt;
      default: return std::nullopt;
    }
  }

  void set_type(VarId v, Type ty) {
    if (v < var_ty_.size()) var_ty_[v] = std::move(ty);
  }

  /// Replace the let at *slot by `value` and drop the node.
  static void bind_to(ExprPtr* slot, Facts& facts, Atom value) {
    Expr& e = **slot;
    facts.env[e.bind] = value;
    ExprPtr next = std::move(e.next);
    *slot = std::move(next);
  }

  /// `write(base, off)`: forget every slot the store may overwrite. Only a
  /// same-base fact at a distinct literal offset provably survives.
  static void kill_for_write(Facts& facts, const Atom& base,
                             const Atom& off) {
    std::erase_if(facts.slots, [&](const SlotFact& f) {
      const bool distinct = base.kind == Atom::Kind::kVar &&
                            f.base == base.var &&
                            off.kind == Atom::Kind::kInt &&
                            f.off.first == Atom::Kind::kInt &&
                            f.off.second != off.i;
      return !distinct;
    });
  }

  /// True when heap slot (base, off) is known to hold `value` already.
  static bool holds(const Facts& facts, const Atom& base, const Atom& off,
                    const Atom& value) {
    if (base.kind != Atom::Kind::kVar) return false;
    return std::any_of(
        facts.slots.begin(), facts.slots.end(), [&](const SlotFact& f) {
          return f.base == base.var && f.off == atom_key(off) &&
                 atom_key(f.value) == atom_key(value);
        });
  }

  /// `let x : T = read(b, o)` — reuse a dominating read of or write to the
  /// same (base variable, offset atom) at type T. The earlier access
  /// succeeded, so the removed read could not have trapped.
  bool reuse_read(ExprPtr* slot, Facts& facts) {
    const Expr& e = **slot;
    if (e.a.kind != Atom::Kind::kVar) return false;
    const AtomKey off = atom_key(e.b);
    for (const SlotFact& f : facts.slots) {
      if (f.base != e.a.var || f.off != off || !(f.ty == e.bind_ty)) continue;
      ++(f.from_write ? stats_.stores_forwarded : stats_.reads_reused);
      bind_to(slot, facts, f.value);
      return true;
    }
    return false;
  }

  /// Forward pass: propagate copies & constants, fold, splice branches,
  /// reuse heap reads and share repeated pure expressions.
  void forward(ExprPtr& head, Facts facts) {
    ExprPtr* slot = &head;
    while (*slot != nullptr) {
      Expr& e = **slot;
      subst_all(e, facts.env);
      switch (e.kind) {
        case ExprKind::kLetAtom: {
          // Bind the (already substituted) atom and drop the node.
          bind_to(slot, facts, e.a);
          ++stats_.copies_propagated;
          continue;
        }
        case ExprKind::kLetUnop: {
          if (auto folded = fold_unop(e.unop, e.a)) {
            bind_to(slot, facts, *folded);
            ++stats_.constants_folded;
            continue;
          }
          if (share_pure(slot, facts, static_cast<std::uint8_t>(e.unop))) {
            continue;
          }
          set_type(e.bind, unop_type(e.unop));
          break;
        }
        case ExprKind::kLetBinop: {
          if (auto folded = fold_binop(e.binop, e.a, e.b)) {
            bind_to(slot, facts, *folded);
            ++stats_.constants_folded;
            continue;
          }
          // `t != 0` where t is already 0/1 is t itself.
          if (e.binop == Binop::kNe) {
            const Atom* t = nullptr;
            if (is_cmp_result(e.a) && is_zero(e.b)) t = &e.a;
            if (is_cmp_result(e.b) && is_zero(e.a)) t = &e.b;
            if (t != nullptr) {
              bind_to(slot, facts, *t);
              ++stats_.compares_simplified;
              continue;
            }
          }
          if (share_pure(slot, facts, static_cast<std::uint8_t>(e.binop))) {
            continue;
          }
          set_type(e.bind, binop_type(e.binop));
          if (is_comparison(e.binop) && e.bind < is_cmp_.size()) {
            is_cmp_[e.bind] = true;
          }
          break;
        }
        case ExprKind::kLetRead:
          if (reuse_read(slot, facts)) continue;
          set_type(e.bind, e.bind_ty);
          if (e.a.kind == Atom::Kind::kVar) {
            // A successful read at a new type supersedes any older fact.
            const AtomKey off = atom_key(e.b);
            std::erase_if(facts.slots, [&](const SlotFact& f) {
              return f.base == e.a.var && f.off == off;
            });
            facts.slots.push_back(SlotFact{e.a.var, off,
                                           Atom::variable(e.bind), e.bind_ty,
                                           false});
          }
          break;
        case ExprKind::kWrite: {
          if (holds(facts, e.a, e.b, e.c_atom)) {
            // The slot already holds this value (read back from it, as a
            // MojC part does with the locals waiting out a user call).
            *slot = std::move(e.next);
            ++stats_.stores_removed;
            continue;
          }
          kill_for_write(facts, e.a, e.b);
          const std::optional<Type> ty = forwardable_type(e.c_atom);
          if (e.a.kind == Atom::Kind::kVar && ty.has_value()) {
            facts.slots.push_back(
                SlotFact{e.a.var, atom_key(e.b), e.c_atom, *ty, true});
          }
          break;
        }
        case ExprKind::kRawStore:
        case ExprKind::kRawStoreF:
          // Conservative: a block's kind is only known at run time.
          facts.slots.clear();
          break;
        case ExprKind::kLetExternal:
          // Externals may write the heap (msg_recv fills a buffer).
          facts.slots.clear();
          set_type(e.bind, e.bind_ty);
          break;
        case ExprKind::kLetAllocTagged:
        case ExprKind::kLetAllocRaw:
        case ExprKind::kLetPtrAdd:
          set_type(e.bind, Type::ptr());
          break;
        case ExprKind::kLetRawLoad:
        case ExprKind::kLetLen:
          set_type(e.bind, Type::integer());
          break;
        case ExprKind::kLetRawLoadF:
          set_type(e.bind, Type::real());
          break;
        case ExprKind::kIf:
          if (e.a.kind == Atom::Kind::kInt) {
            // Splice in the taken arm and keep optimizing from here.
            ExprPtr taken =
                e.a.i != 0 ? std::move(e.next) : std::move(e.els);
            *slot = std::move(taken);
            ++stats_.branches_folded;
            continue;
          }
          forward(e.next, facts);
          forward(e.els, std::move(facts));
          return;
        default:
          break;
      }
      slot = &e.next;
    }
  }

  /// CSE: bind an identical dominating unop/binop's result, or record this
  /// one as available. Division and modulo qualify too — the dominating
  /// one already succeeded.
  bool share_pure(ExprPtr* slot, Facts& facts, std::uint8_t op) {
    const Expr& e = **slot;
    const PureKey key{e.kind, op, atom_key(e.a),
                      e.kind == ExprKind::kLetBinop ? atom_key(e.b)
                                                    : AtomKey{}};
    const auto [it, inserted] = facts.pure.emplace(key, e.bind);
    if (inserted) return false;
    bind_to(slot, facts, Atom::variable(it->second));
    ++stats_.exprs_shared;
    return true;
  }

  bool is_cmp_result(const Atom& a) const {
    return a.kind == Atom::Kind::kVar && a.var < is_cmp_.size() &&
           is_cmp_[a.var];
  }

  static bool is_zero(const Atom& a) {
    return a.kind == Atom::Kind::kInt && a.i == 0;
  }

  /// Backward pass: drop pure, unused lets; record every used variable.
  void backward(ExprPtr& head, std::set<VarId>& used) {
    if (head == nullptr) return;
    Expr& e = *head;
    if (e.kind == ExprKind::kIf) {
      backward(e.next, used);
      backward(e.els, used);
      mark(e, used);
      return;
    }
    backward(e.next, used);
    const bool pure_let =
        (e.kind == ExprKind::kLetUnop ||
         (e.kind == ExprKind::kLetBinop && e.binop != Binop::kDiv &&
          e.binop != Binop::kMod) ||
         e.kind == ExprKind::kLetAtom);
    if (pure_let && !used.contains(e.bind)) {
      ExprPtr next = std::move(e.next);
      head = std::move(next);
      ++stats_.dead_lets_removed;
      return;
    }
    mark(e, used);
  }

  static void mark_atom(const Atom& a, std::set<VarId>& used) {
    if (a.kind == Atom::Kind::kVar) used.insert(a.var);
  }

  static void mark(const Expr& e, std::set<VarId>& used) {
    mark_atom(e.a, used);
    mark_atom(e.b, used);
    mark_atom(e.c_atom, used);
    mark_atom(e.fun, used);
    for (const Atom& a : e.args) mark_atom(a, used);
  }

  OptimizeStats& stats_;
  /// Per-variable facts valid function-wide: variables are bound once and
  /// every use is dominated by its binding.
  std::vector<std::optional<Type>> var_ty_;
  std::vector<bool> is_cmp_;
};

// --- Single-use block inlining -----------------------------------------------

/// Calls `fn` on every operand atom of `e` — the atoms vm/lowering.cpp
/// materializes into registers, in the same order.
template <class E, class Fn>
void for_each_operand(E& e, Fn fn) {
  switch (e.kind) {
    case ExprKind::kLetAtom: case ExprKind::kLetUnop:
    case ExprKind::kLetAllocRaw: case ExprKind::kLetLen: case ExprKind::kIf:
    case ExprKind::kHalt:
      fn(e.a);
      break;
    case ExprKind::kLetBinop: case ExprKind::kLetAllocTagged:
    case ExprKind::kLetRead: case ExprKind::kLetRawLoad:
    case ExprKind::kLetRawLoadF: case ExprKind::kLetPtrAdd:
    case ExprKind::kRollback: case ExprKind::kAbort:
      fn(e.a);
      fn(e.b);
      break;
    case ExprKind::kWrite: case ExprKind::kRawStore: case ExprKind::kRawStoreF:
      fn(e.a);
      fn(e.b);
      fn(e.c_atom);
      break;
    case ExprKind::kCommit: case ExprKind::kMigrate:
      fn(e.a);
      [[fallthrough]];
    case ExprKind::kTailCall: case ExprKind::kSpeculate:
      fn(e.fun);
      [[fallthrough]];
    case ExprKind::kLetExternal:
      for (auto& a : e.args) fn(a);
      break;
  }
}

/// Calls `fn(slot)` on every expression node of the tree rooted at `*head`,
/// where `slot` is the ExprPtr that owns the node.
template <class Fn>
void for_each_slot(ExprPtr& head, Fn fn) {
  for (ExprPtr* slot = &head; *slot != nullptr; slot = &(*slot)->next) {
    fn(*slot);
    if ((*slot)->kind == ExprKind::kIf) for_each_slot((*slot)->els, fn);
  }
}

/// Registers and instructions a function body lowers to (vm/lowering.cpp):
/// every non-variable operand costs one load into a scratch register, and
/// scratch registers are reused from one node to the next.
struct LoweredSize {
  std::size_t scratch = 0;  ///< peak scratch registers of any one node
  std::size_t insns = 0;
};

/// `is_var(atom)` says whether an operand is a variable after lowering.
template <class IsVar>
LoweredSize lowered_size(ExprPtr& body, IsVar is_var) {
  LoweredSize size;
  for_each_slot(body, [&](ExprPtr& slot) {
    std::size_t loads = 0;
    for_each_operand(*slot, [&](const Atom& a) { loads += is_var(a) ? 0 : 1; });
    size.scratch = std::max(size.scratch, loads);
    size.insns += 1 + loads;
  });
  return size;
}

bool is_var_atom(const Atom& a) { return a.kind == Atom::Kind::kVar; }

class Inliner {
 public:
  Inliner(Program& program, const InlineLimits& limits)
      : prog_(program), limits_(limits) {}

  std::uint64_t run() {
    const std::size_t n = prog_.functions.size();
    refs_.assign(n, 0);
    sites_.assign(n, Site{});
    sizes_.resize(n);
    for (std::uint32_t f = 0; f < n; ++f) {
      Function& fn = prog_.functions[f];
      if (fn.body == nullptr) return 0;  // malformed: leave it to typecheck
      sizes_[f] = lowered_size(fn.body, is_var_atom);
      for_each_slot(fn.body, [&](ExprPtr& slot) {
        for_each_operand(*slot, [&](const Atom& a) {
          if (a.kind != Atom::Kind::kFunRef || a.fun >= n) return;
          ++refs_[a.fun];
          if (slot->kind == ExprKind::kTailCall && &a == &slot->fun) {
            sites_[a.fun] = Site{f, &slot};
          }
        });
      });
    }
    // Candidacy is fixed by the scan: moving a body neither adds nor drops
    // a reference. Only a site's host changes, as hosts merge away.
    merged_.assign(n, Site{});
    std::uint64_t inlined = 0;
    for (std::uint32_t g = 0; g < n; ++g) {
      if (candidate(g) && inline_into_host(g)) ++inlined;
    }
    if (inlined != 0) compact();
    return inlined;
  }

 private:
  /// Where the one tail call to a function lives: the host function and
  /// the ExprPtr owning the call node.
  struct Site {
    std::uint32_t host = 0;
    ExprPtr* slot = nullptr;
  };

  [[nodiscard]] bool candidate(std::uint32_t g) const {
    const Function& fn = prog_.functions[g];
    // The single reference must be the callee of a tail call; a function
    // taking a continuation is a source-level function, not a CPS block.
    return refs_[g] == 1 && sites_[g].slot != nullptr &&
           g != prog_.entry &&
           std::none_of(fn.param_tys.begin(), fn.param_tys.end(),
                        [](const Type& t) { return t.kind == TyKind::kFun; });
  }

  /// Move g's body into its call site, or refuse (returning false) when
  /// the site is g itself or the merged function would outgrow `limits_`.
  bool inline_into_host(std::uint32_t g) {
    const Site site = resolve(sites_[g]);
    if (site.host == g) return false;  // a self-loop: nothing to merge into
    Function& host = prog_.functions[site.host];
    Function& fn = prog_.functions[g];
    const Expr& call = **site.slot;
    // Malformed input is left for typecheck to report.
    if (call.args.size() != fn.arity() ||
        fn.var_names.size() != fn.num_vars) {
      return false;
    }

    const auto arg_of = [&](const Atom& a) -> const Atom* {
      return a.kind == Atom::Kind::kVar && a.var < fn.arity()
                 ? &call.args[a.var]
                 : nullptr;
    };
    const LoweredSize body = lowered_size(fn.body, [&](const Atom& a) {
      const Atom* arg = arg_of(a);
      return is_var_atom(arg != nullptr ? *arg : a);
    });
    std::size_t call_insns = 1;
    for_each_operand(call, [&](const Atom& a) {
      call_insns += is_var_atom(a) ? 0 : 1;
    });
    const std::size_t locals = fn.num_vars - fn.arity();
    LoweredSize merged = sizes_[site.host];
    merged.scratch = std::max(merged.scratch, body.scratch);
    merged.insns = merged.insns - call_insns + body.insns;
    if (host.num_vars + locals + merged.scratch > limits_.max_regs ||
        merged.insns > limits_.max_insns) {
      return false;
    }

    // Parameters become the call's arguments; locals move above the host's.
    const VarId base = host.num_vars;
    const auto rename = [&](VarId v) {
      return static_cast<VarId>(base + v - fn.arity());
    };
    for_each_slot(fn.body, [&](ExprPtr& slot) {
      Expr& e = *slot;
      for_each_operand(e, [&](Atom& a) {
        if (const Atom* arg = arg_of(a)) {
          a = *arg;
        } else if (a.kind == Atom::Kind::kVar) {
          a.var = rename(a.var);
        }
      });
      if (binds(e.kind)) e.bind = rename(e.bind);
    });
    host.num_vars += static_cast<std::uint32_t>(locals);
    host.var_names.insert(host.var_names.end(),
                          fn.var_names.begin() + fn.arity(),
                          fn.var_names.end());
    sizes_[site.host] = merged;
    merged_[g] = site;
    *site.slot = std::move(fn.body);
    return true;
  }

  /// Follow a site through the functions its host has merged into: calls
  /// g's body made now live in g's host, and one that was the root of g's
  /// body sits where the call to g was.
  Site resolve(Site s) const {
    while (merged_[s.host].slot != nullptr) {
      const Site into = merged_[s.host];
      if (s.slot == &prog_.functions[s.host].body) s.slot = into.slot;
      s.host = into.host;
    }
    return s;
  }

  static bool binds(ExprKind k) {
    switch (k) {
      case ExprKind::kLetAtom: case ExprKind::kLetUnop:
      case ExprKind::kLetBinop: case ExprKind::kLetAllocTagged:
      case ExprKind::kLetAllocRaw: case ExprKind::kLetRead:
      case ExprKind::kLetRawLoad: case ExprKind::kLetRawLoadF:
      case ExprKind::kLetLen: case ExprKind::kLetPtrAdd:
      case ExprKind::kLetExternal:
        return true;
      default:
        return false;
    }
  }

  /// Drop the inlined functions and renumber the survivors densely (FIR
  /// serialization requires id == index).
  void compact() {
    std::vector<std::uint32_t> new_id(merged_.size(), 0);
    std::vector<Function> kept;
    for (std::uint32_t f = 0; f < merged_.size(); ++f) {
      if (merged_[f].slot != nullptr) continue;
      new_id[f] = static_cast<std::uint32_t>(kept.size());
      kept.push_back(std::move(prog_.functions[f]));
      kept.back().id = new_id[f];
    }
    for (Function& fn : kept) {
      for_each_slot(fn.body, [&](ExprPtr& slot) {
        for_each_operand(*slot, [&](Atom& a) {
          if (a.kind == Atom::Kind::kFunRef && a.fun < new_id.size()) {
            a.fun = new_id[a.fun];
          }
        });
      });
    }
    prog_.entry = new_id[prog_.entry];
    prog_.functions = std::move(kept);
  }

  Program& prog_;
  const InlineLimits limits_;
  std::vector<std::uint32_t> refs_;
  std::vector<Site> sites_;   ///< per function: its tail-call site, if any
  std::vector<Site> merged_;  ///< per inlined function: where it went
  std::vector<LoweredSize> sizes_;
};

}  // namespace

std::uint64_t inline_once(Program& program, const InlineLimits& limits) {
  if (program.entry >= program.functions.size()) return 0;
  return Inliner(program, limits).run();
}

OptimizeStats optimize(Program& program) {
  OptimizeStats stats;
  for (Function& fn : program.functions) {
    // Iterate to a (bounded) fixpoint: folding exposes new copies, which
    // expose new folds.
    for (int pass = 0; pass < 8; ++pass) {
      OptimizeStats before = stats;
      FunctionOptimizer(stats).run(fn);
      if (stats.total() == before.total()) break;
    }
  }
  return stats;
}

}  // namespace mojave::fir
