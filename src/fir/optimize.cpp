#include "fir/optimize.hpp"

#include <bit>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "support/error.hpp"

namespace mojave::fir {

namespace {

/// Fold a unop over a literal; nullopt when not foldable.
std::optional<Atom> fold_unop(Unop op, const Atom& a) {
  if (a.kind == Atom::Kind::kInt) {
    switch (op) {
      case Unop::kNeg:
        return Atom::integer(-a.i);
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
      case Binop::kAdd: return Atom::integer(x + y);
      case Binop::kSub: return Atom::integer(x - y);
      case Binop::kMul: return Atom::integer(x * y);
      case Binop::kDiv:
        if (y == 0) return std::nullopt;
        return Atom::integer(x / y);
      case Binop::kMod:
        if (y == 0) return std::nullopt;
        return Atom::integer(x % y);
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

}  // namespace

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
