#include "analysis/absint.h"

#include <algorithm>
#include <limits>
#include <optional>
#include <set>
#include <utility>

#include "common/strings.h"

namespace diablo::analysis {

using ast::Expr;
using ast::LValue;
using ast::Stmt;
using ast::StmtPtr;
using runtime::BinOp;
using runtime::UnOp;

// ----------------------------- intervals -----------------------------------

std::string Interval::ToString() const {
  if (IsConst()) return StrCat("{", lo, "}");
  std::string l = lo == kNegInf ? "(-inf" : StrCat("[", lo);
  std::string h = hi == kPosInf ? "+inf)" : StrCat(hi, "]");
  return StrCat(l, ",", h);
}

Interval JoinI(const Interval& a, const Interval& b) {
  return Interval{std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

Interval WidenI(const Interval& prev, const Interval& next) {
  Interval w = next;
  if (next.lo < prev.lo) w.lo = Interval::kNegInf;
  if (next.hi > prev.hi) w.hi = Interval::kPosInf;
  return w;
}

namespace {

int64_t Saturate(__int128 v) {
  if (v <= static_cast<__int128>(Interval::kNegInf)) return Interval::kNegInf;
  if (v >= static_cast<__int128>(Interval::kPosInf)) return Interval::kPosInf;
  return static_cast<int64_t>(v);
}

/// Adds two lower or two upper bounds; an infinite bound absorbs.
int64_t AddBound(int64_t a, int64_t b, int64_t inf) {
  if (a == inf || b == inf) return inf;
  return Saturate(static_cast<__int128>(a) + b);
}

}  // namespace

Interval AddI(const Interval& a, const Interval& b) {
  return Interval{AddBound(a.lo, b.lo, Interval::kNegInf),
                  AddBound(a.hi, b.hi, Interval::kPosInf)};
}

Interval NegI(const Interval& a) {
  Interval r;
  r.lo = a.hi == Interval::kPosInf ? Interval::kNegInf : -a.hi;
  r.hi = a.lo == Interval::kNegInf ? Interval::kPosInf : -a.lo;
  return r;
}

Interval SubI(const Interval& a, const Interval& b) {
  return AddI(a, NegI(b));
}

Interval MulI(const Interval& a, const Interval& b) {
  if (a.IsZero() || b.IsZero()) return Interval::Const(0);
  if (a.lo == Interval::kNegInf || a.hi == Interval::kPosInf ||
      b.lo == Interval::kNegInf || b.hi == Interval::kPosInf) {
    return Interval::Top();
  }
  __int128 c1 = static_cast<__int128>(a.lo) * b.lo;
  __int128 c2 = static_cast<__int128>(a.lo) * b.hi;
  __int128 c3 = static_cast<__int128>(a.hi) * b.lo;
  __int128 c4 = static_cast<__int128>(a.hi) * b.hi;
  __int128 lo = std::min(std::min(c1, c2), std::min(c3, c4));
  __int128 hi = std::max(std::max(c1, c2), std::max(c3, c4));
  return Interval{Saturate(lo), Saturate(hi)};
}

Interval MinI(const Interval& a, const Interval& b) {
  // The ±∞ sentinels are the int64 extremes, so plain min/max is exact.
  return Interval{std::min(a.lo, b.lo), std::min(a.hi, b.hi)};
}

Interval MaxI(const Interval& a, const Interval& b) {
  return Interval{std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
}

// ----------------------------- the walker ----------------------------------

namespace {

using Tag = AbstractValue::Tag;

Tag TagOfBasicType(const ast::TypePtr& t) {
  if (t == nullptr || t->kind != ast::Type::Kind::kBasic) {
    return Tag::kUnknown;
  }
  if (t->name == "int") return Tag::kInt;
  if (t->name == "float" || t->name == "double") return Tag::kDouble;
  if (t->name == "bool") return Tag::kBool;
  if (t->name == "string") return Tag::kString;
  return Tag::kUnknown;
}

/// Variable names assigned (Assign/Incr to a plain var, or Decl)
/// anywhere under `s` — the widening frontier for loop bodies.
void CollectAssignedScalars(const Stmt& s, std::set<std::string>* out) {
  if (s.is<Stmt::Assign>()) {
    const auto& d = s.as<Stmt::Assign>().dest;
    if (d->is_var()) out->insert(d->var().name);
    return;
  }
  if (s.is<Stmt::Incr>()) {
    const auto& d = s.as<Stmt::Incr>().dest;
    if (d->is_var()) out->insert(d->var().name);
    return;
  }
  if (s.is<Stmt::Decl>()) {
    out->insert(s.as<Stmt::Decl>().name);
    return;
  }
  if (s.is<Stmt::ForRange>()) {
    out->insert(s.as<Stmt::ForRange>().var);
    CollectAssignedScalars(*s.as<Stmt::ForRange>().body, out);
    return;
  }
  if (s.is<Stmt::ForEach>()) {
    out->insert(s.as<Stmt::ForEach>().var);
    CollectAssignedScalars(*s.as<Stmt::ForEach>().body, out);
    return;
  }
  if (s.is<Stmt::While>()) {
    CollectAssignedScalars(*s.as<Stmt::While>().body, out);
    return;
  }
  if (s.is<Stmt::If>()) {
    const auto& node = s.as<Stmt::If>();
    CollectAssignedScalars(*node.then_branch, out);
    if (node.else_branch != nullptr) {
      CollectAssignedScalars(*node.else_branch, out);
    }
    return;
  }
  if (s.is<Stmt::Block>()) {
    for (const auto& child : s.as<Stmt::Block>().stmts) {
      CollectAssignedScalars(*child, out);
    }
  }
}

class AbstractInterpreter {
 public:
  explicit AbstractInterpreter(const AbsintOptions& options)
      : options_(options) {}

  AbsintResult Run(const ast::Program& program) {
    for (const auto& s : program.stmts) ExecStmt(*s);
    SortAndDedupe(&result_.diagnostics);
    return std::move(result_);
  }

 private:
  struct ArrayInfo {
    /// Declared vector/matrix: dense index semantics, negative subscript
    /// writes are out of bounds. map/bag keys are arbitrary.
    bool dense = false;
  };
  using Env = std::map<std::string, AbstractValue>;

  // ---- flow-insensitive summary ----

  void Bind(const std::string& name, const AbstractValue& v) {
    env_[name] = v;
    if (v.tag == Tag::kInt) {
      auto it = result_.int_scalars.find(name);
      if (it == result_.int_scalars.end()) {
        result_.int_scalars[name] = v.range;
      } else {
        it->second = JoinI(it->second, v.range);
      }
    }
  }

  AbstractValue Lookup(const std::string& name) const {
    auto it = env_.find(name);
    return it == env_.end() ? AbstractValue::Unknown() : it->second;
  }

  // ---- concrete witness sampling ----

  /// Evaluates an integer expression to a concrete value under the
  /// current sample environment (loop indexes at their first iteration,
  /// constant scalars at their value, unconstrained scalars at a value
  /// clamped into their interval). Records every variable it touched in
  /// `used` so the witness environment binds exactly what the reference
  /// interpreter needs to replay the fault.
  std::optional<int64_t> ConcreteEval(const ast::ExprPtr& e,
                                      std::map<std::string, int64_t>* used) {
    if (e == nullptr) return std::nullopt;
    if (e->is<Expr::IntConst>()) return e->as<Expr::IntConst>().value;
    if (e->is<Expr::LVal>()) {
      const ast::LValuePtr& d = e->as<Expr::LVal>().lvalue;
      if (!d->is_var()) return std::nullopt;
      const std::string& name = d->var().name;
      auto it = sample_.find(name);
      if (it != sample_.end()) {
        (*used)[name] = it->second;
        return it->second;
      }
      AbstractValue v = Lookup(name);
      if (v.tag != Tag::kInt) return std::nullopt;
      // Any value in the interval witnesses the fault (the abstract
      // claim holds for all of them); pick 0 clamped into range.
      int64_t pick = 0;
      if (!v.range.Contains(0)) {
        pick = v.range.lo != Interval::kNegInf ? v.range.lo : v.range.hi;
        if (pick == Interval::kPosInf || pick == Interval::kNegInf) {
          return std::nullopt;
        }
      }
      (*used)[name] = pick;
      return pick;
    }
    if (e->is<Expr::Un>()) {
      const auto& un = e->as<Expr::Un>();
      if (un.op != UnOp::kNeg) return std::nullopt;
      auto v = ConcreteEval(un.operand, used);
      if (!v.has_value()) return std::nullopt;
      return -*v;
    }
    if (e->is<Expr::Bin>()) {
      const auto& bin = e->as<Expr::Bin>();
      auto l = ConcreteEval(bin.lhs, used);
      auto r = ConcreteEval(bin.rhs, used);
      if (!l.has_value() || !r.has_value()) return std::nullopt;
      switch (bin.op) {
        case BinOp::kAdd:
          return *l + *r;
        case BinOp::kSub:
          return *l - *r;
        case BinOp::kMul:
          return *l * *r;
        case BinOp::kDiv:
        case BinOp::kMod:
          // No value for a zero divisor or the overflowing INT64_MIN / -1.
          if (*r == 0 ||
              (*l == std::numeric_limits<int64_t>::min() && *r == -1)) {
            return std::nullopt;
          }
          return bin.op == BinOp::kDiv ? *l / *r : *l % *r;
        default:
          return std::nullopt;
      }
    }
    return std::nullopt;
  }

  /// Builds the witness iteration vector: enclosing loop indexes
  /// outermost-first, then any other variables the concrete evaluation
  /// consulted, name-sorted.
  std::vector<std::pair<std::string, int64_t>> WitnessEnv(
      const std::map<std::string, int64_t>& used) {
    std::vector<std::pair<std::string, int64_t>> env;
    std::set<std::string> taken;
    for (const auto& [var, val] : loop_stack_) {
      auto it = used.find(var);
      if (it != used.end()) {
        env.emplace_back(var, it->second);
        taken.insert(var);
      }
    }
    for (const auto& [var, val] : used) {
      if (taken.count(var) == 0) env.emplace_back(var, val);
    }
    return env;
  }

  void Emit(const char* code, SourceLocation loc, std::string message,
            std::string hint, Witness witness) {
    if (!emit_) return;
    result_.diagnostics.push_back(Diagnostic{code, Severity::kError, loc,
                                             std::move(message),
                                             std::move(hint),
                                             std::move(witness)});
  }

  // ---- abstract expression evaluation ----

  AbstractValue EvalExpr(const Expr& e) {
    if (e.is<Expr::IntConst>()) {
      return AbstractValue::Int(Interval::Const(e.as<Expr::IntConst>().value));
    }
    if (e.is<Expr::DoubleConst>()) return AbstractValue::OfTag(Tag::kDouble);
    if (e.is<Expr::BoolConst>()) {
      return AbstractValue{Tag::kBool,
                           Interval::Const(e.as<Expr::BoolConst>().value)};
    }
    if (e.is<Expr::StringConst>()) return AbstractValue::OfTag(Tag::kString);
    if (e.is<Expr::LVal>()) return EvalRead(*e.as<Expr::LVal>().lvalue);
    if (e.is<Expr::Un>()) {
      const auto& un = e.as<Expr::Un>();
      AbstractValue v = EvalExpr(*un.operand);
      if (un.op == UnOp::kNot) return AbstractValue::OfTag(Tag::kBool);
      if (v.tag == Tag::kInt) return AbstractValue::Int(NegI(v.range));
      if (v.tag == Tag::kDouble) return v;
      return AbstractValue::Unknown();
    }
    if (e.is<Expr::Bin>()) return EvalBin(e);
    if (e.is<Expr::TupleCons>()) {
      for (const auto& el : e.as<Expr::TupleCons>().elems) EvalExpr(*el);
      return AbstractValue::Unknown();
    }
    if (e.is<Expr::RecordCons>()) {
      for (const auto& [name, el] : e.as<Expr::RecordCons>().fields) {
        EvalExpr(*el);
      }
      return AbstractValue::Unknown();
    }
    if (e.is<Expr::Call>()) {
      const auto& call = e.as<Expr::Call>();
      std::vector<AbstractValue> args;
      for (const auto& a : call.args) args.push_back(EvalExpr(*a));
      if (call.function == "abs" && args.size() == 1 &&
          args[0].tag == Tag::kInt) {
        Interval r = args[0].range;
        Interval mag = MaxI(r, NegI(r));
        return AbstractValue::Int(Interval{std::max<int64_t>(0, mag.lo),
                                           std::max<int64_t>(0, mag.hi)});
      }
      // Every other builtin produces a double.
      return AbstractValue::OfTag(Tag::kDouble);
    }
    return AbstractValue::Unknown();
  }

  AbstractValue EvalBin(const Expr& e) {
    const auto& bin = e.as<Expr::Bin>();
    AbstractValue l = EvalExpr(*bin.lhs);
    // && and || short-circuit: their right operand runs on every path
    // only when the left one provably does not decide the result.
    const bool connective = bin.op == BinOp::kAnd || bin.op == BinOp::kOr;
    const bool saved_reach = reachable_;
    if (connective) {
      const int64_t undecided = bin.op == BinOp::kAnd ? 1 : 0;
      reachable_ = reachable_ && l.tag == Tag::kBool &&
                   l.range.IsConst() && l.range.lo == undecided;
    }
    AbstractValue r = EvalExpr(*bin.rhs);
    reachable_ = saved_reach;
    bool both_int = l.tag == Tag::kInt && r.tag == Tag::kInt;
    switch (bin.op) {
      case BinOp::kAdd:
        if (both_int) return AbstractValue::Int(AddI(l.range, r.range));
        break;
      case BinOp::kSub:
        if (both_int) return AbstractValue::Int(SubI(l.range, r.range));
        break;
      case BinOp::kMul:
        if (both_int) return AbstractValue::Int(MulI(l.range, r.range));
        break;
      case BinOp::kMin:
        if (both_int) return AbstractValue::Int(MinI(l.range, r.range));
        break;
      case BinOp::kMax:
        if (both_int) return AbstractValue::Int(MaxI(l.range, r.range));
        break;
      case BinOp::kDiv:
      case BinOp::kMod:
        // Integer division/modulo by a provably-zero divisor is a runtime
        // error on every execution path that reaches it (D202). Double
        // division never errors, so both operands must be proven ints.
        if (both_int && r.range.IsZero() && clean_ && reachable_) {
          std::map<std::string, int64_t> used;
          std::optional<int64_t> probe = ConcreteEval(bin.rhs, &used);
          if (!probe.has_value() || *probe == 0) {
            Witness w;
            w.kind = "zero-divisor";
            w.array = bin.rhs->ToString();
            w.write_iteration = WitnessEnv(used);
            Emit(diag::kZeroDivisor,
                 e.loc.line > 0 ? e.loc : cur_loc_,
                 StrCat("integer ",
                        bin.op == BinOp::kDiv ? "division" : "modulo",
                        " by '", bin.rhs->ToString(),
                        "', which provably evaluates to 0 (interval ",
                        r.range.ToString(), ")"),
                 "this division faults on every execution; guard it with "
                 "an if or fix the divisor expression",
                 std::move(w));
          }
        }
        if (both_int) return AbstractValue::OfTag(Tag::kInt);
        break;
      case BinOp::kEq:
      case BinOp::kNe:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        // Disjoint constant-bounded intervals decide the comparison.
        AbstractValue out = AbstractValue{Tag::kBool, Interval{0, 1}};
        if (both_int) {
          const Interval& a = l.range;
          const Interval& b = r.range;
          auto decide = [&out](bool v) {
            out.range = Interval::Const(v ? 1 : 0);
          };
          switch (bin.op) {
            case BinOp::kLt:
              if (a.hi < b.lo) decide(true);
              if (a.lo >= b.hi) decide(false);
              break;
            case BinOp::kLe:
              if (a.hi <= b.lo) decide(true);
              if (a.lo > b.hi) decide(false);
              break;
            case BinOp::kGt:
              if (a.lo > b.hi) decide(true);
              if (a.hi <= b.lo) decide(false);
              break;
            case BinOp::kGe:
              if (a.lo >= b.hi) decide(true);
              if (a.hi < b.lo) decide(false);
              break;
            case BinOp::kEq:
              if (a.IsConst() && b.IsConst() && a.lo == b.lo) decide(true);
              if (a.hi < b.lo || b.hi < a.lo) decide(false);
              break;
            case BinOp::kNe:
              if (a.hi < b.lo || b.hi < a.lo) decide(true);
              if (a.IsConst() && b.IsConst() && a.lo == b.lo) decide(false);
              break;
            default:
              break;
          }
        }
        return out;
      }
      case BinOp::kAnd:
      case BinOp::kOr: {
        AbstractValue out = AbstractValue{Tag::kBool, Interval{0, 1}};
        if (l.tag == Tag::kBool && r.tag == Tag::kBool) {
          bool lt = l.range == Interval::Const(1);
          bool lf = l.range == Interval::Const(0);
          bool rt = r.range == Interval::Const(1);
          bool rf = r.range == Interval::Const(0);
          if (bin.op == BinOp::kAnd) {
            if (lt && rt) out.range = Interval::Const(1);
            if (lf || rf) out.range = Interval::Const(0);
          } else {
            if (lt || rt) out.range = Interval::Const(1);
            if (lf && rf) out.range = Interval::Const(0);
          }
        }
        return out;
      }
      case BinOp::kArgmin:
        return AbstractValue::Unknown();
    }
    // Arithmetic over doubles (or mixed/unknown operands) stays a double
    // when either side is definitely one, otherwise unknown.
    if (l.tag == Tag::kDouble || r.tag == Tag::kDouble) {
      return AbstractValue::OfTag(Tag::kDouble);
    }
    return AbstractValue::Unknown();
  }

  AbstractValue EvalRead(const LValue& d) {
    if (d.is_var()) return Lookup(d.var().name);
    if (d.is_index()) {
      for (const auto& ix : d.index().indices) EvalExpr(*ix);
      // An element read may be absent under the lifted semantics: every
      // fault downstream of it in evaluation order is unreachable.
      clean_ = false;
      return AbstractValue::Unknown();
    }
    EvalRead(*d.proj().base);
    return AbstractValue::Unknown();
  }

  // ---- statements ----

  /// D201: a write through `dest` (a plain index into a declared
  /// vector/matrix) whose subscript is provably negative in some
  /// dimension. Preconditions mirror the reference interpreter exactly:
  /// the statement must be provably reachable and no possibly-absent
  /// array read may precede the write in evaluation order.
  void CheckIndexedWrite(const LValue& dest) {
    if (!dest.is_index()) return;
    const auto& ix = dest.index();
    auto ai = arrays_.find(ix.array);
    if (ai == arrays_.end() || !ai->second.dense) return;
    std::vector<AbstractValue> dims;
    for (const auto& e : ix.indices) dims.push_back(EvalExpr(*e));
    if (!clean_ || !reachable_) return;
    for (size_t k = 0; k < dims.size(); ++k) {
      if (dims[k].tag != Tag::kInt || !dims[k].range.IsNegative()) continue;
      // Materialize the concrete element the first execution writes.
      std::map<std::string, int64_t> used;
      std::vector<int64_t> element;
      bool concrete = true;
      for (const auto& e : ix.indices) {
        auto v = ConcreteEval(e, &used);
        if (!v.has_value()) {
          concrete = false;
          break;
        }
        element.push_back(*v);
      }
      if (!concrete) return;  // keep the no-witness-no-claim discipline
      Witness w;
      w.kind = "oob-write";
      w.array = ix.array;
      w.write_iteration = WitnessEnv(used);
      w.element = std::move(element);
      Emit(diag::kOutOfBoundsWrite, cur_loc_,
           StrCat("write to ", dest.ToString(), " is out of bounds: ",
                  "subscript ", k + 1, " has interval ",
                  dims[k].range.ToString(), ", provably negative for a ",
                  "declared ", ix.indices.size() > 1 ? "matrix" : "vector"),
           "the subscript is negative on every execution; fix the index "
           "arithmetic or the loop bounds",
           std::move(w));
      return;
    }
  }

  void ExecSimple(const Stmt& s) {
    clean_ = true;
    cur_loc_ = s.loc;
    if (s.is<Stmt::Decl>()) {
      const auto& node = s.as<Stmt::Decl>();
      if (node.type != nullptr && node.type->IsCollection()) {
        arrays_[node.name] = ArrayInfo{node.type->name == "vector" ||
                                       node.type->name == "matrix"};
        return;
      }
      AbstractValue v = node.init != nullptr ? EvalExpr(*node.init)
                                             : AbstractValue::Unknown();
      Tag declared = TagOfBasicType(node.type);
      if (declared != Tag::kUnknown && v.tag != declared) {
        v = AbstractValue::OfTag(declared);
      }
      Bind(node.name, v);
      return;
    }
    if (s.is<Stmt::Assign>()) {
      const auto& node = s.as<Stmt::Assign>();
      AbstractValue v = EvalExpr(*node.value);
      if (node.dest->is_var()) {
        const std::string& name = node.dest->var().name;
        if (arrays_.count(name) == 0) Bind(name, v);
        return;
      }
      CheckIndexedWrite(*node.dest);
      return;
    }
    if (s.is<Stmt::Incr>()) {
      const auto& node = s.as<Stmt::Incr>();
      AbstractValue v = EvalExpr(*node.value);
      if (node.dest->is_var()) {
        const std::string& name = node.dest->var().name;
        if (arrays_.count(name) != 0) return;
        AbstractValue old = Lookup(name);
        Bind(name, ApplyIncr(node.op, old, v));
        return;
      }
      CheckIndexedWrite(*node.dest);
      return;
    }
  }

  static AbstractValue ApplyIncr(BinOp op, const AbstractValue& old,
                                 const AbstractValue& v) {
    bool both_int = old.tag == Tag::kInt && v.tag == Tag::kInt;
    switch (op) {
      case BinOp::kAdd:
        if (both_int) return AbstractValue::Int(AddI(old.range, v.range));
        break;
      case BinOp::kMul:
        if (both_int) return AbstractValue::Int(MulI(old.range, v.range));
        break;
      case BinOp::kMin:
        if (both_int) return AbstractValue::Int(MinI(old.range, v.range));
        break;
      case BinOp::kMax:
        if (both_int) return AbstractValue::Int(MaxI(old.range, v.range));
        break;
      case BinOp::kAnd:
      case BinOp::kOr:
        return AbstractValue{Tag::kBool, Interval{0, 1}};
      default:
        break;
    }
    if (old.tag == Tag::kDouble || v.tag == Tag::kDouble) {
      return AbstractValue::OfTag(Tag::kDouble);
    }
    if (both_int) return AbstractValue::OfTag(Tag::kInt);
    return AbstractValue::Unknown();
  }

  void JoinEnvInto(const Env& other) {
    // Pointwise join; names missing on either side become unknown.
    for (auto& [name, v] : env_) {
      auto it = other.find(name);
      if (it == other.end()) {
        v = AbstractValue::Unknown();
        continue;
      }
      const AbstractValue& o = it->second;
      if (v.tag != o.tag) {
        v = AbstractValue::Unknown();
      } else if (v.tag == Tag::kInt || v.tag == Tag::kBool) {
        v.range = JoinI(v.range, o.range);
      }
    }
    for (const auto& [name, v] : other) {
      if (env_.count(name) == 0) env_[name] = AbstractValue::Unknown();
    }
  }

  /// Analyzes a loop body to fixpoint: silent passes with widening until
  /// the abstract environment stabilizes, then one reporting pass. The
  /// widening jumps each growing bound to ±∞, so convergence is fast;
  /// a defensive cap tops out every body-assigned variable.
  void AnalyzeLoopBody(const Stmt& body, bool body_provably_runs) {
    bool saved_emit = emit_;
    bool saved_reach = reachable_;
    emit_ = false;
    reachable_ = false;
    for (int round = 0; round < 16; ++round) {
      Env pre = env_;
      ExecStmt(body);
      JoinEnvInto(pre);
      bool stable = env_ == pre;
      for (auto& [name, v] : env_) {
        auto it = pre.find(name);
        if (it == pre.end()) continue;
        if ((v.tag == Tag::kInt || v.tag == Tag::kBool) &&
            v.tag == it->second.tag) {
          v.range = WidenI(it->second.range, v.range);
        }
      }
      if (stable) break;
      if (round == 15) {
        std::set<std::string> assigned;
        CollectAssignedScalars(body, &assigned);
        for (const std::string& name : assigned) {
          env_[name] = AbstractValue::Unknown();
        }
      }
    }
    emit_ = saved_emit;
    reachable_ = saved_reach && body_provably_runs;
    ExecStmt(body);
    reachable_ = saved_reach;
  }

  void ExecStmt(const Stmt& s) {
    if (s.is<Stmt::Decl>() || s.is<Stmt::Assign>() || s.is<Stmt::Incr>()) {
      ExecSimple(s);
      return;
    }
    if (s.is<Stmt::Block>()) {
      for (const auto& child : s.as<Stmt::Block>().stmts) ExecStmt(*child);
      return;
    }
    if (s.is<Stmt::If>()) {
      const auto& node = s.as<Stmt::If>();
      clean_ = true;
      cur_loc_ = s.loc;
      AbstractValue cond = EvalExpr(*node.cond);
      bool cond_clean = clean_;
      bool provably_true =
          cond.tag == Tag::kBool && cond.range == Interval::Const(1);
      bool provably_false =
          cond.tag == Tag::kBool && cond.range == Interval::Const(0);
      if (provably_true) {
        bool saved = reachable_;
        reachable_ = reachable_ && cond_clean;
        ExecStmt(*node.then_branch);
        reachable_ = saved;
        return;
      }
      if (provably_false) {
        if (node.else_branch != nullptr) {
          bool saved = reachable_;
          reachable_ = reachable_ && cond_clean;
          ExecStmt(*node.else_branch);
          reachable_ = saved;
        }
        return;
      }
      bool saved = reachable_;
      reachable_ = false;
      Env pre = env_;
      ExecStmt(*node.then_branch);
      Env post_then = std::move(env_);
      env_ = std::move(pre);
      if (node.else_branch != nullptr) ExecStmt(*node.else_branch);
      JoinEnvInto(post_then);
      reachable_ = saved;
      return;
    }
    if (s.is<Stmt::ForRange>()) {
      const auto& node = s.as<Stmt::ForRange>();
      clean_ = true;
      cur_loc_ = s.loc;
      AbstractValue lo = EvalExpr(*node.lo);
      AbstractValue hi = EvalExpr(*node.hi);
      bool bounds_clean = clean_;
      Interval li = lo.tag == Tag::kInt ? lo.range : Interval::Top();
      Interval hri = hi.tag == Tag::kInt ? hi.range : Interval::Top();
      // The body provably runs iff lo <= hi for every concrete pair.
      bool runs = bounds_clean && lo.tag == Tag::kInt &&
                  hi.tag == Tag::kInt && li.hi != Interval::kPosInf &&
                  hri.lo != Interval::kNegInf && li.hi <= hri.lo;
      AbstractValue saved_var = Lookup(node.var);
      bool had_sample = sample_.count(node.var) != 0;
      int64_t old_sample = had_sample ? sample_[node.var] : 0;
      std::map<std::string, int64_t> probe_used;
      std::optional<int64_t> first = ConcreteEval(node.lo, &probe_used);
      if (first.has_value()) {
        sample_[node.var] = *first;
      } else {
        sample_.erase(node.var);
      }
      loop_stack_.emplace_back(node.var,
                               first.has_value() ? *first : int64_t{0});
      Env before_loop = env_;
      Bind(node.var, AbstractValue::Int(Interval{li.lo, hri.hi}));
      AnalyzeLoopBody(*node.body, runs);
      if (!runs) JoinEnvInto(before_loop);
      loop_stack_.pop_back();
      if (had_sample) {
        sample_[node.var] = old_sample;
      } else {
        sample_.erase(node.var);
      }
      env_[node.var] = saved_var;
      return;
    }
    if (s.is<Stmt::ForEach>()) {
      const auto& node = s.as<Stmt::ForEach>();
      clean_ = true;
      cur_loc_ = s.loc;
      EvalExpr(*node.collection);
      AbstractValue saved_var = Lookup(node.var);
      Env before_loop = env_;
      env_[node.var] = AbstractValue::Unknown();
      AnalyzeLoopBody(*node.body, /*body_provably_runs=*/false);
      JoinEnvInto(before_loop);
      env_[node.var] = saved_var;
      return;
    }
    if (s.is<Stmt::While>()) {
      const auto& node = s.as<Stmt::While>();
      clean_ = true;
      cur_loc_ = s.loc;
      EvalExpr(*node.cond);
      Env before_loop = env_;
      AnalyzeLoopBody(*node.body, /*body_provably_runs=*/false);
      JoinEnvInto(before_loop);
      return;
    }
  }

  const AbsintOptions& options_;
  AbsintResult result_;
  Env env_;
  std::map<std::string, ArrayInfo> arrays_;
  std::map<std::string, int64_t> sample_;
  std::vector<std::pair<std::string, int64_t>> loop_stack_;
  SourceLocation cur_loc_;
  bool reachable_ = true;
  bool emit_ = true;
  bool clean_ = true;
};

}  // namespace

AbsintResult AnalyzeProgram(const ast::Program& program,
                            const AbsintOptions& options) {
  AbstractInterpreter interp(options);
  return interp.Run(program);
}

}  // namespace diablo::analysis
