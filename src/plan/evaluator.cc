#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/strings.h"
#include "plan/plan.h"
#include "plan/row_program.h"
#include "runtime/array.h"

namespace diablo::plan {

using comp::CExpr;
using comp::CExprPtr;
using comp::Pattern;
using runtime::BinOp;
using runtime::Dataset;
using runtime::Value;
using runtime::ValueVec;

namespace {

constexpr int64_t kMaxLocalRange = 1 << 24;

// --------------------------- pattern binding --------------------------------

/// Destructures `value` by `pattern`, appending bound components (in
/// Pattern::Vars() order, skipping "_") to `out`.
Status BindPattern(const Pattern& pattern, const Value& value,
                   ValueVec* out) {
  if (!pattern.is_tuple) {
    if (pattern.var != "_") out->push_back(value);
    return Status::OK();
  }
  if (!value.is_tuple() || value.tuple().size() != pattern.elems.size()) {
    return Status::RuntimeError(
        StrCat("pattern ", pattern.ToString(), " does not match value ",
               value.ToString()));
  }
  for (size_t i = 0; i < pattern.elems.size(); ++i) {
    DIABLO_RETURN_IF_ERROR(
        BindPattern(pattern.elems[i], value.tuple()[i], out));
  }
  return Status::OK();
}

/// A copy of `row` with capacity for `extra` more bound values, so that
/// binding them does not reallocate.
ValueVec Widened(const ValueVec& row, size_t extra) {
  ValueVec out;
  out.reserve(row.size() + extra);
  out.insert(out.end(), row.begin(), row.end());
  return out;
}

/// Moves a computed value into `*out`, or records its error.
const Value* Deliver(StatusOr<Value> result, Value* out, Status* error) {
  if (!result.ok()) {
    *error = result.status();
    return nullptr;
  }
  *out = std::move(result).value();
  return out;
}

/// An owned copy of an evaluation result, moved when it is the scratch.
Value Take(const Value* v, Value* scratch) {
  return v == scratch ? std::move(*scratch) : *v;
}

}  // namespace

// --------------------------- row programs -----------------------------------

/// Lowers a CExpr tree into RowProgram nodes, resolving names against the
/// schema and the driver state once.
class RowProgram::Compiler {
 public:
  Compiler(RowProgram* program, const std::vector<std::string>& schema,
           const ExecState& state, Context context)
      : p_(program), schema_(schema), state_(state), context_(context) {}

  int32_t Lower(const CExprPtr& e) {
    if (e->is<CExpr::Var>()) return LowerVar(e->as<CExpr::Var>().name);
    if (e->is<CExpr::IntConst>()) {
      return Const(Value::MakeInt(e->as<CExpr::IntConst>().value));
    }
    if (e->is<CExpr::DoubleConst>()) {
      return Const(Value::MakeDouble(e->as<CExpr::DoubleConst>().value));
    }
    if (e->is<CExpr::BoolConst>()) {
      return Const(Value::MakeBool(e->as<CExpr::BoolConst>().value));
    }
    if (e->is<CExpr::StringConst>()) {
      return Const(Value::MakeString(e->as<CExpr::StringConst>().value));
    }
    if (e->is<CExpr::Bin>()) {
      const auto& b = e->as<CExpr::Bin>();
      Node n(Op::kBin);
      n.bin = b.op;
      n.kids = {Lower(b.lhs), Lower(b.rhs)};
      return Add(std::move(n));
    }
    if (e->is<CExpr::Un>()) {
      const auto& u = e->as<CExpr::Un>();
      Node n(Op::kUn);
      n.un = u.op;
      n.kids = {Lower(u.operand)};
      return Add(std::move(n));
    }
    if (e->is<CExpr::TupleCons>()) {
      return LowerTuple(e->as<CExpr::TupleCons>().elems);
    }
    if (e->is<CExpr::RecordCons>()) {
      Node n(Op::kRecord);
      for (const auto& [name, c] : e->as<CExpr::RecordCons>().fields) {
        n.names.push_back(name);
        n.kids.push_back(Lower(c));
      }
      return Add(std::move(n));
    }
    if (e->is<CExpr::Proj>()) {
      const auto& proj = e->as<CExpr::Proj>();
      Node n(Op::kProj);
      n.kids = {Lower(proj.base)};
      n.text = proj.field;
      if (proj.field.size() >= 2 && proj.field[0] == '_') {
        n.index = std::max(0, std::atoi(proj.field.c_str() + 1));
      }
      return Add(std::move(n));
    }
    if (e->is<CExpr::Call>()) {
      const auto& call = e->as<CExpr::Call>();
      Node n(Op::kCall);
      n.text = call.function;
      n.builtin = ResolveBuiltin(call.function);
      for (const auto& a : call.args) n.kids.push_back(Lower(a));
      return Add(std::move(n));
    }
    if (e->is<CExpr::Reduce>()) {
      const auto& r = e->as<CExpr::Reduce>();
      if (context_ == Context::kDriver && r.arg->is<CExpr::Nested>()) {
        Node n(Op::kReduceNested);
        n.bin = r.op;
        n.expr = r.arg;
        return Add(std::move(n));
      }
      Node n(Op::kReduce);
      n.bin = r.op;
      n.kids = {Lower(r.arg)};
      return Add(std::move(n));
    }
    if (e->is<CExpr::Nested>()) {
      if (context_ == Context::kRow) {
        return Raise(
            "nested comprehension in a row expression (normalizer should "
            "have flattened it)");
      }
      Node n(Op::kNested);
      n.expr = e;
      return Add(std::move(n));
    }
    if (e->is<CExpr::Range>()) {
      const auto& r = e->as<CExpr::Range>();
      Node n(Op::kRange);
      n.kids = {Lower(r.lo), Lower(r.hi)};
      return Add(std::move(n));
    }
    if (e->is<CExpr::Merge>()) {
      if (context_ == Context::kRow) {
        return Raise("array merge in a row expression");
      }
      Node n(Op::kMerge);
      n.expr = e;
      return Add(std::move(n));
    }
    Node n(Op::kBag);
    for (const auto& c : e->as<CExpr::BagCons>().elems) {
      n.kids.push_back(Lower(c));
    }
    return Add(std::move(n));
  }

  int32_t LowerTuple(const std::vector<CExprPtr>& elems) {
    Node n(Op::kTuple);
    for (const auto& c : elems) n.kids.push_back(Lower(c));
    return Add(std::move(n));
  }

 private:
  /// Schema slot first (first match), then driver scalars, then arrays.
  int32_t LowerVar(const std::string& name) {
    for (size_t i = 0; i < schema_.size(); ++i) {
      if (schema_[i] == name) {
        Node n(Op::kSlot);
        n.index = static_cast<int32_t>(i);
        return Add(std::move(n));
      }
    }
    if (state_.scalars != nullptr) {
      auto it = state_.scalars->find(name);
      if (it != state_.scalars->end()) return Const(it->second);
    }
    if (state_.arrays != nullptr && state_.arrays->count(name) != 0) {
      if (context_ == Context::kRow) {
        return Raise(StrCat("distributed array '", name,
                            "' used as a value inside a row expression"));
      }
      Node n(Op::kArray);
      n.text = name;
      return Add(std::move(n));
    }
    return Raise(StrCat("unbound variable '", name, "'"));
  }

  static Builtin ResolveBuiltin(const std::string& f) {
    if (f == "inRange") return Builtin::kInRange;
    if (f == "sqrt") return Builtin::kSqrt;
    if (f == "abs") return Builtin::kAbs;
    if (f == "exp") return Builtin::kExp;
    if (f == "log") return Builtin::kLog;
    if (f == "pow") return Builtin::kPow;
    if (f == "floor") return Builtin::kFloor;
    return Builtin::kUnknown;
  }

  int32_t Const(Value v) {
    p_->consts_.push_back(std::move(v));
    Node n(Op::kConst);
    n.index = static_cast<int32_t>(p_->consts_.size() - 1);
    return Add(std::move(n));
  }

  int32_t Raise(std::string message) {
    Node n(Op::kRaise);
    n.text = std::move(message);
    return Add(std::move(n));
  }

  int32_t Add(Node n) {
    p_->nodes_.push_back(std::move(n));
    return static_cast<int32_t>(p_->nodes_.size() - 1);
  }

  RowProgram* p_;
  const std::vector<std::string>& schema_;
  const ExecState& state_;
  Context context_;
};

RowProgram RowProgram::Compile(const CExprPtr& e,
                               const std::vector<std::string>& schema,
                               const ExecState& state, Context context) {
  RowProgram p;
  if (context == Context::kDriver) p.state_ = &state;
  p.root_ = Compiler(&p, schema, state, context).Lower(e);
  return p;
}

RowProgram RowProgram::CompileKey(const std::vector<CExprPtr>& exprs,
                                  const std::vector<std::string>& schema,
                                  const ExecState& state) {
  if (exprs.size() == 1) return Compile(exprs[0], schema, state);
  RowProgram p;
  p.root_ = Compiler(&p, schema, state, Context::kRow).LowerTuple(exprs);
  return p;
}

const Value* RowProgram::Eval(const ValueVec& row, Value* scratch,
                              Status* error) const {
  return EvalNode(root_, row, scratch, error);
}

StatusOr<Value> RowProgram::Run(const ValueVec& row) const {
  Value scratch;
  Status error;
  const Value* v = Eval(row, &scratch, &error);
  if (v == nullptr) return error;
  return Take(v, &scratch);
}

bool RowProgram::is_range() const {
  return nodes_[static_cast<size_t>(root_)].op == Op::kRange;
}

Status RowProgram::EvalRange(const ValueVec& row, int64_t* lo,
                             int64_t* hi) const {
  return RangeBounds(nodes_[static_cast<size_t>(root_)], row, lo, hi);
}

Status RowProgram::RangeBounds(const Node& node, const ValueVec& row,
                               int64_t* lo, int64_t* hi) const {
  Status error;
  Value lt, ht;
  const Value* l = EvalNode(node.kids[0], row, &lt, &error);
  if (l == nullptr) return error;
  const Value* h = EvalNode(node.kids[1], row, &ht, &error);
  if (h == nullptr) return error;
  if (!l->is_int() || !h->is_int()) {
    return Status::RuntimeError("range bounds must be integers");
  }
  *lo = l->AsInt();
  *hi = h->AsInt();
  // Unsigned difference: hi - lo may not fit in int64.
  if (*hi >= *lo && static_cast<uint64_t>(*hi) - static_cast<uint64_t>(*lo) >=
                        static_cast<uint64_t>(kMaxLocalRange)) {
    return Status::RuntimeError("range too large to materialize per-row");
  }
  return Status::OK();
}

const Value* RowProgram::EvalNode(int32_t n, const ValueVec& row, Value* out,
                                  Status* error) const {
  const Node& node = nodes_[static_cast<size_t>(n)];
  switch (node.op) {
    case Op::kSlot:
      return &row[static_cast<size_t>(node.index)];
    case Op::kConst:
      return &consts_[static_cast<size_t>(node.index)];
    case Op::kRaise:
      *error = Status::RuntimeError(node.text);
      return nullptr;
    case Op::kBin: {
      Value lt, rt;
      const Value* l = EvalNode(node.kids[0], row, &lt, error);
      if (l == nullptr) return nullptr;
      // Short-circuit booleans.
      if (node.bin == BinOp::kAnd && l->is_bool() && !l->AsBool()) {
        *out = Value::MakeBool(false);
        return out;
      }
      if (node.bin == BinOp::kOr && l->is_bool() && l->AsBool()) {
        *out = Value::MakeBool(true);
        return out;
      }
      const Value* r = EvalNode(node.kids[1], row, &rt, error);
      if (r == nullptr) return nullptr;
      return Deliver(runtime::EvalBinOp(node.bin, *l, *r), out, error);
    }
    case Op::kUn: {
      Value vt;
      const Value* v = EvalNode(node.kids[0], row, &vt, error);
      if (v == nullptr) return nullptr;
      return Deliver(runtime::EvalUnOp(node.un, *v), out, error);
    }
    case Op::kTuple:
    case Op::kBag: {
      ValueVec elems;
      elems.reserve(node.kids.size());
      for (int32_t k : node.kids) {
        Value t;
        const Value* v = EvalNode(k, row, &t, error);
        if (v == nullptr) return nullptr;
        elems.push_back(Take(v, &t));
      }
      *out = node.op == Op::kTuple ? Value::MakeTuple(std::move(elems))
                                   : Value::MakeBag(std::move(elems));
      return out;
    }
    case Op::kRecord: {
      runtime::FieldVec fields;
      fields.reserve(node.kids.size());
      for (size_t i = 0; i < node.kids.size(); ++i) {
        Value t;
        const Value* v = EvalNode(node.kids[i], row, &t, error);
        if (v == nullptr) return nullptr;
        fields.emplace_back(node.names[i], Take(v, &t));
      }
      *out = Value::MakeRecord(std::move(fields));
      return out;
    }
    case Op::kProj: {
      Value bt;
      const Value* base = EvalNode(node.kids[0], row, &bt, error);
      if (base == nullptr) return nullptr;
      const Value* part = nullptr;
      if (base->is_record()) {
        part = base->FindField(node.text);
        if (part == nullptr) {
          *error = Status::RuntimeError(StrCat("record ", base->ToString(),
                                               " has no field '", node.text,
                                               "'"));
          return nullptr;
        }
      } else if (base->is_tuple() && node.index >= 1 &&
                 static_cast<size_t>(node.index) <= base->tuple().size()) {
        part = &base->tuple()[static_cast<size_t>(node.index) - 1];
      } else {
        *error = Status::RuntimeError(StrCat("cannot project .", node.text,
                                             " out of ", base->ToString()));
        return nullptr;
      }
      // A part of a borrowed base is borrowed too; a part of a computed
      // base dies with it, so it is copied out.
      if (base != &bt) return part;
      *out = *part;
      return out;
    }
    case Op::kCall:
      return EvalCall(node, row, out, error);
    case Op::kReduce: {
      Value bt;
      const Value* bag = EvalNode(node.kids[0], row, &bt, error);
      if (bag == nullptr) return nullptr;
      if (!bag->is_bag()) {
        *error = Status::RuntimeError(
            StrCat("reduction ", runtime::BinOpName(node.bin),
                   "/ applied to ", bag->ToString()));
        return nullptr;
      }
      return Deliver(runtime::ReduceBag(node.bin, bag->bag()), out, error);
    }
    case Op::kRange: {
      int64_t lo = 0, hi = 0;
      Status st = RangeBounds(node, row, &lo, &hi);
      if (!st.ok()) {
        *error = std::move(st);
        return nullptr;
      }
      ValueVec elems;
      for (int64_t i = lo; i <= hi; ++i) elems.push_back(Value::MakeInt(i));
      *out = Value::MakeBag(std::move(elems));
      return out;
    }
    case Op::kArray:
    case Op::kNested:
    case Op::kReduceNested:
    case Op::kMerge:
      return EvalDriver(node, out, error);
  }
  return nullptr;
}

const Value* RowProgram::EvalCall(const Node& node, const ValueVec& row,
                                  Value* out, Status* error) const {
  // Every builtin takes at most three arguments; the rest of a longer
  // argument list is evaluated (its errors win) and then rejected.
  constexpr size_t kMaxArgs = 3;
  Value held[kMaxArgs];
  const Value* args[kMaxArgs] = {nullptr, nullptr, nullptr};
  const size_t nargs = node.kids.size();
  for (size_t i = 0; i < nargs; ++i) {
    Value extra;
    Value* slot = i < kMaxArgs ? &held[i] : &extra;
    const Value* v = EvalNode(node.kids[i], row, slot, error);
    if (v == nullptr) return nullptr;
    if (i < kMaxArgs) args[i] = v;
  }
  auto fail = [&](std::string message) -> const Value* {
    *error = Status::RuntimeError(std::move(message));
    return nullptr;
  };
  size_t arity = 0;
  switch (node.builtin) {
    case Builtin::kInRange: arity = 3; break;
    case Builtin::kPow: arity = 2; break;
    case Builtin::kUnknown:
      return fail(StrCat("unknown builtin '", node.text, "'"));
    default: arity = 1; break;
  }
  if (nargs != arity) {
    return fail(StrCat("builtin ", node.text, " expects ", arity,
                       " argument(s)"));
  }
  for (size_t i = 0; i < arity; ++i) {
    if (!args[i]->is_numeric()) {
      return fail(StrCat("builtin ", node.text, " applied to ",
                         args[i]->ToString()));
    }
  }
  auto num = [&](size_t i) { return args[i]->ToDouble(); };
  switch (node.builtin) {
    case Builtin::kInRange:
      *out = Value::MakeBool(num(0) >= num(1) && num(0) <= num(2));
      break;
    case Builtin::kSqrt: *out = Value::MakeDouble(std::sqrt(num(0))); break;
    case Builtin::kAbs:
      *out = args[0]->is_int() ? Value::MakeInt(std::llabs(args[0]->AsInt()))
                               : Value::MakeDouble(std::fabs(num(0)));
      break;
    case Builtin::kExp: *out = Value::MakeDouble(std::exp(num(0))); break;
    case Builtin::kLog: *out = Value::MakeDouble(std::log(num(0))); break;
    case Builtin::kPow:
      *out = Value::MakeDouble(std::pow(num(0), num(1)));
      break;
    case Builtin::kFloor:
      *out = Value::MakeDouble(std::floor(num(0)));
      break;
    case Builtin::kUnknown: break;
  }
  return out;
}

const Value* RowProgram::EvalDriver(const Node& node, Value* out,
                                    Status* error) const {
  const ExecState& state = *state_;
  auto run = [&]() -> StatusOr<Value> {
    switch (node.op) {
      case Op::kArray: {
        DIABLO_ASSIGN_OR_RETURN(
            ValueVec rows, state.engine->Collect(state.arrays->at(node.text)));
        return Value::MakeBag(std::move(rows));
      }
      case Op::kReduceNested: {
        // Reduce a distributed comprehension without collecting it. The
        // BinOp overload lets the engine fold with native arithmetic
        // (bit-identical to EvalBinOp).
        DIABLO_ASSIGN_OR_RETURN(
            CompPlan sub,
            BuildPlan(node.expr->as<CExpr::Nested>().comp, state));
        DIABLO_ASSIGN_OR_RETURN(Dataset ds, ExecutePlan(sub, state));
        DIABLO_ASSIGN_OR_RETURN(
            std::optional<Value> acc,
            state.engine->Reduce(
                ds, node.bin,
                StrCat("reduce[", runtime::BinOpName(node.bin), "]")));
        if (acc.has_value()) return *acc;
        return runtime::MonoidIdentity(node.bin, Value::MakeInt(0));
      }
      case Op::kNested: {
        DIABLO_ASSIGN_OR_RETURN(
            CompPlan sub,
            BuildPlan(node.expr->as<CExpr::Nested>().comp, state));
        DIABLO_ASSIGN_OR_RETURN(Dataset ds, ExecutePlan(sub, state));
        DIABLO_ASSIGN_OR_RETURN(ValueVec rows, state.engine->Collect(ds));
        return Value::MakeBag(std::move(rows));
      }
      default: {
        DIABLO_ASSIGN_OR_RETURN(Dataset ds, EvalArrayExpr(node.expr, state));
        DIABLO_ASSIGN_OR_RETURN(ValueVec rows, state.engine->Collect(ds));
        return Value::MakeBag(std::move(rows));
      }
    }
  };
  return Deliver(run(), out, error);
}

namespace {

using ProgramPtr = std::shared_ptr<const RowProgram>;

/// Compiles a per-row program for an engine closure to share.
ProgramPtr CompileRow(const CExprPtr& e,
                      const std::vector<std::string>& schema,
                      const ExecState& state) {
  return std::make_shared<const RowProgram>(
      RowProgram::Compile(e, schema, state));
}

ProgramPtr CompileRowKey(const std::vector<CExprPtr>& exprs,
                         const std::vector<std::string>& schema,
                         const ExecState& state) {
  return std::make_shared<const RowProgram>(
      RowProgram::CompileKey(exprs, schema, state));
}

}  // namespace

StatusOr<Dataset> ExecutePlan(const CompPlan& plan, const ExecState& state) {
  runtime::Engine& engine = *state.engine;
  std::vector<std::string> prefix_schema;
  ValueVec prefix;
  std::optional<Dataset> ds;
  std::vector<std::string> schema;  // schema of rows in ds

  // Driver-side expressions see the prefix bound so far.
  auto eval_driver = [&](const CExprPtr& e) {
    return RowProgram::Compile(e, prefix_schema, state,
                               RowProgram::Context::kDriver)
        .Run(prefix);
  };

  // Seeds the distributed stream from the driver prefix when a wide
  // operator arrives before any generator.
  auto ensure_ds = [&]() {
    if (!ds.has_value()) {
      ds = engine.Parallelize({Value::MakeTuple(prefix)}, 1);
      schema = prefix_schema;
    }
  };

  for (size_t oi = 0; oi < plan.ops.size(); ++oi) {
    const StreamOp& op = plan.ops[oi];
    switch (op.kind) {
      case StreamOp::Kind::kLet: {
        if (!ds.has_value()) {
          DIABLO_ASSIGN_OR_RETURN(Value v, eval_driver(op.expr));
          DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, v, &prefix));
          for (const std::string& name : op.pattern.Vars()) {
            prefix_schema.push_back(name);
          }
          break;
        }
        const Pattern pattern = op.pattern;
        const size_t width = pattern.Vars().size();
        ProgramPtr expr = CompileRow(op.expr, schema, state);
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    *ds,
                    [pattern, width,
                     expr](const Value& row) -> StatusOr<Value> {
                      Value scratch;
                      Status error;
                      const Value* v = expr->Eval(row.tuple(), &scratch,
                                                  &error);
                      if (v == nullptr) return error;
                      ValueVec out = Widened(row.tuple(), width);
                      DIABLO_RETURN_IF_ERROR(BindPattern(pattern, *v, &out));
                      return Value::MakeTuple(std::move(out));
                    },
                    "let"));
        break;
      }
      case StreamOp::Kind::kFilter: {
        if (!ds.has_value()) {
          DIABLO_ASSIGN_OR_RETURN(Value v, eval_driver(op.expr));
          if (!v.is_bool()) {
            return Status::RuntimeError(
                StrCat("condition evaluated to ", v.ToString()));
          }
          if (!v.AsBool()) return Dataset();  // statically empty
          break;
        }
        ProgramPtr expr = CompileRow(op.expr, schema, state);
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Filter(
                    *ds,
                    [expr](const Value& row) -> StatusOr<bool> {
                      Value scratch;
                      Status error;
                      const Value* v = expr->Eval(row.tuple(), &scratch,
                                                  &error);
                      if (v == nullptr) return error;
                      if (!v->is_bool()) {
                        return Status::RuntimeError(StrCat(
                            "condition evaluated to ", v->ToString()));
                      }
                      return v->AsBool();
                    },
                    "filter"));
        break;
      }
      case StreamOp::Kind::kSourceArray: {
        auto it = state.arrays->find(op.array);
        if (it == state.arrays->end()) {
          return Status::RuntimeError(
              StrCat("unknown array '", op.array, "'"));
        }
        const Pattern pattern = op.pattern;
        const size_t width = pattern.Vars().size();
        const ValueVec pre = prefix;
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    it->second,
                    [pattern, width, pre](const Value& row) -> StatusOr<Value> {
                      ValueVec out = Widened(pre, width);
                      DIABLO_RETURN_IF_ERROR(BindPattern(pattern, row, &out));
                      return Value::MakeTuple(std::move(out));
                    },
                    StrCat("scan[", op.array, "]")));
        break;
      }
      case StreamOp::Kind::kSourceRange: {
        DIABLO_ASSIGN_OR_RETURN(Value lo, eval_driver(op.expr));
        DIABLO_ASSIGN_OR_RETURN(Value hi, eval_driver(op.expr2));
        if (!lo.is_int() || !hi.is_int()) {
          return Status::RuntimeError("range bounds must be integers");
        }
        Dataset range = engine.Range(lo.AsInt(), hi.AsInt());
        const ValueVec pre = prefix;
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    range,
                    [pre](const Value& row) -> StatusOr<Value> {
                      ValueVec out = Widened(pre, 1);
                      out.push_back(row);
                      return Value::MakeTuple(std::move(out));
                    },
                    "range"));
        break;
      }
      case StreamOp::Kind::kIterateBag: {
        const Pattern pattern = op.pattern;
        const size_t width = pattern.Vars().size();
        const CExprPtr expr = op.expr;
        if (!ds.has_value()) {
          DIABLO_ASSIGN_OR_RETURN(Value bag, eval_driver(expr));
          if (!bag.is_bag()) {
            return Status::RuntimeError(
                StrCat("generator domain is not a bag: ", bag.ToString()));
          }
          ValueVec rows;
          rows.reserve(bag.bag().size());
          for (const Value& elem : bag.bag()) {
            ValueVec out = Widened(prefix, width);
            DIABLO_RETURN_IF_ERROR(BindPattern(pattern, elem, &out));
            rows.push_back(Value::MakeTuple(std::move(out)));
          }
          ds = engine.Parallelize(std::move(rows));
            break;
        }
        ProgramPtr domain = CompileRow(expr, schema, state);
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.FlatMap(
                    *ds,
                    [pattern, width,
                     domain](const Value& row) -> StatusOr<ValueVec> {
                      auto bind = [&](const Value& elem,
                                      ValueVec* out) -> Status {
                        ValueVec r = Widened(row.tuple(), width);
                        DIABLO_RETURN_IF_ERROR(BindPattern(pattern, elem, &r));
                        out->push_back(Value::MakeTuple(std::move(r)));
                        return Status::OK();
                      };
                      ValueVec out;
                      if (domain->is_range()) {
                        // Iterate the ints directly; no per-row bag.
                        int64_t lo = 0, hi = 0;
                        DIABLO_RETURN_IF_ERROR(
                            domain->EvalRange(row.tuple(), &lo, &hi));
                        if (hi >= lo) {
                          out.reserve(static_cast<size_t>(hi - lo + 1));
                        }
                        for (int64_t i = lo; i <= hi; ++i) {
                          DIABLO_RETURN_IF_ERROR(
                              bind(Value::MakeInt(i), &out));
                        }
                        return out;
                      }
                      Value scratch;
                      Status error;
                      const Value* bag = domain->Eval(row.tuple(), &scratch,
                                                      &error);
                      if (bag == nullptr) return error;
                      if (!bag->is_bag()) {
                        return Status::RuntimeError(StrCat(
                            "generator domain is not a bag: ",
                            bag->ToString()));
                      }
                      out.reserve(bag->bag().size());
                      for (const Value& elem : bag->bag()) {
                        DIABLO_RETURN_IF_ERROR(bind(elem, &out));
                      }
                      return out;
                    },
                    "iterate"));
        break;
      }
      case StreamOp::Kind::kJoinArray: {
        ensure_ds();
        auto it = state.arrays->find(op.array);
        if (it == state.arrays->end()) {
          return Status::RuntimeError(
              StrCat("unknown array '", op.array, "'"));
        }
        const Pattern pattern = op.pattern;
        ProgramPtr left_key = CompileRowKey(op.left_keys, schema, state);
        ProgramPtr right_key =
            CompileRowKey(op.right_keys, pattern.Vars(), state);
        const size_t right_width = pattern.Vars().size();
        // Key the existing stream.
        DIABLO_ASSIGN_OR_RETURN(
            Dataset left,
            engine.Map(
                *ds,
                [left_key](const Value& row) -> StatusOr<Value> {
                  DIABLO_ASSIGN_OR_RETURN(Value key,
                                          left_key->Run(row.tuple()));
                  return Value::MakePair(std::move(key), row);
                },
                "joinKeyL"));
        // Key the new generator.
        DIABLO_ASSIGN_OR_RETURN(
            Dataset right,
            engine.Map(
                it->second,
                [right_key, pattern,
                 right_width](const Value& row) -> StatusOr<Value> {
                  ValueVec bound;
                  bound.reserve(right_width);
                  DIABLO_RETURN_IF_ERROR(BindPattern(pattern, row, &bound));
                  DIABLO_ASSIGN_OR_RETURN(Value key, right_key->Run(bound));
                  return Value::MakePair(std::move(key),
                                         Value::MakeTuple(std::move(bound)));
                },
                StrCat("joinKeyR[", op.array, "]")));
        DIABLO_ASSIGN_OR_RETURN(
            Dataset joined,
            engine.Join(left, right, StrCat("join[", op.array, "]")));
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    joined,
                    [](const Value& row) -> StatusOr<Value> {
                      const Value& pair = row.tuple()[1];
                      const ValueVec& bound = pair.tuple()[1].tuple();
                      ValueVec out =
                          Widened(pair.tuple()[0].tuple(), bound.size());
                      out.insert(out.end(), bound.begin(), bound.end());
                      return Value::MakeTuple(std::move(out));
                    },
                    "joinMerge"));
        break;
      }
      case StreamOp::Kind::kBroadcastJoinArray: {
        ensure_ds();
        auto it = state.arrays->find(op.array);
        if (it == state.arrays->end()) {
          return Status::RuntimeError(
              StrCat("unknown array '", op.array, "'"));
        }
        // Build a driver-side hash table keyed by the right key exprs,
        // shipped (conceptually) to every worker.
        const RowProgram right_key =
            RowProgram::CompileKey(op.right_keys, op.pattern.Vars(), state);
        auto table = std::make_shared<
            std::unordered_map<Value, std::vector<ValueVec>,
                               runtime::ValueHash>>();
        DIABLO_ASSIGN_OR_RETURN(ValueVec build_rows,
                                state.engine->Collect(it->second));
        for (const Value& row : build_rows) {
          ValueVec bound;
          DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, row, &bound));
          DIABLO_ASSIGN_OR_RETURN(Value k, right_key.Run(bound));
          (*table)[k].push_back(std::move(bound));
        }
        ProgramPtr left_key = CompileRowKey(op.left_keys, schema, state);
        int64_t build_bytes = it->second.TotalBytes();
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.FlatMap(
                    *ds,
                    [left_key, table](const Value& row) -> StatusOr<ValueVec> {
                      Value scratch;
                      Status error;
                      const Value* k = left_key->Eval(row.tuple(), &scratch,
                                                      &error);
                      if (k == nullptr) return error;
                      ValueVec out;
                      auto hit = table->find(*k);
                      if (hit == table->end()) return out;
                      for (const ValueVec& bound : hit->second) {
                        ValueVec r = Widened(row.tuple(), bound.size());
                        r.insert(r.end(), bound.begin(), bound.end());
                        out.push_back(Value::MakeTuple(std::move(r)));
                      }
                      return out;
                    },
                    StrCat("broadcastJoin[", op.array, "]")));
        // Charge the one-time ship of the build side to every worker.
        runtime::StageStats ship;
        ship.label = StrCat("broadcastJoin[", op.array, "].ship");
        ship.wide = true;
        ship.shuffle_bytes =
            build_bytes * engine.config().cluster.num_workers;
        engine.RecordPlannerStage(std::move(ship));
        break;
      }
      case StreamOp::Kind::kCartesianArray: {
        ensure_ds();
        auto it = state.arrays->find(op.array);
        if (it == state.arrays->end()) {
          return Status::RuntimeError(
              StrCat("unknown array '", op.array, "'"));
        }
        // Broadcast the array: every row of the stream is combined with
        // every array element (a nested-loop / broadcast join).
        DIABLO_ASSIGN_OR_RETURN(ValueVec broadcast,
                                engine.Collect(it->second));
        std::vector<ValueVec> bound_rows;
        bound_rows.reserve(broadcast.size());
        for (const Value& row : broadcast) {
          ValueVec bound;
          DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, row, &bound));
          bound_rows.push_back(std::move(bound));
        }
        // Force any pending chain so the product accounting below sees
        // the stream's logical row count.
        DIABLO_ASSIGN_OR_RETURN(ds, engine.Force(*ds));
        int64_t left_rows = ds->TotalRows();
        int64_t right_bytes = it->second.TotalBytes();
        auto shared =
            std::make_shared<std::vector<ValueVec>>(std::move(bound_rows));
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.FlatMap(
                    *ds,
                    [shared](const Value& row) -> StatusOr<ValueVec> {
                      ValueVec out;
                      out.reserve(shared->size());
                      for (const ValueVec& extra : *shared) {
                        ValueVec r = Widened(row.tuple(), extra.size());
                        r.insert(r.end(), extra.begin(), extra.end());
                        out.push_back(Value::MakeTuple(std::move(r)));
                      }
                      return out;
                    },
                    StrCat("cartesian[", op.array, "]")));
        // Account the product work and the broadcast traffic (the
        // FlatMap stage only charged |left| rows).
        runtime::StageStats extra;
        extra.label = StrCat("cartesian[", op.array, "].product");
        extra.wide = true;
        extra.map_work.assign(
            static_cast<size_t>(engine.config().num_partitions),
            left_rows * static_cast<int64_t>(shared->size()) /
                std::max(1, engine.config().num_partitions));
        extra.shuffle_bytes =
            right_bytes * engine.config().cluster.num_workers;
        engine.RecordPlannerStage(std::move(extra));
        break;
      }
      case StreamOp::Kind::kGroupBy: {
        ensure_ds();
        const std::vector<std::string>& lifted = op.lifted;
        std::vector<size_t> positions;
        for (const std::string& v : lifted) {
          for (size_t i = 0; i < schema.size(); ++i) {
            if (schema[i] == v) positions.push_back(i);
          }
        }
        ProgramPtr key_expr = CompileRow(op.expr, schema, state);
        DIABLO_ASSIGN_OR_RETURN(
            Dataset keyed,
            engine.Map(
                *ds,
                [key_expr, positions](const Value& row) -> StatusOr<Value> {
                  DIABLO_ASSIGN_OR_RETURN(Value key,
                                          key_expr->Run(row.tuple()));
                  ValueVec payload;
                  payload.reserve(positions.size());
                  for (size_t p : positions) {
                    payload.push_back(row.tuple()[p]);
                  }
                  return Value::MakePair(std::move(key),
                                         Value::MakeTuple(std::move(payload)));
                },
                "groupKey"));
        DIABLO_ASSIGN_OR_RETURN(Dataset grouped,
                                engine.GroupByKey(keyed, "groupBy"));
        const Pattern pattern = op.pattern;
        size_t nlifted = lifted.size();
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    grouped,
                    [pattern, nlifted](const Value& row) -> StatusOr<Value> {
                      ValueVec out;
                      DIABLO_RETURN_IF_ERROR(
                          BindPattern(pattern, row.tuple()[0], &out));
                      const ValueVec& group = row.tuple()[1].bag();
                      for (size_t i = 0; i < nlifted; ++i) {
                        ValueVec column;
                        column.reserve(group.size());
                        for (const Value& tup : group) {
                          column.push_back(tup.tuple()[i]);
                        }
                        out.push_back(Value::MakeBag(std::move(column)));
                      }
                      return Value::MakeTuple(std::move(out));
                    },
                    "groupLift"));
        break;
      }
      case StreamOp::Kind::kReduceByKey: {
        ensure_ds();
        ProgramPtr key_expr = CompileRow(op.expr, schema, state);
        ProgramPtr value_expr = CompileRow(op.reduce_value, schema, state);
        DIABLO_ASSIGN_OR_RETURN(
            Dataset keyed,
            engine.Map(
                *ds,
                [key_expr, value_expr](const Value& row) -> StatusOr<Value> {
                  DIABLO_ASSIGN_OR_RETURN(Value key,
                                          key_expr->Run(row.tuple()));
                  DIABLO_ASSIGN_OR_RETURN(Value val,
                                          value_expr->Run(row.tuple()));
                  return Value::MakePair(std::move(key), std::move(val));
                },
                "reduceKey"));
        DIABLO_ASSIGN_OR_RETURN(
            Dataset reduced,
            engine.ReduceByKey(
                keyed, op.reduce_op,
                StrCat("reduceByKey[", runtime::BinOpName(op.reduce_op), "]"),
                op.schema));
        const Pattern pattern = op.pattern;
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    reduced,
                    [pattern](const Value& row) -> StatusOr<Value> {
                      ValueVec out;
                      DIABLO_RETURN_IF_ERROR(
                          BindPattern(pattern, row.tuple()[0], &out));
                      out.push_back(row.tuple()[1]);
                      return Value::MakeTuple(std::move(out));
                    },
                    "reduceBind"));
        break;
      }
    }
    schema = op.schema_after;
  }

  // Yield the head per surviving row.
  if (!ds.has_value()) {
    DIABLO_ASSIGN_OR_RETURN(Value v, eval_driver(plan.head));
    return engine.Parallelize({std::move(v)}, 1);
  }
  ProgramPtr head = CompileRow(plan.head, schema, state);
  return engine.Map(
      *ds,
      [head](const Value& row) -> StatusOr<Value> {
        return head->Run(row.tuple());
      },
      "yield");
}

// --------------------------- driver / array entry points --------------------

StatusOr<Value> EvalDriverExpr(const CExprPtr& e, const ExecState& state) {
  return RowProgram::Compile(e, {}, state, RowProgram::Context::kDriver)
      .Run({});
}

StatusOr<Dataset> EvalArrayExpr(const CExprPtr& e, const ExecState& state) {
  runtime::Engine& engine = *state.engine;
  if (e->is<CExpr::Var>()) {
    const std::string& name = e->as<CExpr::Var>().name;
    auto it = state.arrays->find(name);
    if (it != state.arrays->end()) return it->second;
    return Status::RuntimeError(StrCat("unknown array '", name, "'"));
  }
  if (e->is<CExpr::BagCons>()) {
    ValueVec rows;
    for (const auto& c : e->as<CExpr::BagCons>().elems) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalDriverExpr(c, state));
      rows.push_back(std::move(v));
    }
    return engine.Parallelize(std::move(rows));
  }
  if (e->is<CExpr::Nested>()) {
    DIABLO_ASSIGN_OR_RETURN(CompPlan plan,
                            BuildPlan(e->as<CExpr::Nested>().comp, state));
    return ExecutePlan(plan, state);
  }
  if (e->is<CExpr::Merge>()) {
    const auto& m = e->as<CExpr::Merge>();
    DIABLO_ASSIGN_OR_RETURN(Dataset left, EvalArrayExpr(m.left, state));
    DIABLO_ASSIGN_OR_RETURN(Dataset right, EvalArrayExpr(m.right, state));
    if (!m.has_op) return runtime::ArrayMerge(engine, left, right);
    // Combining merge: old ⊕ delta per key, one side alone passes through.
    BinOp op = m.op;
    DIABLO_ASSIGN_OR_RETURN(Dataset grouped,
                            engine.CoGroup(left, right, "mergeInc"));
    return engine.FlatMap(
        grouped,
        [op](const Value& row) -> StatusOr<ValueVec> {
          const Value& key = row.tuple()[0];
          const ValueVec& olds = row.tuple()[1].tuple()[0].bag();
          const ValueVec& deltas = row.tuple()[1].tuple()[1].bag();
          ValueVec out;
          if (deltas.empty()) {
            if (!olds.empty()) {
              out.push_back(Value::MakePair(key, olds.back()));
            }
            return out;
          }
          DIABLO_ASSIGN_OR_RETURN(Value acc, runtime::ReduceBag(op, deltas));
          if (!olds.empty()) {
            DIABLO_ASSIGN_OR_RETURN(acc,
                                    runtime::EvalBinOp(op, olds.back(), acc));
          }
          out.push_back(Value::MakePair(key, std::move(acc)));
          return out;
        },
        "mergeInc.combine");
  }
  return Status::RuntimeError(
      StrCat("expression is not array-valued: ", e->ToString()));
}

}  // namespace diablo::plan
