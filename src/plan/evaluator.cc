#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/strings.h"
#include "plan/plan.h"
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

// --------------------------- expression evaluation ---------------------------

/// Evaluates a comprehension expression against a row of `schema`-ordered
/// `values`, falling back to driver scalars. When `allow_subplans` is
/// true (driver context), nested comprehensions are planned and executed;
/// in row context they are an error (the normalizer flattens them away).
struct EvalCtx {
  const std::vector<std::string>* schema;
  const ValueVec* values;
  const ExecState* state;
  bool allow_subplans;
};

StatusOr<Value> EvalExpr(const CExprPtr& e, const EvalCtx& ctx);

StatusOr<Value> EvalCallExpr(const CExpr::Call& call, const EvalCtx& ctx) {
  std::vector<Value> args;
  for (const auto& a : call.args) {
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(a, ctx));
    args.push_back(std::move(v));
  }
  auto num = [&](size_t i) { return args[i].ToDouble(); };
  auto need_numeric = [&](size_t n) -> Status {
    if (args.size() != n) {
      return Status::RuntimeError(StrCat("builtin ", call.function,
                                         " expects ", n, " argument(s)"));
    }
    for (const Value& v : args) {
      if (!v.is_numeric()) {
        return Status::RuntimeError(StrCat("builtin ", call.function,
                                           " applied to ", v.ToString()));
      }
    }
    return Status::OK();
  };
  if (call.function == "inRange") {
    DIABLO_RETURN_IF_ERROR(need_numeric(3));
    return Value::MakeBool(num(0) >= num(1) && num(0) <= num(2));
  }
  if (call.function == "sqrt") {
    DIABLO_RETURN_IF_ERROR(need_numeric(1));
    return Value::MakeDouble(std::sqrt(num(0)));
  }
  if (call.function == "abs") {
    DIABLO_RETURN_IF_ERROR(need_numeric(1));
    if (args[0].is_int()) return Value::MakeInt(std::llabs(args[0].AsInt()));
    return Value::MakeDouble(std::fabs(num(0)));
  }
  if (call.function == "exp") {
    DIABLO_RETURN_IF_ERROR(need_numeric(1));
    return Value::MakeDouble(std::exp(num(0)));
  }
  if (call.function == "log") {
    DIABLO_RETURN_IF_ERROR(need_numeric(1));
    return Value::MakeDouble(std::log(num(0)));
  }
  if (call.function == "pow") {
    DIABLO_RETURN_IF_ERROR(need_numeric(2));
    return Value::MakeDouble(std::pow(num(0), num(1)));
  }
  if (call.function == "floor") {
    DIABLO_RETURN_IF_ERROR(need_numeric(1));
    return Value::MakeDouble(std::floor(num(0)));
  }
  return Status::RuntimeError(
      StrCat("unknown builtin '", call.function, "'"));
}

StatusOr<Value> EvalExpr(const CExprPtr& e, const EvalCtx& ctx) {
  if (e->is<CExpr::Var>()) {
    const std::string& name = e->as<CExpr::Var>().name;
    if (ctx.schema != nullptr) {
      for (size_t i = 0; i < ctx.schema->size(); ++i) {
        if ((*ctx.schema)[i] == name) return (*ctx.values)[i];
      }
    }
    if (ctx.state->scalars != nullptr) {
      auto it = ctx.state->scalars->find(name);
      if (it != ctx.state->scalars->end()) return it->second;
    }
    if (ctx.state->arrays != nullptr &&
        ctx.state->arrays->count(name) != 0) {
      if (!ctx.allow_subplans) {
        return Status::RuntimeError(
            StrCat("distributed array '", name,
                   "' used as a value inside a row expression"));
      }
      // Materialize the array as a bag of pairs (driver context only).
      DIABLO_ASSIGN_OR_RETURN(
          ValueVec rows,
          ctx.state->engine->Collect(ctx.state->arrays->at(name)));
      return Value::MakeBag(std::move(rows));
    }
    return Status::RuntimeError(StrCat("unbound variable '", name, "'"));
  }
  if (e->is<CExpr::IntConst>()) {
    return Value::MakeInt(e->as<CExpr::IntConst>().value);
  }
  if (e->is<CExpr::DoubleConst>()) {
    return Value::MakeDouble(e->as<CExpr::DoubleConst>().value);
  }
  if (e->is<CExpr::BoolConst>()) {
    return Value::MakeBool(e->as<CExpr::BoolConst>().value);
  }
  if (e->is<CExpr::StringConst>()) {
    return Value::MakeString(e->as<CExpr::StringConst>().value);
  }
  if (e->is<CExpr::Bin>()) {
    const auto& b = e->as<CExpr::Bin>();
    DIABLO_ASSIGN_OR_RETURN(Value l, EvalExpr(b.lhs, ctx));
    // Short-circuit booleans.
    if (b.op == BinOp::kAnd && l.is_bool() && !l.AsBool()) {
      return Value::MakeBool(false);
    }
    if (b.op == BinOp::kOr && l.is_bool() && l.AsBool()) {
      return Value::MakeBool(true);
    }
    DIABLO_ASSIGN_OR_RETURN(Value r, EvalExpr(b.rhs, ctx));
    return runtime::EvalBinOp(b.op, l, r);
  }
  if (e->is<CExpr::Un>()) {
    const auto& u = e->as<CExpr::Un>();
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(u.operand, ctx));
    return runtime::EvalUnOp(u.op, v);
  }
  if (e->is<CExpr::TupleCons>()) {
    ValueVec elems;
    for (const auto& c : e->as<CExpr::TupleCons>().elems) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, ctx));
      elems.push_back(std::move(v));
    }
    return Value::MakeTuple(std::move(elems));
  }
  if (e->is<CExpr::RecordCons>()) {
    runtime::FieldVec fields;
    for (const auto& [n, c] : e->as<CExpr::RecordCons>().fields) {
      DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, ctx));
      fields.emplace_back(n, std::move(v));
    }
    return Value::MakeRecord(std::move(fields));
  }
  if (e->is<CExpr::Proj>()) {
    const auto& p = e->as<CExpr::Proj>();
    DIABLO_ASSIGN_OR_RETURN(Value base, EvalExpr(p.base, ctx));
    if (base.is_record()) {
      const Value* f = base.FindField(p.field);
      if (f == nullptr) {
        return Status::RuntimeError(StrCat("record ", base.ToString(),
                                           " has no field '", p.field, "'"));
      }
      return *f;
    }
    if (base.is_tuple() && p.field.size() >= 2 && p.field[0] == '_') {
      int idx = std::atoi(p.field.c_str() + 1);
      if (idx >= 1 && static_cast<size_t>(idx) <= base.tuple().size()) {
        return base.tuple()[static_cast<size_t>(idx) - 1];
      }
    }
    return Status::RuntimeError(StrCat("cannot project .", p.field,
                                       " out of ", base.ToString()));
  }
  if (e->is<CExpr::Call>()) return EvalCallExpr(e->as<CExpr::Call>(), ctx);
  if (e->is<CExpr::Reduce>()) {
    const auto& r = e->as<CExpr::Reduce>();
    // Driver context: reduce a distributed comprehension without
    // collecting it.
    if (ctx.allow_subplans && r.arg->is<CExpr::Nested>()) {
      DIABLO_ASSIGN_OR_RETURN(
          CompPlan sub,
          BuildPlan(r.arg->as<CExpr::Nested>().comp, *ctx.state));
      DIABLO_ASSIGN_OR_RETURN(Dataset ds, ExecutePlan(sub, *ctx.state));
      BinOp op = r.op;
      // The BinOp overload lets the engine fold with native arithmetic
      // (bit-identical to EvalBinOp).
      DIABLO_ASSIGN_OR_RETURN(
          std::optional<Value> acc,
          ctx.state->engine->Reduce(
              ds, op, StrCat("reduce[", runtime::BinOpName(op), "]")));
      if (acc.has_value()) return *acc;
      return runtime::MonoidIdentity(op, Value::MakeInt(0));
    }
    DIABLO_ASSIGN_OR_RETURN(Value bag, EvalExpr(r.arg, ctx));
    if (!bag.is_bag()) {
      return Status::RuntimeError(
          StrCat("reduction ", runtime::BinOpName(r.op), "/ applied to ",
                 bag.ToString()));
    }
    return runtime::ReduceBag(r.op, bag.bag());
  }
  if (e->is<CExpr::Nested>()) {
    if (!ctx.allow_subplans) {
      return Status::RuntimeError(
          "nested comprehension in a row expression (normalizer should "
          "have flattened it)");
    }
    DIABLO_ASSIGN_OR_RETURN(
        CompPlan sub, BuildPlan(e->as<CExpr::Nested>().comp, *ctx.state));
    DIABLO_ASSIGN_OR_RETURN(Dataset ds, ExecutePlan(sub, *ctx.state));
    DIABLO_ASSIGN_OR_RETURN(ValueVec rows, ctx.state->engine->Collect(ds));
    return Value::MakeBag(std::move(rows));
  }
  if (e->is<CExpr::Range>()) {
    const auto& r = e->as<CExpr::Range>();
    DIABLO_ASSIGN_OR_RETURN(Value lo, EvalExpr(r.lo, ctx));
    DIABLO_ASSIGN_OR_RETURN(Value hi, EvalExpr(r.hi, ctx));
    if (!lo.is_int() || !hi.is_int()) {
      return Status::RuntimeError("range bounds must be integers");
    }
    int64_t a = lo.AsInt(), b = hi.AsInt();
    if (b - a + 1 > kMaxLocalRange) {
      return Status::RuntimeError("range too large to materialize per-row");
    }
    ValueVec elems;
    for (int64_t i = a; i <= b; ++i) elems.push_back(Value::MakeInt(i));
    return Value::MakeBag(std::move(elems));
  }
  if (e->is<CExpr::Merge>()) {
    if (!ctx.allow_subplans) {
      return Status::RuntimeError("array merge in a row expression");
    }
    DIABLO_ASSIGN_OR_RETURN(Dataset ds, EvalArrayExpr(e, *ctx.state));
    DIABLO_ASSIGN_OR_RETURN(ValueVec rows, ctx.state->engine->Collect(ds));
    return Value::MakeBag(std::move(rows));
  }
  // BagCons.
  ValueVec elems;
  for (const auto& c : e->as<CExpr::BagCons>().elems) {
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(c, ctx));
    elems.push_back(std::move(v));
  }
  return Value::MakeBag(std::move(elems));
}

// --------------------------- plan execution ---------------------------------

/// Builds a row-evaluation callback for engine operators.
EvalCtx RowCtx(const std::vector<std::string>& schema, const ValueVec& values,
               const ExecState& state) {
  return EvalCtx{&schema, &values, &state, /*allow_subplans=*/false};
}

}  // namespace

StatusOr<Dataset> ExecutePlan(const CompPlan& plan, const ExecState& state) {
  runtime::Engine& engine = *state.engine;
  std::vector<std::string> prefix_schema;
  ValueVec prefix;
  std::optional<Dataset> ds;
  std::vector<std::string> schema;  // schema of rows in ds

  auto driver_ctx = [&]() {
    return EvalCtx{&prefix_schema, &prefix, &state, /*allow_subplans=*/true};
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
          DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(op.expr, driver_ctx()));
          DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, v, &prefix));
          for (const std::string& name : op.pattern.Vars()) {
            prefix_schema.push_back(name);
          }
          break;
        }
        const std::vector<std::string> in_schema = schema;
        const Pattern pattern = op.pattern;
        const CExprPtr expr = op.expr;
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    *ds,
                    [&state, in_schema, pattern, expr](
                        const Value& row) -> StatusOr<Value> {
                      DIABLO_ASSIGN_OR_RETURN(
                          Value v,
                          EvalExpr(expr, RowCtx(in_schema, row.tuple(),
                                                state)));
                      ValueVec out = row.tuple();
                      DIABLO_RETURN_IF_ERROR(BindPattern(pattern, v, &out));
                      return Value::MakeTuple(std::move(out));
                    },
                    "let"));
        break;
      }
      case StreamOp::Kind::kFilter: {
        if (!ds.has_value()) {
          DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(op.expr, driver_ctx()));
          if (!v.is_bool()) {
            return Status::RuntimeError(
                StrCat("condition evaluated to ", v.ToString()));
          }
          if (!v.AsBool()) return Dataset();  // statically empty
          break;
        }
        const std::vector<std::string> in_schema = schema;
        const CExprPtr expr = op.expr;
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Filter(
                    *ds,
                    [&state, in_schema, expr](
                        const Value& row) -> StatusOr<bool> {
                      DIABLO_ASSIGN_OR_RETURN(
                          Value v,
                          EvalExpr(expr, RowCtx(in_schema, row.tuple(),
                                                state)));
                      if (!v.is_bool()) {
                        return Status::RuntimeError(
                            StrCat("condition evaluated to ", v.ToString()));
                      }
                      return v.AsBool();
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
        const ValueVec pre = prefix;
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    it->second,
                    [pattern, pre](const Value& row) -> StatusOr<Value> {
                      ValueVec out = pre;
                      DIABLO_RETURN_IF_ERROR(BindPattern(pattern, row, &out));
                      return Value::MakeTuple(std::move(out));
                    },
                    StrCat("scan[", op.array, "]")));
        break;
      }
      case StreamOp::Kind::kSourceRange: {
        DIABLO_ASSIGN_OR_RETURN(Value lo, EvalExpr(op.expr, driver_ctx()));
        DIABLO_ASSIGN_OR_RETURN(Value hi, EvalExpr(op.expr2, driver_ctx()));
        if (!lo.is_int() || !hi.is_int()) {
          return Status::RuntimeError("range bounds must be integers");
        }
        Dataset range = engine.Range(lo.AsInt(), hi.AsInt());
        const ValueVec pre = prefix;
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.Map(
                    range,
                    [pre](const Value& row) -> StatusOr<Value> {
                      ValueVec out = pre;
                      out.push_back(row);
                      return Value::MakeTuple(std::move(out));
                    },
                    "range"));
        break;
      }
      case StreamOp::Kind::kIterateBag: {
        const Pattern pattern = op.pattern;
        const CExprPtr expr = op.expr;
        if (!ds.has_value()) {
          DIABLO_ASSIGN_OR_RETURN(Value bag, EvalExpr(expr, driver_ctx()));
          if (!bag.is_bag()) {
            return Status::RuntimeError(
                StrCat("generator domain is not a bag: ", bag.ToString()));
          }
          ValueVec rows;
          rows.reserve(bag.bag().size());
          for (const Value& elem : bag.bag()) {
            ValueVec out = prefix;
            DIABLO_RETURN_IF_ERROR(BindPattern(pattern, elem, &out));
            rows.push_back(Value::MakeTuple(std::move(out)));
          }
          ds = engine.Parallelize(std::move(rows));
            break;
        }
        const std::vector<std::string> in_schema = schema;
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.FlatMap(
                    *ds,
                    [&state, in_schema, pattern, expr](
                        const Value& row) -> StatusOr<ValueVec> {
                      EvalCtx ctx = RowCtx(in_schema, row.tuple(), state);
                      DIABLO_ASSIGN_OR_RETURN(Value bag,
                                              EvalExpr(expr, ctx));
                      if (!bag.is_bag()) {
                        return Status::RuntimeError(StrCat(
                            "generator domain is not a bag: ",
                            bag.ToString()));
                      }
                      ValueVec out;
                      out.reserve(bag.bag().size());
                      for (const Value& elem : bag.bag()) {
                        ValueVec r = row.tuple();
                        DIABLO_RETURN_IF_ERROR(
                            BindPattern(pattern, elem, &r));
                        out.push_back(Value::MakeTuple(std::move(r)));
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
        const std::vector<std::string> in_schema = schema;
        const std::vector<CExprPtr> left_keys = op.left_keys;
        const std::vector<CExprPtr> right_keys = op.right_keys;
        const Pattern pattern = op.pattern;
        const std::vector<std::string> right_schema = pattern.Vars();
        // Key the existing stream.
        DIABLO_ASSIGN_OR_RETURN(
            Dataset left,
            engine.Map(
                *ds,
                [&state, in_schema, left_keys](
                    const Value& row) -> StatusOr<Value> {
                  EvalCtx ctx = RowCtx(in_schema, row.tuple(), state);
                  ValueVec key;
                  for (const auto& ke : left_keys) {
                    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(ke, ctx));
                    key.push_back(std::move(v));
                  }
                  return Value::MakePair(
                      key.size() == 1 ? key[0]
                                      : Value::MakeTuple(std::move(key)),
                      row);
                },
                "joinKeyL"));
        // Key the new generator.
        DIABLO_ASSIGN_OR_RETURN(
            Dataset right,
            engine.Map(
                it->second,
                [&state, right_schema, right_keys, pattern](
                    const Value& row) -> StatusOr<Value> {
                  ValueVec bound;
                  DIABLO_RETURN_IF_ERROR(BindPattern(pattern, row, &bound));
                  EvalCtx ctx = RowCtx(right_schema, bound, state);
                  ValueVec key;
                  for (const auto& ke : right_keys) {
                    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(ke, ctx));
                    key.push_back(std::move(v));
                  }
                  return Value::MakePair(
                      key.size() == 1 ? key[0]
                                      : Value::MakeTuple(std::move(key)),
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
                      ValueVec out = pair.tuple()[0].tuple();
                      for (const Value& v : pair.tuple()[1].tuple()) {
                        out.push_back(v);
                      }
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
        const std::vector<std::string> right_schema = op.pattern.Vars();
        auto table = std::make_shared<
            std::unordered_map<Value, std::vector<ValueVec>,
                               runtime::ValueHash>>();
        DIABLO_ASSIGN_OR_RETURN(ValueVec build_rows,
                                state.engine->Collect(it->second));
        for (const Value& row : build_rows) {
          ValueVec bound;
          DIABLO_RETURN_IF_ERROR(BindPattern(op.pattern, row, &bound));
          EvalCtx ctx = RowCtx(right_schema, bound, state);
          ValueVec key;
          for (const auto& ke : op.right_keys) {
            DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(ke, ctx));
            key.push_back(std::move(v));
          }
          Value k = key.size() == 1 ? key[0]
                                    : Value::MakeTuple(std::move(key));
          (*table)[k].push_back(std::move(bound));
        }
        const std::vector<std::string> in_schema = schema;
        const std::vector<CExprPtr> left_keys = op.left_keys;
        int64_t build_bytes = it->second.TotalBytes();
        DIABLO_ASSIGN_OR_RETURN(
            ds, engine.FlatMap(
                    *ds,
                    [&state, in_schema, left_keys, table](
                        const Value& row) -> StatusOr<ValueVec> {
                      EvalCtx ctx = RowCtx(in_schema, row.tuple(), state);
                      ValueVec key;
                      for (const auto& ke : left_keys) {
                        DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(ke, ctx));
                        key.push_back(std::move(v));
                      }
                      Value k = key.size() == 1
                                    ? key[0]
                                    : Value::MakeTuple(std::move(key));
                      ValueVec out;
                      auto hit = table->find(k);
                      if (hit == table->end()) return out;
                      for (const ValueVec& bound : hit->second) {
                        ValueVec r = row.tuple();
                        for (const Value& v : bound) r.push_back(v);
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
                        ValueVec r = row.tuple();
                        for (const Value& v : extra) r.push_back(v);
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
        const std::vector<std::string> in_schema = schema;
        const CExprPtr key_expr = op.expr;
        const std::vector<std::string> lifted = op.lifted;
        std::vector<size_t> positions;
        for (const std::string& v : lifted) {
          for (size_t i = 0; i < in_schema.size(); ++i) {
            if (in_schema[i] == v) positions.push_back(i);
          }
        }
        DIABLO_ASSIGN_OR_RETURN(
            Dataset keyed,
            engine.Map(
                *ds,
                [&state, in_schema, key_expr, positions](
                    const Value& row) -> StatusOr<Value> {
                  EvalCtx ctx = RowCtx(in_schema, row.tuple(), state);
                  DIABLO_ASSIGN_OR_RETURN(Value key,
                                          EvalExpr(key_expr, ctx));
                  ValueVec payload;
                  payload.reserve(positions.size());
                  for (size_t p : positions) {
                    payload.push_back(row.tuple()[p]);
                  }
                  return Value::MakePair(key,
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
        const std::vector<std::string> in_schema = schema;
        const CExprPtr key_expr = op.expr;
        const CExprPtr value_expr = op.reduce_value;
        DIABLO_ASSIGN_OR_RETURN(
            Dataset keyed,
            engine.Map(
                *ds,
                [&state, in_schema, key_expr, value_expr](
                    const Value& row) -> StatusOr<Value> {
                  EvalCtx ctx = RowCtx(in_schema, row.tuple(), state);
                  DIABLO_ASSIGN_OR_RETURN(Value key,
                                          EvalExpr(key_expr, ctx));
                  DIABLO_ASSIGN_OR_RETURN(Value val,
                                          EvalExpr(value_expr, ctx));
                  return Value::MakePair(key, val);
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
    DIABLO_ASSIGN_OR_RETURN(Value v, EvalExpr(plan.head, driver_ctx()));
    return engine.Parallelize({std::move(v)}, 1);
  }
  const std::vector<std::string> in_schema = schema;
  const CExprPtr head = plan.head;
  return engine.Map(
      *ds,
      [&state, in_schema, head](const Value& row) -> StatusOr<Value> {
        return EvalExpr(head, RowCtx(in_schema, row.tuple(), state));
      },
      "yield");
}

// --------------------------- driver / array entry points --------------------

StatusOr<Value> EvalDriverExpr(const CExprPtr& e, const ExecState& state) {
  std::vector<std::string> empty_schema;
  ValueVec empty_values;
  EvalCtx ctx{&empty_schema, &empty_values, &state, /*allow_subplans=*/true};
  return EvalExpr(e, ctx);
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
