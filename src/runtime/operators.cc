#include "runtime/operators.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace diablo::runtime {

const char* BinOpName(BinOp op) {
  switch (op) {
    case BinOp::kAdd: return "+";
    case BinOp::kSub: return "-";
    case BinOp::kMul: return "*";
    case BinOp::kDiv: return "/";
    case BinOp::kMod: return "%";
    case BinOp::kEq: return "==";
    case BinOp::kNe: return "!=";
    case BinOp::kLt: return "<";
    case BinOp::kLe: return "<=";
    case BinOp::kGt: return ">";
    case BinOp::kGe: return ">=";
    case BinOp::kAnd: return "&&";
    case BinOp::kOr: return "||";
    case BinOp::kMin: return "min";
    case BinOp::kMax: return "max";
    case BinOp::kArgmin: return "argmin";
  }
  return "?";
}

const char* UnOpName(UnOp op) {
  switch (op) {
    case UnOp::kNeg: return "-";
    case UnOp::kNot: return "!";
  }
  return "?";
}

bool IsCommutativeMonoid(BinOp op) {
  switch (op) {
    case BinOp::kAdd:
    case BinOp::kMul:
    case BinOp::kAnd:
    case BinOp::kOr:
    case BinOp::kMin:
    case BinOp::kMax:
    case BinOp::kArgmin:
      return true;
    default:
      return false;
  }
}

Value MonoidIdentity(BinOp op, const Value& sample) {
  // Elementwise monoids (tuple + / min / max) have elementwise identities.
  if (sample.is_tuple() && op != BinOp::kArgmin) {
    ValueVec elems;
    elems.reserve(sample.tuple().size());
    for (const Value& v : sample.tuple()) {
      elems.push_back(MonoidIdentity(op, v));
    }
    return Value::MakeTuple(std::move(elems));
  }
  const bool dbl = sample.is_double();
  switch (op) {
    case BinOp::kAdd:
      return dbl ? Value::MakeDouble(0.0) : Value::MakeInt(0);
    case BinOp::kMul:
      return dbl ? Value::MakeDouble(1.0) : Value::MakeInt(1);
    case BinOp::kAnd:
      return Value::MakeBool(true);
    case BinOp::kOr:
      return Value::MakeBool(false);
    case BinOp::kMin:
      return dbl ? Value::MakeDouble(std::numeric_limits<double>::infinity())
                 : Value::MakeInt(std::numeric_limits<int64_t>::max());
    case BinOp::kMax:
      return dbl ? Value::MakeDouble(-std::numeric_limits<double>::infinity())
                 : Value::MakeInt(std::numeric_limits<int64_t>::min());
    case BinOp::kArgmin:
      return Value::MakePair(
          Value::MakeDouble(std::numeric_limits<double>::infinity()),
          Value::MakeUnit());
    default:
      return Value::MakeUnit();
  }
}

namespace {

Status KindMismatch(BinOp op, const Value& a, const Value& b) {
  return Status::RuntimeError(
      StrCat("operator '", BinOpName(op), "' applied to ", KindName(a.kind()),
             " and ", KindName(b.kind())));
}

StatusOr<Value> NumericOp(BinOp op, const Value& a, const Value& b) {
  if (!a.is_numeric() || !b.is_numeric()) return KindMismatch(op, a, b);
  if (a.is_int() && b.is_int()) {
    int64_t x = a.AsInt(), y = b.AsInt();
    switch (op) {
      case BinOp::kAdd: return Value::MakeInt(x + y);
      case BinOp::kSub: return Value::MakeInt(x - y);
      case BinOp::kMul: return Value::MakeInt(x * y);
      case BinOp::kDiv:
        if (y == 0) return Status::RuntimeError("integer division by zero");
        // The one quotient int64 cannot hold; the hardware traps on it.
        if (x == std::numeric_limits<int64_t>::min() && y == -1) {
          return Status::RuntimeError(
              StrCat("integer division overflow: ", x, " / ", y));
        }
        return Value::MakeInt(x / y);
      case BinOp::kMod:
        if (y == 0) return Status::RuntimeError("integer modulo by zero");
        // x % -1 is 0 for every x, but INT64_MIN % -1 traps like the
        // division it is computed with.
        if (y == -1) return Value::MakeInt(0);
        return Value::MakeInt(x % y);
      case BinOp::kMin: return Value::MakeInt(std::min(x, y));
      case BinOp::kMax: return Value::MakeInt(std::max(x, y));
      default: break;
    }
  }
  double x = a.ToDouble(), y = b.ToDouble();
  switch (op) {
    case BinOp::kAdd: return Value::MakeDouble(x + y);
    case BinOp::kSub: return Value::MakeDouble(x - y);
    case BinOp::kMul: return Value::MakeDouble(x * y);
    case BinOp::kDiv: return Value::MakeDouble(x / y);
    case BinOp::kMod: return Value::MakeDouble(std::fmod(x, y));
    case BinOp::kMin: return Value::MakeDouble(std::min(x, y));
    case BinOp::kMax: return Value::MakeDouble(std::max(x, y));
    default: break;
  }
  return KindMismatch(op, a, b);
}

}  // namespace

StatusOr<Value> EvalBinOp(BinOp op, const Value& a, const Value& b) {
  // Elementwise lifting: + / min / max apply componentwise to tuples of
  // equal arity. This gives the paper's composite monoids (e.g. KMeans'
  // Avg = pairwise (sum, count) addition) without user-defined classes.
  if ((op == BinOp::kAdd || op == BinOp::kMin || op == BinOp::kMax) &&
      a.is_tuple() && b.is_tuple()) {
    if (a.tuple().size() != b.tuple().size()) {
      return Status::RuntimeError(
          StrCat("elementwise '", BinOpName(op), "' on tuples of arity ",
                 a.tuple().size(), " and ", b.tuple().size()));
    }
    ValueVec out;
    out.reserve(a.tuple().size());
    for (size_t i = 0; i < a.tuple().size(); ++i) {
      DIABLO_ASSIGN_OR_RETURN(Value v,
                              EvalBinOp(op, a.tuple()[i], b.tuple()[i]));
      out.push_back(std::move(v));
    }
    return Value::MakeTuple(std::move(out));
  }
  if (op == BinOp::kArgmin) {
    // (score, payload...) tuples; the identity pair (inf, ()) loses to
    // any real operand.
    if (!a.is_tuple() || !b.is_tuple() || a.tuple().empty() ||
        b.tuple().empty() || !a.tuple()[0].is_numeric() ||
        !b.tuple()[0].is_numeric()) {
      return Status::RuntimeError(
          StrCat("argmin expects (score, ...) tuples, got ", a.ToString(),
                 " and ", b.ToString()));
    }
    return a.tuple()[0].ToDouble() <= b.tuple()[0].ToDouble() ? a : b;
  }
  switch (op) {
    case BinOp::kAdd:
      // String concatenation shares the + operator.
      if (a.is_string() && b.is_string())
        return Value::MakeString(a.AsString() + b.AsString());
      [[fallthrough]];
    case BinOp::kSub:
    case BinOp::kMul:
    case BinOp::kDiv:
    case BinOp::kMod:
    case BinOp::kMin:
    case BinOp::kMax:
      return NumericOp(op, a, b);
    case BinOp::kEq:
      // Equality is structural but numeric kinds compare by value so that
      // `1 == 1.0` holds, matching the untyped surface language.
      if (a.is_numeric() && b.is_numeric())
        return Value::MakeBool(a.ToDouble() == b.ToDouble());
      return Value::MakeBool(a == b);
    case BinOp::kNe: {
      DIABLO_ASSIGN_OR_RETURN(Value eq, EvalBinOp(BinOp::kEq, a, b));
      return Value::MakeBool(!eq.AsBool());
    }
    case BinOp::kLt:
    case BinOp::kLe:
    case BinOp::kGt:
    case BinOp::kGe: {
      int cmp;
      if (a.is_numeric() && b.is_numeric()) {
        double x = a.ToDouble(), y = b.ToDouble();
        cmp = x == y ? 0 : (x < y ? -1 : 1);
      } else if (a.is_string() && b.is_string()) {
        cmp = a.AsString().compare(b.AsString());
      } else {
        return KindMismatch(op, a, b);
      }
      switch (op) {
        case BinOp::kLt: return Value::MakeBool(cmp < 0);
        case BinOp::kLe: return Value::MakeBool(cmp <= 0);
        case BinOp::kGt: return Value::MakeBool(cmp > 0);
        default: return Value::MakeBool(cmp >= 0);
      }
    }
    case BinOp::kAnd:
    case BinOp::kOr: {
      if (!a.is_bool() || !b.is_bool()) return KindMismatch(op, a, b);
      bool r = op == BinOp::kAnd ? (a.AsBool() && b.AsBool())
                                 : (a.AsBool() || b.AsBool());
      return Value::MakeBool(r);
    }
    case BinOp::kArgmin:
      break;  // handled above
  }
  return KindMismatch(op, a, b);
}

StatusOr<Value> EvalUnOp(UnOp op, const Value& v) {
  switch (op) {
    case UnOp::kNeg:
      if (v.is_int()) return Value::MakeInt(-v.AsInt());
      if (v.is_double()) return Value::MakeDouble(-v.AsDouble());
      return Status::RuntimeError(
          StrCat("unary '-' applied to ", KindName(v.kind())));
    case UnOp::kNot:
      if (v.is_bool()) return Value::MakeBool(!v.AsBool());
      return Status::RuntimeError(
          StrCat("unary '!' applied to ", KindName(v.kind())));
  }
  return Status::RuntimeError("unknown unary operator");
}

StatusOr<Value> ReduceBag(BinOp op, const ValueVec& elems) {
  if (elems.empty()) return MonoidIdentity(op, Value::MakeInt(0));
  Value acc = elems[0];
  for (size_t i = 1; i < elems.size(); ++i) {
    DIABLO_ASSIGN_OR_RETURN(acc, EvalBinOp(op, acc, elems[i]));
  }
  return acc;
}

bool BagEquals(const Value& a, const Value& b) {
  if (!a.is_bag() || !b.is_bag()) return false;
  if (a.bag().size() != b.bag().size()) return false;
  ValueVec x = a.bag(), y = b.bag();
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  for (size_t i = 0; i < x.size(); ++i) {
    if (!(x[i] == y[i])) return false;
  }
  return true;
}

bool AlmostEquals(const Value& a, const Value& b, double eps) {
  if (a.is_numeric() && b.is_numeric()) {
    double x = a.ToDouble(), y = b.ToDouble();
    double scale = std::max({1.0, std::fabs(x), std::fabs(y)});
    return std::fabs(x - y) <= eps * scale;
  }
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Value::Kind::kTuple: {
      if (a.tuple().size() != b.tuple().size()) return false;
      for (size_t i = 0; i < a.tuple().size(); ++i) {
        if (!AlmostEquals(a.tuple()[i], b.tuple()[i], eps)) return false;
      }
      return true;
    }
    case Value::Kind::kRecord: {
      if (a.fields().size() != b.fields().size()) return false;
      for (size_t i = 0; i < a.fields().size(); ++i) {
        if (a.fields()[i].first != b.fields()[i].first) return false;
        if (!AlmostEquals(a.fields()[i].second, b.fields()[i].second, eps))
          return false;
      }
      return true;
    }
    case Value::Kind::kBag:
      return BagAlmostEquals(a, b, eps);
    default:
      return a == b;
  }
}

bool BagAlmostEquals(const Value& a, const Value& b, double eps) {
  if (!a.is_bag() || !b.is_bag()) return false;
  if (a.bag().size() != b.bag().size()) return false;
  ValueVec x = a.bag(), y = b.bag();
  std::sort(x.begin(), x.end());
  std::sort(y.begin(), y.end());
  for (size_t i = 0; i < x.size(); ++i) {
    if (!AlmostEquals(x[i], y[i], eps)) return false;
  }
  return true;
}

}  // namespace diablo::runtime
