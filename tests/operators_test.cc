// Unit tests for runtime operator evaluation: coercions, commutative
// monoids and their identities, elementwise tuple lifting, argmin, bag
// reductions and multiset equality.

#include "runtime/operators.h"

#include <gtest/gtest.h>

#include <limits>

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value B(bool v) { return Value::MakeBool(v); }

TEST(Operators, IntArithmetic) {
  EXPECT_EQ(EvalBinOp(BinOp::kAdd, I(2), I(3))->AsInt(), 5);
  EXPECT_EQ(EvalBinOp(BinOp::kSub, I(2), I(3))->AsInt(), -1);
  EXPECT_EQ(EvalBinOp(BinOp::kMul, I(2), I(3))->AsInt(), 6);
  EXPECT_EQ(EvalBinOp(BinOp::kDiv, I(7), I(2))->AsInt(), 3);
  EXPECT_EQ(EvalBinOp(BinOp::kMod, I(7), I(2))->AsInt(), 1);
}

TEST(Operators, MixedArithmeticWidens) {
  Value r = *EvalBinOp(BinOp::kAdd, I(2), D(0.5));
  ASSERT_TRUE(r.is_double());
  EXPECT_DOUBLE_EQ(r.AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(EvalBinOp(BinOp::kDiv, I(1), D(4))->AsDouble(), 0.25);
}

TEST(Operators, DivisionByZero) {
  EXPECT_FALSE(EvalBinOp(BinOp::kDiv, I(1), I(0)).ok());
  EXPECT_FALSE(EvalBinOp(BinOp::kMod, I(1), I(0)).ok());
  // Double division by zero follows IEEE.
  EXPECT_TRUE(EvalBinOp(BinOp::kDiv, D(1), D(0)).ok());
}

TEST(Operators, Int64MinDividedByMinusOne) {
  // The quotient does not fit in int64 (the hardware traps on it); the
  // remainder is exactly 0.
  const int64_t min = std::numeric_limits<int64_t>::min();
  auto q = EvalBinOp(BinOp::kDiv, I(min), I(-1));
  ASSERT_FALSE(q.ok());
  EXPECT_EQ(q.status().code(), StatusCode::kRuntimeError);
  EXPECT_EQ(q.status().message(),
            "integer division overflow: -9223372036854775808 / -1");
  EXPECT_EQ(EvalBinOp(BinOp::kMod, I(min), I(-1))->AsInt(), 0);
  EXPECT_EQ(EvalBinOp(BinOp::kMod, I(-7), I(-1))->AsInt(), 0);
  EXPECT_EQ(EvalBinOp(BinOp::kDiv, I(min), I(1))->AsInt(), min);
  EXPECT_EQ(EvalBinOp(BinOp::kDiv, I(min + 1), I(-1))->AsInt(), -(min + 1));
  EXPECT_EQ(EvalBinOp(BinOp::kMod, I(min), I(3))->AsInt(), min % 3);
}

TEST(Operators, StringConcatAndCompare) {
  EXPECT_EQ(EvalBinOp(BinOp::kAdd, Value::MakeString("a"),
                      Value::MakeString("b"))
                ->AsString(),
            "ab");
  EXPECT_TRUE(EvalBinOp(BinOp::kLt, Value::MakeString("a"),
                        Value::MakeString("b"))
                  ->AsBool());
  EXPECT_TRUE(EvalBinOp(BinOp::kEq, Value::MakeString("x"),
                        Value::MakeString("x"))
                  ->AsBool());
}

TEST(Operators, NumericEqualityCrossesKinds) {
  EXPECT_TRUE(EvalBinOp(BinOp::kEq, I(1), D(1.0))->AsBool());
  EXPECT_FALSE(EvalBinOp(BinOp::kNe, I(1), D(1.0))->AsBool());
}

TEST(Operators, BooleanConnectives) {
  EXPECT_TRUE(EvalBinOp(BinOp::kAnd, B(true), B(true))->AsBool());
  EXPECT_FALSE(EvalBinOp(BinOp::kAnd, B(true), B(false))->AsBool());
  EXPECT_TRUE(EvalBinOp(BinOp::kOr, B(false), B(true))->AsBool());
  EXPECT_FALSE(EvalBinOp(BinOp::kAnd, I(1), B(true)).ok());
}

TEST(Operators, MinMax) {
  EXPECT_EQ(EvalBinOp(BinOp::kMin, I(2), I(5))->AsInt(), 2);
  EXPECT_EQ(EvalBinOp(BinOp::kMax, I(2), I(5))->AsInt(), 5);
  EXPECT_DOUBLE_EQ(EvalBinOp(BinOp::kMin, D(2.5), I(2))->AsDouble(), 2.0);
}

TEST(Operators, CommutativeMonoidClassification) {
  EXPECT_TRUE(IsCommutativeMonoid(BinOp::kAdd));
  EXPECT_TRUE(IsCommutativeMonoid(BinOp::kMul));
  EXPECT_TRUE(IsCommutativeMonoid(BinOp::kMin));
  EXPECT_TRUE(IsCommutativeMonoid(BinOp::kMax));
  EXPECT_TRUE(IsCommutativeMonoid(BinOp::kAnd));
  EXPECT_TRUE(IsCommutativeMonoid(BinOp::kOr));
  EXPECT_TRUE(IsCommutativeMonoid(BinOp::kArgmin));
  EXPECT_FALSE(IsCommutativeMonoid(BinOp::kSub));
  EXPECT_FALSE(IsCommutativeMonoid(BinOp::kDiv));
  EXPECT_FALSE(IsCommutativeMonoid(BinOp::kLt));
}

TEST(Operators, MonoidIdentities) {
  EXPECT_EQ(MonoidIdentity(BinOp::kAdd, I(0)).AsInt(), 0);
  EXPECT_EQ(MonoidIdentity(BinOp::kMul, I(0)).AsInt(), 1);
  EXPECT_DOUBLE_EQ(MonoidIdentity(BinOp::kAdd, D(0)).AsDouble(), 0.0);
  EXPECT_TRUE(MonoidIdentity(BinOp::kAnd, I(0)).AsBool());
  EXPECT_FALSE(MonoidIdentity(BinOp::kOr, I(0)).AsBool());
  // Identity absorbs: id ⊕ x == x.
  for (BinOp op : {BinOp::kAdd, BinOp::kMul, BinOp::kMin, BinOp::kMax}) {
    Value x = D(3.25);
    Value id = MonoidIdentity(op, x);
    EXPECT_EQ(*EvalBinOp(op, id, x), x) << BinOpName(op);
  }
}

TEST(Operators, TupleIdentityIsElementwise) {
  Value sample = Value::MakeTuple({D(1), D(2), I(3)});
  Value id = MonoidIdentity(BinOp::kAdd, sample);
  ASSERT_TRUE(id.is_tuple());
  Value combined = *EvalBinOp(BinOp::kAdd, id, sample);
  EXPECT_TRUE(AlmostEquals(combined, sample, 0));
}

TEST(Operators, ElementwiseTupleAdd) {
  Value a = Value::MakeTuple({D(1), D(2), I(1)});
  Value b = Value::MakeTuple({D(10), D(20), I(1)});
  Value sum = *EvalBinOp(BinOp::kAdd, a, b);
  EXPECT_DOUBLE_EQ(sum.tuple()[0].AsDouble(), 11);
  EXPECT_DOUBLE_EQ(sum.tuple()[1].AsDouble(), 22);
  EXPECT_EQ(sum.tuple()[2].AsInt(), 2);
  // Arity mismatch is an error.
  EXPECT_FALSE(
      EvalBinOp(BinOp::kAdd, a, Value::MakeTuple({D(1)})).ok());
}

TEST(Operators, ArgminKeepsSmallerScore) {
  Value a = Value::MakePair(D(1.5), I(3));
  Value b = Value::MakePair(D(0.5), I(7));
  EXPECT_EQ(EvalBinOp(BinOp::kArgmin, a, b)->tuple()[1].AsInt(), 7);
  EXPECT_EQ(EvalBinOp(BinOp::kArgmin, b, a)->tuple()[1].AsInt(), 7);
  // Left bias on ties.
  Value c = Value::MakePair(D(0.5), I(9));
  EXPECT_EQ(EvalBinOp(BinOp::kArgmin, b, c)->tuple()[1].AsInt(), 7);
  // The identity loses to anything.
  Value id = MonoidIdentity(BinOp::kArgmin, a);
  EXPECT_EQ(EvalBinOp(BinOp::kArgmin, id, a)->tuple()[1].AsInt(), 3);
}

TEST(Operators, UnaryOps) {
  EXPECT_EQ(EvalUnOp(UnOp::kNeg, I(4))->AsInt(), -4);
  EXPECT_DOUBLE_EQ(EvalUnOp(UnOp::kNeg, D(4))->AsDouble(), -4);
  EXPECT_FALSE(EvalUnOp(UnOp::kNot, B(true))->AsBool());
  EXPECT_FALSE(EvalUnOp(UnOp::kNot, I(1)).ok());
}

TEST(Operators, ReduceBag) {
  ValueVec elems = {I(1), I(2), I(3)};
  EXPECT_EQ(ReduceBag(BinOp::kAdd, elems)->AsInt(), 6);
  EXPECT_EQ(ReduceBag(BinOp::kMul, elems)->AsInt(), 6);
  EXPECT_EQ(ReduceBag(BinOp::kMax, elems)->AsInt(), 3);
  // Empty bag yields the identity.
  EXPECT_EQ(ReduceBag(BinOp::kAdd, {})->AsInt(), 0);
}

TEST(Operators, BagEqualsIsMultiset) {
  Value a = Value::MakeBag({I(1), I(2), I(2)});
  Value b = Value::MakeBag({I(2), I(1), I(2)});
  Value c = Value::MakeBag({I(1), I(1), I(2)});
  EXPECT_TRUE(BagEquals(a, b));
  EXPECT_FALSE(BagEquals(a, c));
  EXPECT_FALSE(BagEquals(a, Value::MakeBag({I(1), I(2)})));
}

TEST(Operators, AlmostEqualsTolerance) {
  EXPECT_TRUE(AlmostEquals(D(1.0), D(1.0 + 1e-12), 1e-9));
  EXPECT_FALSE(AlmostEquals(D(1.0), D(1.1), 1e-9));
  // Relative tolerance scales with magnitude.
  EXPECT_TRUE(AlmostEquals(D(1e12), D(1e12 + 1), 1e-9));
  Value a = Value::MakeBag({Value::MakePair(I(1), D(2.0))});
  Value b = Value::MakeBag({Value::MakePair(I(1), D(2.0 + 1e-12))});
  EXPECT_TRUE(BagAlmostEquals(a, b, 1e-9));
}

}  // namespace
}  // namespace diablo::runtime
