// End-to-end tests: full pipeline (parse -> check -> translate ->
// normalize -> optimize -> plan -> distributed execution) compared
// against the sequential reference interpreter on small inputs.

#include <gtest/gtest.h>

#include <limits>

#include "tests/test_util.h"

namespace diablo::testing {
namespace {

TEST(EndToEnd, ConditionalSum) {
  PipelineChecker checker(R"(
    var sum: double = 0.0;
    for v in V do
      if (v < 100.0)
        sum += v;
  )",
                          {{"V", DoubleVector({1, 250, 3, 99, 100, 7})}});
  checker.ExpectScalarAgrees("sum");
}

TEST(EndToEnd, SumNoFilter) {
  PipelineChecker checker(R"(
    var sum: double = 0.0;
    for v in V do
      sum += v;
  )",
                          {{"V", DoubleVector({1.5, 2.5, 3, -4})}});
  checker.ExpectScalarAgrees("sum");
}

TEST(EndToEnd, VectorCopyRange) {
  // for i = 1, 4 do V[i] := W[i]  (paper §3.9 example 1).
  PipelineChecker checker(R"(
    for i = 1, 4 do
      V[i] := W[i];
  )",
                          {{"W", DoubleVector({10, 11, 12, 13, 14, 15})},
                           {"V", DoubleVector({0, 0, 0, 0, 0, 0})}});
  checker.ExpectArrayAgrees("V");
}

TEST(EndToEnd, IndirectIncrement) {
  // for i = 0, 5 do W[K[i]] += V[i]  (paper §3.9 example 2).
  PipelineChecker checker(
      R"(
    for i = 0, 5 do
      W[K[i]] += V[i];
  )",
      {{"K", IntVector({0, 1, 0, 2, 1, 0})},
       {"V", DoubleVector({1, 2, 3, 4, 5, 6})},
       {"W", DoubleVector({100, 200, 300})}});
  checker.ExpectArrayAgrees("W");
}

TEST(EndToEnd, GroupByCount) {
  // The introduction's example: C[A[i].K] += A[i].V.
  ValueVec rows;
  rows.push_back(Pair(IV(3), Tup({IV(3), DV(10)})));
  rows.push_back(Pair(IV(8), Tup({IV(5), DV(25)})));
  rows.push_back(Pair(IV(5), Tup({IV(3), DV(13)})));
  PipelineChecker checker(R"(
    var C: map[int,double] = map();
    for a in A do
      C[a._1] += a._2;
  )",
                          {{"A", Bag(std::move(rows))}});
  checker.ExpectArrayAgrees("C");
}

TEST(EndToEnd, MatrixMultiplication) {
  PipelineChecker checker(R"(
    var R: matrix[double] = matrix();
    for i = 0, 1 do
      for j = 0, 1 do {
        R[i,j] := 0.0;
        for k = 0, 2 do
          R[i,j] += M[i,k] * N[k,j];
      }
  )",
                          {{"M", DoubleMatrix({{1, 2, 3}, {4, 5, 6}})},
                           {"N", DoubleMatrix({{7, 8}, {9, 10}, {11, 12}})}});
  checker.ExpectArrayAgrees("R");
}

TEST(EndToEnd, MatrixAddition) {
  PipelineChecker checker(R"(
    var R: matrix[double] = matrix();
    for i = 0, 1 do
      for j = 0, 2 do
        R[i,j] := M[i,j] + N[i,j];
  )",
                          {{"M", DoubleMatrix({{1, 2, 3}, {4, 5, 6}})},
                           {"N", DoubleMatrix({{10, 20, 30}, {40, 50, 60}})}});
  checker.ExpectArrayAgrees("R");
}

TEST(EndToEnd, EqualAllElements) {
  PipelineChecker checker(R"(
    var eq: bool = true;
    for v in V do
      eq := eq && v == x;
  )",
                          {{"V", Bag({Pair(IV(0), SV("a")),
                                      Pair(IV(1), SV("a"))})},
                           {"x", SV("a")}});
  checker.ExpectScalarAgrees("eq");
}

TEST(EndToEnd, StringMatch) {
  PipelineChecker checker(
      R"(
    var c: bool = false;
    for w in words do
      c := c || (w == "key1" || w == "key2" || w == "key3");
  )",
      {{"words", Bag({Pair(IV(0), SV("zzz")), Pair(IV(1), SV("key2"))})}});
  checker.ExpectScalarAgrees("c");
}

TEST(EndToEnd, WordCount) {
  PipelineChecker checker(R"(
    var C: map[string,int] = map();
    for w in words do
      C[w] += 1;
  )",
                          {{"words", Bag({Pair(IV(0), SV("a")),
                                          Pair(IV(1), SV("b")),
                                          Pair(IV(2), SV("a")),
                                          Pair(IV(3), SV("a"))})}});
  checker.ExpectArrayAgrees("C");
}

TEST(EndToEnd, Histogram) {
  ValueVec pixels;
  auto px = [](int64_t r, int64_t g, int64_t b) {
    return Value::MakeRecord(
        {{"red", IV(r)}, {"green", IV(g)}, {"blue", IV(b)}});
  };
  pixels.push_back(Pair(IV(0), px(1, 2, 3)));
  pixels.push_back(Pair(IV(1), px(1, 5, 3)));
  pixels.push_back(Pair(IV(2), px(2, 2, 3)));
  PipelineChecker checker(R"(
    var R: map[int,int] = map();
    var G: map[int,int] = map();
    var B: map[int,int] = map();
    for p in P do {
      R[p.red] += 1;
      G[p.green] += 1;
      B[p.blue] += 1;
    }
  )",
                          {{"P", Bag(std::move(pixels))}});
  checker.ExpectArrayAgrees("R");
  checker.ExpectArrayAgrees("G");
  checker.ExpectArrayAgrees("B");
}

TEST(EndToEnd, VectorShiftRead) {
  // Reading W[i-1] exercises affine index inversion in range elimination.
  PipelineChecker checker(R"(
    for i = 1, 4 do
      V[i] := W[i-1];
  )",
                          {{"W", DoubleVector({10, 11, 12, 13, 14})},
                           {"V", DoubleVector({0, 0, 0, 0, 0})}});
  checker.ExpectArrayAgrees("V");
}

TEST(EndToEnd, WhileLoopScalar) {
  PipelineChecker checker(R"(
    var n: int = 0;
    while (n < 5)
      n += 1;
  )",
                          {});
  checker.ExpectScalarAgrees("n");
}

TEST(EndToEnd, WhileWithParallelBody) {
  PipelineChecker checker(R"(
    var k: int = 0;
    while (k < 3) {
      k += 1;
      for i = 0, 4 do
        V[i] += 1.0;
    }
  )",
                          {{"V", DoubleVector({0, 0, 0, 0, 0})}});
  checker.ExpectArrayAgrees("V");
}

TEST(EndToEnd, IfElseBranches) {
  PipelineChecker checker(R"(
    var pos: double = 0.0;
    var neg: double = 0.0;
    for v in V do
      if (v >= 0.0)
        pos += v;
      else
        neg += v;
  )",
                          {{"V", DoubleVector({1, -2, 3, -4, 5})}});
  checker.ExpectScalarAgrees("pos");
  checker.ExpectScalarAgrees("neg");
}

TEST(EndToEnd, SequentialForWithWhileInside) {
  // A for-range loop containing a while-loop is lowered to sequential
  // target code.
  PipelineChecker checker(R"(
    var total: int = 0;
    for i = 1, 3 do {
      var j: int = 0;
      while (j < i)
        j += 1;
      total += j;
    }
  )",
                          {});
  checker.ExpectScalarAgrees("total");
}

TEST(EndToEnd, IfElseOnArrayValues) {
  // Both branches write the same destination array under disjoint
  // guards (rule 15g splits them into two guarded bulk updates).
  PipelineChecker checker(R"(
    var W: vector[double] = vector();
    for i = 0, 4 do
      if (V[i] > 0.0)
        W[i] := 1.0;
      else
        W[i] := 2.0;
  )",
                          {{"V", DoubleVector({3, -1, 0, 7, -2})}});
  checker.ExpectArrayAgrees("W");
}

TEST(EndToEnd, SparseConditionSkipsBothBranches) {
  // E is sparse: where E[i] is missing the lifted condition is the empty
  // bag and neither branch runs, so W keeps no entry there.
  ValueVec e_rows = {Pair(IV(0), BV(true)), Pair(IV(2), BV(false))};
  PipelineChecker checker(R"(
    var W: vector[double] = vector();
    for i = 0, 4 do
      if (E[i])
        W[i] := 1.0;
      else
        W[i] := 2.0;
  )",
                          {{"E", Bag(e_rows)}});
  checker.ExpectArrayAgrees("W");
}

TEST(EndToEnd, ChainedIndirection) {
  // Two levels of indirection: B[A[i]] supplies the key for C.
  PipelineChecker checker(R"(
    var C: map[int,double] = map();
    for i = 0, 5 do
      C[B[A[i]]] += 1.0;
  )",
                          {{"A", IntVector({0, 1, 2, 0, 1, 2})},
                           {"B", IntVector({5, 5, 9})}});
  checker.ExpectArrayAgrees("C");
}

TEST(EndToEnd, MultiplyAccumulateMonoid) {
  PipelineChecker checker(R"(
    var prod: double = 1.0;
    for v in V do
      prod *= v;
  )",
                          {{"V", DoubleVector({1.5, 2, 4})}});
  checker.ExpectScalarAgrees("prod");
}

TEST(EndToEnd, RestrictionViolationRejected) {
  auto compiled = Compile(R"(
    for i = 1, 8 do
      V[i] := (V[i-1] + V[i+1]) / 2.0;
  )");
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kRestrictionViolation);
}

TEST(EndToEnd, IterateUntilConvergence) {
  // Jacobi-style smoothing iterated until the per-sweep change drops
  // below a threshold: array copy + stencil + convergence aggregation,
  // all inside a while-loop.
  PipelineChecker checker(R"(
    var diff: double = 1.0;
    var Vold: vector[double] = vector();
    while (diff > 0.01) {
      for i = 0, 9 do
        Vold[i] := V[i];
      for i = 1, 8 do
        V[i] := (Vold[i-1] + Vold[i+1]) / 2.0;
      diff := 0.0;
      for i = 0, 9 do
        diff += abs(V[i] - Vold[i]);
    }
  )",
                          {{"V", DoubleVector({0, 1, 8, 2, 7, 3, 6, 4, 5,
                                               10})}});
  checker.ExpectArrayAgrees("V", 1e-9);
  checker.ExpectScalarAgrees("diff", 1e-9);
}

TEST(EndToEnd, MinMaxMonoids) {
  PipelineChecker checker(R"(
    var lo: double = 1000000.0;
    var hi: double = -1000000.0;
    for v in V do {
      lo min= v;
      hi max= v;
    }
  )",
                          {{"V", DoubleVector({5, -3, 12, 0.5})}});
  checker.ExpectScalarAgrees("lo");
  checker.ExpectScalarAgrees("hi");
}

// Row-program semantics: each plan expression is compiled once against
// its row schema, with driver scalars resolved at plan time. These pin
// that down against the reference interpreter and the local backend.

TEST(RowProgram, ScalarReassignedBetweenStatements) {
  // A is built while c = 1 and read after c := 10; the second statement
  // must see both the forced A and the new c.
  PipelineChecker checker(R"(
    var c: double = 1.0;
    var A: vector[double] = vector();
    var B: vector[double] = vector();
    for i = 0, 2 do
      A[i] := V[i] * c;
    c := 10.0;
    for i = 0, 2 do
      B[i] := A[i] + c;
  )",
                          {{"V", DoubleVector({1, 2, 3})}});
  checker.ExpectArrayAgrees("A", 0);
  checker.ExpectArrayAgrees("B", 0);
}

TEST(RowProgram, LoopIndexShadowsScalarOfSameName) {
  // The row slot wins over the driver scalar i.
  PipelineChecker checker(R"(
    var i: int = 100;
    var S: vector[int] = vector();
    for i = 0, 2 do
      S[i] := i + 1;
  )",
                          {});
  checker.ExpectArrayAgrees("S", 0);
  checker.ExpectScalarAgrees("i", 0);
}

TEST(RowProgram, FalseAndErroringOperandDoesNotRaise) {
  // && short-circuits: 1 / (i - i) is never evaluated.
  PipelineChecker checker(R"(
    var S: vector[int] = vector();
    for i = 0, 4 do
      if (i < 0 && 1 / (i - i) > 0)
        S[i] := 1;
      else
        S[i] := 2;
  )",
                          {});
  checker.ExpectArrayAgrees("S", 0);
}

TEST(RowProgram, TrueOrErroringOperandDoesNotRaise) {
  PipelineChecker checker(R"(
    var n: int = 0;
    for i = 0, 4 do
      if (i >= 0 || 1 / (i - i) > 0)
        n += 1;
  )",
                          {});
  checker.ExpectScalarAgrees("n", 0);
}

TEST(RowProgram, PerRowRangeGenerator) {
  // The inner range's bound is a row variable: iterated per row.
  PipelineChecker checker(R"(
    var S: vector[int] = vector();
    for i = 0, 4 do
      for j = 0, i do
        S[i] += j;
  )",
                          {});
  checker.ExpectArrayAgrees("S", 0);
}

// INT64_MIN / -1 has no int64 quotient. Every backend reports it as the
// same runtime error instead of trapping, on the driver and per row;
// INT64_MIN % -1 is exactly 0.

constexpr int64_t kInt64Min = std::numeric_limits<int64_t>::min();

/// Runs `source` on the engine, the local backend and the reference
/// interpreter: all three must fail with `message`.
void ExpectAllBackendsFail(const std::string& source, const Bindings& inputs,
                           const std::string& message) {
  auto compiled = Compile(source);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  runtime::Engine engine;
  auto run = Run(*compiled, &engine, inputs);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().message(), message);
  auto local = RunLocal(*compiled, inputs);
  ASSERT_FALSE(local.ok());
  EXPECT_EQ(local.status().message(), message);
  auto ref = RunReference(source, inputs);
  ASSERT_FALSE(ref.ok());
  EXPECT_EQ(ref.status().message(), message);
}

TEST(IntegerDivision, Int64MinByMinusOneIsAnErrorOnTheDriver) {
  ExpectAllBackendsFail("var y: int = n / m;",
                        {{"n", IV(kInt64Min)}, {"m", IV(-1)}},
                        "integer division overflow: -9223372036854775808 / -1");
}

TEST(IntegerDivision, Int64MinByMinusOneIsAnErrorPerRow) {
  ExpectAllBackendsFail(R"(
    var S: vector[int] = vector();
    for i = 0, 2 do
      S[i] := V[i] / m;
  )",
                        {{"V", IntVector({7, kInt64Min, 9})}, {"m", IV(-1)}},
                        "integer division overflow: -9223372036854775808 / -1");
}

TEST(IntegerDivision, Int64MinModMinusOneIsZero) {
  PipelineChecker driver("var z: int = n % m;",
                         {{"n", IV(kInt64Min)}, {"m", IV(-1)}});
  driver.ExpectScalarAgrees("z", 0);
  PipelineChecker rows(R"(
    var S: vector[int] = vector();
    for i = 0, 2 do
      S[i] := V[i] % m;
  )",
                       {{"V", IntVector({7, kInt64Min, 9})}, {"m", IV(-1)}});
  rows.ExpectArrayAgrees("S", 0);
  runtime::Engine engine;
  auto run = CompileAndRun("var z: int = n % m;", &engine,
                           {{"n", IV(kInt64Min)}, {"m", IV(-1)}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(*run->Scalar("z"), IV(0));
}

}  // namespace
}  // namespace diablo::testing
