// Tests for the target-code executor: while-loop lifting, declare
// re-initialization inside loops (PageRank's Q), scalar assignment
// cardinality, the §5 tiled-storage mode, and the row programs plans
// evaluate their expressions with.

#include "exec/target_executor.h"

#include <gtest/gtest.h>

#include <limits>

#include "plan/plan.h"
#include "plan/row_program.h"
#include "tests/test_util.h"

namespace diablo::exec {
namespace {

using testing::Bag;
using testing::DoubleMatrix;
using testing::DoubleVector;
using testing::DV;
using testing::IV;
using testing::Pair;
using testing::SV;
using testing::Tup;
using runtime::Value;

TEST(Executor, DeclareInsideWhileReinitializesEachIteration) {
  // PageRank's pattern: Q is declared inside the while body and must be
  // empty at the start of every iteration.
  runtime::Engine engine;
  auto run = CompileAndRun(R"(
    var k: int = 0;
    var total: vector[double] = vector();
    while (k < 3) {
      var Q: vector[double] = vector();
      k += 1;
      for i = 0, 2 do
        Q[i] := 1.0;
      for i = 0, 2 do
        total[i] += Q[i];
    }
  )",
                           &engine, {});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Value total = *run->Array("total");
  ASSERT_EQ(total.bag().size(), 3u);
  for (const Value& row : total.bag()) {
    EXPECT_DOUBLE_EQ(row.tuple()[1].AsDouble(), 3.0);
  }
}

TEST(Executor, WhileConditionFromMissingReadStops) {
  // The while condition lifts to a bag; a missing array read makes it
  // empty, which ends the loop.
  runtime::Engine engine;
  auto run = CompileAndRun(R"(
    var k: int = 0;
    while (V[99] > 0.0)
      k += 1;
  )",
                           &engine, {{"V", DoubleVector({1.0})}});
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->Scalar("k")->AsInt(), 0);
}

TEST(Executor, StatementsExecutedCountsLoopIterations) {
  runtime::Engine engine;
  auto compiled = Compile(R"(
    var k: int = 0;
    while (k < 4)
      k += 1;
  )");
  ASSERT_TRUE(compiled.ok());
  TargetExecutor executor(&engine);
  ASSERT_TRUE(executor.Run(compiled->target, {}).ok());
  // declare + while + 4 body executions.
  EXPECT_GE(executor.statements_executed(), 6);
}

TEST(Executor, UnknownOutputsReportInvalidArgument) {
  runtime::Engine engine;
  auto run = CompileAndRun("var x: int = 1;", &engine, {});
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->Scalar("nope").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(run->Array("nope").status().code(),
            StatusCode::kInvalidArgument);
}

// ----------------------------- tiled storage -------------------------------

constexpr const char kMatrixAdd[] = R"(
  var R: matrix[double] = matrix();
  for i = 0, n - 1 do
    for j = 0, n - 1 do
      R[i,j] += M[i,j] + N[i,j];
)";

Bindings DenseInputs(int64_t n) {
  std::vector<std::vector<double>> m(n, std::vector<double>(n));
  std::vector<std::vector<double>> w(n, std::vector<double>(n));
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      m[i][j] = static_cast<double>(i * n + j);
      w[i][j] = static_cast<double>(100 + i - j);
    }
  }
  return {{"M", DoubleMatrix(m)},
          {"N", DoubleMatrix(w)},
          {"n", IV(n)}};
}

TEST(TiledExecution, MatchesSparseExecutionOnDenseMatrices) {
  auto compiled = Compile(kMatrixAdd);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Bindings inputs = DenseInputs(8);

  runtime::Engine sparse_engine;
  auto sparse_run = ::diablo::Run(*compiled, &sparse_engine, inputs);
  ASSERT_TRUE(sparse_run.ok()) << sparse_run.status().ToString();

  runtime::Engine tiled_engine;
  RunOptions options;
  options.tiled_arrays = {"M", "N", "R"};
  options.tile_config = {4, 4};
  auto tiled_run = ::diablo::Run(*compiled, &tiled_engine, inputs, options);
  ASSERT_TRUE(tiled_run.ok()) << tiled_run.status().ToString();

  EXPECT_TRUE(runtime::BagAlmostEquals(*tiled_run->Array("R"),
                                       *sparse_run->Array("R"), 1e-9))
      << "tiled: " << tiled_run->Array("R")->ToString();
}

TEST(TiledExecution, IncrementalMergeAvoidsShufflingStoredTiles) {
  // Two successive merges into R: the second one hits a non-empty tiled
  // array and must take the zip path.
  auto compiled = Compile(R"(
    var R: matrix[double] = matrix();
    for i = 0, n - 1 do
      for j = 0, n - 1 do
        R[i,j] += M[i,j];
    for i = 0, n - 1 do
      for j = 0, n - 1 do
        R[i,j] += N[i,j];
  )");
  ASSERT_TRUE(compiled.ok());
  Bindings inputs = DenseInputs(16);

  runtime::Engine tiled_engine;
  RunOptions options;
  options.tiled_arrays = {"R"};
  options.tile_config = {4, 4};
  ASSERT_TRUE(::diablo::Run(*compiled, &tiled_engine, inputs, options).ok());
  // The tiled path replaces the element-wise mergeInc coGroup with
  // pack + zip merge; the zip merge itself ships no bytes.
  bool saw_zip = false;
  for (const auto& stage : tiled_engine.metrics().stages()) {
    if (stage.label == "zipMerge") {
      saw_zip = true;
      EXPECT_EQ(stage.shuffle_bytes, 0);
    }
    EXPECT_NE(stage.label, "mergeInc");
  }
  EXPECT_TRUE(saw_zip);
}

TEST(TiledExecution, NonAdditiveUpdatesFallBackToSparsePath) {
  // Plain (non-incremental) assignment to a tiled matrix repacks.
  auto compiled = Compile(R"(
    var R: matrix[double] = matrix();
    for i = 0, n - 1 do
      for j = 0, n - 1 do
        R[i,j] := M[i,j] * 2.0;
  )");
  ASSERT_TRUE(compiled.ok());
  Bindings inputs = DenseInputs(8);
  runtime::Engine engine;
  RunOptions options;
  options.tiled_arrays = {"R"};
  options.tile_config = {4, 4};
  auto run = ::diablo::Run(*compiled, &engine, inputs, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Value r = *run->Array("R");
  ASSERT_EQ(r.bag().size(), 64u);
  EXPECT_DOUBLE_EQ(r.bag()[1].tuple()[1].AsDouble(), 2.0);  // M[0,1]*2
}

TEST(TiledExecution, IteratedMergesStayConsistent) {
  // Accumulate into a tiled matrix across while iterations.
  auto compiled = Compile(R"(
    var k: int = 0;
    var R: matrix[double] = matrix();
    while (k < 3) {
      k += 1;
      for i = 0, n - 1 do
        for j = 0, n - 1 do
          R[i,j] += M[i,j];
    }
  )");
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  Bindings inputs = DenseInputs(8);
  runtime::Engine engine;
  RunOptions options;
  options.tiled_arrays = {"R"};
  options.tile_config = {4, 4};
  auto run = ::diablo::Run(*compiled, &engine, inputs, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  Value r = *run->Array("R");
  // R[1,1] = 3 * M[1,1] = 3 * 9.
  for (const Value& row : r.bag()) {
    if (row.tuple()[0] == Tup({IV(1), IV(1)})) {
      EXPECT_DOUBLE_EQ(row.tuple()[1].AsDouble(), 27.0);
    }
  }
}

// --------------------------- row programs -----------------------------------

/// Runs `source` on the engine and under the reference interpreter. Both
/// must fail; the engine with exactly `message`, the text plan
/// evaluation has always reported.
void ExpectRowError(const std::string& source, const Bindings& inputs,
                    const std::string& message) {
  runtime::Engine engine;
  auto run = CompileAndRun(source, &engine, inputs);
  ASSERT_FALSE(run.ok()) << "the engine accepted:\n" << source;
  EXPECT_EQ(run.status().code(), StatusCode::kRuntimeError);
  EXPECT_EQ(run.status().message(), message);
  auto ref = RunReference(source, inputs);
  EXPECT_FALSE(ref.ok()) << "the reference interpreter accepted:\n"
                         << source;
}

TEST(RowProgramErrors, TupleProjectionPastArity) {
  ExpectRowError(R"(
    var S: vector[int] = vector();
    for i = 0, 0 do
      S[i] := V[i]._3;
  )",
                 {{"V", Bag({Pair(IV(0), Tup({IV(1), IV(2)}))})}},
                 "cannot project ._3 out of (1,2)");
}

TEST(RowProgramErrors, MissingRecordField) {
  Value rec = Value::MakeRecord({{"A", IV(1)}, {"B", IV(2)}});
  ExpectRowError(R"(
    var S: vector[int] = vector();
    for i = 0, 0 do
      S[i] := V[i].C;
  )",
                 {{"V", Bag({Pair(IV(0), rec)})}},
                 "record <A=1,B=2> has no field 'C'");
}

TEST(RowProgramErrors, ArrayVariableInRowContext) {
  ExpectRowError(R"(
    var S: vector[double] = vector();
    for i = 0, 2 do
      S[i] := V + 1.0;
  )",
                 {{"V", DoubleVector({1, 2, 3})}},
                 "distributed array 'V' used as a value inside a row "
                 "expression");
}

/// A plan over the array V of (i, v) rows with `head` as its yield.
plan::CompPlan ScanPlan(comp::CExprPtr head) {
  plan::StreamOp scan;
  scan.kind = plan::StreamOp::Kind::kSourceArray;
  scan.array = "V";
  scan.pattern = comp::Pattern::Tuple(
      {comp::Pattern::Var("i"), comp::Pattern::Var("v")});
  scan.schema_after = {"i", "v"};
  plan::CompPlan p;
  p.ops.push_back(std::move(scan));
  p.head = std::move(head);
  return p;
}

struct PlanFixture {
  runtime::Engine engine;
  std::map<std::string, Value> scalars{{"k", IV(7)}};
  std::map<std::string, runtime::Dataset> arrays;
  plan::ExecState state;

  PlanFixture() {
    arrays["V"] = engine.Parallelize({Pair(IV(0), DV(1.5))});
    state.engine = &engine;
    state.scalars = &scalars;
    state.arrays = &arrays;
  }

  /// Executes ScanPlan(head) and collects; the error message or "".
  std::string RunError(comp::CExprPtr head) {
    auto ds = plan::ExecutePlan(ScanPlan(std::move(head)), state);
    if (!ds.ok()) return ds.status().message();
    auto rows = engine.Collect(*ds);
    return rows.ok() ? "" : rows.status().message();
  }
};

TEST(RowProgramErrors, UnboundVariable) {
  PlanFixture f;
  EXPECT_EQ(f.RunError(comp::MakeVar("nope")), "unbound variable 'nope'");
}

TEST(RowProgramErrors, RowInvalidKindsRaiseOnlyWhenEvaluated) {
  // Nested comprehensions, merges and arrays compile in row context;
  // they raise their message when evaluated, never when compiled.
  PlanFixture f;
  comp::CExprPtr nested = comp::MakeNested(comp::MakeComp(
      comp::MakeVar("v"),
      {comp::Qualifier::Generator(comp::Pattern::Var("x"),
                                  comp::MakeVar("V"))}));
  comp::CExprPtr merge = comp::MakeMerge(comp::MakeVar("V"),
                                         comp::MakeVar("V"));
  const std::pair<comp::CExprPtr, std::string> cases[] = {
      {nested,
       "nested comprehension in a row expression (normalizer should have "
       "flattened it)"},
      {merge, "array merge in a row expression"},
      {comp::MakeVar("V"),
       "distributed array 'V' used as a value inside a row expression"},
  };
  for (const auto& [bad, message] : cases) {
    EXPECT_EQ(f.RunError(bad), message);
    EXPECT_EQ(f.RunError(comp::MakeBin(runtime::BinOp::kAnd,
                                       comp::MakeBool(true), bad)),
              message);
    EXPECT_EQ(f.RunError(comp::MakeBin(runtime::BinOp::kAnd,
                                       comp::MakeBool(false), bad)),
              "");
    EXPECT_EQ(f.RunError(comp::MakeBin(runtime::BinOp::kOr,
                                       comp::MakeBool(true), bad)),
              "");
  }
}

TEST(RowProgram, SlotsConstantsAndProjectionsBorrow) {
  PlanFixture f;
  const std::vector<std::string> schema = {"i", "p"};
  const runtime::ValueVec row = {IV(3), Tup({DV(1.5), SV("x")})};
  auto eval = [&](const comp::CExprPtr& e, Value* scratch) {
    Status error;
    const Value* v = plan::RowProgram::Compile(e, schema, f.state)
                         .Eval(row, scratch, &error);
    EXPECT_TRUE(error.ok()) << error.ToString();
    return v;
  };
  Value scratch;
  EXPECT_EQ(eval(comp::MakeVar("p"), &scratch), &row[1]);
  EXPECT_EQ(eval(comp::MakeProj(comp::MakeVar("p"), "_2"), &scratch),
            &row[1].tuple()[1]);
  // A computed value lands in the scratch.
  const Value* sum = eval(
      comp::MakeBin(runtime::BinOp::kAdd, comp::MakeVar("i"),
                    comp::MakeInt(1)),
      &scratch);
  EXPECT_EQ(sum, &scratch);
  EXPECT_EQ(*sum, IV(4));
  // A projection out of a computed tuple is copied out of it.
  const Value* part = eval(
      comp::MakeProj(comp::MakeTuple({comp::MakeVar("i"), comp::MakeInt(9)}),
                     "_2"),
      &scratch);
  EXPECT_EQ(part, &scratch);
  EXPECT_EQ(*part, IV(9));
}

TEST(RowProgram, SchemaFirstThenScalarsResolvedAtCompileTime) {
  PlanFixture f;
  const runtime::ValueVec row = {IV(1)};
  plan::RowProgram slot =
      plan::RowProgram::Compile(comp::MakeVar("k"), {"k"}, f.state);
  plan::RowProgram scalar =
      plan::RowProgram::Compile(comp::MakeVar("k"), {"j"}, f.state);
  // The scalar's value is taken when the program is compiled.
  f.scalars["k"] = IV(8);
  EXPECT_EQ(*slot.Run(row), IV(1));
  EXPECT_EQ(*scalar.Run(row), IV(7));
}

TEST(RowProgram, RangeIteratesBoundsWithoutABag) {
  PlanFixture f;
  plan::RowProgram range = plan::RowProgram::Compile(
      comp::MakeRange(comp::MakeInt(2), comp::MakeVar("i")), {"i"}, f.state);
  ASSERT_TRUE(range.is_range());
  int64_t lo = 0, hi = 0;
  ASSERT_TRUE(range.EvalRange({IV(5)}, &lo, &hi).ok());
  EXPECT_EQ(lo, 2);
  EXPECT_EQ(hi, 5);
  Status bad = range.EvalRange({DV(5.0)}, &lo, &hi);
  EXPECT_EQ(bad.message(), "range bounds must be integers");
  // Evaluated as a value, the same range is the bag of its ints.
  EXPECT_EQ(*range.Run({IV(3)}), Bag({IV(2), IV(3)}));
  // The size check holds even where hi - lo overflows int64.
  plan::RowProgram huge = plan::RowProgram::Compile(
      comp::MakeRange(comp::MakeInt(std::numeric_limits<int64_t>::min()),
                      comp::MakeInt(std::numeric_limits<int64_t>::max())),
      {}, f.state);
  EXPECT_EQ(huge.EvalRange({}, &lo, &hi).message(),
            "range too large to materialize per-row");
}

}  // namespace
}  // namespace diablo::exec
