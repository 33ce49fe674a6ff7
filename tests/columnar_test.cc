// Columnar execution property tests.
//
// The columnar fast paths — batch kernels over fused chains, the
// vectorized shuffle scatter, the typed reduceByKey combine and the
// typed scalar fold — carry one contract: byte-identical results to the
// boxed per-row semantics for every workload, partition count, host
// thread count, fault schedule and distributed chaos kill. Rows the
// typed paths cannot represent must spill to boxed mid-stream without
// consuming or reordering anything.

#include "runtime/column_batch.h"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "common/strings.h"
#include "dist/coordinator.h"
#include "runtime/engine.h"
#include "runtime/fault.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/operators.h"
#include "runtime/serialize.h"
#include "tests/engine_workloads.h"
#include "tests/seq_oracle.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value S(const std::string& v) { return Value::MakeString(v); }

// ---------------------------------------------------------------------
// Column / kernel unit tests.

TEST(HashColumnTest, MatchesPerRowValueHashForEveryTag) {
  std::vector<ValueVec> shapes = {
      {},  // empty, kUnknown
      {I(0), I(-1), I(7), I(std::numeric_limits<int64_t>::min()),
       I(std::numeric_limits<int64_t>::max())},
      {D(0.0), D(-0.0), D(3.25), D(-2.5e300)},
      {Value::MakeBool(true), Value::MakeBool(false), Value::MakeBool(true)},
      {S("alpha"), S("beta"), S("alpha"), S(""), S("beta")},
      {I(1), S("demoted"), Value::MakeTuple({I(2), D(0.5)}),
       Value::MakeBag({I(9)})},  // boxed spill
  };
  for (size_t shape = 0; shape < shapes.size(); ++shape) {
    Column col;
    for (const Value& v : shapes[shape]) col.Append(v);
    std::vector<size_t> hashes;
    HashColumn(col, &hashes);
    ASSERT_EQ(hashes.size(), col.size()) << "shape " << shape;
    for (size_t i = 0; i < col.size(); ++i) {
      EXPECT_EQ(hashes[i], col.ValueAt(i).Hash())
          << "shape " << shape << " row " << i;
    }
  }
}

TEST(ColumnTest, StringColumnInternsWithCachedHashes) {
  Column col;
  for (const char* w : {"a", "b", "a", "c", "b", "a"}) col.Append(S(w));
  EXPECT_EQ(col.tag(), ColumnTag::kString);
  ASSERT_EQ(col.dict().size(), 3u);
  EXPECT_EQ(col.codes(), (std::vector<uint32_t>{0, 1, 0, 2, 1, 0}));
  for (uint32_t code = 0; code < col.dict().size(); ++code) {
    EXPECT_EQ(col.dict().hash(code), col.dict().value(code).Hash());
  }
}

TEST(ColumnTest, KindChangeDemotesToBoxedPreservingRows) {
  Column col;
  ValueVec rows = {I(1), I(2), D(3.5), S("x")};
  for (const Value& v : rows) col.Append(v);
  EXPECT_EQ(col.tag(), ColumnTag::kBoxed);
  ASSERT_EQ(col.size(), rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(col.ValueAt(i), rows[i]) << "row " << i;
  }
}

TEST(ApplyMapKernelTest, MatchesEvalBinOpOnCoveredCombinations) {
  const ValueVec int_rows = {I(-5), I(0), I(3), I(41), I(-1000)};
  const ValueVec dbl_rows = {D(-5.5), D(0.0), D(3.25), D(41.0)};
  for (BinOp op : {BinOp::kAdd, BinOp::kSub, BinOp::kMul, BinOp::kMin,
                   BinOp::kMax}) {
    for (const Value& operand : {I(3), D(2.5)}) {
      for (const ValueVec* rows : {&int_rows, &dbl_rows}) {
        Column col;
        for (const Value& v : *rows) col.Append(v);
        std::vector<uint8_t> live(rows->size(), 1);
        live[1] = 0;  // dead rows are don't-care but must not crash
        ASSERT_TRUE(ApplyMapKernel(op, operand, live, &col))
            << BinOpName(op) << " " << operand.ToString();
        for (size_t i = 0; i < rows->size(); ++i) {
          if (!live[i]) continue;
          auto expected = EvalBinOp(op, (*rows)[i], operand);
          ASSERT_TRUE(expected.ok());
          EXPECT_EQ(col.ValueAt(i), *expected)
              << BinOpName(op) << " row " << (*rows)[i].ToString()
              << " operand " << operand.ToString();
        }
      }
    }
  }
}

TEST(ApplyMapKernelTest, StringConcatTransformsDictionaryOnce) {
  Column col;
  for (const char* w : {"a", "b", "a", ""}) col.Append(S(w));
  std::vector<uint8_t> live(col.size(), 1);
  ASSERT_TRUE(ApplyMapKernel(BinOp::kAdd, S("_sfx"), live, &col));
  const ValueVec expected = {S("a_sfx"), S("b_sfx"), S("a_sfx"), S("_sfx")};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(col.ValueAt(i), expected[i]) << "row " << i;
  }
  // Distinct entries stay distinct: the dictionary was rewritten, not
  // the per-row codes.
  EXPECT_EQ(col.dict().size(), 3u);
}

TEST(ApplyMapKernelTest, UncoveredCombinationsLeaveColumnUntouched) {
  std::vector<uint8_t> live(1, 1);
  Column strings;
  strings.Append(S("a"));
  EXPECT_FALSE(ApplyMapKernel(BinOp::kMul, S("b"), live, &strings));
  EXPECT_FALSE(ApplyMapKernel(BinOp::kAdd, I(1), live, &strings));
  EXPECT_EQ(strings.ValueAt(0), S("a"));

  Column ints;
  ints.Append(I(10));
  EXPECT_FALSE(ApplyMapKernel(BinOp::kDiv, I(2), live, &ints));
  EXPECT_FALSE(ApplyMapKernel(BinOp::kAdd, S("nope"), live, &ints));
  EXPECT_EQ(ints.ValueAt(0), I(10));
  EXPECT_EQ(ints.tag(), ColumnTag::kInt64);

  Column boxed;
  boxed.Append(Value::MakeTuple({I(1), I(2)}));
  EXPECT_FALSE(ApplyMapKernel(BinOp::kAdd, I(1), live, &boxed));
}

TEST(ApplyFilterKernelTest, MatchesEvalBinOpComparisons) {
  struct Case {
    ValueVec rows;
    Value operand;
  };
  std::vector<Case> cases = {
      {{I(-5), I(0), I(5), I(6), I(5)}, I(5)},
      {{I(1), I(4), I(5), I(9)}, D(4.5)},
      {{D(0.0), D(-0.0), D(2.5), D(9.0)}, D(2.5)},
      {{S("ant"), S("bee"), S("ant"), S("cat"), S("")}, S("bee")},
  };
  for (BinOp op : {BinOp::kEq, BinOp::kNe, BinOp::kLt, BinOp::kLe,
                   BinOp::kGt, BinOp::kGe}) {
    for (size_t c = 0; c < cases.size(); ++c) {
      Column col;
      for (const Value& v : cases[c].rows) col.Append(v);
      std::vector<uint8_t> live(cases[c].rows.size(), 1);
      live.back() = 0;  // already-dead rows must stay dead
      ASSERT_TRUE(ApplyFilterKernel(op, cases[c].operand, col, &live))
          << BinOpName(op) << " case " << c;
      for (size_t i = 0; i < cases[c].rows.size(); ++i) {
        if (i + 1 == cases[c].rows.size()) {
          EXPECT_EQ(live[i], 0) << "dead row revived";
          continue;
        }
        auto verdict = EvalBinOp(op, cases[c].rows[i], cases[c].operand);
        ASSERT_TRUE(verdict.ok());
        EXPECT_EQ(live[i] != 0, verdict->AsBool())
            << BinOpName(op) << " case " << c << " row " << i;
      }
    }
  }
}

TEST(ApplyFilterKernelTest, UncoveredCombinationsLeaveMaskUntouched) {
  Column boxed;
  boxed.Append(Value::MakeTuple({I(1)}));
  std::vector<uint8_t> live(1, 1);
  EXPECT_FALSE(ApplyFilterKernel(BinOp::kLt, I(5), boxed, &live));
  EXPECT_EQ(live[0], 1);

  Column ints;
  ints.Append(I(1));
  EXPECT_FALSE(ApplyFilterKernel(BinOp::kAnd, I(1), ints, &live));
  EXPECT_FALSE(ApplyFilterKernel(BinOp::kLt, S("str"), ints, &live));
}

TEST(ColumnBatchTest, CompactPreservesSurvivorOrderForEveryTag) {
  std::mt19937_64 rng(11);
  for (int shape = 0; shape < 5; ++shape) {
    ColumnBatch batch;
    for (int i = 0; i < 17; ++i) {
      switch (shape) {
        case 0: batch.values.Append(I(i * 11 - 40)); break;
        case 1: batch.values.Append(D(i * 0.75)); break;
        case 2: batch.values.Append(S(StrCat("w", i % 5))); break;
        case 3: batch.values.Append(Value::MakeBool(i % 3 == 0)); break;
        default:
          batch.pairs = true;
          batch.keys.push_back(I(i % 4));
          batch.values.Append(i % 2 == 0 ? I(i) : S("mixed"));  // boxed
          break;
      }
    }
    std::vector<uint8_t> live(batch.size());
    ValueVec survivors;
    ValueVec surviving_keys;
    for (size_t i = 0; i < live.size(); ++i) {
      live[i] = rng() % 3 != 0 ? 1 : 0;
      if (live[i]) {
        if (batch.pairs) surviving_keys.push_back(batch.keys[i]);
        survivors.push_back(batch.RowAt(i));
      }
    }
    batch.Compact(live);
    ASSERT_EQ(batch.size(), survivors.size()) << "shape " << shape;
    for (size_t i = 0; i < survivors.size(); ++i) {
      EXPECT_EQ(batch.RowAt(i), survivors[i])
          << "shape " << shape << " row " << i;
    }
  }
}

/// Reference boxed reduceByKey fold: insertion-ordered accumulator,
/// combined with EvalBinOp in arrival order, canonicalized by key.
ValueVec BoxedReduce(BinOp op, const ValueVec& rows) {
  KeyedAccumulator<Value> acc;
  for (const Value& row : rows) {
    const Value& key = row.tuple()[0];
    auto ref = acc.FindOrCreate(key.Hash(), key);
    if (ref.inserted) {
      ref.payload = row.tuple()[1];
    } else {
      ref.payload = *EvalBinOp(op, ref.payload, row.tuple()[1]);
    }
  }
  acc.SortByKey();
  ValueVec out;
  for (const auto& e : acc.entries()) {
    out.push_back(Value::MakePair(e.key, e.payload));
  }
  return out;
}

TEST(TypedReduceAccumulatorTest, MidStreamSpillMatchesAllBoxedFold) {
  for (BinOp op : {BinOp::kAdd, BinOp::kMul, BinOp::kMin, BinOp::kMax}) {
    std::mt19937_64 rng(77);
    ValueVec rows;
    for (int i = 0; i < 120; ++i) {
      rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % 9)),
                                     I(1 + static_cast<int64_t>(rng() % 7))));
    }
    // Row 120 deviates: a double payload after an int-pinned stream.
    rows.push_back(Value::MakePair(I(3), D(2.5)));
    for (int i = 0; i < 40; ++i) {
      rows.push_back(
          Value::MakePair(I(static_cast<int64_t>(rng() % 9)),
                          D(static_cast<double>(rng() % 30) * 0.5)));
    }

    TypedReduceAccumulator typed(op, 16);
    size_t i = 0;
    for (; i < rows.size(); ++i) {
      if (!typed.Add(rows[i])) break;
    }
    // The deviating row bounced WITHOUT being consumed.
    ASSERT_EQ(i, 120u) << BinOpName(op);
    EXPECT_EQ(typed.rows(), 120u);
    KeyedAccumulator<Value> acc;
    typed.SpillTo(&acc);
    for (; i < rows.size(); ++i) {
      const Value& key = rows[i].tuple()[0];
      auto ref = acc.FindOrCreate(key.Hash(), key);
      if (ref.inserted) {
        ref.payload = rows[i].tuple()[1];
      } else {
        ref.payload = *EvalBinOp(op, ref.payload, rows[i].tuple()[1]);
      }
    }
    acc.SortByKey();
    ValueVec got;
    for (const auto& e : acc.entries()) {
      got.push_back(Value::MakePair(e.key, e.payload));
    }
    EXPECT_EQ(got, BoxedReduce(op, rows)) << BinOpName(op);
  }
}

TEST(TypedReduceAccumulatorTest, StringKeysEmitSortedWithCachedHashes) {
  std::mt19937_64 rng(5);
  ValueVec rows;
  for (int i = 0; i < 200; ++i) {
    rows.push_back(Value::MakePair(S("key" + std::to_string(rng() % 13)),
                                   D(static_cast<double>(rng() % 40) * 0.25)));
  }
  TypedReduceAccumulator typed(BinOp::kAdd, 8);
  for (const Value& row : rows) ASSERT_TRUE(typed.Add(row));
  EXPECT_EQ(typed.size(), 13u);

  HashedVec hashed;
  typed.EmitSortedHashed(&hashed);
  ValueVec plain;
  typed.EmitSortedRows(&plain);
  ASSERT_EQ(hashed.size(), plain.size());
  const ValueVec expected = BoxedReduce(BinOp::kAdd, rows);
  ASSERT_EQ(plain.size(), expected.size());
  for (size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], expected[i]) << "row " << i;
    EXPECT_EQ(hashed[i].row, expected[i]) << "row " << i;
    EXPECT_EQ(hashed[i].hash, expected[i].tuple()[0].Hash()) << "row " << i;
  }
}

TEST(TypedFoldTest, MixedNumericFoldPromotesLikeBoxed) {
  // int → double promotion happens inside the fold, exactly like
  // NumericOp: no spill, and the result is bit-identical to the boxed
  // EvalBinOp fold in the same arrival order.
  for (BinOp op : {BinOp::kAdd, BinOp::kMul, BinOp::kMin, BinOp::kMax}) {
    ValueVec rows = {I(7), I(-2), I(5), D(0.5), D(12.0), I(3)};
    TypedFold fold(op);
    for (const Value& v : rows) ASSERT_TRUE(fold.Add(v)) << BinOpName(op);
    Value expected = rows[0];
    for (size_t j = 1; j < rows.size(); ++j) {
      expected = *EvalBinOp(op, expected, rows[j]);
    }
    EXPECT_EQ(fold.Result(), expected) << BinOpName(op);
    EXPECT_EQ(fold.rows(), rows.size());
  }
}

TEST(TypedFoldTest, NonNumericRowSpillsWithoutConsuming) {
  ValueVec rows = {I(7), I(-2), S("spill"), I(5)};
  TypedFold fold(BinOp::kAdd);
  size_t i = 0;
  for (; i < rows.size(); ++i) {
    if (!fold.Add(rows[i])) break;
  }
  ASSERT_EQ(i, 2u);  // the string bounced, unconsumed
  ASSERT_FALSE(fold.empty());
  EXPECT_EQ(fold.rows(), 2u);
  Value acc = fold.Result();
  EXPECT_EQ(acc, I(5));
  // The boxed continuation sees the deviating row itself: string
  // concatenation via '+' would error on int + string exactly as the
  // all-boxed fold would, so semantics stay aligned.
  EXPECT_FALSE(EvalBinOp(BinOp::kAdd, acc, rows[i]).ok());
}

// ---------------------------------------------------------------------
// Engine-level property: the typed fast paths are byte-identical to the
// boxed per-row semantics, which the sequential oracles spell out with
// plain loops (tests/engine_workloads.h, tests/seq_oracle.h). The
// workloads are the three shared ones plus KernelChains below.

/// Fully-kernelized fused chains plus typed shuffle/reduce: the
/// workload that drives every columnar fast path at once. Input rows
/// are (int64 key, double value) pairs.
StatusOr<ValueVec> KernelChains(Engine& engine, const ValueVec& rows) {
  Dataset ds = engine.Parallelize(rows);
  // Paired chain over the value column: every op carries a kernel, so
  // under columnar the whole chain runs as batch kernels in Force.
  DIABLO_ASSIGN_OR_RETURN(Dataset a, engine.MapValues(ds, BinOp::kMul, D(2.0)));
  DIABLO_ASSIGN_OR_RETURN(a, engine.FilterValues(a, BinOp::kLt, D(60.0)));
  DIABLO_ASSIGN_OR_RETURN(a, engine.MapValues(a, BinOp::kAdd, D(1.0)));
  DIABLO_ASSIGN_OR_RETURN(a, engine.Force(a));
  DIABLO_ASSIGN_OR_RETURN(ValueVec out, engine.Collect(a));
  // Typed combine + reduce through the shuffle (double payloads).
  DIABLO_ASSIGN_OR_RETURN(Dataset sums, engine.ReduceByKey(a, BinOp::kAdd));
  DIABLO_ASSIGN_OR_RETURN(ValueVec sum_rows, engine.Collect(sums));
  // Scalar (non-pair) chain over int64 keys.
  DIABLO_ASSIGN_OR_RETURN(
      Dataset keys, engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
        return v.tuple()[0];
      }));
  DIABLO_ASSIGN_OR_RETURN(keys, engine.Force(keys));
  DIABLO_ASSIGN_OR_RETURN(Dataset scaled, engine.Map(keys, BinOp::kMul, I(3)));
  DIABLO_ASSIGN_OR_RETURN(scaled, engine.Filter(scaled, BinOp::kNe, I(12)));
  DIABLO_ASSIGN_OR_RETURN(scaled, engine.Map(scaled, BinOp::kAdd, I(100)));
  DIABLO_ASSIGN_OR_RETURN(scaled, engine.Force(scaled));
  DIABLO_ASSIGN_OR_RETURN(ValueVec scaled_rows, engine.Collect(scaled));
  // Typed scalar fold.
  DIABLO_ASSIGN_OR_RETURN(auto total, engine.Reduce(scaled, BinOp::kAdd));
  out.insert(out.end(), sum_rows.begin(), sum_rows.end());
  out.insert(out.end(), scaled_rows.begin(), scaled_rows.end());
  if (total.has_value()) out.push_back(*total);
  return out;
}

/// KernelChains' oracle: both chains applied row by row to each
/// Parallelize chunk (a Force keeps the chunks as its partitions).
ValueVec KernelChainsOracle(const ValueVec& rows, int parts) {
  std::vector<ValueVec> paired = oracle::Chunks(rows, parts);
  std::vector<ValueVec> scaled = paired;
  for (ValueVec& chunk : paired) {
    ValueVec kept;
    for (const Value& row : chunk) {
      const Value v = oracle::Apply(BinOp::kMul, row.tuple()[1], D(2.0));
      if (!oracle::Apply(BinOp::kLt, v, D(60.0)).AsBool()) continue;
      kept.push_back(Value::MakePair(
          row.tuple()[0], oracle::Apply(BinOp::kAdd, v, D(1.0))));
    }
    chunk = std::move(kept);
  }
  for (ValueVec& chunk : scaled) {
    ValueVec kept;
    for (const Value& row : chunk) {
      const Value v = oracle::Apply(BinOp::kMul, row.tuple()[0], I(3));
      if (!oracle::Apply(BinOp::kNe, v, I(12)).AsBool()) continue;
      kept.push_back(oracle::Apply(BinOp::kAdd, v, I(100)));
    }
    chunk = std::move(kept);
  }
  ValueVec out = oracle::Concat(paired);
  const ValueVec sums =
      oracle::PairLayout(oracle::ReduceByKey(paired, BinOp::kAdd), parts);
  const ValueVec scaled_rows = oracle::Concat(scaled);
  out.insert(out.end(), sums.begin(), sums.end());
  out.insert(out.end(), scaled_rows.begin(), scaled_rows.end());
  if (auto total = oracle::Reduce(scaled, BinOp::kAdd)) out.push_back(*total);
  return out;
}

/// Workload index of KernelChains, after the shared workloads.
constexpr int kKernelChains = workloads::kNumWorkloads;

StatusOr<ValueVec> RunWorkload(Engine& engine, int which,
                               const ValueVec& rows) {
  if (which == kKernelChains) return KernelChains(engine, rows);
  return workloads::RunWorkload(engine, which, rows);
}

ValueVec WorkloadOracle(int which, const ValueVec& rows, int parts) {
  if (which == kKernelChains) return KernelChainsOracle(rows, parts);
  return workloads::WorkloadOracle(which, rows, parts);
}

ValueVec WorkloadInput(int which, std::mt19937_64& rng) {
  if (which != kKernelChains) return workloads::WorkloadInput(which, rng);
  ValueVec rows;
  const int n = 200 + static_cast<int>(rng() % 200);
  for (int i = 0; i < n; ++i) {
    rows.push_back(
        Value::MakePair(I(static_cast<int64_t>(rng() % 17)),
                        D(static_cast<double>(rng() % 500) / 8.0 - 20.0)));
  }
  return rows;
}

TEST(ColumnarProperty, ColumnarMatchesBoxedByteForByte) {
  for (int which = 0; which <= kKernelChains; ++which) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      std::mt19937_64 rng(seed * 7919 + which + 1);
      ValueVec rows = WorkloadInput(which, rng);
      const int parts = 1 + static_cast<int>(rng() % 12);
      const ValueVec want = WorkloadOracle(which, rows, parts);
      for (int host_threads : {1, 4}) {
        EngineConfig config;
        config.num_partitions = parts;
        config.host_threads = host_threads;
        Engine engine(config);
        auto out = RunWorkload(engine, which, rows);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        EXPECT_EQ(*out, want) << "workload " << which << " seed " << seed
                              << " threads " << host_threads;
      }
    }
  }
}

TEST(ColumnarProperty, CountersReportTypedExecution) {
  std::mt19937_64 rng(2026);
  ValueVec rows = WorkloadInput(kKernelChains, rng);
  EngineConfig config;
  config.host_threads = 2;
  Engine engine(config);
  auto out = RunWorkload(engine, kKernelChains, rows);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  // Fused chains, shuffle scatters, typed combines and the typed fold
  // all count batches; nothing in this workload needs to fall back.
  EXPECT_GT(engine.metrics().total_columnar_batches(), 0);
  EXPECT_EQ(engine.metrics().total_columnar_rows_fallback(), 0);
}

// The boxed legs of the typed fast paths: data that does not columnarize
// must reach each fallback (counted in columnar_rows_fallback) and still
// produce the oracle's bytes.

TEST(ColumnarProperty, HeterogeneousRowsFallBackAndStayIdentical) {
  // Mixed int/double values demote the batch column of the kernelized
  // fused chain to boxed mid-stream: the chain must replay per-row.
  ValueVec rows;
  std::mt19937_64 rng(31);
  for (int i = 0; i < 300; ++i) {
    const Value v = i % 3 == 0 ? I(static_cast<int64_t>(rng() % 50))
                               : D(static_cast<double>(rng() % 50) * 0.5);
    rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % 7)), v));
  }
  ValueVec want;
  for (const Value& row : rows) {
    const Value v = oracle::Apply(BinOp::kMul, row.tuple()[1], D(2.0));
    if (oracle::Apply(BinOp::kGe, v, D(3.0)).AsBool()) {
      want.push_back(Value::MakePair(row.tuple()[0], v));
    }
  }
  Engine engine;
  auto a = engine.MapValues(engine.Parallelize(rows), BinOp::kMul, D(2.0));
  ASSERT_TRUE(a.ok());
  auto b = engine.FilterValues(*a, BinOp::kGe, D(3.0));
  ASSERT_TRUE(b.ok());
  auto forced = engine.Force(*b);
  ASSERT_TRUE(forced.ok());
  auto out = engine.Collect(*forced);
  ASSERT_TRUE(out.ok());
  ASSERT_FALSE(out->empty());
  EXPECT_EQ(*out, want);
  EXPECT_GT(engine.metrics().total_columnar_rows_fallback(), 0);
}

TEST(ColumnarProperty, TupleKeyScatterFallsBackToBoxedHashing) {
  // Each partition starts with int keys and turns to (int, int) tuple
  // keys: the vectorized scatter's key column demotes to boxed and
  // hashes row by row, with every row still in its hash partition.
  ValueVec rows;
  for (int64_t i = 0; i < 400; ++i) {
    const Value key = i % 50 < 20 ? I(i % 13)
                                  : Value::MakeTuple({I(i % 5), I(i % 3)});
    rows.push_back(Value::MakePair(key, I(i)));
  }
  Engine engine;
  const int parts = engine.config().num_partitions;
  auto grouped = engine.GroupByKey(engine.Parallelize(rows));
  ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
  auto out = engine.Collect(*grouped);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, oracle::BagLayout(oracle::GroupByKey(rows), parts));
  EXPECT_GT(engine.metrics().total_columnar_rows_fallback(), 0);
}

TEST(ColumnarProperty, TypedCombineSpillsOnStringPayload) {
  // Int payloads first, then string payloads on other keys: the typed
  // combine accumulator spills to the boxed one mid-partition, and the
  // string concatenations keep their arrival order.
  ValueVec rows;
  for (int64_t i = 0; i < 480; ++i) {
    rows.push_back(i % 60 < 40
                       ? Value::MakePair(I(i % 9), I(i))
                       : Value::MakePair(I(100 + i % 4),
                                         S(StrCat("s", i))));
  }
  Engine engine;
  const int parts = engine.config().num_partitions;
  auto sums = engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(sums.ok()) << sums.status().ToString();
  auto out = engine.Collect(*sums);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out,
            oracle::PairLayout(
                oracle::ReduceByKey(oracle::Chunks(rows, parts), BinOp::kAdd),
                parts));
  EXPECT_GT(engine.metrics().total_columnar_rows_fallback(), 0);
}

TEST(ColumnarProperty, TypedFoldSpillsOnTupleRows) {
  // (sum, count) tuples — the K-means average monoid — are no typed
  // numeric kind: every partition's fold spills and folds elementwise
  // through the boxed operator.
  ValueVec rows;
  for (int64_t i = 0; i < 300; ++i) {
    rows.push_back(Value::MakeTuple({D(0.25 * static_cast<double>(i)), I(1)}));
  }
  Engine engine;
  const int parts = engine.config().num_partitions;
  auto total = engine.Reduce(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(total.ok()) << total.status().ToString();
  EXPECT_EQ(*total, oracle::Reduce(oracle::Chunks(rows, parts), BinOp::kAdd));
  EXPECT_GT(engine.metrics().total_columnar_rows_fallback(), 0);
}

TEST(ColumnarProperty, ColumnarUnderFaultsMatchesBoxedFaultFree) {
  // Fault schedules key off (stage id, partition, attempt, row index) —
  // coordinates the execution strategy does not change — so injected
  // task failures and shuffle corruption must never produce an answer
  // other than the fault-free oracle's. serialize_shuffles drives every
  // shuffled row (and every columnar batch tally) through the wire
  // codec.
  for (int which = 0; which <= kKernelChains; ++which) {
    for (uint64_t seed = 0; seed < 3; ++seed) {
      std::mt19937_64 rng(seed * 2741 + which + 11);
      ValueVec rows = WorkloadInput(which, rng);

      EngineConfig faulty_config;
      faulty_config.host_threads = 4;
      faulty_config.faults.seed = seed + 17;
      faulty_config.faults.task_failure_rate = 0.08;
      faulty_config.faults.corrupt_shuffle_rate = 0.01;
      faulty_config.faults.max_task_attempts = 12;
      faulty_config.serialize_shuffles = true;
      Engine faulty(faulty_config);
      auto got = RunWorkload(faulty, which, rows);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got,
                WorkloadOracle(which, rows, faulty_config.num_partitions))
          << "workload " << which << " seed " << seed;
    }
  }
}

TEST(ColumnarProperty, LostPartitionRecoveryReplaysColumnarStages) {
  // Deterministic lost-partition directives drive the recompute_many
  // closures behind every columnar stage — including the boxed replay
  // closure the columnar Force registers — and the rebuilt partitions
  // must be byte-identical to the oracle.
  std::mt19937_64 rng(4242);
  ValueVec rows = WorkloadInput(kKernelChains, rng);
  const ValueVec expected =
      WorkloadOracle(kKernelChains, rows, EngineConfig().num_partitions);

  int64_t fired = 0;
  for (int stage = 0; stage < 8; ++stage) {
    EngineConfig config;
    config.faults.lose_partitions.push_back({stage, 2, 0});
    Engine engine(config);
    auto got = RunWorkload(engine, kKernelChains, rows);
    ASSERT_TRUE(got.ok()) << "stage " << stage << ": "
                          << got.status().ToString();
    EXPECT_EQ(*got, expected) << "stage " << stage;
    fired += engine.metrics().total_recomputed_partitions();
  }
  EXPECT_GE(fired, 3);
}

// ---------------------------------------------------------------------
// Distributed: columnar batches genuinely cross the wire, survive real
// worker kills, and still match the oracle.

std::string Bytes(const ValueVec& rows) {
  std::string out;
  for (const Value& v : rows) out += Serialize(v);
  return out;
}

TEST(ColumnarDistTest, ColumnarOverWorkersMatchesBoxedLocal) {
  std::mt19937_64 rng(606);
  ValueVec rows = WorkloadInput(kKernelChains, rng);

  dist::DistConfig dist_config;
  dist_config.num_workers = 2;
  dist_config.heartbeat_ms = 50;
  dist::Coordinator coordinator(dist_config);
  EngineConfig config;
  config.remote = &coordinator;
  config.dist_lose_on_kill = true;
  Engine dist(config);
  auto got = RunWorkload(dist, kKernelChains, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(WorkloadOracle(kKernelChains, rows,
                                               config.num_partitions)));
  EXPECT_GT(dist.metrics().total_dist_tasks(), 0);
  // The batch tallies made the round trip from the forked workers.
  EXPECT_GT(dist.metrics().total_columnar_batches(), 0);
}

TEST(ColumnarDistTest, SurvivesChaosKillsWithIdenticalOutput) {
  std::mt19937_64 rng(607);
  ValueVec rows = WorkloadInput(kKernelChains, rng);

  // Two SIGKILLs mid-wave: redistribute, re-dispatch and lineage
  // recovery all replay columnar stages on the survivors.
  dist::DistConfig dist_config;
  dist_config.num_workers = 3;
  dist_config.heartbeat_ms = 50;
  dist_config.chaos.kills.push_back({/*stage=*/1, /*worker=*/0, 0});
  dist_config.chaos.kills.push_back({/*stage=*/4, /*worker=*/1, 1});
  dist::Coordinator coordinator(dist_config);
  EngineConfig config;
  config.remote = &coordinator;
  config.dist_lose_on_kill = true;
  Engine dist(config);
  auto got = RunWorkload(dist, kKernelChains, rows);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(*got), Bytes(WorkloadOracle(kKernelChains, rows,
                                               config.num_partitions)));
  EXPECT_EQ(coordinator.chaos_kills(), 2);
  EXPECT_GE(dist.metrics().total_dist_workers_lost(), 2);
}

}  // namespace
}  // namespace diablo::runtime
