// Narrow-stage fusion property tests: randomized chains of narrow
// operators terminated by a random action, fused into the next stage
// boundary, must produce byte-identical results to a sequential oracle
// that applies each operator eagerly, one row at a time
// (tests/seq_oracle.h) — and, with fault injection on top, a fused run
// that completes must still equal the fault-free run exactly. Also
// checks the fused-stage observability metrics.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "runtime/engine.h"
#include "runtime/fault.h"
#include "tests/seq_oracle.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }

ValueVec RandomPairs(std::mt19937_64& rng, int n, int keys) {
  ValueVec rows;
  rows.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    rows.push_back(Value::MakePair(
        I(static_cast<int64_t>(rng() % keys)),
        D(static_cast<double>(rng() % 1000) / 7.0 - 50.0)));
  }
  return rows;
}

// The four narrow operators of the random programs, over (int, double)
// pairs. The engine and the oracle call the exact same functions, so any
// divergence comes from execution strategy, never from the program.
StatusOr<Value> MapRow(const Value& v) {
  return Value::MakePair(v.tuple()[0],
                         D(v.tuple()[1].AsDouble() * 1.25 +
                           static_cast<double>(v.tuple()[0].AsInt())));
}
StatusOr<Value> MapValue(const Value& v) { return D(v.AsDouble() * 0.5 - 3.0); }
StatusOr<bool> KeepRow(const Value& v) {
  return v.tuple()[1].AsDouble() > -40.0;
}
StatusOr<ValueVec> FlatMapRow(const Value& v) {
  ValueVec out{v};
  if (v.tuple()[0].AsInt() % 2 == 0) {
    out.push_back(
        Value::MakePair(v.tuple()[0], D(v.tuple()[1].AsDouble() + 1.0)));
  }
  return out;
}

/// A program drawn from (op codes, terminal code): a chain of narrow
/// operators over (int, double) pairs followed by one action.
StatusOr<ValueVec> RunProgram(Engine& engine, const ValueVec& rows,
                              const std::vector<int>& ops, int terminal) {
  Dataset cur = engine.Parallelize(rows);
  for (int op : ops) {
    StatusOr<Dataset> next = op % 4 == 0   ? engine.Map(cur, MapRow)
                             : op % 4 == 1 ? engine.MapValues(cur, MapValue)
                             : op % 4 == 2 ? engine.Filter(cur, KeepRow)
                                           : engine.FlatMap(cur, FlatMapRow);
    DIABLO_ASSIGN_OR_RETURN(cur, std::move(next));
  }
  switch (terminal % 6) {
    case 0:
      return engine.Collect(cur);
    case 1: {
      DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                              engine.ReduceByKey(cur, BinOp::kAdd));
      return engine.Collect(sums);
    }
    case 2: {
      DIABLO_ASSIGN_OR_RETURN(Dataset grouped, engine.GroupByKey(cur));
      return engine.Collect(grouped);
    }
    case 3: {
      DIABLO_ASSIGN_OR_RETURN(Dataset ckpt, engine.Checkpoint(cur));
      return engine.Collect(ckpt);
    }
    case 4: {
      // Join the (still lazy) stream with its own per-key sums: both
      // shuffle scatters inline their pending chains.
      DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                              engine.ReduceByKey(cur, BinOp::kAdd));
      DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(cur, sums));
      return engine.Collect(joined);
    }
    default: {
      // Pairwise (elementwise) fold of every row; wrap into a vec.
      auto total = engine.Reduce(cur, [](const Value& a, const Value& b) {
        return EvalBinOp(BinOp::kAdd, a, b);
      });
      if (!total.ok()) return total.status();
      return total->has_value() ? ValueVec{**total} : ValueVec{};
    }
  }
}

/// The same program evaluated by the sequential oracle: every operator
/// runs eagerly over each input chunk, row by row.
ValueVec OracleProgram(const ValueVec& rows, int parts,
                       const std::vector<int>& ops, int terminal) {
  std::vector<ValueVec> chunks = oracle::Chunks(rows, parts);
  for (int op : ops) {
    for (ValueVec& chunk : chunks) {
      ValueVec next;
      for (const Value& v : chunk) {
        switch (op % 4) {
          case 0:
            next.push_back(*MapRow(v));
            break;
          case 1:
            next.push_back(Value::MakePair(v.tuple()[0],
                                           *MapValue(v.tuple()[1])));
            break;
          case 2:
            if (*KeepRow(v)) next.push_back(v);
            break;
          default: {
            const ValueVec outs = *FlatMapRow(v);
            next.insert(next.end(), outs.begin(), outs.end());
            break;
          }
        }
      }
      chunk = std::move(next);
    }
  }
  const ValueVec flat = oracle::Concat(chunks);
  switch (terminal % 6) {
    case 0:
    case 3:
      return flat;
    case 1:
      return oracle::PairLayout(oracle::ReduceByKey(chunks, BinOp::kAdd),
                                parts);
    case 2:
      return oracle::BagLayout(oracle::GroupByKey(flat), parts);
    case 4:
      return oracle::JoinLayout(oracle::GroupByKey(flat),
                                oracle::ReduceByKey(chunks, BinOp::kAdd),
                                parts);
    default: {
      std::optional<Value> total = oracle::Reduce(chunks, BinOp::kAdd);
      return total.has_value() ? ValueVec{*total} : ValueVec{};
    }
  }
}

TEST(FusionProperty, FusedMatchesEagerByteForByte) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    std::mt19937_64 rng(seed * 7919 + 1);
    ValueVec rows = RandomPairs(rng, 50 + static_cast<int>(rng() % 350),
                                1 + static_cast<int>(rng() % 19));
    std::vector<int> ops(rng() % 6);
    for (int& op : ops) op = static_cast<int>(rng() % 4);
    int terminal = static_cast<int>(rng() % 6);

    EngineConfig config;
    config.num_partitions = 1 + static_cast<int>(rng() % 12);
    Engine fused(config);
    auto fused_out = RunProgram(fused, rows, ops, terminal);
    ASSERT_TRUE(fused_out.ok()) << fused_out.status().ToString();
    EXPECT_EQ(*fused_out,
              OracleProgram(rows, config.num_partitions, ops, terminal))
        << "seed " << seed << ", " << ops.size() << " ops, terminal "
        << terminal;
  }
}

TEST(FusionProperty, FusedUnderFaultsMatchesFaultFree) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    std::mt19937_64 rng(seed * 104729 + 3);
    ValueVec rows = RandomPairs(rng, 100 + static_cast<int>(rng() % 200),
                                1 + static_cast<int>(rng() % 13));
    std::vector<int> ops(1 + rng() % 5);
    for (int& op : ops) op = static_cast<int>(rng() % 4);
    int terminal = static_cast<int>(rng() % 6);

    EngineConfig clean_config;
    Engine clean(clean_config);
    auto expected = RunProgram(clean, rows, ops, terminal);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    EngineConfig faulty_config;
    faulty_config.faults.seed = seed + 1;
    faulty_config.faults.task_failure_rate = 0.1;
    faulty_config.faults.straggler_rate = 0.05;
    faulty_config.faults.max_task_attempts = 10;
    Engine faulty(faulty_config);
    auto got = RunProgram(faulty, rows, ops, terminal);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    // Bit-identical: a restarted attempt reruns the whole fused chain
    // for its partition, so recovery can never change results.
    EXPECT_EQ(*got, *expected) << "seed " << seed;
  }
}

TEST(FusionProperty, LostPartitionsReplayTheChain) {
  // Deterministic lost-partition directives against a fused pipeline:
  // the rebuilt partitions flow through the same single-pass scatter.
  std::mt19937_64 rng(99);
  ValueVec rows = RandomPairs(rng, 400, 17);
  std::vector<int> ops = {3, 2, 0};  // flatMap, filter, map
  auto run = [&](EngineConfig config) {
    Engine engine(config);
    auto out = RunProgram(engine, rows, ops, /*terminal=*/1);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return std::make_pair(out.ok() ? *out : ValueVec{},
                          engine.metrics().total_recomputed_partitions());
  };
  auto [expected, clean_recomputed] = run(EngineConfig{});
  EXPECT_EQ(clean_recomputed, 0);
  EngineConfig config;
  // Stage 0 is the reduceByKey combine wave over the fused chain: its
  // source partitions are durable (parallelized input), so losing one
  // forces a durable re-read followed by a full chain replay.
  config.faults.lose_partitions.push_back({0, 1, 0});
  auto [got, recomputed] = run(config);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(recomputed, 1);
}

TEST(FusionMetrics, FusedStagesReportSavedMaterialization) {
  Engine engine;
  ValueVec rows;
  for (int i = 0; i < 1000; ++i) {
    rows.push_back(Value::MakePair(I(i % 10), D(i * 0.25)));
  }
  Dataset ds = engine.Parallelize(rows);
  auto expanded = engine.FlatMap(
      ds, [](const Value& v) -> StatusOr<ValueVec> { return ValueVec{v, v}; });
  ASSERT_TRUE(expanded.ok());
  auto kept =
      engine.Filter(*expanded, [](const Value& v) -> StatusOr<bool> {
        return v.tuple()[1].AsDouble() < 200.0;
      });
  ASSERT_TRUE(kept.ok());
  auto scaled = engine.MapValues(
      *kept, [](const Value& v) -> StatusOr<Value> {
        return D(v.AsDouble() * 2.0);
      });
  ASSERT_TRUE(scaled.ok());
  // Nothing ran yet: narrow operators defer.
  EXPECT_EQ(engine.metrics().stages().size(), 0u);
  EXPECT_FALSE(scaled->materialized());
  EXPECT_EQ(scaled->chain().size(), 3u);

  auto sums = engine.ReduceByKey(*scaled, BinOp::kAdd);
  ASSERT_TRUE(sums.ok());
  // The combine wave inlined all three operators and accounted for the
  // intermediate rows it never built.
  EXPECT_EQ(engine.metrics().total_fused_ops(), 3);
  EXPECT_GT(engine.metrics().total_rows_not_materialized(), 0);
  EXPECT_GT(engine.metrics().total_bytes_not_materialized(), 0);
  const StageStats& stage = engine.metrics().stages().front();
  EXPECT_NE(stage.label.find("flatMap+filter+mapValues"), std::string::npos)
      << stage.label;
}

}  // namespace
}  // namespace diablo::runtime
