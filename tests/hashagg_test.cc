// Hash-aggregation and worker-pool property tests.
//
// The engine's wide operators aggregate through the open-addressing
// KeyedAccumulator. The contract: results match an ordered std::map
// fold computed sequentially by the test (tests/seq_oracle.h) for every
// workload, partition count, host thread count and fault schedule —
// hash-table iteration order must never be observable. The persistent
// work-stealing pool carries a matching contract: every index runs
// exactly once and a failing wave reports the error of the
// lowest-indexed failing task no matter how many threads raced.

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "common/strings.h"
#include "runtime/engine.h"
#include "runtime/fault.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/worker_pool.h"
#include "tests/engine_workloads.h"
#include "tests/seq_oracle.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value S(const std::string& v) { return Value::MakeString(v); }

// ---------------------------------------------------------------------
// KeyedAccumulator unit tests.

TEST(KeyedAccumulator, FindOrCreateGroupsAndGrows) {
  // Start far below the final key count so Grow() runs several times;
  // growth must keep every cached-hash bucket reachable.
  KeyedAccumulator<int64_t> acc(/*expected_keys=*/0);
  for (int64_t i = 0; i < 500; ++i) {
    const Value key = I(i % 101);
    auto ref = acc.FindOrCreate(key.Hash(), key);
    if (ref.inserted) ref.payload = 0;
    ref.payload += 1;
  }
  EXPECT_EQ(acc.size(), 101u);
  for (int64_t k = 0; k < 101; ++k) {
    const Value key = I(k);
    int64_t* count = acc.Find(key.Hash(), key);
    ASSERT_NE(count, nullptr) << "key " << k;
    // 500 draws over 101 keys: keys 0..95 appear 5 times, the rest 4.
    EXPECT_EQ(*count, k < 96 ? 5 : 4) << "key " << k;
  }
  const Value absent = I(101);
  EXPECT_EQ(acc.Find(absent.Hash(), absent), nullptr);
}

TEST(KeyedAccumulator, SortByKeyCanonicalizesAndStaysUsable) {
  KeyedAccumulator<int64_t> acc;
  std::mt19937_64 rng(7);
  std::vector<int64_t> keys{9, 3, 14, 0, 7, 11, 2};
  std::shuffle(keys.begin(), keys.end(), rng);
  for (int64_t k : keys) {
    const Value key = I(k);
    acc.FindOrCreate(key.Hash(), key).payload = k * 10;
  }
  acc.SortByKey();
  std::sort(keys.begin(), keys.end());
  ASSERT_EQ(acc.entries().size(), keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(acc.entries()[i].key, I(keys[i]));
  }
  // The probe table is rebuilt after the sort: lookups still hit.
  for (int64_t k : keys) {
    const Value key = I(k);
    int64_t* payload = acc.Find(key.Hash(), key);
    ASSERT_NE(payload, nullptr);
    EXPECT_EQ(*payload, k * 10);
  }
}

TEST(KeyedAccumulator, StructuralKeysCompareByValueNotHash) {
  // Tuple keys exercise the equality fallback behind the hash compare.
  KeyedAccumulator<ValueVec> acc;
  for (int round = 0; round < 3; ++round) {
    for (int64_t a = 0; a < 8; ++a) {
      const Value key = Value::MakePair(I(a), S(StrCat("k", a % 3)));
      acc.FindOrCreate(key.Hash(), key).payload.push_back(I(round));
    }
  }
  EXPECT_EQ(acc.size(), 8u);
  for (auto& e : acc.entries()) EXPECT_EQ(e.payload.size(), 3u);
}

/// Mean slots a lookup inspects over `keys`, after inserting them all.
double MeanProbeLength(const ValueVec& keys) {
  KeyedAccumulator<int64_t> acc;
  for (const Value& k : keys) acc.FindOrCreate(k.Hash(), k).payload += 1;
  EXPECT_EQ(acc.size(), keys.size());
  size_t probes = 0;
  for (const Value& k : keys) probes += acc.ProbeLength(k.Hash(), k);
  return static_cast<double>(probes) / static_cast<double>(keys.size());
}

TEST(KeyedAccumulator, MatrixIndexKeysProbeShortRuns) {
  // The paper's matrices key by (i,j): 9,216 keys for a 96x96 matrix.
  // Value::Hash combines small-int hashes boost-style, so their raw
  // hashes are dense in the low bits, and the keys a 16-way scatter
  // sends to one destination (hash % 16 fixed) also share their low
  // four bits. The probe slot comes from the remixed hash, so both the
  // whole grid in one table and each destination's table stay at a few
  // probes per lookup; cutting the raw hash gave dozens to hundreds.
  constexpr int64_t kN = 96;
  constexpr size_t kDestinations = 16;
  ValueVec grid;
  std::vector<ValueVec> by_destination(kDestinations);
  for (int64_t i = 0; i < kN; ++i) {
    for (int64_t j = 0; j < kN; ++j) {
      Value key = Value::MakePair(I(i), I(j));
      by_destination[key.Hash() % kDestinations].push_back(key);
      grid.push_back(std::move(key));
    }
  }
  EXPECT_LT(MeanProbeLength(grid), 3.0);
  for (size_t d = 0; d < kDestinations; ++d) {
    EXPECT_LT(MeanProbeLength(by_destination[d]), 3.0) << "destination " << d;
  }
}

// ---------------------------------------------------------------------
// WorkerPool unit tests.

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(4);
  for (int wave = 0; wave < 20; ++wave) {
    const int n = 1 + wave * 37;
    std::vector<std::atomic<int>> hits(n);
    for (auto& h : hits) h.store(0);
    Status st = pool.Run(n, [&](int i) -> Status {
      hits[i].fetch_add(1);
      return Status::OK();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "wave " << wave << " index " << i;
    }
  }
}

TEST(WorkerPool, ReportsLowestIndexedError) {
  // Two failing indices; the higher one sits in the range a different
  // worker owns, so with naive first-error reporting the winner would
  // depend on thread timing. The pool must always report index 3.
  for (int threads : {1, 2, 4, 8}) {
    WorkerPool pool(threads);
    for (int rep = 0; rep < 25; ++rep) {
      Status st = pool.Run(64, [&](int i) -> Status {
        if (i == 3 || i == 60) {
          return Status::RuntimeError("task " + std::to_string(i));
        }
        return Status::OK();
      });
      ASSERT_FALSE(st.ok());
      EXPECT_EQ(st.message(), "task 3") << "threads " << threads;
    }
  }
}

TEST(WorkerPool, EmptyAndUndersizedWaves) {
  WorkerPool pool(8);
  EXPECT_TRUE(pool.Run(0, [](int) { return Status::OK(); }).ok());
  // Fewer indices than workers: most ranges start empty and workers can
  // only find work by stealing.
  std::vector<std::atomic<int>> hits(3);
  for (auto& h : hits) h.store(0);
  Status st = pool.Run(3, [&](int i) -> Status {
    hits[i].fetch_add(1);
    return Status::OK();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(hits[i].load(), 1);
}

// ---------------------------------------------------------------------
// Engine-level property: hash aggregation matches the sequential
// ordered-map oracle across workloads and engine configurations.

// The three shared workloads (tests/engine_workloads.h), each checked
// against its sequential oracle byte for byte.
using workloads::RunWorkload;
using workloads::WorkloadInput;

void ExpectMatchesOracle(int which, const ValueVec& rows, int parts,
                         const ValueVec& got) {
  EXPECT_EQ(got, workloads::WorkloadOracle(which, rows, parts));
}

TEST(HashAggProperty, HashMatchesOrderedByteForByte) {
  // The ordered side is the sequential std::map oracle; the runs at 1
  // and 4 host threads must also agree with each other byte for byte.
  for (int which = 0; which < workloads::kNumWorkloads; ++which) {
    for (uint64_t seed = 0; seed < 6; ++seed) {
      std::mt19937_64 rng(seed * 6151 + which + 1);
      ValueVec rows = WorkloadInput(which, rng);
      const int parts = 1 + static_cast<int>(rng() % 12);
      std::optional<ValueVec> serial;
      for (int host_threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "workload " << which << " seed " << seed
                     << " threads " << host_threads);
        EngineConfig config;
        config.num_partitions = parts;
        config.host_threads = host_threads;
        Engine engine(config);
        auto out = RunWorkload(engine, which, rows);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        ExpectMatchesOracle(which, rows, parts, *out);
        if (serial.has_value()) {
          EXPECT_EQ(*out, *serial);
        } else {
          serial = *out;
        }
      }
    }
  }
}

TEST(HashAggProperty, HashUnderFaultsMatchesOrderedFaultFree) {
  // Fault schedules key off (stage id, partition, attempt, row index),
  // so a faulty run that completes must equal the fault-free run byte
  // for byte, and both must match the ordered sequential oracle.
  for (int which = 0; which < workloads::kNumWorkloads; ++which) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      std::mt19937_64 rng(seed * 2741 + which + 11);
      ValueVec rows = WorkloadInput(which, rng);

      Engine clean{EngineConfig()};
      auto expected = RunWorkload(clean, which, rows);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ExpectMatchesOracle(which, rows, clean.config().num_partitions,
                          *expected);

      for (int host_threads : {1, 4}) {
        EngineConfig faulty_config;
        faulty_config.host_threads = host_threads;
        faulty_config.faults.seed = seed + 17;
        faulty_config.faults.task_failure_rate = 0.08;
        faulty_config.faults.corrupt_shuffle_rate = 0.01;
        faulty_config.faults.max_task_attempts = 12;
        faulty_config.serialize_shuffles = true;
        Engine faulty(faulty_config);
        auto got = RunWorkload(faulty, which, rows);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, *expected)
            << "workload " << which << " seed " << seed << " threads "
            << host_threads;
      }
    }
  }
}

// Recovery mix: every wide operator reads its input through a pending
// map+filter chain, and every wide operator's output reaches a later
// stage through one, so losing a partition of that later stage's input
// replays the operator's lineage. The consumers are
//   sums (reduceByKey) and groups (groupByKey)  <- kept (source + chain)
//   joined (join)      <- groups, sums
//   cogrouped (coGroup) <- joined, sums
//   uniq (distinct)    <- cogrouped
//   final (fused map+filter) <- uniq
// `kinds` receives, per consumer label, the lineage kind of each input.
Value RecoveryRekey(const Value& row) {
  return Value::MakePair(I(row.tuple()[0].AsInt() % 17), row.tuple()[1]);
}
bool RecoveryKeep(const Value& row) {
  return row.tuple()[1].AsDouble() > -40.0;
}
// (k, Bag) -> (k, (bag size, Bag)): the bag's order stays observable.
Value RecoveryLeft(const Value& row) {
  const ValueVec& bag = row.tuple()[1].bag();
  return Value::MakePair(
      row.tuple()[0],
      Value::MakePair(I(static_cast<int64_t>(bag.size())), row.tuple()[1]));
}
bool RecoveryManyValues(const Value& row) {
  return row.tuple()[1].tuple()[0].AsInt() > 1;
}
Value RecoveryHalf(const Value& v) { return D(v.AsDouble() * 0.5); }
// (k, (left, right)) -> (k, right)
Value RecoveryJoinedRight(const Value& row) {
  return Value::MakePair(row.tuple()[0], row.tuple()[1].tuple()[1]);
}
Value RecoveryIdentity(const Value& row) { return row; }

StatusOr<ValueVec> RecoveryMix(
    Engine& engine, const ValueVec& rows,
    std::map<std::string, std::vector<std::string>>* kinds) {
  using Fn = Value (*)(const Value&);
  auto map = [&](const Dataset& in, Fn fn, const std::string& label) {
    return engine.Map(
        in, [fn](const Value& v) -> StatusOr<Value> { return fn(v); }, label);
  };
  auto filter = [&](const Dataset& in, bool (*pred)(const Value&),
                    const std::string& label) {
    return engine.Filter(
        in, [pred](const Value& v) -> StatusOr<bool> { return pred(v); },
        label);
  };
  auto drop_key = [&](const Dataset& in, int64_t key,
                      const std::string& label) {
    return engine.Filter(
        in,
        [key](const Value& v) -> StatusOr<bool> {
          return v.tuple()[0].AsInt() != key;
        },
        label);
  };
  auto note = [&](const std::string& consumer,
                  std::vector<const Dataset*> inputs) {
    for (const Dataset* in : inputs) {
      (*kinds)[consumer].push_back(in->lineage()->kind);
    }
  };
  Dataset ds = engine.Parallelize(rows);
  DIABLO_ASSIGN_OR_RETURN(Dataset kept, map(ds, RecoveryRekey, "m.rekey"));
  DIABLO_ASSIGN_OR_RETURN(kept, filter(kept, RecoveryKeep, "f.keep"));
  note("sums", {&kept});
  DIABLO_ASSIGN_OR_RETURN(Dataset sums,
                          engine.ReduceByKey(kept, BinOp::kAdd, "sums"));
  note("groups", {&kept});
  DIABLO_ASSIGN_OR_RETURN(Dataset groups, engine.GroupByKey(kept, "groups"));

  DIABLO_ASSIGN_OR_RETURN(Dataset left, map(groups, RecoveryLeft, "m.left"));
  DIABLO_ASSIGN_OR_RETURN(left, filter(left, RecoveryManyValues, "f.left"));
  DIABLO_ASSIGN_OR_RETURN(
      Dataset right,
      engine.MapValues(
          sums,
          [](const Value& v) -> StatusOr<Value> { return RecoveryHalf(v); },
          "m.right"));
  DIABLO_ASSIGN_OR_RETURN(right, drop_key(right, 3, "f.right"));
  note("joined", {&left, &right});
  DIABLO_ASSIGN_OR_RETURN(Dataset joined, engine.Join(left, right, "joined"));

  DIABLO_ASSIGN_OR_RETURN(Dataset cg_left,
                          map(joined, RecoveryJoinedRight, "m.cg"));
  DIABLO_ASSIGN_OR_RETURN(cg_left, drop_key(cg_left, 6, "f.cg"));
  note("cogrouped", {&cg_left, &sums});
  DIABLO_ASSIGN_OR_RETURN(Dataset cg,
                          engine.CoGroup(cg_left, sums, "cogrouped"));

  DIABLO_ASSIGN_OR_RETURN(Dataset cg_rows, map(cg, RecoveryIdentity, "m.rows"));
  DIABLO_ASSIGN_OR_RETURN(cg_rows, drop_key(cg_rows, 2, "f.rows"));
  note("uniq", {&cg_rows});
  DIABLO_ASSIGN_OR_RETURN(Dataset uniq, engine.Distinct(cg_rows, "uniq"));

  DIABLO_ASSIGN_OR_RETURN(Dataset fin, map(uniq, RecoveryIdentity, "final.m"));
  DIABLO_ASSIGN_OR_RETURN(fin, drop_key(fin, 5, "final"));
  note("final", {&fin});
  DIABLO_ASSIGN_OR_RETURN(ValueVec out, engine.Collect(fin));
  for (const Dataset* ds_out : {&joined, &cg}) {
    DIABLO_ASSIGN_OR_RETURN(ValueVec more, engine.Collect(*ds_out));
    out.insert(out.end(), more.begin(), more.end());
  }
  return out;
}

ValueVec RecoveryMixOracle(const ValueVec& rows, int parts) {
  std::vector<ValueVec> kept = oracle::Chunks(rows, parts);
  for (ValueVec& chunk : kept) {
    ValueVec next;
    for (const Value& row : chunk) {
      Value rekeyed = RecoveryRekey(row);
      if (RecoveryKeep(rekeyed)) next.push_back(std::move(rekeyed));
    }
    chunk = std::move(next);
  }
  const std::map<Value, Value> sums = oracle::ReduceByKey(kept, BinOp::kAdd);
  std::map<Value, ValueVec> left;
  for (const auto& [k, vs] : oracle::GroupByKey(oracle::Concat(kept))) {
    const Value row = RecoveryLeft(Value::MakePair(k, Value::MakeBag(vs)));
    if (RecoveryManyValues(row)) left[k] = {row.tuple()[1]};
  }
  std::map<Value, Value> right;
  for (const auto& [k, sum] : sums) {
    if (k.AsInt() != 3) right.emplace(k, RecoveryHalf(sum));
  }
  const ValueVec joined = oracle::JoinLayout(left, right, parts);
  std::map<Value, Value> cg_left;
  for (const Value& row : joined) {
    if (row.tuple()[0].AsInt() != 6) {
      cg_left.emplace(row.tuple()[0], row.tuple()[1].tuple()[1]);
    }
  }
  const ValueVec cg = oracle::HashLayout(
      sums, parts, [&](const Value& k, const Value& sum) {
        auto l = cg_left.find(k);
        return Value::MakePair(
            k, Value::MakePair(
                   Value::MakeBag(l == cg_left.end() ? ValueVec{}
                                                     : ValueVec{l->second}),
                   Value::MakeBag({sum})));
      });
  std::map<Value, bool> distinct;
  for (const Value& row : cg) {
    if (row.tuple()[0].AsInt() != 2) distinct[row] = true;
  }
  ValueVec out;
  for (const Value& row : oracle::HashLayout(
           distinct, parts, [](const Value& row, bool) { return row; })) {
    if (row.tuple()[0].AsInt() != 5) out.push_back(row);
  }
  out.insert(out.end(), joined.begin(), joined.end());
  out.insert(out.end(), cg.begin(), cg.end());
  return out;
}

TEST(HashAggProperty, LostPartitionRecoveryUsesAccumulatorReplay) {
  // Deterministic lost-partition directives, swept over every stage id
  // and both input indexes, drive the recompute_many closures of all
  // five wide operators (RecoveryMix). Each faulty run must equal the
  // clean run byte for byte, at 1 and 4 host threads, and the clean run
  // must equal the sequential oracle.
  std::mt19937_64 rng(4242);
  ValueVec rows = WorkloadInput(/*which=*/2, rng);
  std::map<std::string, std::vector<std::string>> kinds;
  Engine clean{EngineConfig()};
  auto expected = RecoveryMix(clean, rows, &kinds);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  EXPECT_EQ(*expected,
            RecoveryMixOracle(rows, clean.config().num_partitions));

  std::map<std::string, int64_t> rebuilt_by_kind;
  for (int host_threads : {1, 4}) {
    for (int stage = 0; stage < 16; ++stage) {
      for (int input = 0; input < 2; ++input) {
        SCOPED_TRACE(::testing::Message() << "threads " << host_threads
                                          << " stage " << stage << " input "
                                          << input);
        EngineConfig config;
        config.host_threads = host_threads;
        config.faults.lose_partitions.push_back({stage, 2, input});
        config.faults.lose_partitions.push_back({stage, 5, input});
        Engine engine(config);
        std::map<std::string, std::vector<std::string>> unused;
        auto got = RecoveryMix(engine, rows, &unused);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_EQ(*got, *expected);
        // Only the consumer at `stage` lost anything. Its stage label
        // ends in "+<consumer>" and names the kind that was rebuilt.
        for (const StageStats& s : engine.metrics().stages()) {
          if (s.recomputed_partitions == 0) continue;
          for (const auto& [consumer, input_kinds] : kinds) {
            const std::string suffix = "+" + consumer;
            if (s.label.size() < suffix.size() ||
                s.label.compare(s.label.size() - suffix.size(),
                                suffix.size(), suffix) != 0) {
              continue;
            }
            ASSERT_LT(static_cast<size_t>(input), input_kinds.size())
                << s.label;
            rebuilt_by_kind[input_kinds[input]] += s.recomputed_partitions;
          }
        }
      }
    }
  }
  for (const char* kind :
       {"groupByKey", "reduceByKey", "join", "coGroup", "distinct"}) {
    EXPECT_GT(rebuilt_by_kind[kind], 0) << kind;
  }
}

TEST(HashAggProperty, DistinctRecoveryUnderFaults) {
  // Distinct's dedup and its lost-partition replay both run on the
  // accumulator; randomized faults plus a directed partition loss must
  // reproduce the oracle's answer.
  ValueVec rows;
  std::mt19937_64 rng(91);
  for (int i = 0; i < 400; ++i) {
    rows.push_back(Value::MakePair(I(static_cast<int64_t>(rng() % 29)),
                                   S(StrCat("v", rng() % 5))));
  }
  auto run = [&](EngineConfig config) {
    Engine engine(config);
    Dataset ds = engine.Parallelize(rows);
    auto uniq = engine.Distinct(ds);
    EXPECT_TRUE(uniq.ok()) << uniq.status().ToString();
    auto out = engine.Collect(*uniq);
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return out.ok() ? *out : ValueVec{};
  };
  std::map<Value, bool> distinct;
  for (const Value& row : rows) distinct[row] = true;
  const ValueVec expected = oracle::HashLayout(
      distinct, EngineConfig().num_partitions,
      [](const Value& row, bool) { return row; });
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(run(EngineConfig{}), expected);

  EngineConfig faulty;
  faulty.faults.seed = 5;
  faulty.faults.task_failure_rate = 0.1;
  faulty.faults.max_task_attempts = 10;
  faulty.faults.lose_partitions.push_back({1, 3, 0});
  EXPECT_EQ(run(faulty), expected);

  faulty.host_threads = 4;
  EXPECT_EQ(run(faulty), expected);
}

// ---------------------------------------------------------------------
// Deterministic error selection (the RunPerPartition contract).

TEST(DeterministicErrors, SameErrorForEveryThreadCountAndScheduler) {
  // Several partitions fail inside a fused map+filter chain; the error
  // Force reports must be the one from the lowest-indexed failing
  // partition, whether the wave runs inline or on the pool at any size.
  ValueVec rows;
  for (int i = 0; i < 160; ++i) rows.push_back(I(i));

  auto run = [&](int host_threads) -> Status {
    EngineConfig config;
    config.num_partitions = 16;
    config.host_threads = host_threads;
    Engine engine(config);
    Dataset ds = engine.Parallelize(rows);
    auto mapped = engine.Map(ds, [](const Value& v) -> StatusOr<Value> {
      // Rows 155 (partition 15) and 72 (partition 7) fail; partition 7
      // is the lowest failing partition, and 72 is its first bad row.
      if (v.AsInt() == 72 || v.AsInt() == 155) {
        return Status::RuntimeError("bad row " + std::to_string(v.AsInt()));
      }
      return v;
    });
    // Narrow operators defer: the error surfaces only when Force runs
    // the chain.
    EXPECT_TRUE(mapped.ok()) << mapped.status().ToString();
    auto kept = engine.Filter(*mapped, [](const Value& v) -> StatusOr<bool> {
      return v.AsInt() % 3 != 1;
    });
    EXPECT_TRUE(kept.ok()) << kept.status().ToString();
    auto forced = engine.Force(*kept);
    return forced.ok() ? Status::OK() : forced.status();
  };

  const Status expected = run(1);
  ASSERT_FALSE(expected.ok());
  EXPECT_EQ(expected.message(), "bad row 72");
  for (int threads : {1, 2, 4, 8}) {
    for (int rep = 0; rep < 10; ++rep) {
      const Status got = run(threads);
      ASSERT_FALSE(got.ok());
      EXPECT_EQ(got.ToString(), expected.ToString()) << "threads " << threads;
    }
  }
}

TEST(PersistentPool, ReusedAcrossStagesAndMatchesOracle) {
  // One engine drives a multi-stage program three times; the pool is
  // created once and every round must equal the inline single-thread
  // run byte for byte and match the sequential oracle.
  std::mt19937_64 rng(2026);
  ValueVec rows = WorkloadInput(/*which=*/1, rng);
  EngineConfig pool_config;
  pool_config.host_threads = 4;
  EngineConfig inline_config = pool_config;
  inline_config.host_threads = 1;

  Engine inline_engine(inline_config);
  auto expected = RunWorkload(inline_engine, 1, rows);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ExpectMatchesOracle(1, rows, pool_config.num_partitions, *expected);

  Engine pooled(pool_config);
  for (int round = 0; round < 3; ++round) {
    pooled.ResetRunState();
    auto got = RunWorkload(pooled, 1, rows);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(*got, *expected) << "round " << round;
    EXPECT_GT(pooled.metrics().total_pool_tasks(), 0) << "round " << round;
  }
}

}  // namespace
}  // namespace diablo::runtime
