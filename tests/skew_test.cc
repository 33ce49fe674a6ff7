// Property tests for runtime skew mitigation (DESIGN.md §17): a salted
// run — hot reduce/combine tasks split across sub-tasks, merged back by
// the un-salt step — must be byte-for-byte identical to the same engine
// with a salting threshold no task reaches, across workloads,
// partition/thread sweeps, typed and boxed key data, fault injection,
// lost-partition lineage recovery, and the multi-process distributed
// backend. Also covers the --profile-in feedback loop: a stale profile
// degrades gracefully to the static plan rules.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <vector>

#include "common/strings.h"
#include "diablo/diablo.h"
#include "dist/coordinator.h"
#include "runtime/engine.h"
#include "runtime/profile.h"
#include "runtime/serialize.h"

namespace diablo::runtime {
namespace {

Value I(int64_t v) { return Value::MakeInt(v); }
Value D(double v) { return Value::MakeDouble(v); }
Value S(const std::string& v) { return Value::MakeString(v); }

/// Byte-identity oracle: the serialized codec bytes of every collected
/// row, in collection order.
std::string Bytes(Engine& engine, const Dataset& ds) {
  StatusOr<ValueVec> rows = engine.Collect(ds);
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  std::string out;
  for (const Value& v : *rows) out += Serialize(v);
  return out;
}

/// A zipf-flavored skewed workload: `hot_share` of the rows land on one
/// hot key, the rest spread over `keys` tail keys. Deterministic (no
/// RNG) so every engine variant sees the same input rows in the same
/// order.
ValueVec SkewedRows(int64_t n, int64_t keys, double hot_share) {
  ValueVec rows;
  rows.reserve(static_cast<size_t>(n));
  auto hot_every = static_cast<int64_t>(1.0 / (1.0 - hot_share));
  for (int64_t i = 0; i < n; ++i) {
    int64_t key = (i % hot_every == 0) ? (i % keys) + 1 : 0;
    rows.push_back(Value::MakePair(I(key), I(i % 1000)));
  }
  return rows;
}

/// Same shape with string keys: exercises the typed string-dictionary
/// shuffle under salting.
ValueVec SkewedStringRows(int64_t n, int64_t keys, double hot_share) {
  ValueVec rows;
  rows.reserve(static_cast<size_t>(n));
  auto hot_every = static_cast<int64_t>(1.0 / (1.0 - hot_share));
  for (int64_t i = 0; i < n; ++i) {
    int64_t key = (i % hot_every == 0) ? (i % keys) + 1 : 0;
    rows.push_back(
        Value::MakePair(S("key-" + std::to_string(key)), I(i % 1000)));
  }
  return rows;
}

/// Engine config for the skew tests. With `may_salt` the hot-task
/// threshold is scaled down so test-sized workloads (tens of thousands
/// of rows, not millions) trip the detector; without it the threshold
/// sits above any partition, so no task salts — the reference run.
/// Everything else stays at the defaults unless a test overrides it.
EngineConfig SkewTestConfig(bool may_salt) {
  EngineConfig config;
  config.skew.min_rows =
      may_salt ? 512 : std::numeric_limits<int64_t>::max();
  return config;
}

/// One point of the sweep. `typed_keys` false wraps every key in a
/// 1-tuple: no typed fast path takes such keys, so the scatter, the
/// combine and the reduce run their boxed legs under salting.
struct SkewCase {
  int partitions;
  int threads;
  bool typed_keys;
};

std::string CaseName(const ::testing::TestParamInfo<SkewCase>& info) {
  const SkewCase& c = info.param;
  return StrCat("p", c.partitions, "_t", c.threads,
                c.typed_keys ? "_columnar" : "_boxed");
}

class SkewMatrixTest : public ::testing::TestWithParam<SkewCase> {
 protected:
  EngineConfig Config(bool may_salt) const {
    EngineConfig config = SkewTestConfig(may_salt);
    config.num_partitions = GetParam().partitions;
    config.host_threads = GetParam().threads;
    return config;
  }

  /// `rows` with each key boxed in a 1-tuple unless the case has typed
  /// keys.
  ValueVec Keyed(ValueVec rows) const {
    if (GetParam().typed_keys) return rows;
    for (Value& row : rows) {
      row = Value::MakePair(Value::MakeTuple({row.tuple()[0]}),
                            row.tuple()[1]);
    }
    return rows;
  }

  /// The boxed-key cases must actually have run a boxed leg.
  void ExpectLeg(const Engine& engine) const {
    if (GetParam().typed_keys) return;
    EXPECT_GT(engine.metrics().total_columnar_rows_fallback(), 0);
  }
};

TEST_P(SkewMatrixTest, ReduceByKeyByteIdentical) {
  ValueVec rows = Keyed(SkewedRows(20000, 64, 0.8));

  Engine plain(Config(/*may_salt=*/false));
  StatusOr<Dataset> expected =
      plain.ReduceByKey(plain.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::string want = Bytes(plain, *expected);
  EXPECT_EQ(plain.metrics().total_salt_fanout(), 0);

  Engine salted(Config(/*may_salt=*/true));
  StatusOr<Dataset> got =
      salted.ReduceByKey(salted.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  ExpectLeg(salted);
  // Whether this configuration actually salts depends on how the
  // map-side combine flattens the skew; the counter tests below pin
  // workloads that provably do. Here only byte-identity matters.
}

TEST_P(SkewMatrixTest, GroupByKeyByteIdentical) {
  ValueVec rows = Keyed(SkewedRows(12000, 32, 0.9));

  Engine plain(Config(/*may_salt=*/false));
  StatusOr<Dataset> expected = plain.GroupByKey(plain.Parallelize(rows));
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::string want = Bytes(plain, *expected);

  Engine salted(Config(/*may_salt=*/true));
  StatusOr<Dataset> got = salted.GroupByKey(salted.Parallelize(rows));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  ExpectLeg(salted);
}

TEST_P(SkewMatrixTest, UserReduceFnByteIdentical) {
  // A black-box (non-native) ReduceFn forces the generic reduce path:
  // combine tasks must not chunk-split (the fold is not provably
  // bit-associative), but hash-stripe salting of the reduce wave still
  // applies and must stay exact.
  ValueVec rows = Keyed(SkewedRows(16000, 48, 0.85));
  auto max_fn = [](const Value& a, const Value& b) -> StatusOr<Value> {
    return a.AsInt() >= b.AsInt() ? a : b;
  };

  Engine plain(Config(/*may_salt=*/false));
  StatusOr<Dataset> expected =
      plain.ReduceByKey(plain.Parallelize(rows), max_fn);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::string want = Bytes(plain, *expected);

  Engine salted(Config(/*may_salt=*/true));
  StatusOr<Dataset> got =
      salted.ReduceByKey(salted.Parallelize(rows), max_fn);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
}

TEST_P(SkewMatrixTest, StringKeysByteIdentical) {
  ValueVec rows = Keyed(SkewedStringRows(15000, 40, 0.8));

  Engine plain(Config(/*may_salt=*/false));
  StatusOr<Dataset> expected =
      plain.ReduceByKey(plain.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::string want = Bytes(plain, *expected);

  Engine salted(Config(/*may_salt=*/true));
  StatusOr<Dataset> got =
      salted.ReduceByKey(salted.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  ExpectLeg(salted);
}

TEST_P(SkewMatrixTest, DoublePayloadByteIdentical) {
  // Double payloads are excluded from combine-task chunk splitting (fp
  // addition is not associative); only the exact salting mechanisms may
  // engage, and the result must not drift by one ulp.
  ValueVec rows;
  for (int64_t i = 0; i < 12000; ++i) {
    int64_t key = (i % 5 == 0) ? (i % 30) + 1 : 0;
    rows.push_back(
        Value::MakePair(I(key), D(0.1 * static_cast<double>(i % 97))));
  }
  rows = Keyed(std::move(rows));

  Engine plain(Config(/*may_salt=*/false));
  StatusOr<Dataset> expected =
      plain.ReduceByKey(plain.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  std::string want = Bytes(plain, *expected);

  Engine salted(Config(/*may_salt=*/true));
  StatusOr<Dataset> got =
      salted.ReduceByKey(salted.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  ExpectLeg(salted);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SkewMatrixTest,
    ::testing::Values(SkewCase{1, 1, true}, SkewCase{4, 1, true},
                      SkewCase{8, 4, true}, SkewCase{8, 4, false},
                      SkewCase{8, 1, true}, SkewCase{5, 2, false}),
    CaseName);

TEST(SkewFaultTest, FaultInjectionByteIdentical) {
  ValueVec rows = SkewedRows(20000, 64, 0.8);

  Engine clean(SkewTestConfig(/*may_salt=*/false));
  StatusOr<Dataset> expected =
      clean.ReduceByKey(clean.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(expected.ok());
  std::string want = Bytes(clean, *expected);

  EngineConfig faulty = SkewTestConfig(/*may_salt=*/true);
  faulty.faults.seed = 17;
  faulty.faults.task_failure_rate = 0.15;
  Engine engine(faulty);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(engine, *got), want);
  EXPECT_GT(engine.metrics().total_attempts(),
            clean.metrics().total_attempts());
}

TEST(SkewFaultTest, LostPartitionRecoveryByteIdentical) {
  ValueVec rows = SkewedRows(18000, 50, 0.85);

  Engine clean(SkewTestConfig(/*may_salt=*/false));
  StatusOr<Dataset> expected = clean.GroupByKey(clean.Parallelize(rows));
  ASSERT_TRUE(expected.ok());
  std::string want = Bytes(clean, *expected);

  // Lose input partitions of the first stages: the lineage recompute
  // replays the producer, and the salted reduce wave runs over the
  // rebuilt rows exactly as over the originals.
  EngineConfig faulty = SkewTestConfig(/*may_salt=*/true);
  faulty.faults.lose_partitions.push_back({0, 0, 0});
  faulty.faults.lose_partitions.push_back({1, 1, 0});
  Engine engine(faulty);
  StatusOr<Dataset> got = engine.GroupByKey(engine.Parallelize(rows));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(engine, *got), want);
}

TEST(SkewFaultTest, SerializedShufflesByteIdentical) {
  ValueVec rows = SkewedRows(16000, 64, 0.8);

  Engine plain(SkewTestConfig(/*may_salt=*/false));
  StatusOr<Dataset> expected =
      plain.ReduceByKey(plain.Parallelize(rows), BinOp::kMax);
  ASSERT_TRUE(expected.ok());
  std::string want = Bytes(plain, *expected);

  EngineConfig wire = SkewTestConfig(/*may_salt=*/true);
  wire.serialize_shuffles = true;
  Engine engine(wire);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kMax);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(engine, *got), want);
}

TEST(SkewDistTest, DistWorkersWithChaosByteIdentical) {
  ValueVec rows = SkewedRows(16000, 64, 0.8);

  Engine local(SkewTestConfig(/*may_salt=*/false));
  StatusOr<Dataset> expected =
      local.ReduceByKey(local.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(expected.ok());
  std::string want = Bytes(local, *expected);

  dist::DistConfig dist_config;
  dist_config.num_workers = 2;
  dist_config.heartbeat_ms = 50;
  dist_config.chaos.kills.push_back({/*stage=*/1, /*worker=*/0, 0});
  dist::Coordinator coordinator(dist_config);
  EngineConfig config = SkewTestConfig(/*may_salt=*/true);
  config.remote = &coordinator;
  config.dist_lose_on_kill = true;
  Engine engine(config);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(engine, *got), want);
  EXPECT_GT(engine.metrics().total_dist_tasks(), 0);
}

TEST(SkewCountersTest, GroupByKeyHotKeySalts) {
  // 90% of rows on one key: its destination carries ~10800 of 12000
  // rows against a wave mean of 1500 — far past ratio 4 — so the
  // groupByKey reduce wave must chunk-split, and the hot key's bag is
  // reassembled from several sub-tasks (salted_keys records the folds).
  ValueVec rows = SkewedRows(12000, 32, 0.9);

  Engine plain(SkewTestConfig(/*may_salt=*/false));
  std::string want = Bytes(plain, *plain.GroupByKey(plain.Parallelize(rows)));

  Engine salted(SkewTestConfig(/*may_salt=*/true));
  StatusOr<Dataset> got = salted.GroupByKey(salted.Parallelize(rows));
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  EXPECT_GT(salted.metrics().total_salt_fanout(), 0)
      << salted.metrics().Report();
  EXPECT_GT(salted.metrics().total_salted_keys(), 0);
}

TEST(SkewCountersTest, ReduceByKeyImbalancedPartitionsSplitCombine) {
  // One source partition holds 16k rows, the other seven 200 each: the
  // map-side combine wave is the straggler, and the combine-split
  // mechanism (exact for native int64 +) must split it.
  std::vector<ValueVec> parts(8);
  for (int64_t i = 0; i < 16000; ++i) {
    parts[0].push_back(Value::MakePair(I(i % 50), I(i % 1000)));
  }
  for (int p = 1; p < 8; ++p) {
    for (int64_t i = 0; i < 200; ++i) {
      parts[p].push_back(Value::MakePair(I(i % 50), I(i)));
    }
  }

  // Combine-splitting requires a plan-time-proven int64 fold: pass the
  // schema the planner would have inferred for these rows.
  ColumnSchema schema;
  schema.key = ColumnTag::kInt64;
  schema.value = ColumnTag::kInt64;

  Engine plain(SkewTestConfig(/*may_salt=*/false));
  std::string want = Bytes(
      plain,
      *plain.ReduceByKey(Dataset(parts), BinOp::kAdd, "reduceByKey", schema));

  Engine salted(SkewTestConfig(/*may_salt=*/true));
  StatusOr<Dataset> got =
      salted.ReduceByKey(Dataset(parts), BinOp::kAdd, "reduceByKey", schema);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  EXPECT_GT(salted.metrics().total_salt_fanout(), 0)
      << salted.metrics().Report();
}

TEST(SkewCountersTest, ReduceByKeyHotDestinationStripes) {
  // Keys picked so they all hash to reduce destination 0 (with 8
  // partitions): every combined row converges on one reduce task, which
  // must hash-stripe into sub-tasks. Distinct keys stay intact under
  // striping, so any ReduceFn is safe; here the native op suffices.
  std::vector<int64_t> hot_keys;
  for (int64_t k = 0; hot_keys.size() < 3000; ++k) {
    if (I(k).Hash() % 8 == 0) hot_keys.push_back(k);
  }
  ValueVec rows;
  for (int rep = 0; rep < 2; ++rep) {
    for (int64_t k : hot_keys) {
      rows.push_back(Value::MakePair(I(k), I(k % 1000)));
    }
  }

  EngineConfig base = SkewTestConfig(/*may_salt=*/false);
  base.num_partitions = 8;
  Engine plain(base);
  std::string want =
      Bytes(plain, *plain.ReduceByKey(plain.Parallelize(rows), BinOp::kAdd));

  EngineConfig cfg = SkewTestConfig(/*may_salt=*/true);
  cfg.num_partitions = 8;
  Engine salted(cfg);
  StatusOr<Dataset> got =
      salted.ReduceByKey(salted.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Bytes(salted, *got), want);
  EXPECT_GT(salted.metrics().total_salt_fanout(), 0)
      << salted.metrics().Report();
}

TEST(SkewCountersTest, SmallWavesNeverSalt) {
  // Default thresholds: tier-1-sized data stays untouched, so existing
  // stage accounting (and every small-data golden) is unchanged.
  EngineConfig config;  // default skew thresholds
  Engine engine(config);
  ValueVec rows = SkewedRows(2000, 16, 0.9);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok());
  (void)Bytes(engine, *got);
  EXPECT_EQ(engine.metrics().total_salt_fanout(), 0);
  EXPECT_EQ(engine.metrics().total_salted_keys(), 0);
}

TEST(SkewCountersTest, StringKeyShuffleStaysTyped) {
  // The typed string-dictionary shuffle (per-destination re-interning)
  // must keep string-keyed reduceByKey on the columnar path: no stage
  // reports fallback rows.
  EngineConfig config = SkewTestConfig(/*may_salt=*/true);
  Engine engine(config);
  ValueVec rows = SkewedStringRows(15000, 40, 0.8);
  StatusOr<Dataset> got =
      engine.ReduceByKey(engine.Parallelize(rows), BinOp::kAdd);
  ASSERT_TRUE(got.ok());
  (void)Bytes(engine, *got);
  for (const StageStats& s : engine.metrics().stages()) {
    if (s.label.find("reduceByKey") == std::string::npos) continue;
    EXPECT_EQ(s.columnar_rows_fallback, 0)
        << "stage '" << s.label << "' fell back to boxed rows";
  }
}

// ---- profile feedback: graceful degradation on stale profiles ----

constexpr char kJoinProgram[] = R"(
var n: int = 8;
var W: vector[double] = vector();
for i = 0, n - 1 do
  W[i] := 0.5 * i;
var S: vector[double] = vector();
for i = 0, n - 1 do
  S[i] += V[i] * W[i];
)";

Bindings JoinInputs() {
  ValueVec v;
  for (int64_t i = 0; i < 8; ++i) {
    v.push_back(Value::MakePair(I(i), D(static_cast<double>(i) + 0.5)));
  }
  return {{"V", Value::MakeBag(std::move(v))}};
}

TEST(ProfileFeedbackTest, StaleProfileDegradesGracefully) {
  // A profile whose provenance matches nothing (different file, lines):
  // every FindStage lookup misses, all decisions stay static, and the
  // run's bytes are untouched.
  auto profile = ProfileData::Parse(R"({
    "schema_version": 3, "program": "other.diablo",
    "totals": {},
    "stages": [
      {"label": "join[Z]",
       "location": {"file": "other.diablo", "line": 99, "column": 1},
       "map_work": 10, "reduce_work": 10, "shuffle_bytes": 123456,
       "hash_agg_keys": 7}
    ]})");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  EXPECT_EQ(profile->FindStage("join.diablo", 7, 3, "join[W]"), nullptr);

  auto compiled = Compile(kJoinProgram);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  Engine plain((EngineConfig()));
  auto base = diablo::Run(*compiled, &plain, JoinInputs());
  ASSERT_TRUE(base.ok()) << base.status().ToString();
  auto base_s = base->Array("S");
  ASSERT_TRUE(base_s.ok());

  Engine fed((EngineConfig()));
  RunOptions options;
  options.profile = &profile.value();
  auto run = diablo::Run(*compiled, &fed, JoinInputs(), options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  auto fed_s = run->Array("S");
  ASSERT_TRUE(fed_s.ok());
  EXPECT_EQ(Serialize(*fed_s), Serialize(*base_s));
  // Stale: not a single profile-fed decision fired.
  EXPECT_EQ(fed.metrics().total_cost_decisions(), 0);
}

TEST(ProfileFeedbackTest, MalformedProfileIsAnError) {
  EXPECT_FALSE(ProfileData::Parse("{not json").ok());
  EXPECT_FALSE(ProfileData::Parse(R"({"schema_version": 3})").ok());
}

TEST(ProfileFeedbackTest, RecommendPartitionsFallsBackWithoutRows) {
  auto empty = ProfileData::Parse(
      R"({"schema_version": 3, "program": "p", "stages": []})");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(RecommendPartitions(*empty, 4, 8), 8);
}

}  // namespace
}  // namespace diablo::runtime
