// Tests for the tracing/profiling subsystem (runtime/trace.{h,cc} and
// its engine wiring): tracing must never change program outputs, spans
// must nest correctly through fused chains / hash shuffles / retries,
// and the Chrome trace export for wordcount is pinned by a golden file
// (regenerate with DIABLO_REGOLD=1).

#include <cstdlib>
#include <fstream>
#include <map>
#include <random>
#include <regex>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "diablo/diablo.h"
#include "runtime/engine.h"
#include "runtime/trace.h"
#include "workloads/programs.h"

namespace diablo::runtime {
namespace {

using bench::GetProgram;
using bench::ProgramSpec;

constexpr const char* kWordCountSource = R"(
var C: map[string,int] = map();
for w in words do
  C[w] += 1;
)";

Bindings WordCountInputs() {
  ValueVec rows;
  const char* words[] = {"spark", "flink", "spark", "hadoop", "spark"};
  for (int i = 0; i < 5; ++i) {
    rows.push_back(Value::MakePair(Value::MakeInt(i),
                                   Value::MakeString(words[i])));
  }
  return {{"words", Value::MakeBag(std::move(rows))}};
}

/// Runs a compiled program on a fresh engine and returns the printed
/// form of every requested output, in order.
StatusOr<std::string> RunAndPrint(const std::string& source,
                                  const Bindings& inputs,
                                  const EngineConfig& config,
                                  const std::vector<std::string>& scalars,
                                  const std::vector<std::string>& arrays,
                                  Engine* engine_out = nullptr) {
  DIABLO_ASSIGN_OR_RETURN(CompiledProgram compiled, Compile(source));
  Engine local(config);
  Engine& engine = engine_out != nullptr ? *engine_out : local;
  RunOptions options;
  options.program_name = "trace_test.diablo";
  DIABLO_ASSIGN_OR_RETURN(ProgramRun run,
                          Run(compiled, &engine, inputs, options));
  std::string out;
  for (const std::string& name : scalars) {
    DIABLO_ASSIGN_OR_RETURN(Value v, run.Scalar(name));
    out += name + " = " + v.ToString() + "\n";
  }
  for (const std::string& name : arrays) {
    DIABLO_ASSIGN_OR_RETURN(Value v, run.Array(name));
    out += name + " = " + v.ToString() + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// Tracing on/off produces byte-identical outputs.
// ---------------------------------------------------------------------------

struct TraceIdentityParams {
  std::string name;  // test display name
  std::string program;
  int64_t scale;
  bool faults;
};

class TraceIdentityTest : public ::testing::TestWithParam<TraceIdentityParams> {
};

EngineConfig MakeConfig(const TraceIdentityParams& p, bool tracing) {
  EngineConfig config;
  config.tracing = tracing;
  config.host_threads = 2;
  if (p.faults) {
    config.faults.seed = 29;
    config.faults.task_failure_rate = 0.08;
    config.faults.max_task_attempts = 10;
  }
  return config;
}

TEST_P(TraceIdentityTest, OutputsByteIdentical) {
  const TraceIdentityParams& p = GetParam();
  const ProgramSpec& spec = GetProgram(p.program);
  std::mt19937_64 rng(11);
  Bindings inputs = spec.make_inputs(p.scale, rng);

  auto traced = RunAndPrint(spec.source, inputs, MakeConfig(p, true),
                            spec.scalar_outputs, spec.array_outputs);
  ASSERT_TRUE(traced.ok()) << traced.status().ToString();
  auto untraced = RunAndPrint(spec.source, inputs, MakeConfig(p, false),
                              spec.scalar_outputs, spec.array_outputs);
  ASSERT_TRUE(untraced.ok()) << untraced.status().ToString();
  EXPECT_EQ(*traced, *untraced);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, TraceIdentityTest,
    ::testing::Values(
        TraceIdentityParams{"wordcount_fused_hash", "word_count", 200, false},
        TraceIdentityParams{"wordcount_fused_hash_faulty", "word_count", 200,
                            true},
        TraceIdentityParams{"groupby_fused_hash_faulty", "group_by", 200,
                            true},
        TraceIdentityParams{"pagerank_fused_hash", "pagerank", 6, false},
        TraceIdentityParams{"pagerank_fused_hash_faulty", "pagerank", 6,
                            true}),
    [](const ::testing::TestParamInfo<TraceIdentityParams>& info) {
      return info.param.name;
    });

// ---------------------------------------------------------------------------
// Span structure invariants.
// ---------------------------------------------------------------------------

std::vector<TraceSpan> RunWordCountSpans(EngineConfig config,
                                         std::string* output) {
  Engine engine(config);
  auto printed = RunAndPrint(kWordCountSource, WordCountInputs(), config,
                             {}, {"C"}, &engine);
  EXPECT_TRUE(printed.ok()) << printed.status().ToString();
  if (printed.ok() && output != nullptr) *output = *printed;
  EXPECT_NE(engine.trace(), nullptr);
  return engine.trace() != nullptr ? engine.trace()->Snapshot()
                                   : std::vector<TraceSpan>();
}

TEST(TraceSpansTest, ChildrenNestWithinParents) {
  EngineConfig config;
  config.host_threads = 1;
  std::vector<TraceSpan> spans = RunWordCountSpans(config, nullptr);
  ASSERT_FALSE(spans.empty());

  std::map<int64_t, const TraceSpan*> by_id;
  for (const TraceSpan& s : spans) by_id[s.id] = &s;
  int roots = 0;
  for (const TraceSpan& s : spans) {
    if (s.parent < 0) {
      ++roots;
      EXPECT_EQ(s.kind, SpanKind::kRun);
      continue;
    }
    ASSERT_TRUE(by_id.count(s.parent)) << "dangling parent " << s.parent;
    const TraceSpan& parent = *by_id[s.parent];
    // Tasks are timed around the task closure while driver spans wrap
    // the enclosing scope, so a strict containment check is exact.
    EXPECT_GE(s.start_us, parent.start_us - 1e-6)
        << s.name << " starts before parent " << parent.name;
    EXPECT_LE(s.start_us + s.dur_us, parent.start_us + parent.dur_us + 1e-6)
        << s.name << " ends after parent " << parent.name;
  }
  EXPECT_EQ(roots, 1);
}

TEST(TraceSpansTest, KindsFormTheExpectedHierarchy) {
  EngineConfig config;
  config.host_threads = 1;
  std::vector<TraceSpan> spans = RunWordCountSpans(config, nullptr);
  ASSERT_FALSE(spans.empty());
  std::map<int64_t, const TraceSpan*> by_id;
  for (const TraceSpan& s : spans) by_id[s.id] = &s;
  for (const TraceSpan& s : spans) {
    const TraceSpan* parent = s.parent >= 0 ? by_id.at(s.parent) : nullptr;
    switch (s.kind) {
      case SpanKind::kRun:
        EXPECT_EQ(parent, nullptr);
        break;
      case SpanKind::kStatement:
        ASSERT_NE(parent, nullptr);
        // Statements nest under the run or, inside while-loops, under
        // the enclosing while statement.
        EXPECT_TRUE(parent->kind == SpanKind::kRun ||
                    parent->kind == SpanKind::kStatement)
            << s.name;
        break;
      case SpanKind::kStage:
        ASSERT_NE(parent, nullptr);
        EXPECT_TRUE(parent->kind == SpanKind::kRun ||
                    parent->kind == SpanKind::kStatement ||
                    parent->kind == SpanKind::kStage)
            << s.name;
        break;
      case SpanKind::kWave:
        ASSERT_NE(parent, nullptr);
        EXPECT_TRUE(parent->kind == SpanKind::kStage ||
                    parent->kind == SpanKind::kRecovery)
            << s.name << " under " << parent->name;
        EXPECT_GE(s.stage_id, 0);
        break;
      case SpanKind::kTask:
        ASSERT_NE(parent, nullptr);
        EXPECT_EQ(parent->kind, SpanKind::kWave) << s.name;
        EXPECT_GE(s.partition, 0);
        break;
      case SpanKind::kRecovery:
        ASSERT_NE(parent, nullptr);
        break;
    }
  }
}

TEST(TraceSpansTest, TaskTimesSumToAtMostTheWave) {
  // Single host thread: tasks run back-to-back inside their wave, so the
  // sum of task durations cannot exceed the wave's wall time.
  EngineConfig config;
  config.host_threads = 1;
  std::vector<TraceSpan> spans = RunWordCountSpans(config, nullptr);
  ASSERT_FALSE(spans.empty());
  std::map<int64_t, double> task_sum;
  for (const TraceSpan& s : spans) {
    if (s.kind == SpanKind::kTask) task_sum[s.parent] += s.dur_us;
  }
  int waves_checked = 0;
  for (const TraceSpan& s : spans) {
    if (s.kind != SpanKind::kWave) continue;
    auto it = task_sum.find(s.id);
    if (it == task_sum.end()) continue;
    ++waves_checked;
    EXPECT_LE(it->second, s.dur_us + 1e-6) << s.name;
  }
  EXPECT_GT(waves_checked, 0);
}

TEST(TraceSpansTest, RetriedTasksCarryAttemptNumbers) {
  EngineConfig config;
  config.host_threads = 1;
  config.faults.seed = 7;
  config.faults.task_failure_rate = 0.2;
  config.faults.max_task_attempts = 10;
  std::string traced_out, untraced_out;
  std::vector<TraceSpan> spans = RunWordCountSpans(config, &traced_out);
  ASSERT_FALSE(spans.empty());
  int retried = 0;
  for (const TraceSpan& s : spans) {
    if (s.kind == SpanKind::kTask && s.attempt > 0) ++retried;
  }
  EXPECT_GT(retried, 0) << "fault injection produced no retried task spans";

  // And the traced faulty run still matches the untraced faulty run.
  EngineConfig untraced = config;
  untraced.tracing = false;
  auto result = RunAndPrint(kWordCountSource, WordCountInputs(), untraced,
                            {}, {"C"});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(traced_out, *result);
}

TEST(TraceSpansTest, StageSpansCarrySourceLocations) {
  EngineConfig config;
  config.host_threads = 1;
  std::vector<TraceSpan> spans = RunWordCountSpans(config, nullptr);
  int located_stages = 0;
  for (const TraceSpan& s : spans) {
    if (s.kind == SpanKind::kStage && s.src_line > 0) {
      EXPECT_EQ(s.src_file, "trace_test.diablo");
      ++located_stages;
    }
  }
  EXPECT_GT(located_stages, 0);
}

TEST(TraceSpansTest, TracingOffRecordsNothing) {
  EngineConfig config;
  config.tracing = false;
  Engine engine(config);
  EXPECT_EQ(engine.trace(), nullptr);
  auto printed = RunAndPrint(kWordCountSource, WordCountInputs(), config,
                             {}, {"C"}, &engine);
  ASSERT_TRUE(printed.ok()) << printed.status().ToString();
  EXPECT_EQ(engine.trace(), nullptr);
}

// ---------------------------------------------------------------------------
// AggregateTaskTimes.
// ---------------------------------------------------------------------------

TEST(AggregateTaskTimesTest, PercentilesSkewAndStragglers) {
  std::vector<TraceSpan> spans;
  TraceSpan stage;
  stage.id = 0;
  stage.kind = SpanKind::kStage;
  spans.push_back(stage);
  TraceSpan wave;
  wave.id = 1;
  wave.parent = 0;
  wave.kind = SpanKind::kWave;
  spans.push_back(wave);
  const double durs[] = {1.0, 1.0, 2.0, 10.0};
  for (int i = 0; i < 4; ++i) {
    TraceSpan task;
    task.id = 2 + i;
    task.parent = 1;
    task.kind = SpanKind::kTask;
    task.partition = i;
    task.dur_us = durs[i];
    spans.push_back(task);
  }
  TaskTimeStats stats = AggregateTaskTimes(spans, 0);
  EXPECT_EQ(stats.count, 4);
  EXPECT_DOUBLE_EQ(stats.total_us, 14.0);
  EXPECT_DOUBLE_EQ(stats.mean_us, 3.5);
  EXPECT_DOUBLE_EQ(stats.p50_us, 1.0);   // nearest-rank: ceil(0.5*4)=2nd
  EXPECT_DOUBLE_EQ(stats.p90_us, 10.0);  // ceil(0.9*4)=4th
  EXPECT_DOUBLE_EQ(stats.max_us, 10.0);
  EXPECT_DOUBLE_EQ(stats.skew_ratio, 10.0 / 3.5);
  // Stragglers: dur > 2 * median(1.0) -> partitions 3 (10.0) only... and
  // 2 (2.0) is exactly 2x the median, which is NOT a straggler.
  ASSERT_EQ(stats.straggler_partitions.size(), 1u);
  EXPECT_EQ(stats.straggler_partitions[0], 3);
}

TEST(AggregateTaskTimesTest, EmptyStageHasNoStats) {
  std::vector<TraceSpan> spans;
  TraceSpan stage;
  stage.id = 0;
  stage.kind = SpanKind::kStage;
  spans.push_back(stage);
  TaskTimeStats stats = AggregateTaskTimes(spans, 0);
  EXPECT_EQ(stats.count, 0);
  EXPECT_EQ(stats.skew_ratio, 0);
  EXPECT_TRUE(stats.straggler_partitions.empty());
}

// ---------------------------------------------------------------------------
// Chrome trace golden file (wordcount).
// ---------------------------------------------------------------------------

/// Replaces wall-clock-dependent fields with 0 so the golden file pins
/// structure, names, nesting, counters, and locations but not timing.
std::string NormalizeTrace(const std::string& json) {
  std::string out =
      std::regex_replace(json, std::regex("\"ts\":[0-9.eE+-]+"), "\"ts\":0");
  return std::regex_replace(out, std::regex("\"dur\":[0-9.eE+-]+"),
                            "\"dur\":0");
}

TEST(TraceGoldenTest, WordCountChromeTrace) {
  EngineConfig config;
  config.host_threads = 1;
  config.num_partitions = 4;
  Engine engine(config);
  auto printed = RunAndPrint(kWordCountSource, WordCountInputs(), config,
                             {}, {"C"}, &engine);
  ASSERT_TRUE(printed.ok()) << printed.status().ToString();
  ASSERT_NE(engine.trace(), nullptr);

  std::ostringstream os;
  WriteChromeTrace(engine.trace()->Snapshot(), os);
  std::string got = NormalizeTrace(os.str());

  const std::string golden_path =
      std::string(GOLDEN_DIR) + "/wordcount_trace.json";
  if (std::getenv("DIABLO_REGOLD") != nullptr) {
    std::ofstream out(golden_path);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path;
    out << got;
    GTEST_SKIP() << "regenerated " << golden_path;
  }
  std::ifstream in(golden_path);
  ASSERT_TRUE(in.good()) << "missing golden file " << golden_path
                         << " (regenerate with DIABLO_REGOLD=1)";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(got, want.str())
      << "Chrome trace changed; if intended, rerun with DIABLO_REGOLD=1";
}

}  // namespace
}  // namespace diablo::runtime
