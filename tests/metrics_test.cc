// Unit tests for the cluster cost model (LPT makespan, stage accounting
// and scaling behaviour of SimulatedSeconds) and for the MetricsRegistry
// (counter/gauge/histogram semantics and the Prometheus exposition).

#include "runtime/metrics.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "runtime/metrics_registry.h"

namespace diablo::runtime {
namespace {

/// A stage with the given accounting; every other field keeps its
/// default.
StageStats Stage(std::string label, bool wide, std::vector<int64_t> map_work,
                 std::vector<int64_t> reduce_work, int64_t shuffle_bytes,
                 int64_t attempts = 0, int64_t recomputed_partitions = 0,
                 double recovery_seconds = 0) {
  StageStats stats;
  stats.label = std::move(label);
  stats.wide = wide;
  stats.map_work = std::move(map_work);
  stats.reduce_work = std::move(reduce_work);
  stats.shuffle_bytes = shuffle_bytes;
  stats.attempts = attempts;
  stats.recomputed_partitions = recomputed_partitions;
  stats.recovery_seconds = recovery_seconds;
  return stats;
}

TEST(Lpt, EmptyAndTrivial) {
  EXPECT_EQ(LptMakespan({}, 4), 0);
  EXPECT_EQ(LptMakespan({10}, 4), 10);
  EXPECT_EQ(LptMakespan({10, 10, 10, 10}, 4), 10);
}

TEST(Lpt, BalancesLoad) {
  // 6 tasks of 2 on 3 workers -> 4 each.
  EXPECT_EQ(LptMakespan({2, 2, 2, 2, 2, 2}, 3), 4);
  // A dominant task bounds the makespan.
  EXPECT_EQ(LptMakespan({100, 1, 1, 1}, 4), 100);
  // One worker serializes everything.
  EXPECT_EQ(LptMakespan({3, 4, 5}, 1), 12);
}

TEST(Lpt, NeverBelowLowerBounds) {
  std::vector<int64_t> tasks = {7, 3, 9, 2, 8, 4, 4};
  int64_t total = 0, biggest = 0;
  for (int64_t t : tasks) {
    total += t;
    biggest = std::max(biggest, t);
  }
  for (int workers : {1, 2, 3, 5, 10}) {
    int64_t makespan = LptMakespan(tasks, workers);
    EXPECT_GE(makespan, biggest);
    EXPECT_GE(makespan, (total + workers - 1) / workers);
    EXPECT_LE(makespan, total);
  }
}

TEST(Metrics, Accumulation) {
  Metrics metrics;
  metrics.AddStage(Stage("map", false, {10, 20}, {}, 0));
  metrics.AddStage(Stage("reduce", true, {30}, {15}, 1000));
  EXPECT_EQ(metrics.num_stages(), 2);
  EXPECT_EQ(metrics.num_wide_stages(), 1);
  EXPECT_EQ(metrics.total_work(), 75);
  EXPECT_EQ(metrics.total_shuffle_bytes(), 1000);
  metrics.Clear();
  EXPECT_EQ(metrics.num_stages(), 0);
}

TEST(Metrics, RecoveryCountersAggregateAndClear) {
  Metrics metrics;
  metrics.AddStage(Stage("map", false, {10}, {}, 0, /*attempts=*/3,
                         /*recomputed_partitions=*/1,
                         /*recovery_seconds=*/0.25));
  metrics.AddStage(Stage("reduce", true, {30}, {15}, 1000, 5, 2, 0.5));
  EXPECT_EQ(metrics.total_attempts(), 8);
  EXPECT_EQ(metrics.total_recomputed_partitions(), 3);
  EXPECT_DOUBLE_EQ(metrics.total_recovery_seconds(), 0.75);
  metrics.Clear();
  EXPECT_EQ(metrics.num_stages(), 0);
  EXPECT_EQ(metrics.total_attempts(), 0);
  EXPECT_EQ(metrics.total_recomputed_partitions(), 0);
  EXPECT_DOUBLE_EQ(metrics.total_recovery_seconds(), 0.0);
}

TEST(Metrics, SimulatedSecondsDecomposesIntoFaultFreePlusRecovery) {
  Metrics metrics;
  metrics.AddStage(Stage("map", false, {10, 20}, {}, 0, 4, 0, 0.125));
  metrics.AddStage(Stage("join", true, {5, 5}, {7}, 2048, 3, 1, 0.0625));
  ClusterModel model;
  EXPECT_DOUBLE_EQ(metrics.SimulatedSeconds(model),
                   metrics.SimulatedFaultFreeSeconds(model) +
                       metrics.total_recovery_seconds());
  // With no recovery charged, both figures coincide.
  Metrics clean;
  clean.AddStage(Stage("map", false, {10, 20}, {}, 0, 2, 0, 0.0));
  EXPECT_DOUBLE_EQ(clean.SimulatedSeconds(model),
                   clean.SimulatedFaultFreeSeconds(model));
}

TEST(Metrics, ReportIncludesRecoveryCounters) {
  Metrics metrics;
  metrics.AddStage(Stage("grp", true, {5}, {3}, 42, 6, 2, 0.5));
  std::string report = metrics.Report();
  EXPECT_NE(report.find("attempts=6"), std::string::npos);
  EXPECT_NE(report.find("recomputed=2"), std::string::npos);
  EXPECT_NE(report.find("recovery_s="), std::string::npos);
}

TEST(Metrics, MoreWorkersNeverSlower) {
  Metrics metrics;
  std::vector<int64_t> tasks;
  for (int i = 0; i < 32; ++i) tasks.push_back(1000 + i * 17);
  metrics.AddStage(Stage("stage", true, tasks, tasks, 1 << 20));
  ClusterModel model;
  double prev = 1e100;
  for (int workers : {1, 2, 4, 8, 16}) {
    model.num_workers = workers;
    double t = metrics.SimulatedSeconds(model);
    EXPECT_LE(t, prev) << workers;
    prev = t;
  }
}

TEST(Metrics, ShuffleBytesCost) {
  ClusterModel model;
  model.num_workers = 2;
  model.wide_stage_latency_seconds = 0;
  model.narrow_stage_latency_seconds = 0;
  model.seconds_per_work_unit = 0;
  Metrics light, heavy;
  light.AddStage(Stage("s", true, {}, {}, 1000));
  heavy.AddStage(Stage("s", true, {}, {}, 100000));
  EXPECT_GT(heavy.SimulatedSeconds(model), light.SimulatedSeconds(model));
  EXPECT_DOUBLE_EQ(heavy.SimulatedSeconds(model),
                   100.0 * light.SimulatedSeconds(model));
}

TEST(Metrics, WideStagesPayLatency) {
  ClusterModel model;
  Metrics narrow, wide;
  narrow.AddStage(Stage("n", false, {1}, {}, 0));
  wide.AddStage(Stage("w", true, {1}, {}, 0));
  EXPECT_GT(wide.SimulatedSeconds(model), narrow.SimulatedSeconds(model));
}

TEST(Metrics, Report) {
  Metrics metrics;
  metrics.AddStage(Stage("join", true, {5}, {3}, 42));
  std::string report = metrics.Report();
  EXPECT_NE(report.find("join"), std::string::npos);
  EXPECT_NE(report.find("shuffle_bytes=42"), std::string::npos);
}

TEST(Metrics, MemoryWatermarksAreMaximaNotSums) {
  // RSS is a process high-water mark and accumulator bytes are per-task
  // peaks: the run-level figures are maxima over stages, never sums.
  Metrics metrics;
  StageStats a;
  a.label = "map";
  a.peak_rss_bytes = 1000;
  a.accumulator_bytes_peak = 50;
  StageStats b;
  b.label = "reduce";
  b.peak_rss_bytes = 3000;
  b.accumulator_bytes_peak = 20;
  metrics.AddStage(std::move(a));
  metrics.AddStage(std::move(b));
  EXPECT_EQ(metrics.max_peak_rss_bytes(), 3000);
  EXPECT_EQ(metrics.max_accumulator_bytes_peak(), 50);
  metrics.Clear();
  EXPECT_EQ(metrics.max_peak_rss_bytes(), 0);
  EXPECT_EQ(metrics.max_accumulator_bytes_peak(), 0);
}

// ----------------------------- MetricsRegistry --------------------------

TEST(MetricsRegistryTest, CountersAreMonotoneAndKindBindsAtFirstUse) {
  MetricsRegistry reg;
  reg.CounterAdd("requests", 2);
  reg.CounterAdd("requests", 3);
  reg.CounterAdd("requests", -5);  // ignored: counters are monotone
  EXPECT_EQ(reg.CounterValue("requests"), 5);
  // The name is bound to the counter kind now; other kinds are ignored.
  reg.GaugeSet("requests", 99);
  reg.HistogramObserve("requests", 1);
  EXPECT_EQ(reg.CounterValue("requests"), 5);
  EXPECT_EQ(reg.GaugeValue("requests"), 0);
  EXPECT_EQ(reg.HistogramCount("requests"), 0);
}

TEST(MetricsRegistryTest, GaugeSetOverwritesAndGaugeMaxKeepsHighWater) {
  MetricsRegistry reg;
  reg.GaugeSet("level", 10);
  reg.GaugeSet("level", 3);
  EXPECT_EQ(reg.GaugeValue("level"), 3);
  reg.GaugeMax("peak", 10);
  reg.GaugeMax("peak", 3);
  reg.GaugeMax("peak", 12);
  EXPECT_EQ(reg.GaugeValue("peak"), 12);
}

TEST(MetricsRegistryTest, LabelsSeparateSeries) {
  MetricsRegistry reg;
  reg.CounterAdd("tasks", 1, {{"stage", "0"}});
  reg.CounterAdd("tasks", 2, {{"stage", "1"}});
  reg.CounterAdd("tasks", 3, {{"stage", "0"}});
  EXPECT_EQ(reg.CounterValue("tasks", {{"stage", "0"}}), 4);
  EXPECT_EQ(reg.CounterValue("tasks", {{"stage", "1"}}), 2);
  EXPECT_EQ(reg.CounterValue("tasks"), 0);
}

TEST(MetricsRegistryTest, HistogramUsesDecadeBuckets) {
  MetricsRegistry reg;
  reg.HistogramObserve("lat", 0.5);
  reg.HistogramObserve("lat", 50);
  reg.HistogramObserve("lat", 5e12);  // beyond the last bound: +Inf
  EXPECT_EQ(reg.HistogramCount("lat"), 3);
  EXPECT_EQ(MetricsRegistry::HistogramBuckets().front(), 1.0);
  EXPECT_EQ(MetricsRegistry::HistogramBuckets().back(), 1e12);
}

TEST(MetricsRegistryTest, ProcessPeakRssIsPositiveAndMonotone) {
  const int64_t first = MetricsRegistry::ProcessPeakRssBytes();
  EXPECT_GT(first, 0);
  EXPECT_GE(MetricsRegistry::ProcessPeakRssBytes(), first);
}

TEST(MetricsRegistryTest, PrometheusGolden) {
  MetricsRegistry reg;
  reg.CounterAdd("tasks_total", 3, {{"stage", "0"}});
  reg.GaugeSet("rss_bytes", 1024);
  reg.HistogramObserve("dur_us", 5);
  reg.HistogramObserve("dur_us", 5000);
  std::ostringstream out;
  reg.WritePrometheus(out);
  const std::string kExpected =
      "# TYPE dur_us histogram\n"
      "dur_us_bucket{le=\"1\"} 0\n"
      "dur_us_bucket{le=\"10\"} 1\n"
      "dur_us_bucket{le=\"100\"} 1\n"
      "dur_us_bucket{le=\"1000\"} 1\n"
      "dur_us_bucket{le=\"10000\"} 2\n"
      "dur_us_bucket{le=\"100000\"} 2\n"
      "dur_us_bucket{le=\"1000000\"} 2\n"
      "dur_us_bucket{le=\"10000000\"} 2\n"
      "dur_us_bucket{le=\"100000000\"} 2\n"
      "dur_us_bucket{le=\"1000000000\"} 2\n"
      "dur_us_bucket{le=\"10000000000\"} 2\n"
      "dur_us_bucket{le=\"100000000000\"} 2\n"
      "dur_us_bucket{le=\"1000000000000\"} 2\n"
      "dur_us_bucket{le=\"+Inf\"} 2\n"
      "dur_us_sum 5005\n"
      "dur_us_count 2\n"
      "# TYPE rss_bytes gauge\n"
      "rss_bytes 1024\n"
      "# TYPE tasks_total counter\n"
      "tasks_total{stage=\"0\"} 3\n";
  EXPECT_EQ(out.str(), kExpected);
}

TEST(MetricsRegistryTest, JsonExportAndClear) {
  MetricsRegistry reg;
  reg.CounterAdd("c", 7);
  reg.GaugeSet("g", 2.5, {{"k", "v"}});
  reg.HistogramObserve("h", 42);
  std::ostringstream out;
  reg.WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"counters\":["), std::string::npos);
  EXPECT_NE(json.find("{\"name\":\"c\",\"labels\":{},\"value\":7}"),
            std::string::npos);
  EXPECT_NE(json.find("\"labels\":{\"k\":\"v\"},\"value\":2.5"),
            std::string::npos);
  EXPECT_NE(json.find("\"sum\":42,\"count\":1"), std::string::npos);
  reg.Clear();
  EXPECT_EQ(reg.CounterValue("c"), 0);
  EXPECT_EQ(reg.HistogramCount("h"), 0);
}

}  // namespace
}  // namespace diablo::runtime
