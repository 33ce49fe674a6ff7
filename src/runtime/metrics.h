#ifndef DIABLO_RUNTIME_METRICS_H_
#define DIABLO_RUNTIME_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace diablo::runtime {

/// Execution statistics for one engine operator (one "stage").
///
/// Narrow operators (map, filter, flatMap) only have map-side work. Wide
/// operators (groupByKey, reduceByKey, join, coGroup) additionally move
/// `shuffle_bytes` across the simulated network and then perform
/// reduce-side work on the post-shuffle partitions.
struct StageStats {
  std::string label;
  bool wide = false;
  /// Work units (≈ rows touched) per map-side task.
  std::vector<int64_t> map_work;
  /// Work units per reduce-side task (empty for narrow stages).
  std::vector<int64_t> reduce_work;
  /// Approximate bytes exchanged between workers during the shuffle.
  int64_t shuffle_bytes = 0;
  /// Fault-tolerance accounting (runtime/fault.h). `attempts` counts
  /// every task attempt across the stage's internal waves (== the task
  /// count on a fault-free run; 0 for driver-side metadata stages).
  int64_t attempts = 0;
  /// Input partitions rebuilt from lineage before the stage could run.
  int64_t recomputed_partitions = 0;
  /// Simulated seconds spent on recovery: wasted work of failed
  /// attempts, retry backoff, straggler delay, and lineage
  /// recomputation — priced by the engine's own ClusterModel at
  /// execution time. SimulatedSeconds() includes it; the fault-free
  /// figure is SimulatedFaultFreeSeconds().
  double recovery_seconds = 0;
  /// Narrow-operator fusion accounting. `fused_ops` is the number of
  /// deferred narrow operators this stage executed element-by-element
  /// inside its task wave. The rows/bytes fields count the intermediate
  /// results a one-stage-per-operator engine would have built as full
  /// ValueVec datasets between those operators but which this stage
  /// streamed through without materializing (bytes are estimated from
  /// the first row crossing each operator boundary).
  int64_t fused_ops = 0;
  int64_t rows_not_materialized = 0;
  int64_t bytes_not_materialized = 0;
  /// Hash-aggregation accounting (runtime/keyed_accumulator.h). Rows
  /// inserted into open-addressing KeyedAccumulators while executing
  /// this stage (combine + reduce side), and distinct keys they
  /// produced. Both 0 when the stage has no keyed aggregation.
  int64_t hash_agg_rows = 0;
  int64_t hash_agg_keys = 0;
  /// Tasks this stage ran on the persistent work-stealing WorkerPool
  /// (0 when host_threads <= 1 or the waves were too small to
  /// parallelize).
  int64_t pool_tasks = 0;
  /// Columnar-execution accounting (runtime/column_batch.h).
  /// `columnar_batches` counts partition
  /// batches this stage executed through a typed columnar fast path
  /// (typed reduceByKey combine/reduce, vectorized scatter key hashing,
  /// kernelized fused chains); `columnar_rows_fallback` counts rows that
  /// bounced back to the boxed per-row path mid-stage (heterogeneous
  /// kinds, non-scalar keys, uncovered operators). Both 0 for a stage
  /// with no typed fast path (joins, cogroups, closure-only operators).
  int64_t columnar_batches = 0;
  int64_t columnar_rows_fallback = 0;
  /// Multi-process distributed backend accounting (src/dist/). Tasks
  /// dispatched to worker processes, task re-dispatches after a worker
  /// died mid-task, and worker processes lost (heartbeat timeout,
  /// deadline, crash, or chaos SIGKILL) while this stage ran. All 0
  /// when EngineConfig::remote is unset.
  int64_t dist_tasks = 0;
  int64_t dist_retries = 0;
  int64_t dist_workers_lost = 0;
  /// Adaptive-execution accounting (DESIGN.md §17, under
  /// EngineConfig::skew). `salted_keys` counts distinct keys whose rows
  /// were folded in more than one salted sub-task and re-merged by the
  /// un-salt stage; `salt_fanout` counts the extra sub-tasks skew
  /// mitigation created beyond the unsalted task count;
  /// `cost_decisions` counts plan/engine decisions (broadcast-vs-hash
  /// join, partition count) that consulted a `--profile-in` prior-run
  /// profile. All 0 when no task salted and no profile was
  /// supplied.
  int64_t salted_keys = 0;
  int64_t salt_fanout = 0;
  int64_t cost_decisions = 0;
  /// Source provenance: the loop statement in the .diablo program this
  /// stage was translated from. `src_line == 0` means unknown (e.g. a
  /// stage run outside any statement scope). Reports render it as
  /// "label [file:line:col]".
  std::string src_file;
  int src_line = 0;
  int src_column = 0;
  /// Output rows per partition after the stage ran (per-partition skew
  /// histograms in the profile export; may be empty for driver-side
  /// metadata stages).
  std::vector<int64_t> partition_rows;
  /// Shuffle bytes received per destination partition (empty for narrow
  /// stages; sums to shuffle_bytes for shuffling stages).
  std::vector<int64_t> partition_bytes;
  /// Memory watermarks (cluster telemetry, DESIGN.md §18).
  /// `peak_rss_bytes` is the coordinator process's peak RSS (getrusage
  /// ru_maxrss) sampled when the stage finished — monotone over the run,
  /// so the per-stage series shows which stage first pushed the
  /// high-water mark. `accumulator_bytes_peak` is the largest estimated
  /// footprint of a single KeyedAccumulator / TypedReduceAccumulator any
  /// task of this stage filled (max across tasks; under the distributed
  /// backend it crosses the wire with the task's ChainTally, so it
  /// reflects worker-side memory).
  int64_t peak_rss_bytes = 0;
  int64_t accumulator_bytes_peak = 0;
};

/// Parameters of the deterministic cluster cost model.
///
/// The engine executes on the local host but *accounts* as if tasks were
/// spread over `num_workers` machines: each stage costs the makespan of a
/// longest-processing-time assignment of its tasks to workers, plus a
/// network term for shuffled bytes, plus a fixed scheduling latency for
/// wide stages. This reproduces the relative performance of competing
/// plans (fewer shuffles / less data moved => faster) without real
/// hardware; see DESIGN.md §3.
struct ClusterModel {
  int num_workers = 4;
  /// Seconds of simulated compute per work unit (row). Calibrated near
  /// Spark's per-row deserialization+closure overhead so that row counts,
  /// not stage latencies, dominate at benchmark scale.
  double seconds_per_work_unit = 200e-9;
  /// Seconds of simulated network transfer per shuffled byte (aggregate
  /// cluster bandwidth is num_workers / seconds_per_byte).
  double seconds_per_shuffle_byte = 20e-9;
  /// Fixed scheduling/coordination latency charged per wide stage.
  double wide_stage_latency_seconds = 5e-3;
  /// Fixed latency charged per narrow stage (task launch overhead).
  double narrow_stage_latency_seconds = 5e-4;
};

/// Accumulates per-stage statistics for a run and evaluates the cluster
/// cost model over them.
class Metrics {
 public:
  void AddStage(StageStats stage) { stages_.push_back(std::move(stage)); }
  void Clear() { stages_.clear(); }

  const std::vector<StageStats>& stages() const { return stages_; }
  int64_t num_stages() const { return static_cast<int64_t>(stages_.size()); }
  int64_t num_wide_stages() const;
  int64_t total_work() const;
  int64_t total_shuffle_bytes() const;
  /// Task attempts across all stages (fault tolerance; see StageStats).
  int64_t total_attempts() const;
  /// Partitions recomputed from lineage across all stages.
  int64_t total_recomputed_partitions() const;
  /// Simulated seconds of recovery work across all stages.
  double total_recovery_seconds() const;
  /// Fused narrow operators executed inside stage waves (see StageStats).
  int64_t total_fused_ops() const;
  /// Intermediate rows streamed through fused chains instead of built
  /// as full datasets.
  int64_t total_rows_not_materialized() const;
  /// Estimated bytes of those skipped intermediates.
  int64_t total_bytes_not_materialized() const;
  /// Rows inserted into hash KeyedAccumulators across all stages.
  int64_t total_hash_agg_rows() const;
  /// Distinct keys those accumulators produced.
  int64_t total_hash_agg_keys() const;
  /// Tasks executed on the persistent worker pool across all stages.
  int64_t total_pool_tasks() const;
  /// Partition batches run through typed columnar fast paths.
  int64_t total_columnar_batches() const;
  /// Rows that fell back from columnar to boxed execution mid-stage.
  int64_t total_columnar_rows_fallback() const;
  /// Tasks dispatched to distributed worker processes across all stages.
  int64_t total_dist_tasks() const;
  /// Task re-dispatches after real worker deaths across all stages.
  int64_t total_dist_retries() const;
  /// Worker processes lost (and recovered from) across all stages.
  int64_t total_dist_workers_lost() const;
  /// Keys folded in more than one salted sub-task across all stages.
  int64_t total_salted_keys() const;
  /// Extra sub-tasks skew mitigation created across all stages.
  int64_t total_salt_fanout() const;
  /// Profile-informed plan decisions taken across all stages.
  int64_t total_cost_decisions() const;
  /// High-water marks across all stages (memory watermarks are maxima,
  /// not sums: RSS is monotone and accumulators are per-task peaks).
  int64_t max_peak_rss_bytes() const;
  int64_t max_accumulator_bytes_peak() const;

  /// Simulated wall-clock seconds on a cluster described by `model`,
  /// recovery overhead included.
  double SimulatedSeconds(const ClusterModel& model) const;

  /// The same run priced as if no fault had fired (recovery excluded);
  /// SimulatedSeconds() - SimulatedFaultFreeSeconds() is the recovery
  /// overhead the fault model charges.
  double SimulatedFaultFreeSeconds(const ClusterModel& model) const;

  /// One line per stage: label, tasks, work, shuffled bytes.
  std::string Report() const;

 private:
  std::vector<StageStats> stages_;
};

/// Makespan of assigning `tasks` (work units) to `workers` identical
/// workers using the longest-processing-time greedy rule.
int64_t LptMakespan(std::vector<int64_t> tasks, int workers);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_METRICS_H_
