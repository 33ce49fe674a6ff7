#ifndef DIABLO_RUNTIME_FAULT_H_
#define DIABLO_RUNTIME_FAULT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace diablo::runtime {

/// Deterministic fault injection for the simulated cluster engine.
///
/// A real DISC framework owes half its value to surviving machine
/// failures; the engine reproduces that story with a seeded injector the
/// scheduler consults at every decision point. Every draw is a pure
/// function of (seed, stage, partition, attempt, ...), so a run with a
/// fixed seed is bit-reproducible regardless of host_threads or thread
/// interleaving, and two runs with the same seed observe the exact same
/// faults, retries, and recoveries. Injected faults never change
/// results: any run that completes produces the same output as the
/// fault-free run (asserted in fault_tolerance_test.cc).
///
/// Stages here are the engine's internal task waves, numbered from 0 in
/// execution order. Deferred narrow operators consume NO stage ids — the
/// whole pending chain runs inside the wave of the next stage boundary
/// (Force, shuffle, combine, reduce, checkpoint, collect). A wide
/// operator spends one wave per internal phase (e.g. combine/shuffle/
/// reduce).

/// One-shot directive: the task for `partition` of stage `stage` dies on
/// its first attempt (the scheduler retries it on the next attempt).
struct KillTask {
  int stage = 0;
  int partition = 0;
};

/// One-shot directive: when stage `stage` starts, the materialized
/// partition `partition` of its input number `input_index` (0 = first /
/// only input, 1 = right side of a join) has been lost with its worker
/// and must be recomputed from lineage before the stage can run.
struct LosePartition {
  int stage = 0;
  int partition = 0;
  int input_index = 0;
};

/// Fault-model knobs, part of EngineConfig. All rates are per-draw
/// probabilities in [0, 1]; 0 disables that fault class.
struct FaultConfig {
  /// Seed of the deterministic injector. Two runs with equal seeds (and
  /// equal programs/configs) observe identical faults.
  uint64_t seed = 0;
  /// Probability that a task attempt is killed before it runs.
  double task_failure_rate = 0.0;
  /// Probability that a successful task attempt straggles; its runtime
  /// is multiplied by `straggler_multiplier` in the cost model.
  double straggler_rate = 0.0;
  double straggler_multiplier = 4.0;
  /// Probability that one shuffled row's wire payload is corrupted in
  /// flight (only effective with EngineConfig::serialize_shuffles): the
  /// simulated checksum detects it and the fetch task retries.
  double corrupt_shuffle_rate = 0.0;
  /// Retry budget per task. When a task fails this many attempts the
  /// job aborts with a descriptive RuntimeError.
  int max_task_attempts = 4;
  /// Simulated scheduler backoff charged before retry k: base * 2^k.
  double retry_backoff_seconds = 0.05;
  /// TargetExecutor checkpoints a loop-carried array when its lineage
  /// depth reaches this many operators (0 disables auto-checkpointing).
  int lineage_checkpoint_depth = 16;
  /// One-shot kill / partition-loss directives (see structs above).
  std::vector<KillTask> kill_tasks;
  std::vector<LosePartition> lose_partitions;
  /// Keep lineage recompute closures alive even with every simulated
  /// fault class disarmed. The distributed backend (src/dist/) sets
  /// this: a real SIGKILL can lose partitions at any moment, and
  /// recovery needs the recompute path that enabled() otherwise prunes.
  bool retain_lineage = false;

  /// True when any fault class can fire. When false the engine skips
  /// all fault bookkeeping (and builds no recompute closures).
  bool enabled() const;
};

/// Stateless oracle answering "does fault X hit here?" from pure hashes
/// of the seed and the coordinates. Thread-safe by construction.
class FaultInjector {
 public:
  FaultInjector() = default;
  explicit FaultInjector(FaultConfig config);

  const FaultConfig& config() const { return config_; }

  /// Should this task attempt be killed before running?
  bool TaskAttemptFails(int stage, int partition, int attempt) const;

  /// Runtime multiplier of a completed attempt (1.0 = no straggling).
  double StragglerMultiplier(int stage, int partition, int attempt) const;

  /// Should row `row` of shuffle-map task `partition` be corrupted in
  /// flight on this attempt?
  bool CorruptShuffleRow(int stage, int partition, int attempt,
                         int64_t row) const;

  /// Which byte of a `size`-byte wire payload the corruption flips.
  size_t CorruptByteIndex(int stage, int partition, int64_t row,
                          size_t size) const;

  /// Input partitions of (stage, input_index) lost to directives, in
  /// directive order. Out-of-range partitions are ignored.
  std::vector<int> LostPartitions(int stage, int input_index,
                                  int num_partitions) const;

 private:
  /// Uniform draw in [0, 1) keyed by a stream tag and coordinates.
  double Uniform(uint64_t stream, uint64_t a, uint64_t b, uint64_t c) const;

  FaultConfig config_;
};

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_FAULT_H_
