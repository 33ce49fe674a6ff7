#ifndef DIABLO_RUNTIME_ENGINE_H_
#define DIABLO_RUNTIME_ENGINE_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "runtime/column_batch.h"
#include "runtime/dataset.h"
#include "runtime/events.h"
#include "runtime/fault.h"
#include "runtime/keyed_accumulator.h"
#include "runtime/metrics.h"
#include "runtime/operators.h"
#include "runtime/trace.h"
#include "runtime/value.h"
#include "runtime/wave_io.h"

namespace diablo::runtime {

class WorkerPool;
class RemoteExecutor;
class MetricsRegistry;

/// Runtime skew mitigation (DESIGN.md §17). When one task of a combine
/// or reduce wave would receive far more rows than its peers — a hot
/// key, a key-clustered input layout, or many keys hashed together —
/// the engine "salts" that task: it is split into sub-tasks that run in
/// parallel, and a final un-salt merge reassembles the task's output
/// byte-identically to the unsalted run. Three mechanisms, chosen by
/// operator so exactness never depends on luck:
///  - groupByKey reduce tasks split into contiguous row CHUNKS (a key's
///    bag is its values in arrival order, and concatenating per-chunk
///    bags in chunk order IS arrival order — exact for every type);
///  - reduceByKey reduce tasks split into hash STRIPES (remixed key
///    hash modulo fanout): no key is ever split across sub-tasks, so
///    any reduce function stays exact, and the merge is a disjoint
///    sorted merge;
///  - reduceByKey combine tasks over provably bit-associative folds
///    (native {+, *, min, max} on int64 payloads) split into contiguous
///    row chunks whose partials re-merge in the normal reduce stage.
struct SkewConfig {
  /// A task is hot when its rows exceed kSkewRatio times the wave mean
  /// and it carries at least this many rows. Small waves — every tier-1
  /// test — never salt, so their stage accounting is untouched; tests
  /// lower it so small inputs reach salting.
  int64_t min_rows = 64 * 1024;
};

/// The hot-task ratio of SkewConfig: rows above this multiple of the
/// wave mean.
inline constexpr double kSkewRatio = 4.0;
/// Most sub-tasks one hot task is split into.
inline constexpr int kSkewMaxFanout = 8;

/// Configuration of the simulated cluster engine.
struct EngineConfig {
  /// Number of partitions newly parallelized datasets are split into.
  int num_partitions = 8;
  /// Real host threads used to execute partition tasks. 1 = run inline.
  /// Any value works on any host; this only affects wall-clock execution,
  /// never results or the cost model.
  int host_threads = 1;
  /// Parameters of the deterministic cluster cost model (see metrics.h).
  ClusterModel cluster;
  /// Extension (paper §7 future work): when > 0, the comprehension
  /// planner turns a distributed hash join whose array side is at most
  /// this many bytes into a broadcast hash join — the array ships to
  /// every worker once and the probe side never shuffles. 0 keeps the
  /// paper-faithful shuffle joins.
  int64_t broadcast_join_threshold_bytes = 0;
  /// When true, every shuffled row round-trips through the binary codec
  /// (runtime/serialize.h), exactly as it would cross a real network:
  /// validates the wire format under load and makes the accounted
  /// shuffle bytes the exact encoded size. Off by default (the
  /// SerializedBytes() estimate is used instead).
  bool serialize_shuffles = false;
  /// Runtime skew mitigation threshold (see SkewConfig above). Outputs
  /// are byte-identical whether or not a task salts (tests/skew_test.cc);
  /// only wall-clock and task accounting change.
  SkewConfig skew;
  /// Deterministic fault injection and recovery policy (runtime/fault.h).
  /// Off by default: with no fault class enabled the engine skips all
  /// fault bookkeeping and retains no lineage closures.
  FaultConfig faults;
  /// When true (the default), the engine records wall-clock trace spans
  /// (run > statement > stage > wave > task, plus recovery spans) into a
  /// TraceRecorder reachable via Engine::trace() — see runtime/trace.h
  /// and DESIGN.md §13. Tracing never changes stage numbering, fault
  /// coordinates, or any program output byte (asserted in trace_test).
  /// False makes every hook a single null-pointer test.
  bool tracing = true;
  /// When set, every task wave executes on this remote backend (the
  /// multi-process coordinator of src/dist/) instead of in-process
  /// threads: workers run the task closures against their forked copy of
  /// the driver state and results come back over the wire
  /// (runtime/wave_io.h). Inside a RemoteScope the workers are replicas
  /// that live across waves. The engine then forces host_threads = 1 —
  /// the driver must be single-threaded at fork time, and a replica
  /// runs every driver step inline. Not owned.
  RemoteExecutor* remote = nullptr;
  /// With `remote`: treat a real worker death as a partition loss and
  /// route the dead worker's partitions through the lineage
  /// recompute_many path at the next stage boundary (forces
  /// FaultConfig::retain_lineage so the closures exist). The rebuilt
  /// partitions are bit-identical — PR 1's fault-injection invariant is
  /// the correctness oracle for real SIGKILLs.
  bool dist_lose_on_kill = false;
  /// Cluster telemetry sinks (DESIGN.md §18), both nullable and not
  /// owned. `registry` receives named counters/gauges/histograms
  /// (per-stage peak RSS, accumulator watermarks, task durations) for
  /// --metrics-out; `events` receives the structured event stream
  /// (task_retry, lineage_recovery, skew_salting, cost_decision, plus
  /// the dist backend's worker-lifecycle events) for --events-out.
  /// Null sinks cost one pointer test per site and change no output.
  MetricsRegistry* registry = nullptr;
  EventLog* events = nullptr;
};

/// Source provenance the engine stamps into every finished stage (and
/// its trace span): the statement of the source program currently
/// executing. Installed by the target executor / plan evaluator around
/// each statement via Engine::SwapProvenance; `line == 0` means "no
/// statement scope is active".
struct EngineProvenance {
  std::string file;       ///< source program path ("" = unknown)
  int line = 0;
  int column = 0;
  std::string statement;  ///< short statement label, e.g. "assign P"
};

/// Per-stage fault-handling tallies, merged into the recorded StageStats.
struct StageRecovery {
  int64_t attempts = 0;
  int64_t recomputed_partitions = 0;
  double recovery_seconds = 0;
  /// Distributed-backend tallies (zero unless EngineConfig::remote).
  int64_t dist_tasks = 0;
  int64_t dist_retries = 0;
  int64_t dist_workers_lost = 0;
};

/// The DIABLO execution substrate: a from-scratch, in-process
/// data-parallel engine with the Spark RDD operator vocabulary.
///
/// Datasets are hash-partitioned; narrow operators (map/filter/flatMap)
/// transform partitions in place, wide operators (groupByKey, reduceByKey,
/// join, coGroup) redistribute rows by key hash — a shuffle. Every stage
/// records a StageStats entry in metrics(), from which the cluster cost
/// model computes a simulated distributed run time (DESIGN.md §3 explains
/// why this substitution preserves the paper's comparisons).
///
/// Narrow operators defer: they return a lazy Dataset whose pending
/// chain runs fused inside the next stage boundary, one element at a
/// time — the Spark pipelining model. A fused stage's label joins the chain's labels with '+'
/// ("flatMap+filter+map"), and StageStats::fused_ops /
/// rows_not_materialized / bytes_not_materialized make the saved
/// intermediates observable.
///
/// Rows of keyed datasets are pair tuples (key, value); the key may be any
/// Value (ints, tuples of ints, strings, ...).
///
/// Fault tolerance (DESIGN.md §"Fault model"): when EngineConfig::faults
/// enables injection, every partition task runs under a bounded retry
/// budget; injected failures (killed attempts, corrupted shuffle
/// payloads) are retried with deterministic simulated backoff, and lost
/// input partitions are recomputed from dataset lineage — Checkpoint()
/// truncates lineage inside iterative loops. A failed attempt restarts
/// the whole fused chain for its partition. All recovery work is
/// charged to StageStats::recovery_seconds. The invariant: a run that
/// completes under injection produces bit-identical results to the
/// fault-free run.
///
/// All operator callbacks may fail; a genuine callback error is never
/// retried — the first one aborts the stage and is returned. A narrow
/// operator's error surfaces at the stage boundary that executes the
/// chain, not at the deferring call. Callbacks must be thread-safe when
/// host_threads > 1 and must be restartable (they may run more than
/// once for the same partition under retries).
class Engine {
 public:
  using MapFn = std::function<StatusOr<Value>(const Value&)>;
  using FlatMapFn = std::function<StatusOr<ValueVec>(const Value&)>;
  using PredFn = std::function<StatusOr<bool>(const Value&)>;
  using ReduceFn = std::function<StatusOr<Value>(const Value&, const Value&)>;

  explicit Engine(EngineConfig config = EngineConfig());
  ~Engine();

  /// Marks one program run (TargetExecutor::Run: input ingest plus every
  /// statement) as a scope of the remote backend. Every task wave issued
  /// while the scope is open carries its id, so the backend forks its
  /// workers once, at the scope's first wave, and keeps them as replicas
  /// of the driver until the destructor ends the scope — the one place
  /// where replicas are retired and where a replica process exits,
  /// whichever way the run returns. Without EngineConfig::remote, or
  /// inside a scope that is already open, it does nothing.
  class RemoteScope {
   public:
    explicit RemoteScope(Engine* engine);
    ~RemoteScope();
    RemoteScope(const RemoteScope&) = delete;
    RemoteScope& operator=(const RemoteScope&) = delete;

   private:
    Engine* engine_ = nullptr;  ///< null when this object opened no scope
  };

  const EngineConfig& config() const { return config_; }
  Metrics& metrics() { return metrics_; }
  const Metrics& metrics() const { return metrics_; }

  /// The engine's trace recorder, or null when tracing is off — the
  /// null test IS the tracing-off fast path.
  TraceRecorder* trace() const { return trace_.get(); }

  /// Installs the source provenance stamped into subsequently finished
  /// stages, returning the previous value so callers can nest scopes
  /// and restore on exit (While bodies re-enter statement scopes).
  EngineProvenance SwapProvenance(EngineProvenance p) {
    std::swap(p, provenance_);
    return p;
  }
  const EngineProvenance& provenance() const { return provenance_; }

  /// Records a driver-side synthetic stage produced outside the normal
  /// operator paths (the planner's broadcast-join ship / cartesian
  /// product accounting), stamped with provenance and traced like any
  /// other stage.
  void RecordPlannerStage(StageStats stats);

  /// Counts one profile-informed plan decision (broadcast-vs-hash join,
  /// partition count chosen from --profile-in evidence); drained into
  /// the next finished stage's StageStats::cost_decisions, mirroring
  /// how pool task tallies are attributed.
  void RecordCostDecision() {
    ++cost_decisions_pending_;
    if (config_.events != nullptr) {
      Event e;
      e.name = "cost_decision";
      e.src_file = provenance_.file;
      e.src_line = provenance_.line;
      e.src_column = provenance_.column;
      config_.events->Emit(std::move(e));
    }
  }

  /// Clears recorded metrics and restarts stage numbering, so a fresh
  /// run on this engine sees the same fault schedule as the previous one
  /// (stage ids are the injector's coordinates). Trace spans recorded so
  /// far are dropped with them (span stage indexes point into metrics).
  void ResetRunState() {
    metrics_.Clear();
    next_stage_id_ = 0;
    pool_tasks_pending_ = 0;
    cost_decisions_pending_ = 0;
    worker_rss_pending_ = 0;
    if (TraceRecorder* t = trace()) t->Clear();
  }

  /// Splits `rows` into num_partitions contiguous chunks. No stage is
  /// recorded: loading input data is not charged to any plan.
  Dataset Parallelize(ValueVec rows) const;
  Dataset Parallelize(ValueVec rows, int num_partitions) const;

  /// The integer range [lo, hi] (inclusive, as in the paper's `range`),
  /// split into contiguous partitions.
  Dataset Range(int64_t lo, int64_t hi) const;

  /// Narrow: applies `fn` to every row. Lazy.
  StatusOr<Dataset> Map(const Dataset& in, const MapFn& fn,
                        const std::string& label = "map");

  /// Narrow: applies `fn` to the value of every (k,v) pair row, keeping
  /// the key — Spark's mapValues. Lazy.
  StatusOr<Dataset> MapValues(const Dataset& in, const MapFn& fn,
                              const std::string& label = "mapValues");

  /// Narrow: keeps rows satisfying `pred`. Lazy.
  StatusOr<Dataset> Filter(const Dataset& in, const PredFn& pred,
                           const std::string& label = "filter");

  /// Kernel-carrying narrow operators: `row ⊕ operand` (or the pair
  /// value / a comparison predicate) expressed as a built-in BinOp
  /// against a constant. Semantically identical to the closure forms —
  /// EvalBinOp defines the result — but the op is visible to the engine,
  /// so a fully-kernelized fused chain executes vectorized over column
  /// batches.
  StatusOr<Dataset> Map(const Dataset& in, BinOp op, const Value& operand,
                        const std::string& label = "map");
  StatusOr<Dataset> MapValues(const Dataset& in, BinOp op,
                              const Value& operand,
                              const std::string& label = "mapValues");
  StatusOr<Dataset> Filter(const Dataset& in, BinOp op, const Value& operand,
                           const std::string& label = "filter");
  /// Filter on the value of (k,v) pair rows: keeps rows with
  /// `v ⊕ operand` true. Errors on non-pair rows, like MapValues.
  StatusOr<Dataset> FilterValues(const Dataset& in, BinOp op,
                                 const Value& operand,
                                 const std::string& label = "filter");

  /// Narrow: maps every row to a bag of rows and concatenates. Lazy.
  StatusOr<Dataset> FlatMap(const Dataset& in, const FlatMapFn& fn,
                            const std::string& label = "flatMap");

  /// Materializes any pending fused chain as ONE task wave (the stage
  /// label joins the chain's labels with '+'). No-op for materialized
  /// datasets. Use before reading partitions()/TotalRows() directly.
  StatusOr<Dataset> Force(const Dataset& in);

  /// Wide: groups (k,v) rows by k; result rows are (k, Bag-of-v), sorted
  /// by key within each partition (for determinism).
  StatusOr<Dataset> GroupByKey(const Dataset& in,
                               const std::string& label = "groupByKey");

  /// Wide: combines values of equal keys with `fn`. Performs a map-side
  /// combine before shuffling, like Spark's reduceByKey.
  StatusOr<Dataset> ReduceByKey(const Dataset& in, const ReduceFn& fn,
                                const std::string& label = "reduceByKey");
  /// ReduceByKey with a built-in commutative operator. The combine and
  /// reduce sides run through the typed accumulator when the op and the
  /// observed key/value kinds allow it; `schema` is the plan-time hint
  /// (kUnknown fields mean "detect from the data") that lets the engine
  /// skip the typed attempt when the planner already knows the value
  /// type can't columnarize.
  StatusOr<Dataset> ReduceByKey(const Dataset& in, BinOp op,
                                const std::string& label = "reduceByKey",
                                const ColumnSchema& schema = ColumnSchema());

  /// Wide: inner equi-join of (k,a) with (k,b); result rows (k,(a,b)).
  StatusOr<Dataset> Join(const Dataset& left, const Dataset& right,
                         const std::string& label = "join");

  /// Wide: full cogroup of (k,a) with (k,b); result rows
  /// (k,(Bag-of-a, Bag-of-b)) for every key present on either side.
  StatusOr<Dataset> CoGroup(const Dataset& left, const Dataset& right,
                            const std::string& label = "coGroup");

  /// Narrow: bag union (concatenation) of the two datasets. Metadata
  /// only (like Spark's union): no tasks run beyond forcing any pending
  /// chains of the inputs, so no faults can hit the union itself.
  StatusOr<Dataset> Union(const Dataset& a, const Dataset& b);

  /// Wide: removes duplicate rows.
  StatusOr<Dataset> Distinct(const Dataset& in,
                             const std::string& label = "distinct");

  /// Writes the dataset to (simulated) stable storage and truncates its
  /// lineage: the result is durable, so recoveries stop here instead of
  /// walking further back. Use inside iterative loops (PageRank,
  /// K-means) to bound both recovery cost and lineage depth. Any
  /// pending fused chain executes inside the write wave; the write is
  /// charged as a narrow stage whose shuffle_bytes are the serialized
  /// dataset size.
  StatusOr<Dataset> Checkpoint(const Dataset& in,
                               const std::string& label = "checkpoint");

  /// Action: combines all rows with `fn`; nullopt for an empty dataset.
  StatusOr<std::optional<Value>> Reduce(const Dataset& in, const ReduceFn& fn,
                                        const std::string& label = "reduce");
  /// Reduce with a built-in operator: per-partition partials fold with
  /// native int64/double arithmetic (same arrival order, bit-identical
  /// results) while the partials stay typed.
  StatusOr<std::optional<Value>> Reduce(const Dataset& in, BinOp op,
                                        const std::string& label = "reduce");

  /// Action: gathers all rows to the driver, in partition order (forcing
  /// any pending chain first).
  StatusOr<ValueVec> Collect(const Dataset& in);

  /// Action: the first row in partition order; error when empty.
  StatusOr<Value> First(const Dataset& in);

  /// Action: number of rows (charged as a narrow scan).
  StatusOr<int64_t> Count(const Dataset& in);

 private:
  /// Emits one shuffled row: (memoized key hash, row).
  using EmitFn = std::function<Status(size_t, const Value&)>;

  /// Runs fn(0..n-1), using up to config_.host_threads threads of the
  /// persistent pool. All partitions that could fail with a
  /// lower index than the lowest known failure are executed, and the
  /// error of the lowest-indexed failing partition is returned — so
  /// failures are reproducible across host_threads settings.
  Status RunPerPartition(int n, const std::function<Status(int)>& fn) const;

  /// Allocates the next task-wave id (the injector's stage coordinate).
  int NextStageId() { return next_stage_id_++; }

  /// Runs one wave of tasks (one per entry of `task_work`) under the
  /// fault model: injected kills and TaskLost results are retried up to
  /// the budget with simulated backoff charged to `rec`; genuine errors
  /// abort immediately. `fn(partition, attempt)` must be restartable.
  /// `slots` describes the per-task output slots `fn` writes; when
  /// EngineConfig::remote is set the wave runs on the remote backend,
  /// which marshals exactly those slots back from the workers.
  Status RunTaskWave(const std::string& label, int stage,
                     const std::vector<int64_t>& task_work,
                     const std::function<Status(int, int)>& fn,
                     StageRecovery* rec, const WaveSlots* slots = nullptr);

  /// Remote dispatch of one task wave via EngineConfig::remote: builds
  /// the RemoteTaskWave closure bundle (worker-side run/encode,
  /// coordinator-side install, the engine-owned simulated-fault hooks,
  /// and trace/recovery hooks) and merges the backend's counters into
  /// `rec` in task-index order for deterministic accounting.
  Status RunTaskWaveRemote(const std::string& label, int stage,
                           const std::vector<int64_t>& task_work,
                           const std::function<Status(int, int)>& fn,
                           StageRecovery* rec, const WaveSlots& slots,
                           TraceRecorder* tr, int64_t wave_span_id);

  /// Applies any one-shot lost-partition directives targeting
  /// (stage, input_index): rebuilds the lost partitions from `in`'s
  /// lineage — in ONE source pass via LineageNode::recompute_many when
  /// the node provides it — charging the recomputation to `rec`. The
  /// returned dataset keeps `in`'s pending fused chain. Returns `in`
  /// unchanged when nothing was lost.
  StatusOr<Dataset> RecoverInput(const Dataset& in, int stage,
                                 int input_index, StageRecovery* rec);

  /// Shared scatter core of the shuffle waves: `produce(p, emit)` emits
  /// every (key hash, row) of source partition p; the core routes each
  /// row to hash % num_partitions (with optional wire-format round-trip
  /// and payload corruption injection), returning per-destination rows
  /// that CARRY the memoized key hash and the number of bytes moved.
  /// When `dest_bytes` is non-null the bytes received per destination
  /// partition are ACCUMULATED into it (the per-partition byte
  /// histogram of the profile export).
  /// `tallies` (nullable) are the per-source-task fused-chain tallies
  /// the producer writes; listed here so the remote backend marshals
  /// them back with the buckets.
  StatusOr<std::vector<HashedVec>> ShuffleCore(
      int stage, const std::vector<int64_t>& task_work,
      const std::function<Status(int, const EmitFn&)>& produce,
      int64_t* shuffle_bytes, std::vector<int64_t>* dest_bytes,
      std::vector<ChainTally>* tallies, StageRecovery* rec);

  /// Hash-partitions keyed rows of `in` into num_partitions buckets as
  /// one task wave: a single-pass scatter that applies `in`'s pending
  /// fused chain element-by-element and hashes each produced row's key
  /// ONCE into its destination buffer; the reduce side reuses the
  /// carried hash instead of rehashing.
  StatusOr<std::vector<HashedVec>> ShuffleWave(const Dataset& in, int stage,
                                               int64_t* shuffle_bytes,
                                               StageRecovery* rec,
                                               StageStats* stats);

  /// ShuffleWave over rows whose key hashes are already memoized (the
  /// map-side combine output of ReduceByKey): no key is ever rehashed.
  StatusOr<std::vector<HashedVec>> ShuffleHashed(
      const std::vector<HashedVec>& in, int stage, int64_t* shuffle_bytes,
      StageRecovery* rec, StageStats* stats);

  /// ShuffleHashed without the boxing: scatters typed combine output
  /// (runtime/column_batch.h TypedRows — cached hashes, raw key bits,
  /// numeric payloads) straight into per-destination typed arrays. Only
  /// engaged when every combine partition stayed typed with one
  /// key/payload shape and no wire format, fault injection or remote
  /// backend needs boxed rows; byte accounting charges exactly what the
  /// boxed pair rows would have weighed, so stats match ShuffleHashed.
  StatusOr<std::vector<TypedRows>> ShuffleTyped(
      const std::vector<TypedRows>& in, int stage, int64_t* shuffle_bytes,
      StageRecovery* rec, StageStats* stats);

  /// Force's columnar wave: runs `src`'s fully-kernelized fused chain as
  /// column batches — one unbox per source row, each kernel a vector
  /// loop over the typed payload, one re-box per surviving row — into
  /// `out`. A partition whose rows don't columnarize replays the boxed
  /// per-row chain (byte-identical by construction) and is counted in
  /// StageStats::columnar_rows_fallback. Under the distributed backend
  /// the batches themselves cross the wire (wave_io col_batches slot);
  /// the driver re-boxes after the wave.
  Status ForceColumnar(const Dataset& src, const std::string& label,
                       int stage, std::vector<ValueVec>* out,
                       std::vector<ChainTally>* tallies, StageRecovery* rec);

  /// Shared implementation of both ReduceByKey overloads. `native_op`
  /// is non-null when the reduction is a built-in operator the columnar
  /// typed accumulator may take over; `fn` is always the semantic truth
  /// (the fallback and recovery paths use it).
  StatusOr<Dataset> ReduceByKeyImpl(const Dataset& in, const ReduceFn& fn,
                                    const BinOp* native_op,
                                    const ColumnSchema& schema,
                                    const std::string& label);

  /// Shared implementation of both Reduce overloads. `typed_op` is
  /// non-null when the columnar TypedFold may fold the partials; `fn` is
  /// always the semantic truth (and the fallback).
  StatusOr<std::optional<Value>> ReduceImpl(const Dataset& in,
                                            const ReduceFn& fn,
                                            const BinOp* typed_op,
                                            const std::string& label);

  /// Merges `rec` into `stats` and records the stage.
  void FinishStage(StageStats stats, const StageRecovery& rec);

  /// Builds a lineage node for a dataset produced by this engine. The
  /// recompute closures are only retained when fault injection is on.
  /// `depth_increment` is how many operators the node stands for (a
  /// fused stage advances depth by its whole chain length).
  std::shared_ptr<const LineageNode> MakeLineage(
      std::string kind, std::string label,
      std::vector<std::shared_ptr<const LineageNode>> parents,
      LineageNode::RecomputeFn recompute,
      LineageNode::RecomputeManyFn recompute_many = nullptr,
      int depth_increment = 1) const;

  /// One destination partition's output rows of a wide operator, from
  /// its post-shuffle rows: rows[k] are input k's, in arrival order.
  using WideFinalizer =
      std::function<StatusOr<ValueVec>(const std::vector<HashedVec>& rows)>;

  /// The lineage node of a wide operator (groupByKey, reduceByKey, join,
  /// coGroup, distinct) over `inputs`. Recovery runs the restricted
  /// scatter of each input (ScatterLost in engine.cc; `combine`, when
  /// set, is applied to each source partition's rows before routing),
  /// then `finalize` on every lost destination — the same per-destination
  /// function the forward task runs.
  std::shared_ptr<const LineageNode> WideLineage(
      std::string kind, const std::string& label, std::vector<Dataset> inputs,
      WideFinalizer finalize,
      std::function<StatusOr<HashedVec>(HashedVec)> combine = nullptr) const;

  /// Both inputs of Join or CoGroup after RecoverAndShuffleBoth.
  struct CoShuffled {
    Dataset left, right;
    std::vector<HashedVec> ls, rs;  ///< post-shuffle rows per destination
  };

  /// Join and CoGroup's shared front half. Recovers both inputs (loss
  /// directives address them as inputs 0 and 1 of `left_stage`),
  /// shuffles the left at `left_stage` and the right at `right_stage`,
  /// and fills the stats both operators record alike: label, map work,
  /// shuffle bytes.
  StatusOr<CoShuffled> RecoverAndShuffleBoth(const Dataset& left,
                                             const Dataset& right,
                                             const std::string& label,
                                             int left_stage, int right_stage,
                                             StageRecovery* rec,
                                             StageStats* stats);

  EngineConfig config_;
  Metrics metrics_;
  FaultInjector injector_;
  int next_stage_id_ = 0;
  /// Created in the constructor when config_.tracing; never reassigned,
  /// so trace() is stable for the engine's lifetime.
  std::unique_ptr<TraceRecorder> trace_;
  /// Current statement scope (SwapProvenance), driver-side only.
  EngineProvenance provenance_;
  /// Tasks run on the persistent pool since the last FinishStage, which
  /// drains the tally into StageStats::pool_tasks. Driver-side counter
  /// (RunPerPartition returns only after the wave completes); mutable
  /// because RunPerPartition is const.
  mutable int64_t pool_tasks_pending_ = 0;
  /// Profile-informed decisions since the last FinishStage (see
  /// RecordCostDecision).
  int64_t cost_decisions_pending_ = 0;
  /// Largest worker-process peak RSS shipped in telemetry frames since
  /// the last FinishStage, which folds it into the finishing stage's
  /// StageStats::peak_rss_bytes (max with the driver's own getrusage
  /// reading) — same drain pattern as pool_tasks_pending_.
  int64_t worker_rss_pending_ = 0;
  /// Persistent work-stealing worker pool, created lazily on the first
  /// multi-threaded wave and reused for the engine's whole lifetime.
  /// Mutable: creating it does not change observable engine state.
  mutable std::unique_ptr<WorkerPool> pool_;
  /// The open RemoteScope's id (0 = none), the number of remote waves
  /// issued in it so far, and what the backend armed to run when it
  /// ends (RemoteTaskWave::at_scope_end).
  uint64_t remote_scope_ = 0;
  int64_t remote_waves_in_scope_ = 0;
  std::function<void()> remote_scope_end_;
  /// Partitions owed by workers that died mid-wave
  /// (EngineConfig::dist_lose_on_kill): registered by the remote
  /// backend's on_worker_lost hook, consumed by the next RecoverInput
  /// (input 0), which rebuilds them from lineage via recompute_many —
  /// real kills exercise the same recovery path as simulated losses.
  std::vector<int> pending_lost_partitions_;
};

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_ENGINE_H_
