#ifndef DIABLO_RUNTIME_TRACE_H_
#define DIABLO_RUNTIME_TRACE_H_

// Wall-clock tracing and profiling for the engine (DESIGN.md §13).
//
// The engine records real spans while it executes:
//
//   run > statement > stage > wave > task
//                           > recovery (lineage recomputation, retries)
//
// Driver-side spans (run/statement/stage/wave/recovery) nest through an
// explicit stack — the engine driver is single-threaded. Task spans are
// appended concurrently by worker threads under a mutex, already closed,
// with the wave span as parent. Every span carries a monotonic
// (steady_clock) start and duration in microseconds, the worker that ran
// it, and — once provenance is stamped — the source location of the
// loop statement it was translated from.
//
// Tracing is controlled by EngineConfig::tracing (default on; the off
// path is a null-pointer check per hook).
//
// Exports:
//   WriteChromeTrace    Chrome trace_event JSON (chrome://tracing,
//                       Perfetto): one timeline row for the driver and
//                       one per worker thread.
//   WriteProfileJson    schema-stable profile JSON: totals, per-stage
//                       counters + source locations, task-time
//                       percentiles, per-partition row/byte histograms,
//                       skew ratio (max/mean task time), straggler
//                       flags (> 2x median). Validated by
//                       tools/check_trace_profile.py.
//   WriteExplainAnalyze text report interleaving the statement/plan
//                       structure with the observed runtime stats.

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "runtime/metrics.h"

namespace diablo::runtime {

enum class SpanKind { kRun, kStatement, kStage, kWave, kTask, kRecovery };

/// Stable lowercase name ("run", "statement", ...), used in exports.
const char* SpanKindName(SpanKind kind);

struct TraceSpan {
  int64_t id = 0;
  int64_t parent = -1;  ///< span id of the enclosing span, -1 for roots
  SpanKind kind = SpanKind::kTask;
  std::string name;
  double start_us = 0;  ///< microseconds since the recorder's epoch
  double dur_us = 0;
  int worker = 0;      ///< 0 = driver/inline, 1.. = host worker threads
  int partition = -1;  ///< task spans: the partition the task processed
  int attempt = 0;     ///< task spans: retry attempt (0 = first try)
  int stage_id = -1;   ///< engine stage number (fault-injector coordinates)
  int64_t rows = -1;   ///< task: input work units; stage: output rows
  int64_t shuffle_bytes = -1;
  /// Stage spans: index of the matching StageStats in Metrics::stages(),
  /// stamped when the stage finishes; -1 otherwise.
  int metrics_index = -1;
  /// Process lane for distributed runs: 0 = coordinator, 1.. = worker
  /// process id + 1. Chrome export maps it to `pid`, so a multi-process
  /// run renders one process group per worker under a single timeline.
  int process = 0;
  /// Worker-process spans: the clock offset (worker steady clock minus
  /// coordinator steady clock, µs) measured at the Hello handshake and
  /// already applied to start_us. 0 for coordinator-side spans.
  double clock_offset_us = 0;
  /// Source provenance; src_line == 0 means unknown.
  std::string src_file;
  int src_line = 0;
  int src_column = 0;
};

/// Collects spans for one engine. All public methods are thread-safe;
/// Begin/End additionally maintain the driver-side nesting stack and
/// must only be called from the driver thread.
class TraceRecorder {
 public:
  TraceRecorder();

  /// Microseconds since this recorder was constructed (monotonic).
  double NowUs() const;

  /// Opens a driver-side span nested under the innermost open one.
  int64_t BeginSpan(SpanKind kind, std::string name);
  /// Closes `id` (and anything left open beneath it) at NowUs().
  void EndSpan(int64_t id);

  /// Innermost open driver-side span of `kind`, or -1.
  int64_t OpenSpan(SpanKind kind) const;

  void SetName(int64_t id, std::string name);
  void SetStageId(int64_t id, int stage_id);
  void SetRows(int64_t id, int64_t rows);
  void SetShuffleBytes(int64_t id, int64_t bytes);
  void SetMetricsIndex(int64_t id, int index);
  void SetLocation(int64_t id, std::string file, int line, int column);

  /// Records an already-timed task execution under `parent` (the wave
  /// span). Safe to call concurrently from worker threads.
  void AddTask(int64_t parent, double start_us, double dur_us, int worker,
               int partition, int attempt, int stage_id, int64_t rows);

  /// Splices a span shipped from another process (dist telemetry) under
  /// `parent`, assigning it a fresh id. `span.start_us` must already be
  /// in this recorder's timebase (caller subtracts EpochUs() and applies
  /// the clock offset); `span.process` selects its Chrome process lane.
  int64_t AddRemoteSpan(int64_t parent, TraceSpan span);

  /// The absolute steady-clock reading (µs) this recorder's span
  /// timestamps are relative to. Remote telemetry ships absolute
  /// steady-clock times; the splice converts with
  /// `abs_us - EpochUs() + clock_offset`.
  double EpochUs() const { return epoch_us_; }

  /// Copy of all spans recorded so far (open spans have dur_us extended
  /// to now).
  std::vector<TraceSpan> Snapshot() const;

  void Clear();

 private:
  mutable std::mutex mu_;
  std::vector<TraceSpan> spans_;
  std::vector<int64_t> stack_;  ///< driver-side open spans, outermost first
  double epoch_us_ = 0;         ///< steady_clock reading at construction
};

/// RAII driver-side span; every operation is a no-op when `rec` is null,
/// which is the whole tracing-off fast path.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceRecorder* rec, SpanKind kind, std::string name)
      : rec_(rec) {
    if (rec_ != nullptr) id_ = rec_->BeginSpan(kind, std::move(name));
  }
  ~ScopedSpan() {
    if (rec_ != nullptr && id_ >= 0) rec_->EndSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceRecorder* recorder() const { return rec_; }
  int64_t id() const { return id_; }

  void SetStageId(int stage_id) {
    if (rec_ != nullptr) rec_->SetStageId(id_, stage_id);
  }
  void SetRows(int64_t rows) {
    if (rec_ != nullptr) rec_->SetRows(id_, rows);
  }
  void SetLocation(std::string file, int line, int column) {
    if (rec_ != nullptr) rec_->SetLocation(id_, std::move(file), line, column);
  }

 private:
  TraceRecorder* rec_ = nullptr;
  int64_t id_ = -1;
};

/// Worker id of the calling thread for task spans: 0 for the driver (and
/// for tasks run inline on it), 1.. for pool worker threads.
/// Set once per worker thread by the thread's run loop.
int CurrentTraceWorker();
void SetCurrentTraceWorker(int worker);

/// Chrome trace_event JSON ("X" complete events + thread names).
void WriteChromeTrace(const std::vector<TraceSpan>& spans, std::ostream& os);

/// Schema-stable profile JSON (schema_version 4). Works with an empty
/// span vector (tracing off): per-stage counters still come from
/// `metrics`, wall-clock task stats are simply absent.
void WriteProfileJson(const Metrics& metrics, const ClusterModel& model,
                      const std::vector<TraceSpan>& spans,
                      const std::string& program, std::ostream& os);

/// --explain-analyze: statement tree interleaved with observed stats.
/// Falls back to the plain metrics report when `spans` is empty.
void WriteExplainAnalyze(const Metrics& metrics, const ClusterModel& model,
                         const std::vector<TraceSpan>& spans,
                         std::ostream& os);

/// Observed wall-clock statistics over the task spans beneath one stage
/// span, as rendered into the profile JSON and explain-analyze report.
struct TaskTimeStats {
  int64_t count = 0;
  double total_us = 0;
  double mean_us = 0;
  double p50_us = 0;
  double p90_us = 0;
  double max_us = 0;
  /// max/mean task time; 1.0 for perfectly balanced waves, 0 when empty.
  double skew_ratio = 0;
  /// Partitions whose task time exceeded 2x the median.
  std::vector<int> straggler_partitions;
};

/// Aggregates the task spans transitively beneath span `stage_span_id`.
TaskTimeStats AggregateTaskTimes(const std::vector<TraceSpan>& spans,
                                 int64_t stage_span_id);

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_TRACE_H_
