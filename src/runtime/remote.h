#ifndef DIABLO_RUNTIME_REMOTE_H_
#define DIABLO_RUNTIME_REMOTE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace diablo::runtime {

/// One span recorded inside a worker process and shipped back with the
/// task result (kTelemetry frame). Times are ABSOLUTE worker
/// steady-clock microseconds; the coordinator rebases them into its
/// recorder's timebase using the clock offset measured at the Hello
/// handshake. (Workers are forked from the coordinator on one host, so
/// both read the same CLOCK_MONOTONIC; the offset is the measured
/// residual, applied only when it is large enough to be a real skew.)
struct WorkerSpan {
  double start_abs_us = 0;
  double dur_us = 0;
  int partition = -1;
  int attempt = 0;
  int stage_id = -1;
  int64_t rows = -1;
};

/// Telemetry piggybacked on one task result: the spans the worker
/// recorded while running the task, plus process-level counters.
struct WorkerTelemetry {
  int task = -1;
  int attempt = 0;
  /// Worker process peak RSS in bytes (getrusage) when the task ended.
  int64_t peak_rss_bytes = 0;
  std::vector<WorkerSpan> spans;
};

/// One task wave handed to a remote executor. The engine packages every
/// wave (map, shuffle, reduce, ...) into this closure bundle so the
/// scheduling seam stays in runtime/ while the process/socket machinery
/// lives in src/dist/ — runtime/ never links against dist/.
///
/// Split of responsibilities:
///  - `run` and `encode` execute on the WORKER side, in a forked worker
///    process against its own copy of the driver state.
///  - `install` executes on BOTH sides: the coordinator installs every
///    accepted result into the driver's live slot vectors, and a worker
///    replica installs the results of the tasks other workers ran, so
///    it ends the wave holding the coordinator's slots.
///  - every other hook below executes on the COORDINATOR side only.
///
/// Worker replicas. Inside an Engine::RemoteScope (one program run) the
/// backend forks its workers once, at the scope's first wave. A forked
/// worker is then a replica: it returns from the wave into the same
/// engine and driver code the coordinator runs, builds the next wave's
/// closures itself, and meets the coordinator at that wave, whose
/// header (`scope`, `seq`, `stage`, `label`, task count) it checks
/// against its own. A wave outside any scope is a scope of one wave: its
/// workers exit when it ends. Because DecodeTaskSlots writes whole
/// slots and slots are a wave's only outputs, a replica that ran its own
/// tasks and installed every other task's result ends the wave with the
/// same slot contents as the coordinator.
///
/// Simulated faults stay engine-owned: the coordinator drives the same
/// attempt loop the local scheduler runs (begin_attempt / sim_kill /
/// charge_*) so a distributed run charges byte-identical simulated
/// retry and straggler time. Real worker deaths are a separate budget:
/// a task lost to a SIGKILL is re-dispatched with the SAME simulated
/// attempt number, keeping the deterministic fault schedule aligned
/// between local and distributed runs.
///
/// Every member must be set; the engine always provides all of them
/// (with trivial bodies when fault injection or tracing is off).
struct RemoteTaskWave {
  /// Human-readable op label ("map", "shuffle", ...), for errors/logs.
  std::string label;
  /// Stage id (fault-injection coordinate and trace stage).
  int stage = 0;
  /// Per-task work estimate (rows), sized to the number of tasks.
  std::vector<int64_t> task_work;
  /// Simulated retry budget: a task whose simulated attempt counter
  /// reaches this bound fails the wave via `sim_budget_exhausted`.
  int max_sim_attempts = 1;

  /// Id of the Engine::RemoteScope the wave runs in (0 = none: a scope
  /// of this wave alone). Waves of one scope may share worker replicas.
  uint64_t scope = 0;
  /// 0-based position of the wave within its scope; part of the header
  /// a replica checks.
  int64_t seq = 0;
  /// BOTH sides, called by the backend in its own process: `on_end` is
  /// run when the scope ends (Engine::RemoteScope's destructor, which
  /// every return path of the scope passes). The coordinator arms the
  /// teardown of its replicas at the scope's first wave; a forked
  /// replica re-arms it with its own exit, so the end of the scope is
  /// the only place a replica leaves the driver code.
  std::function<void(std::function<void()> on_end)> at_scope_end;

  /// WORKER: runs task `p` as simulated attempt `attempt`, writing the
  /// worker-local copy of the wave's slots. May return TaskLost (a
  /// simulated in-task fault) — retryable by the coordinator.
  std::function<Status(int p, int attempt)> run;
  /// WORKER: encodes task `p`'s slots after a successful run.
  std::function<StatusOr<std::string>(int p)> encode;
  /// BOTH: installs a worker's encoded slots for task `p` into this
  /// process's slot vectors.
  std::function<Status(int p, std::string_view bytes)> install;

  /// COORDINATOR: starts the next simulated attempt of task `p` and
  /// returns its 0-based attempt number (charges the engine's per-stage
  /// attempt counter).
  std::function<int(int p)> begin_attempt;
  /// COORDINATOR: true when the deterministic injector kills simulated
  /// attempt `attempt` of task `p` before it would run.
  std::function<bool(int p, int attempt)> sim_kill;
  /// COORDINATOR: charges simulated recovery time (task time + backoff)
  /// for a failed simulated attempt.
  std::function<void(int p, int attempt)> charge_failure;
  /// COORDINATOR: charges simulated straggler slowdown, if any, for a
  /// successful attempt.
  std::function<void(int p, int attempt)> charge_success;
  /// COORDINATOR: the error a task reports when its simulated retry
  /// budget is exhausted (message identical to the local scheduler's).
  std::function<Status(int p)> sim_budget_exhausted;

  /// Ask workers to record and ship task telemetry (kTelemetry frames).
  /// Costs one extra frame per task result; off when the engine has
  /// neither a trace recorder nor a metrics registry.
  bool want_telemetry = false;

  /// COORDINATOR trace hooks. `worker` is the 0-based worker index.
  std::function<void(int p, int attempt, int worker)> on_dispatch;
  std::function<void(int p, int attempt, int worker)> on_complete;
  /// COORDINATOR: telemetry received from `worker` for one task, before
  /// the matching on_complete. `clock_offset_us` is the worker's steady
  /// clock minus the coordinator's, measured at the Hello handshake.
  /// Null when want_telemetry is false.
  std::function<void(int worker, double clock_offset_us,
                     const WorkerTelemetry& telemetry)>
      on_telemetry;
  /// COORDINATOR: a worker died (heartbeat timeout, task deadline, or a
  /// real kill); `pending` lists the task indices that were in flight
  /// on it and will be re-dispatched to survivors.
  std::function<void(int worker, const std::vector<int>& pending,
                     const std::string& reason)>
      on_worker_lost;
};

/// Counters a remote executor reports back per wave, merged into the
/// engine's stage metrics.
struct RemoteWaveStats {
  /// Tasks dispatched to workers (includes real-retry re-dispatches).
  int64_t tasks = 0;
  /// Re-dispatches caused by real worker loss (not simulated faults).
  int64_t real_retries = 0;
  /// Workers declared dead during the wave.
  int64_t workers_lost = 0;
  /// Total encoded result bytes installed.
  int64_t result_bytes = 0;
};

/// The engine's seam to a distributed backend. Implemented by
/// dist::Coordinator; the engine calls RunWave for every task wave when
/// EngineConfig::remote is set.
class RemoteExecutor {
 public:
  virtual ~RemoteExecutor() = default;

  /// Executes every task of `wave` remotely, installing all results
  /// before returning. Returns the first (lowest task index) genuine
  /// task error, or a DistError when the backend itself fails.
  virtual Status RunWave(const RemoteTaskWave& wave,
                         RemoteWaveStats* stats) = 0;
};

}  // namespace diablo::runtime

#endif  // DIABLO_RUNTIME_REMOTE_H_
