#ifndef DIABLO_DIST_COORDINATOR_H_
#define DIABLO_DIST_COORDINATOR_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "dist/chaos.h"
#include "runtime/remote.h"

namespace diablo::runtime {
class EventLog;
}  // namespace diablo::runtime

namespace diablo::dist {

/// Knobs of the multi-process distributed backend.
struct DistConfig {
  /// Worker processes: forked once per scope (one program run) and kept
  /// as replicas across its waves; a wave outside any scope forks its
  /// own set.
  int num_workers = 2;
  /// Worker heartbeat period.
  int heartbeat_ms = 250;
  /// A worker is declared dead after this many missed heartbeats
  /// (timeout = heartbeat_ms * missed_beats). The budget also covers
  /// the post-fork connect window.
  int missed_beats = 8;
  /// Per-task wall-clock deadline; a worker that holds a task longer is
  /// declared dead and the task is re-dispatched.
  int task_deadline_ms = 30000;
  /// Real-retry budget: how many times one task may be re-dispatched
  /// after losing its worker before the wave fails. Separate from the
  /// simulated retry budget (FaultConfig::max_task_attempts) — a real
  /// re-dispatch re-runs the SAME simulated attempt.
  int max_task_retries = 3;
  /// How many dead workers may be re-forked mid-wave per job. Respawn
  /// is the last resort, used only when a wave has no surviving worker;
  /// otherwise dead workers' tasks degrade onto survivors. (Re-forking a
  /// lost replica at the next wave's start is not a respawn.)
  int max_respawns = 4;
  /// Worker-side reconnect backoff (doubles per attempt).
  int connect_backoff_ms = 10;
  int connect_attempts = 10;
  /// Test hooks: make one worker sleep before every task, so deadline
  /// and heartbeat recovery can be exercised deterministically.
  int stall_worker = -1;
  int stall_ms = 0;
  /// SIGKILL schedule for the chaos harness.
  ChaosConfig chaos;
  /// Log kills/deaths/respawns to stderr.
  bool verbose = false;
  /// Structured event sink (chaos_kill / worker_lost / heartbeat_loss /
  /// worker_respawn events); null disables emission. Not owned.
  runtime::EventLog* events = nullptr;
};

class WorkerLink;

/// Multi-process wave executor. Serves task waves to `num_workers`
/// worker processes over loopback TCP with CRC-framed messages, and
/// survives worker death via heartbeats, deadlines, task re-dispatch,
/// and bounded respawn. Plugged into the engine via
/// EngineConfig::remote.
///
/// Workers are replicas of the driver. At the first wave of an
/// Engine::RemoteScope the coordinator forks them from its own state
/// (copy-on-write gives them every closure for free); each then returns
/// into the same driver code and meets the coordinator at every later
/// wave of the scope, where it runs the tasks assigned to it and
/// installs the relayed results of all others, so it stays in the
/// coordinator's state without a plan ever being serialized. A worker
/// that is lost, diverges or hits a genuine task error is retired and
/// re-forked from the coordinator's current state at the next wave. A
/// wave outside any scope forks a set that exits when the wave ends.
class Coordinator : public runtime::RemoteExecutor {
 public:
  explicit Coordinator(DistConfig config);
  /// Retires any live replicas and reaps them.
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  Status RunWave(const runtime::RemoteTaskWave& wave,
                 runtime::RemoteWaveStats* stats) override;

  const DistConfig& config() const { return config_; }
  /// Workers SIGKILLed by the chaos schedule so far (all waves).
  int chaos_kills() const { return chaos_kills_; }
  /// Respawn budget consumed so far (all waves).
  int respawns_used() const { return respawns_used_; }
  /// Worker processes forked so far: scope starts, re-forks of lost
  /// replicas, out-of-scope waves and respawns alike.
  int forks() const { return forks_; }

 private:
  struct WorkerState;

  /// Retires every live worker (shutdown, SIGKILL, reap) and leaves the
  /// current scope.
  void EndScope();

  DistConfig config_;
  ChaosSchedule chaos_;
  uint64_t next_token_ = 1;
  int respawns_used_ = 0;
  int chaos_kills_ = 0;
  int forks_ = 0;
  /// Loopback listener the workers connect to; opened at the first wave.
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  /// Scope whose replicas `workers_` holds (0 = none).
  uint64_t scope_ = 0;
  std::vector<WorkerState> workers_;
  /// Set only inside a forked replica: its link to the coordinator.
  std::unique_ptr<WorkerLink> replica_;
};

}  // namespace diablo::dist

#endif  // DIABLO_DIST_COORDINATOR_H_
