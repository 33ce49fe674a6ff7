#ifndef DIABLO_DIST_WORKER_H_
#define DIABLO_DIST_WORKER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "dist/wire.h"
#include "runtime/remote.h"

namespace diablo::dist {

/// Parameters a forked worker child needs to join the coordinator.
struct WorkerParams {
  int worker_id = 0;
  /// Coordinator's loopback listen port.
  uint16_t port = 0;
  /// Per-fork session token; the coordinator rejects Hellos from stale
  /// children of earlier forks racing the accept loop.
  uint64_t token = 0;
  int heartbeat_ms = 250;
  int connect_attempts = 10;
  int connect_backoff_ms = 10;
  /// Test hook: sleep this long before running every task, so a
  /// deadline/heartbeat test can make one worker pathologically slow
  /// without real clock dependence in assertions.
  int stall_ms = 0;
};

/// A forked worker's end of the coordinator link. Every way out of the
/// process is _exit(), so a worker skips the atexit handlers and leak
/// checks that belong to the coordinator: 0 on kShutdown, 3 when the
/// link fails, 4 when a replica finds the coordinator at another wave.
class WorkerLink {
 public:
  /// Connects back to the coordinator, handshakes and starts the
  /// heartbeat thread (which lives as long as the process).
  static std::unique_ptr<WorkerLink> Connect(const WorkerParams& params);

  /// Serves `wave` until the coordinator ends it: runs every dispatched
  /// task against this process's copy of the driver state and returns
  /// its result (with telemetry when the wave asks for it), and installs
  /// the relayed results of tasks that other workers ran. Returns at
  /// kWaveEnd; exits at kShutdown.
  void ServeWave(const runtime::RemoteTaskWave& wave);

  /// Replica side of a later wave of the scope: blocks for the
  /// coordinator's kWave header and checks it against `wave`, the wave
  /// this replica's own driver reached.
  void AwaitWave(const runtime::RemoteTaskWave& wave);

  ~WorkerLink();

 private:
  struct Sender;
  WorkerLink(std::unique_ptr<Sender> sender, int stall_ms);
  void RunTask(const runtime::RemoteTaskWave& wave,
               const std::string& payload);

  std::unique_ptr<Sender> sender_;
  FrameReader reader_;
  int stall_ms_ = 0;
};

/// Body of a worker forked for one wave only (outside any scope, or a
/// respawn in the middle of a wave): connects, serves the wave, exits.
[[noreturn]] void WorkerMain(const WorkerParams& params,
                             const runtime::RemoteTaskWave& wave);

/// kWave payload: the header a replica checks (scope, seq, stage, task
/// count, label). Equal waves encode to equal bytes.
std::string EncodeWavePayload(const runtime::RemoteTaskWave& wave);

/// Payload builders/parsers shared by worker and coordinator (and
/// exercised directly in tests). The hello carries the worker's
/// absolute steady-clock reading (µs) taken just before the send; the
/// coordinator subtracts its own reading at receive to measure the
/// clock offset used to rebase telemetry span times.
std::string EncodeHelloPayload(int worker_id, int64_t pid, uint64_t token,
                               double steady_now_us);
Status DecodeHelloPayload(const std::string& payload, int* worker_id,
                          int64_t* pid, uint64_t* token,
                          double* steady_now_us);
std::string EncodeTaskPayload(int p, int attempt);
Status DecodeTaskPayload(const std::string& payload, int* p, int* attempt);
std::string EncodeTaskResultPayload(int p, int attempt, const Status& status,
                                    const std::string& slots);
/// `*slots` views the slot bytes inside `payload` (no copy); it is valid
/// as long as `payload` is.
Status DecodeTaskResultPayload(const std::string& payload, int* p,
                               int* attempt, Status* task_status,
                               std::string_view* slots);
/// kTelemetry payload: task + attempt it accompanies, worker peak RSS,
/// and the spans recorded while running the task (absolute worker
/// steady-clock times; see runtime::WorkerTelemetry).
std::string EncodeTelemetryPayload(const runtime::WorkerTelemetry& telemetry);
Status DecodeTelemetryPayload(const std::string& payload,
                              runtime::WorkerTelemetry* telemetry);

}  // namespace diablo::dist

#endif  // DIABLO_DIST_WORKER_H_
