#include "dist/coordinator.h"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "dist/worker.h"
#include "runtime/events.h"

namespace diablo::dist {

namespace {

using Clock = std::chrono::steady_clock;

int64_t MsSince(Clock::time_point then, Clock::time_point now) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(now - then)
      .count();
}

double SteadyNowUs() {
  return std::chrono::duration<double, std::micro>(
             Clock::now().time_since_epoch())
      .count();
}

struct TaskState {
  bool done = false;
  /// Next simulated attempt number (coordinator-side mirror of the
  /// engine's per-task attempt counter; begin_attempt is only called
  /// for attempts inside the simulated budget so local and distributed
  /// runs charge identical attempt counts).
  int next_sim_attempt = 0;
  /// Simulated attempt currently (or last) dispatched.
  int cur_attempt = -1;
  /// True when the task lost its worker mid-flight and must re-run the
  /// same simulated attempt on a survivor.
  bool redispatch_same = false;
  int real_retries = 0;
  Status failure;  // genuine task failure, reported at wave end
  bool failed = false;
};

/// Accepted connection that has not yet identified itself with Hello.
struct PendingConn {
  int fd = -1;
  FrameReader reader;
};

}  // namespace


/// One worker id, as the coordinator sees it. Lives as long as the
/// coordinator: a dead worker keeps its id (chaos coordinates and logs
/// stay stable) and is re-forked into the same slot.
struct Coordinator::WorkerState {
  pid_t pid = -1;
  int fd = -1;
  bool connected = false;
  bool alive = false;
  /// Forked at the start of a scoped wave, so it outlives the wave as a
  /// replica. False for out-of-scope workers and mid-wave respawns,
  /// which exit when their wave ends.
  bool replica = false;
  /// Session token of the current fork; its Hello must echo it.
  uint64_t token = 0;
  FrameReader reader;
  Clock::time_point last_heard;
  int in_flight = -1;
  Clock::time_point dispatched_at;
  std::deque<int> queue;
  /// Accepted results of other workers still to be relayed to this
  /// replica. They go out only while it has no task in flight, when it
  /// is sure to be reading: a replica blocked sending its own large
  /// result never faces a coordinator blocked sending to it.
  std::vector<std::shared_ptr<const Frame>> relays;
  /// Worker steady clock minus coordinator steady clock (µs), measured
  /// when the Hello arrived; rebases telemetry span times.
  double clock_offset_us = 0;
  /// Results installed from this worker id during the current wave,
  /// cumulative across respawns — the chaos-kill trigger coordinate.
  int results_in_wave = 0;
  /// Highest result count already tested against the chaos schedule,
  /// so a respawned worker never re-draws an already-survived
  /// coordinate (that would re-kill it forever under a kill rate).
  int chaos_checked_through = -1;

  /// Polite shutdown, then SIGKILL; the pid goes to `to_reap`. No-op
  /// on a slot that holds no process.
  void Retire(std::vector<pid_t>* to_reap) {
    if (alive && connected) {
      SendFrame(fd, FrameType::kShutdown, std::string());
    }
    CloseFd(fd);
    fd = -1;
    if (pid > 0) {
      kill(pid, SIGKILL);
      to_reap->push_back(pid);
      pid = -1;
    }
    alive = false;
    connected = false;
    in_flight = -1;
    queue.clear();
    relays.clear();
  }
};

namespace {

void ReapAll(const std::vector<pid_t>& pids) {
  for (pid_t pid : pids) {
    int wstatus = 0;
    while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }
}

}  // namespace

Coordinator::Coordinator(DistConfig config)
    : config_(std::move(config)), chaos_(config_.chaos) {
  config_.num_workers = std::max(config_.num_workers, 1);
  config_.heartbeat_ms = std::max(config_.heartbeat_ms, 10);
  config_.missed_beats = std::max(config_.missed_beats, 1);
  config_.task_deadline_ms = std::max(config_.task_deadline_ms, 50);
  config_.max_task_retries = std::max(config_.max_task_retries, 0);
  config_.max_respawns = std::max(config_.max_respawns, 0);
  workers_.resize(static_cast<size_t>(config_.num_workers));
}

Coordinator::~Coordinator() {
  EndScope();
  CloseFd(listen_fd_);
}

void Coordinator::EndScope() {
  std::vector<pid_t> to_reap;
  for (WorkerState& ws : workers_) ws.Retire(&to_reap);
  ReapAll(to_reap);
  scope_ = 0;
}

Status Coordinator::RunWave(const runtime::RemoteTaskWave& wave,
                            runtime::RemoteWaveStats* stats) {
  const int num_tasks = static_cast<int>(wave.task_work.size());
  if (num_tasks == 0) return Status::OK();
  if (replica_ != nullptr) {
    // This process is a replica: meet the coordinator at the wave this
    // copy of the driver reached.
    replica_->AwaitWave(wave);
    replica_->ServeWave(wave);
    return Status::OK();
  }
  const int num_workers = config_.num_workers;
  // Replicas hold one scope's state; a wave of another scope (or of
  // none) retires them first.
  if (wave.scope != scope_) EndScope();
  const bool scoped = wave.scope != 0;
  if (scoped && scope_ == 0) {
    scope_ = wave.scope;
    wave.at_scope_end([this, scope = wave.scope] {
      if (scope_ == scope) EndScope();
    });
  }
  if (listen_fd_ < 0) {
    DIABLO_ASSIGN_OR_RETURN(listen_fd_, ListenLoopback(&port_));
  }

  std::vector<WorkerState>& workers = workers_;
  std::vector<TaskState> tasks(num_tasks);
  std::vector<PendingConn> pending;
  std::vector<pid_t> to_reap;
  int tasks_done = 0;

  auto log = [this, &wave](const std::string& line) {
    if (config_.verbose) {
      std::fprintf(stderr, "diablo-dist: stage %d %s\n", wave.stage,
                   line.c_str());
    }
  };

  // Structured event sink; every emission is gated on the null test so
  // runs without --events-out stay byte-identical.
  runtime::EventLog* events = config_.events;

  Status wave_error;  // first backend-level (non-task) failure

  auto fail_wave = [&](Status st) {
    if (wave_error.ok()) wave_error = std::move(st);
  };

  auto params_for = [&](int w) {
    WorkerParams params;
    params.worker_id = w;
    params.port = port_;
    params.token = workers[w].token;
    params.heartbeat_ms = config_.heartbeat_ms;
    params.connect_attempts = config_.connect_attempts;
    params.connect_backoff_ms = config_.connect_backoff_ms;
    if (w == config_.stall_worker) params.stall_ms = config_.stall_ms;
    return params;
  };

  // Forks worker id `w` from this process's current state. Returns 0 in
  // the child, which has already shed every fd it inherited from the
  // coordinator (listener, every worker socket, pending connections).
  auto fork_worker = [&](int w, bool replica) -> StatusOr<pid_t> {
    WorkerState& ws = workers[w];
    ws.token = next_token_++;
    pid_t pid = fork();
    if (pid < 0) {
      return Status::DistError(StrCat("fork: ", std::strerror(errno)));
    }
    if (pid == 0) {
      CloseFd(listen_fd_);
      for (const WorkerState& other : workers) CloseFd(other.fd);
      for (const PendingConn& conn : pending) CloseFd(conn.fd);
      return pid;
    }
    ++forks_;
    ws.pid = pid;
    ws.fd = -1;
    ws.connected = false;
    ws.alive = true;
    ws.replica = replica;
    ws.reader = FrameReader();
    ws.last_heard = Clock::now();
    ws.relays.clear();
    return pid;
  };

  // Wave start. A replica carried over from the previous wave gets the
  // header of this one; one that exited meanwhile, or whose socket is
  // gone, is retired. Every worker id left without a process is forked
  // from the current state: as a replica inside a scope, as a worker of
  // this wave alone outside one.
  const std::string header = EncodeWavePayload(wave);
  for (int w = 0; w < num_workers; ++w) {
    WorkerState& ws = workers[w];
    if (!ws.alive) continue;
    int wstatus = 0;
    if (waitpid(ws.pid, &wstatus, WNOHANG) == ws.pid) {
      ws.pid = -1;  // already reaped
      log(StrCat("replica ", w, " exited between waves; re-forking"));
      ws.Retire(&to_reap);
    } else if (!SendFrame(ws.fd, FrameType::kWave, header).ok()) {
      log(StrCat("replica ", w, " unreachable; re-forking"));
      ws.Retire(&to_reap);
    }
  }
  for (int w = 0; w < num_workers && wave_error.ok(); ++w) {
    if (workers[w].alive) continue;
    StatusOr<pid_t> pid = fork_worker(w, scoped);
    if (!pid.ok()) {
      fail_wave(pid.status());
    } else if (*pid == 0) {
      const WorkerParams params = params_for(w);
      if (!scoped) WorkerMain(params, wave);  // never returns
      // A replica: this process now leaves the driver code only at the
      // end of the scope.
      wave.at_scope_end([] { _exit(0); });
      replica_ = WorkerLink::Connect(params);
      replica_->ServeWave(wave);
      return Status::OK();
    }
  }
  // Liveness clocks restart: nobody read the sockets between waves.
  const Clock::time_point wave_start = Clock::now();
  for (WorkerState& ws : workers) {
    ws.last_heard = wave_start;
    ws.in_flight = -1;
    ws.queue.clear();
    ws.results_in_wave = 0;
    ws.chaos_checked_through = -1;
  }

  // Static round-robin assignment fixes which worker owns which task
  // before any socket timing can interfere — the foundation of chaos
  // reproducibility.
  for (int p = 0; p < num_tasks; ++p) {
    workers[p % num_workers].queue.push_back(p);
  }

  auto record_task_failure = [&](int p, Status st) {
    TaskState& task = tasks[p];
    if (!task.done) {
      task.done = true;
      ++tasks_done;
    }
    task.failed = true;
    task.failure = std::move(st);
  };

  std::function<void(int, const char*)> declare_dead;

  // SIGKILLs `w` per the chaos schedule if its current result count has
  // an unconsumed kill scheduled. Checked when a worker starts the wave
  // (count 0: kill before any result) and after every installed result.
  auto maybe_chaos_kill = [&](int w) {
    WorkerState& ws = workers[w];
    if (!chaos_.enabled() || !ws.alive) return;
    if (ws.results_in_wave <= ws.chaos_checked_through) return;
    ws.chaos_checked_through = ws.results_in_wave;
    if (!chaos_.ShouldKill(wave.stage, w, ws.results_in_wave)) return;
    ++chaos_kills_;
    std::fprintf(stderr,
                 "diablo-dist: chaos kill worker %d pid %ld (stage %d, "
                 "after %d results)\n",
                 w, static_cast<long>(ws.pid), wave.stage,
                 ws.results_in_wave);
    if (events != nullptr) {
      runtime::Event e;
      e.name = "chaos_kill";
      e.stage_id = wave.stage;
      e.ints.emplace_back("worker", w);
      e.ints.emplace_back("after_results", ws.results_in_wave);
      events->Emit(std::move(e));
    }
    kill(ws.pid, SIGKILL);
    declare_dead(w, "chaos kill");
  };

  // Sends `w` the results queued for it, if it is idle (see
  // WorkerState::relays).
  auto flush_relays = [&](int w) {
    WorkerState& ws = workers[w];
    if (!ws.alive || !ws.connected || ws.in_flight >= 0) return;
    std::vector<std::shared_ptr<const Frame>> batch;
    batch.swap(ws.relays);
    for (const auto& frame : batch) {
      if (!RelayFrame(ws.fd, *frame).ok()) {
        declare_dead(w, "send failed");
        return;
      }
    }
  };

  // Hands the next dispatchable task to `w`, running the simulated
  // fault loop (begin_attempt / sim_kill / charge_failure) exactly as
  // the local scheduler would, so distributed runs charge the same
  // simulated attempts, backoff, and straggler time.
  auto dispatch_next = [&](int w) {
    WorkerState& ws = workers[w];
    flush_relays(w);
    while (ws.alive && ws.connected && ws.in_flight < 0 &&
           !ws.queue.empty() && wave_error.ok()) {
      int p = ws.queue.front();
      ws.queue.pop_front();
      TaskState& task = tasks[p];
      if (task.done) continue;
      int attempt = task.cur_attempt;
      if (!task.redispatch_same) {
        // Simulated attempt loop (mirrors the local scheduler).
        bool exhausted = false;
        for (;;) {
          if (task.next_sim_attempt >= wave.max_sim_attempts) {
            record_task_failure(p, wave.sim_budget_exhausted(p));
            exhausted = true;
            break;
          }
          attempt = task.next_sim_attempt++;
          wave.begin_attempt(p);
          if (wave.sim_kill(p, attempt)) {
            wave.charge_failure(p, attempt);
            continue;
          }
          break;
        }
        if (exhausted) continue;
      }
      task.cur_attempt = attempt;
      task.redispatch_same = false;
      Status sent =
          SendFrame(ws.fd, FrameType::kTask, EncodeTaskPayload(p, attempt));
      if (!sent.ok()) {
        // Dead socket: the liveness machinery handles the worker; the
        // task goes back to the front so redistribution picks it up.
        task.redispatch_same = true;
        ws.queue.push_front(p);
        declare_dead(w, "send failed");
        return;
      }
      ws.in_flight = p;
      ws.dispatched_at = Clock::now();
      ++stats->tasks;
      wave.on_dispatch(p, attempt, w);
    }
  };

  declare_dead = [&](int w, const char* reason) {
    WorkerState& ws = workers[w];
    if (!ws.alive) return;
    ws.alive = false;
    ws.connected = false;
    CloseFd(ws.fd);
    ws.fd = -1;
    ws.relays.clear();
    if (ws.pid > 0) {
      kill(ws.pid, SIGKILL);
      to_reap.push_back(ws.pid);
      ws.pid = -1;
    }
    ++stats->workers_lost;

    // Everything this worker still owed: the in-flight task (re-run on
    // the same simulated attempt) plus its undispatched queue.
    std::vector<int> owed;
    if (ws.in_flight >= 0) {
      int p = ws.in_flight;
      ws.in_flight = -1;
      TaskState& task = tasks[p];
      if (!task.done) {
        ++task.real_retries;
        ++stats->real_retries;
        if (task.real_retries > config_.max_task_retries) {
          fail_wave(Status::DistError(
              StrCat("stage #", wave.stage, " '", wave.label,
                     "': task ", p, " lost its worker ", task.real_retries,
                     " times; real retry budget (", config_.max_task_retries,
                     ") exhausted")));
        } else {
          task.redispatch_same = true;
          owed.push_back(p);
        }
      }
    }
    for (int p : ws.queue) {
      if (!tasks[p].done) owed.push_back(p);
    }
    ws.queue.clear();
    log(StrCat("worker ", w, " lost (", reason, "); ", owed.size(),
               " tasks re-admitted"));
    if (events != nullptr) {
      runtime::Event e;
      e.name = "worker_lost";
      e.stage_id = wave.stage;
      e.ints.emplace_back("worker", w);
      e.ints.emplace_back("tasks_readmitted",
                          static_cast<int64_t>(owed.size()));
      e.strs.emplace_back("reason", reason);
      events->Emit(std::move(e));
      if (std::strcmp(reason, "heartbeat timeout") == 0) {
        runtime::Event hb;
        hb.name = "heartbeat_loss";
        hb.stage_id = wave.stage;
        hb.ints.emplace_back("worker", w);
        events->Emit(std::move(hb));
      }
    }
    wave.on_worker_lost(w, owed, reason);

    // Degrade onto survivors, round-robin in id order; respawn is the
    // last resort when nobody survived. A respawned worker serves this
    // wave only: it is forked mid-wave, so it could not follow the
    // scope; the next wave re-forks the id as a replica.
    std::vector<int> survivors;
    for (int i = 0; i < num_workers; ++i) {
      if (workers[i].alive) survivors.push_back(i);
    }
    if (survivors.empty()) {
      if (!owed.empty() || tasks_done < num_tasks) {
        if (respawns_used_ >= config_.max_respawns) {
          fail_wave(Status::DistError(
              StrCat("stage #", wave.stage, " '", wave.label,
                     "': all workers dead; respawn budget (",
                     config_.max_respawns, ") exhausted")));
          return;
        }
        ++respawns_used_;
        log(StrCat("respawning worker ", w, " (", respawns_used_, "/",
                   config_.max_respawns, " respawns used)"));
        if (events != nullptr) {
          runtime::Event e;
          e.name = "worker_respawn";
          e.stage_id = wave.stage;
          e.ints.emplace_back("worker", w);
          e.ints.emplace_back("respawns_used", respawns_used_);
          events->Emit(std::move(e));
        }
        StatusOr<pid_t> pid = fork_worker(w, /*replica=*/false);
        if (!pid.ok()) {
          fail_wave(pid.status());
          return;
        }
        if (*pid == 0) WorkerMain(params_for(w), wave);  // never returns
        for (int p : owed) workers[w].queue.push_back(p);
      }
      return;
    }
    size_t next = 0;
    for (int p : owed) {
      workers[survivors[next % survivors.size()]].queue.push_back(p);
      ++next;
    }
    for (int s : survivors) dispatch_next(s);
  };

  auto handle_result = [&](int w, Frame& frame) {
    WorkerState& ws = workers[w];
    int p = 0;
    int attempt = 0;
    Status task_status;
    std::string_view slots;
    Status decoded = DecodeTaskResultPayload(frame.payload, &p, &attempt,
                                             &task_status, &slots);
    if (!decoded.ok() || p < 0 || p >= num_tasks) {
      declare_dead(w, "corrupt task result");
      return;
    }
    if (ws.in_flight != p) {
      // A result for a task this worker no longer owns (e.g. it was
      // re-dispatched after a deadline while the reply was in the
      // pipe). Drop it; the owning dispatch wins.
      return;
    }
    ws.in_flight = -1;
    TaskState& task = tasks[p];
    if (task.done) {
      dispatch_next(w);
      return;
    }
    if (task_status.ok()) {
      Status installed = wave.install(p, slots);
      if (!installed.ok()) {
        declare_dead(w, "corrupt result slots");
        return;
      }
      wave.charge_success(p, attempt);
      task.done = true;
      ++tasks_done;
      stats->result_bytes += static_cast<int64_t>(slots.size());
      ++ws.results_in_wave;
      // Every other replica installs the same bytes: queue the frame as
      // it arrived (`slots` points into it and is not used past here).
      std::shared_ptr<const Frame> relay;
      for (int v = 0; v < num_workers; ++v) {
        WorkerState& other = workers[v];
        if (v == w || !other.alive || !other.replica) continue;
        if (relay == nullptr) {
          relay = std::make_shared<const Frame>(std::move(frame));
        }
        other.relays.push_back(relay);
        flush_relays(v);
      }
      wave.on_complete(p, attempt, w);
      maybe_chaos_kill(w);
    } else if (task_status.code() == StatusCode::kTaskLost) {
      // Simulated in-task fault (e.g. corrupt shuffle row): retryable,
      // next simulated attempt.
      wave.charge_failure(p, attempt);
      ws.queue.push_front(p);
    } else {
      // A genuine task error fails the wave, and a failed wave retires
      // every worker: the next wave, if any, re-forks them.
      record_task_failure(p, std::move(task_status));
    }
    if (workers[w].alive) dispatch_next(w);
  };

  auto drain_worker = [&](int w) {
    WorkerState& ws = workers[w];
    char buf[64 * 1024];
    ssize_t n = recv(ws.fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
      declare_dead(w, n == 0 ? "connection closed" : "recv failed");
      return;
    }
    ws.reader.Feed(buf, static_cast<size_t>(n));
    ws.last_heard = Clock::now();
    Frame frame;
    for (;;) {
      auto done_or = ws.reader.Next(&frame);
      if (!done_or.ok()) {
        declare_dead(w, "corrupt frame");
        return;
      }
      if (!*done_or) return;
      switch (frame.type) {
        case FrameType::kHeartbeat:
          break;  // last_heard already refreshed
        case FrameType::kTelemetry: {
          // Arrives just before its task result (same socket, so order
          // is guaranteed); splice it while the task is still in
          // flight so on_complete can see it happened.
          runtime::WorkerTelemetry telemetry;
          if (!DecodeTelemetryPayload(frame.payload, &telemetry).ok()) {
            declare_dead(w, "corrupt telemetry");
            return;
          }
          if (wave.on_telemetry) {
            wave.on_telemetry(w, ws.clock_offset_us, telemetry);
          }
          break;
        }
        case FrameType::kTaskResult:
          handle_result(w, frame);
          if (!workers[w].alive) return;  // reader is gone
          break;
        default:
          declare_dead(w, "unexpected frame type");
          return;
      }
    }
  };

  auto drain_pending = [&](size_t i) -> bool {
    // Returns false when the connection was closed/consumed.
    PendingConn& conn = pending[i];
    char buf[4096];
    ssize_t n = recv(conn.fd, buf, sizeof(buf), 0);
    if (n <= 0) {
      if (n < 0 && (errno == EINTR || errno == EAGAIN)) return true;
      CloseFd(conn.fd);
      return false;
    }
    conn.reader.Feed(buf, static_cast<size_t>(n));
    Frame frame;
    auto done_or = conn.reader.Next(&frame);
    if (!done_or.ok()) {
      CloseFd(conn.fd);
      return false;
    }
    if (!*done_or) return true;  // Hello not complete yet
    int worker_id = 0;
    int64_t pid = 0;
    uint64_t hello_token = 0;
    double worker_steady_us = 0;
    if (frame.type != FrameType::kHello ||
        !DecodeHelloPayload(frame.payload, &worker_id, &pid, &hello_token,
                            &worker_steady_us)
             .ok() ||
        worker_id < 0 || worker_id >= num_workers ||
        hello_token != workers[worker_id].token ||
        !workers[worker_id].alive || workers[worker_id].connected) {
      CloseFd(conn.fd);
      return false;
    }
    WorkerState& ws = workers[worker_id];
    // Clock alignment: the worker stamped its steady clock just before
    // sending the Hello; subtracting our reading now measures the
    // offset plus one-way latency. Forked workers on one host share
    // CLOCK_MONOTONIC, so the residual is pure latency — the engine
    // collapses sub-threshold offsets to zero when splicing spans.
    ws.clock_offset_us = worker_steady_us - SteadyNowUs();
    if (!SendFrame(conn.fd, FrameType::kHelloAck, std::string()).ok()) {
      CloseFd(conn.fd);
      return false;
    }
    ws.fd = conn.fd;
    ws.connected = true;
    ws.reader = std::move(conn.reader);
    ws.last_heard = Clock::now();
    log(StrCat("worker ", worker_id, " connected (pid ", pid, ")"));
    maybe_chaos_kill(worker_id);
    if (workers[worker_id].alive) dispatch_next(worker_id);
    return false;  // fd ownership moved to the worker slot
  };

  // Replicas already connected start right away: chaos count 0 first,
  // then their share of the tasks. Fresh forks start on their Hello.
  for (int w = 0; w < num_workers && wave_error.ok(); ++w) {
    if (!workers[w].alive || !workers[w].connected) continue;
    maybe_chaos_kill(w);
    if (workers[w].alive) dispatch_next(w);
  }

  // A fresh replica must connect before the wave may end, even when it
  // got no task: it still has to install every result.
  auto awaiting_replica = [&] {
    for (const WorkerState& ws : workers) {
      if (ws.alive && ws.replica && !ws.connected) return true;
    }
    return false;
  };

  // Backstop so no chaos schedule, however hostile, can hang the wave:
  // generous enough for every task to burn its full deadline budget.
  const int64_t stall_budget_ms =
      static_cast<int64_t>(config_.task_deadline_ms) *
          (num_tasks + config_.max_task_retries + config_.max_respawns + 2) +
      static_cast<int64_t>(config_.heartbeat_ms) * config_.missed_beats * 4;

  while (wave_error.ok() && (tasks_done < num_tasks || awaiting_replica())) {
    // Liveness sweeps: child exits, heartbeat silence, task deadlines.
    const Clock::time_point now = Clock::now();
    for (int w = 0; w < num_workers && wave_error.ok(); ++w) {
      WorkerState& ws = workers[w];
      if (!ws.alive) continue;
      int wstatus = 0;
      pid_t reaped = waitpid(ws.pid, &wstatus, WNOHANG);
      if (reaped == ws.pid) {
        ws.pid = -1;  // already reaped
        declare_dead(w, "process exited");
        continue;
      }
      if (MsSince(ws.last_heard, now) >
          static_cast<int64_t>(config_.heartbeat_ms) * config_.missed_beats) {
        declare_dead(w, "heartbeat timeout");
        continue;
      }
      if (ws.in_flight >= 0 &&
          MsSince(ws.dispatched_at, now) > config_.task_deadline_ms) {
        declare_dead(w, "task deadline exceeded");
        continue;
      }
    }
    if (!wave_error.ok()) break;
    if (MsSince(wave_start, now) > stall_budget_ms) {
      fail_wave(Status::DistError(
          StrCat("stage #", wave.stage, " '", wave.label,
                 "': wave stalled past its ", stall_budget_ms,
                 "ms backstop (", tasks_done, "/", num_tasks,
                 " tasks done)")));
      break;
    }

    std::vector<pollfd> fds;
    std::vector<int> fd_owner;  // -1 = listener, -2-i = pending i, else worker
    fds.push_back({listen_fd_, POLLIN, 0});
    fd_owner.push_back(-1);
    for (size_t i = 0; i < pending.size(); ++i) {
      fds.push_back({pending[i].fd, POLLIN, 0});
      fd_owner.push_back(-2 - static_cast<int>(i));
    }
    for (int w = 0; w < num_workers; ++w) {
      if (workers[w].alive && workers[w].connected) {
        fds.push_back({workers[w].fd, POLLIN, 0});
        fd_owner.push_back(w);
      }
    }
    int poll_ms = std::min(config_.heartbeat_ms, 50);
    int ready = poll(fds.data(), fds.size(), poll_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      fail_wave(Status::DistError(StrCat("poll: ", std::strerror(errno))));
      break;
    }
    if (ready == 0) continue;

    std::vector<size_t> consumed_pending;
    for (size_t i = 0; i < fds.size() && wave_error.ok(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      int owner = fd_owner[i];
      if (owner == -1) {
        int conn_fd = accept(listen_fd_, nullptr, nullptr);
        if (conn_fd >= 0) {
          // A worker that stops reading must cost a deadline, not a
          // coordinator blocked in send forever.
          SetSendTimeout(conn_fd, config_.task_deadline_ms);
          SetNoDelay(conn_fd);
          pending.push_back(PendingConn{conn_fd, FrameReader()});
        }
      } else if (owner <= -2) {
        size_t idx = static_cast<size_t>(-owner - 2);
        if (!drain_pending(idx)) consumed_pending.push_back(idx);
      } else {
        if (workers[owner].alive && workers[owner].connected) {
          drain_worker(owner);
        }
      }
    }
    for (auto it = consumed_pending.rbegin(); it != consumed_pending.rend();
         ++it) {
      pending.erase(pending.begin() + static_cast<long>(*it));
    }
  }

  // Lowest-index genuine failure wins, matching the local scheduler's
  // in-order sweep.
  Status result = wave_error;
  for (int p = 0; p < num_tasks && result.ok(); ++p) {
    if (tasks[p].failed) result = tasks[p].failure;
  }

  // Wave end. After a clean wave each replica gets the results still
  // queued for it and kWaveEnd, and returns to its driver; every other
  // worker (out of scope, respawned mid-wave, or after any failure) is
  // shut down, then SIGKILLed, and every child that went is reaped.
  for (int w = 0; w < num_workers; ++w) {
    WorkerState& ws = workers[w];
    if (result.ok() && ws.alive && ws.replica && ws.connected &&
        ws.in_flight < 0) {
      flush_relays(w);
      if (ws.alive && ws.relays.empty() &&
          SendFrame(ws.fd, FrameType::kWaveEnd, std::string()).ok()) {
        continue;
      }
    }
    ws.Retire(&to_reap);
  }
  for (const PendingConn& conn : pending) CloseFd(conn.fd);
  ReapAll(to_reap);
  return result;
}

}  // namespace diablo::dist
