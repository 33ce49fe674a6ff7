#include "dist/worker.h"

#include <unistd.h>

#include <chrono>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/strings.h"
#include "dist/transport.h"
#include "dist/wire.h"
#include "runtime/metrics_registry.h"
#include "runtime/serialize.h"

namespace diablo::dist {

namespace {

using runtime::GetWireU32;
using runtime::GetWireU64;
using runtime::PutWireU32;
using runtime::PutWireU64;

Status RebuildStatus(uint32_t code, std::string msg) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kParseError:
      return Status::ParseError(std::move(msg));
    case StatusCode::kRestrictionViolation:
      return Status::RestrictionViolation(std::move(msg));
    case StatusCode::kTranslationError:
      return Status::TranslationError(std::move(msg));
    case StatusCode::kRuntimeError:
      return Status::RuntimeError(std::move(msg));
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(msg));
    case StatusCode::kUnsupported:
      return Status::Unsupported(std::move(msg));
    case StatusCode::kTaskLost:
      return Status::TaskLost(std::move(msg));
    case StatusCode::kDistError:
      return Status::DistError(std::move(msg));
  }
  return Status::DistError(StrCat("unknown status code ", code,
                                  " in task result: ", msg));
}

double SteadyNowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleFromBits(uint64_t bits) {
  double v = 0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

}  // namespace

/// Heartbeats share the task-result socket, so every send goes through
/// one mutex; interleaving a heartbeat inside a half-written result
/// frame would corrupt the stream.
struct WorkerLink::Sender {
  int fd = -1;
  std::mutex mu;

  Status Send(FrameType type, const std::string& payload) {
    std::lock_guard<std::mutex> lock(mu);
    return SendFrame(fd, type, payload);
  }
};

std::string EncodeHelloPayload(int worker_id, int64_t pid, uint64_t token,
                               double steady_now_us) {
  std::string out;
  PutWireU32(static_cast<uint32_t>(worker_id), &out);
  PutWireU64(static_cast<uint64_t>(pid), &out);
  PutWireU64(token, &out);
  PutWireU64(DoubleBits(steady_now_us), &out);
  return out;
}

Status DecodeHelloPayload(const std::string& payload, int* worker_id,
                          int64_t* pid, uint64_t* token,
                          double* steady_now_us) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(uint32_t id, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint64_t p, GetWireU64(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint64_t t, GetWireU64(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint64_t now_bits, GetWireU64(payload, &offset));
  if (offset != payload.size()) {
    return Status::DistError("trailing bytes in hello payload");
  }
  *worker_id = static_cast<int>(id);
  *pid = static_cast<int64_t>(p);
  *token = t;
  *steady_now_us = DoubleFromBits(now_bits);
  return Status::OK();
}

std::string EncodeTaskPayload(int p, int attempt) {
  std::string out;
  PutWireU32(static_cast<uint32_t>(p), &out);
  PutWireU32(static_cast<uint32_t>(attempt), &out);
  return out;
}

Status DecodeTaskPayload(const std::string& payload, int* p, int* attempt) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(uint32_t task, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t att, GetWireU32(payload, &offset));
  if (offset != payload.size()) {
    return Status::DistError("trailing bytes in task payload");
  }
  *p = static_cast<int>(task);
  *attempt = static_cast<int>(att);
  return Status::OK();
}

std::string EncodeTaskResultPayload(int p, int attempt, const Status& status,
                                    const std::string& slots) {
  std::string out;
  PutWireU32(static_cast<uint32_t>(p), &out);
  PutWireU32(static_cast<uint32_t>(attempt), &out);
  PutWireU32(static_cast<uint32_t>(status.code()), &out);
  PutWireU32(static_cast<uint32_t>(status.message().size()), &out);
  out.append(status.message());
  out.append(slots);
  return out;
}

Status DecodeTaskResultPayload(const std::string& payload, int* p,
                               int* attempt, Status* task_status,
                               std::string_view* slots) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(uint32_t task, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t att, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t code, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t msg_len, GetWireU32(payload, &offset));
  if (msg_len > payload.size() - offset) {
    return Status::DistError("oversized message length in task result");
  }
  std::string msg = payload.substr(offset, msg_len);
  offset += msg_len;
  *p = static_cast<int>(task);
  *attempt = static_cast<int>(att);
  *task_status = RebuildStatus(code, std::move(msg));
  *slots = std::string_view(payload).substr(offset);
  return Status::OK();
}

std::string EncodeTelemetryPayload(const runtime::WorkerTelemetry& telemetry) {
  std::string out;
  PutWireU32(static_cast<uint32_t>(telemetry.task), &out);
  PutWireU32(static_cast<uint32_t>(telemetry.attempt), &out);
  PutWireU64(static_cast<uint64_t>(telemetry.peak_rss_bytes), &out);
  PutWireU32(static_cast<uint32_t>(telemetry.spans.size()), &out);
  for (const auto& span : telemetry.spans) {
    PutWireU64(DoubleBits(span.start_abs_us), &out);
    PutWireU64(DoubleBits(span.dur_us), &out);
    PutWireU32(static_cast<uint32_t>(span.partition), &out);
    PutWireU32(static_cast<uint32_t>(span.attempt), &out);
    PutWireU32(static_cast<uint32_t>(span.stage_id), &out);
    PutWireU64(static_cast<uint64_t>(span.rows), &out);
  }
  return out;
}

Status DecodeTelemetryPayload(const std::string& payload,
                              runtime::WorkerTelemetry* telemetry) {
  size_t offset = 0;
  DIABLO_ASSIGN_OR_RETURN(uint32_t task, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t att, GetWireU32(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint64_t rss, GetWireU64(payload, &offset));
  DIABLO_ASSIGN_OR_RETURN(uint32_t nspans, GetWireU32(payload, &offset));
  // Each span costs exactly 36 payload bytes; bounding the count
  // against the remaining bytes keeps a corrupt prefix from reserving
  // the machine away.
  if (static_cast<uint64_t>(nspans) * 36 > payload.size() - offset) {
    return Status::DistError("oversized span count in telemetry payload");
  }
  telemetry->task = static_cast<int>(task);
  telemetry->attempt = static_cast<int>(att);
  telemetry->peak_rss_bytes = static_cast<int64_t>(rss);
  telemetry->spans.clear();
  telemetry->spans.reserve(nspans);
  for (uint32_t i = 0; i < nspans; ++i) {
    runtime::WorkerSpan span;
    DIABLO_ASSIGN_OR_RETURN(uint64_t start_bits, GetWireU64(payload, &offset));
    DIABLO_ASSIGN_OR_RETURN(uint64_t dur_bits, GetWireU64(payload, &offset));
    DIABLO_ASSIGN_OR_RETURN(uint32_t partition, GetWireU32(payload, &offset));
    DIABLO_ASSIGN_OR_RETURN(uint32_t span_att, GetWireU32(payload, &offset));
    DIABLO_ASSIGN_OR_RETURN(uint32_t stage, GetWireU32(payload, &offset));
    DIABLO_ASSIGN_OR_RETURN(uint64_t rows, GetWireU64(payload, &offset));
    span.start_abs_us = DoubleFromBits(start_bits);
    span.dur_us = DoubleFromBits(dur_bits);
    span.partition = static_cast<int>(partition);
    span.attempt = static_cast<int>(span_att);
    span.stage_id = static_cast<int>(stage);
    span.rows = static_cast<int64_t>(rows);
    telemetry->spans.push_back(span);
  }
  if (offset != payload.size()) {
    return Status::DistError("trailing bytes in telemetry payload");
  }
  return Status::OK();
}

std::string EncodeWavePayload(const runtime::RemoteTaskWave& wave) {
  std::string out;
  PutWireU64(wave.scope, &out);
  PutWireU64(static_cast<uint64_t>(wave.seq), &out);
  PutWireU32(static_cast<uint32_t>(wave.stage), &out);
  PutWireU32(static_cast<uint32_t>(wave.task_work.size()), &out);
  out.append(wave.label);
  return out;
}

WorkerLink::WorkerLink(std::unique_ptr<Sender> sender, int stall_ms)
    : sender_(std::move(sender)), stall_ms_(stall_ms) {}

// Never runs in practice (workers leave through _exit); defined here
// because Sender is incomplete in the header.
WorkerLink::~WorkerLink() = default;

std::unique_ptr<WorkerLink> WorkerLink::Connect(const WorkerParams& params) {
  auto fd_or = ConnectWithBackoff(params.port, params.connect_attempts,
                                  params.connect_backoff_ms);
  if (!fd_or.ok()) _exit(3);
  auto sender = std::make_unique<Sender>();
  sender->fd = *fd_or;

  std::string hello =
      EncodeHelloPayload(params.worker_id, static_cast<int64_t>(getpid()),
                         params.token, SteadyNowUs());
  if (!sender->Send(FrameType::kHello, hello).ok()) _exit(3);

  std::unique_ptr<WorkerLink> link(
      new WorkerLink(std::move(sender), params.stall_ms));
  auto ack_or = RecvFrameBlocking(link->sender_->fd, &link->reader_);
  if (!ack_or.ok() || ack_or->type != FrameType::kHelloAck) _exit(3);

  // Heartbeat beacon. Detached: the thread dies with the process on
  // _exit (the Sender it uses is never freed before that), and a send
  // failure means the coordinator is gone — nothing left to do but
  // exit.
  std::thread([sender = link->sender_.get(),
               heartbeat_ms = params.heartbeat_ms]() {
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(heartbeat_ms));
      if (!sender->Send(FrameType::kHeartbeat, std::string()).ok()) {
        _exit(3);
      }
    }
  }).detach();
  return link;
}

void WorkerLink::AwaitWave(const runtime::RemoteTaskWave& wave) {
  auto frame_or = RecvFrameBlocking(sender_->fd, &reader_);
  if (!frame_or.ok()) _exit(3);
  if (frame_or->type == FrameType::kShutdown) _exit(0);
  if (frame_or->type != FrameType::kWave) _exit(3);
  // A replica that reached another wave than the coordinator's no longer
  // holds the coordinator's state; the coordinator treats the exit like
  // any lost worker and forks a fresh one at its next wave.
  if (frame_or->payload != EncodeWavePayload(wave)) _exit(4);
}

void WorkerLink::ServeWave(const runtime::RemoteTaskWave& wave) {
  for (;;) {
    auto frame_or = RecvFrameBlocking(sender_->fd, &reader_);
    if (!frame_or.ok()) _exit(3);
    switch (frame_or->type) {
      case FrameType::kTask:
        RunTask(wave, frame_or->payload);
        break;
      case FrameType::kTaskResult: {
        // A result another worker produced, relayed verbatim by the
        // coordinator after it installed the same bytes.
        int p = 0;
        int attempt = 0;
        Status task_status;
        std::string_view slots;
        if (!DecodeTaskResultPayload(frame_or->payload, &p, &attempt,
                                     &task_status, &slots)
                 .ok() ||
            !task_status.ok() || p < 0 ||
            p >= static_cast<int>(wave.task_work.size()) ||
            !wave.install(p, slots).ok()) {
          _exit(3);
        }
        break;
      }
      case FrameType::kWaveEnd:
        return;
      case FrameType::kShutdown:
        _exit(0);
      default:
        _exit(3);
    }
  }
}

void WorkerLink::RunTask(const runtime::RemoteTaskWave& wave,
                         const std::string& payload) {
  int p = 0;
  int attempt = 0;
  if (!DecodeTaskPayload(payload, &p, &attempt).ok()) _exit(3);
  if (stall_ms_ > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
  }

  const double task_t0 = SteadyNowUs();
  Status task_status = wave.run(p, attempt);
  std::string slots;
  if (task_status.ok()) {
    auto slots_or = wave.encode(p);
    if (slots_or.ok()) {
      slots = std::move(*slots_or);
    } else {
      task_status = slots_or.status();
    }
  }
  // Telemetry goes out under the same sender lock scheme, immediately
  // before the result frame; TCP ordering then guarantees the
  // coordinator splices the spans before it processes the result.
  // Only successful tasks ship telemetry: failed simulated attempts
  // never produce a coordinator-side task span either.
  if (wave.want_telemetry && task_status.ok()) {
    runtime::WorkerTelemetry telemetry;
    telemetry.task = p;
    telemetry.attempt = attempt;
    telemetry.peak_rss_bytes = runtime::MetricsRegistry::ProcessPeakRssBytes();
    runtime::WorkerSpan span;
    span.start_abs_us = task_t0;
    span.dur_us = SteadyNowUs() - task_t0;
    span.partition = p;
    span.attempt = attempt;
    span.stage_id = wave.stage;
    span.rows = p >= 0 && p < static_cast<int>(wave.task_work.size())
                    ? wave.task_work[static_cast<size_t>(p)]
                    : -1;
    telemetry.spans.push_back(span);
    if (!sender_
             ->Send(FrameType::kTelemetry, EncodeTelemetryPayload(telemetry))
             .ok()) {
      _exit(3);
    }
  }
  std::string result = EncodeTaskResultPayload(p, attempt, task_status, slots);
  if (!sender_->Send(FrameType::kTaskResult, result).ok()) _exit(3);
}

void WorkerMain(const WorkerParams& params,
                const runtime::RemoteTaskWave& wave) {
  // Held until _exit: the heartbeat thread keeps using the link's sender.
  std::unique_ptr<WorkerLink> link = WorkerLink::Connect(params);
  link->ServeWave(wave);
  _exit(0);
}

}  // namespace diablo::dist
