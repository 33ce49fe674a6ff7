#ifndef DIABLO_DIST_TRANSPORT_H_
#define DIABLO_DIST_TRANSPORT_H_

#include <cstdint>
#include <string>

#include "common/status.h"
#include "dist/wire.h"

namespace diablo::dist {

/// Thin blocking-socket helpers for the loopback coordinator/worker
/// link. All fds are plain ints owned by the caller; CloseFd is
/// idempotent on -1 so teardown paths can be unconditional.

/// Binds a listening TCP socket to 127.0.0.1 on an ephemeral port.
/// Returns the fd and stores the chosen port in `*port`.
StatusOr<int> ListenLoopback(uint16_t* port);

/// Connects to 127.0.0.1:`port`, retrying with exponential backoff
/// (`backoff_ms`, doubling per attempt) up to `attempts` tries. Used by
/// workers racing the coordinator's accept loop right after fork.
StatusOr<int> ConnectWithBackoff(uint16_t port, int attempts,
                                 int backoff_ms);

/// Writes the full frame for (type, payload) to `fd`. Short writes are
/// resumed; EPIPE/ECONNRESET surface as a Status (MSG_NOSIGNAL — a dead
/// peer must never SIGPIPE the coordinator).
Status SendFrame(int fd, FrameType type, const std::string& payload);

/// Writes `frame` as it was received — same type, payload and checksum,
/// so relaying it costs no re-encode and no CRC pass.
Status RelayFrame(int fd, const Frame& frame);

/// Blocks until one full frame arrives on `fd` via `reader`, which
/// carries stream state across calls. EOF and corrupt framing are
/// errors.
StatusOr<Frame> RecvFrameBlocking(int fd, FrameReader* reader);

/// Disables Nagle on `fd`. Best effort: heartbeats and small control
/// frames (a wave header followed by a task) must not wait in Nagle
/// buffers for the peer's delayed ACK.
void SetNoDelay(int fd);

/// Makes a blocking send on `fd` give up (EAGAIN) after `ms`
/// milliseconds without progress. Best effort.
void SetSendTimeout(int fd, int ms);

/// close() if `fd` >= 0; ignores errors.
void CloseFd(int fd);

}  // namespace diablo::dist

#endif  // DIABLO_DIST_TRANSPORT_H_
