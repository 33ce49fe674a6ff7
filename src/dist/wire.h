#ifndef DIABLO_DIST_WIRE_H_
#define DIABLO_DIST_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace diablo::dist {

/// CRC-framed message layout for the coordinator/worker TCP link.
///
/// Every frame is a 16-byte header followed by the payload:
///
///   offset  size  field
///   0       4     magic 0x44424C46 ("DBLF", little-endian)
///   4       1     frame type (FrameType)
///   5       3     reserved, must be zero
///   8       4     payload length (little-endian u32)
///   12      4     CRC-32 (IEEE) of the payload folded with the frame
///                 type byte (little-endian u32), so a flipped type
///                 cannot pass as a different valid frame kind
///   16      len   payload bytes
///
/// The reader rejects bad magic, unknown types, nonzero reserved bytes,
/// lengths above its configured bound, and CRC mismatches — each with a
/// Status, never UB — because a half-dead worker can emit arbitrary
/// bytes mid-kill.

enum class FrameType : uint8_t {
  /// Worker -> coordinator: worker_id, pid, session token.
  kHello = 1,
  /// Coordinator -> worker: handshake accepted.
  kHelloAck = 2,
  /// Worker -> coordinator: liveness beacon (empty payload).
  kHeartbeat = 3,
  /// Coordinator -> worker: run task p as simulated attempt a.
  kTask = 4,
  /// Worker -> coordinator: task status + encoded result slots.
  kTaskResult = 5,
  /// Coordinator -> worker: exit cleanly (empty payload).
  kShutdown = 6,
  /// Worker -> coordinator: task telemetry (spans + process counters),
  /// sent immediately before the matching kTaskResult when the
  /// coordinator requested telemetry in the task frame.
  kTelemetry = 7,
  /// Coordinator -> replica: header of the next wave of the scope
  /// (scope, sequence number, stage, task count, label); the replica
  /// checks it against the wave its own driver reached.
  kWave = 8,
  /// Coordinator -> replica: the wave is over and every accepted result
  /// has been relayed; return to the driver.
  kWaveEnd = 9,
};

/// True for the frame types above; anything else on the wire is corrupt.
bool IsKnownFrameType(uint8_t type);

/// Frame header size in bytes.
inline constexpr size_t kFrameHeaderBytes = 16;

/// Frame magic ("DBLF" when read as little-endian bytes F,L,B,D).
inline constexpr uint32_t kFrameMagic = 0x44424C46u;

/// Default per-frame payload bound: far above any test workload, far
/// below anything that could make a corrupt length prefix allocate the
/// machine away.
inline constexpr uint32_t kDefaultMaxFrameBytes = 256u * 1024u * 1024u;

/// CRC-32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF) of `data`,
/// eight bytes per table step (slice-by-8).
/// Known answer: Crc32("123456789") == 0xCBF43926.
uint32_t Crc32(std::string_view data);

/// Appends the frame for (type, payload) to `out`.
void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out);

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string payload;
  /// The header's checksum as received (FrameReader) — lets the
  /// coordinator relay a frame verbatim without recomputing it.
  uint32_t crc = 0;
};

/// Appends the 16-byte header of a frame with the given type, payload
/// length and checksum to `out`.
void EncodeFrameHeader(FrameType type, uint32_t payload_len, uint32_t crc,
                       std::string* out);

/// The checksum EncodeFrame writes for (type, payload).
uint32_t FrameCrc(FrameType type, std::string_view payload);

/// Incremental frame parser over a byte stream. Feed whatever recv()
/// produced; poll Next() for completed frames. Any malformed input puts
/// the reader into a sticky error state — framing is lost for good once
/// the stream is corrupt, so the connection must be dropped.
class FrameReader {
 public:
  explicit FrameReader(uint32_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  /// Appends raw stream bytes.
  void Feed(const char* data, size_t len);

  /// Returns the next completed frame, a RuntimeError once the stream is
  /// corrupt (sticky), or nullopt-like signal via `done=false` when more
  /// bytes are needed.
  StatusOr<bool> Next(Frame* frame);

  /// Bytes buffered but not yet consumed as frames.
  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  uint32_t max_frame_bytes_;
  std::string buffer_;
  size_t consumed_ = 0;
  Status error_;  // sticky
};

/// Decodes a buffer holding exactly one frame (tests and small
/// control-path messages). Rejects trailing bytes.
StatusOr<Frame> DecodeFrame(const std::string& data,
                            uint32_t max_frame_bytes = kDefaultMaxFrameBytes);

}  // namespace diablo::dist

#endif  // DIABLO_DIST_WIRE_H_
