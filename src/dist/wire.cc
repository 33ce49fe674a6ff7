#include "dist/wire.h"

#include <array>

#include "common/strings.h"
#include "runtime/serialize.h"

namespace diablo::dist {

namespace {

using runtime::GetWireU32;
using runtime::PutWireU32;

/// Slice-by-8 tables: kCrc[0] is the classic byte-at-a-time table and
/// kCrc[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// lookups fold eight input bytes per step.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables MakeCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

Status CorruptFrame(const std::string& what) {
  return Status::RuntimeError(StrCat("corrupt frame: ", what));
}

}  // namespace

bool IsKnownFrameType(uint8_t type) {
  switch (static_cast<FrameType>(type)) {
    case FrameType::kHello:
    case FrameType::kHelloAck:
    case FrameType::kHeartbeat:
    case FrameType::kTask:
    case FrameType::kTaskResult:
    case FrameType::kShutdown:
    case FrameType::kTelemetry:
    case FrameType::kWave:
    case FrameType::kWaveEnd:
      return true;
  }
  return false;
}

uint32_t Crc32(std::string_view data) {
  static const CrcTables kCrc = MakeCrcTables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t n = data.size();
  uint32_t crc = 0xFFFFFFFFu;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = LoadLe32(p) ^ crc;
    const uint32_t hi = LoadLe32(p + 4);
    crc = kCrc[7][lo & 0xFFu] ^ kCrc[6][(lo >> 8) & 0xFFu] ^
          kCrc[5][(lo >> 16) & 0xFFu] ^ kCrc[4][lo >> 24] ^
          kCrc[3][hi & 0xFFu] ^ kCrc[2][(hi >> 8) & 0xFFu] ^
          kCrc[1][(hi >> 16) & 0xFFu] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = kCrc[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

/// Frame checksum: the CRC covers the type byte as well as the payload,
/// so a corrupted type cannot silently turn one valid frame kind into
/// another (the remaining header fields are structurally validated:
/// magic and reserved bytes are compared against constants, and a
/// corrupt length either overflows the cap or shifts the payload bytes
/// under this CRC). Folding the byte into the running CRC avoids
/// copying the payload just to prefix one byte.
uint32_t FrameCrc(FrameType type, std::string_view payload) {
  uint32_t crc = Crc32(payload) ^ 0xFFFFFFFFu;  // undo final xor
  // Process the type byte as if it preceded the payload: CRC32 is not
  // order-sensitive in a way we can exploit cheaply, so fold it at the
  // end instead; mixing position keeps (type, payload) pairs distinct.
  crc = crc ^ static_cast<uint8_t>(type);
  for (int bit = 0; bit < 8; ++bit) {
    crc = (crc & 1) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
  }
  return crc ^ 0xFFFFFFFFu;
}

void EncodeFrameHeader(FrameType type, uint32_t payload_len, uint32_t crc,
                       std::string* out) {
  PutWireU32(kFrameMagic, out);
  out->push_back(static_cast<char>(type));
  out->append(3, '\0');
  PutWireU32(payload_len, out);
  PutWireU32(crc, out);
}

void EncodeFrame(FrameType type, const std::string& payload,
                 std::string* out) {
  EncodeFrameHeader(type, static_cast<uint32_t>(payload.size()),
                    FrameCrc(type, payload), out);
  out->append(payload);
}

void FrameReader::Feed(const char* data, size_t len) {
  // Drop consumed prefix lazily so steady-state feeding never reallocs
  // more than the frames themselves require.
  if (consumed_ > 0 && consumed_ == buffer_.size()) {
    buffer_.clear();
    consumed_ = 0;
  } else if (consumed_ > 64 * 1024 && consumed_ > buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, len);
}

StatusOr<bool> FrameReader::Next(Frame* frame) {
  if (!error_.ok()) return error_;
  const size_t avail = buffer_.size() - consumed_;
  if (avail < kFrameHeaderBytes) return false;

  size_t offset = consumed_;
  // GetWireU32 cannot fail here: avail >= header size.
  uint32_t magic = GetWireU32(buffer_, &offset).value();
  if (magic != kFrameMagic) {
    error_ = CorruptFrame("bad magic");
    return error_;
  }
  uint8_t type = static_cast<uint8_t>(buffer_[offset++]);
  if (!IsKnownFrameType(type)) {
    error_ = CorruptFrame(StrCat("unknown type ", static_cast<int>(type)));
    return error_;
  }
  for (int i = 0; i < 3; ++i) {
    if (buffer_[offset++] != '\0') {
      error_ = CorruptFrame("nonzero reserved byte");
      return error_;
    }
  }
  uint32_t len = GetWireU32(buffer_, &offset).value();
  if (len > max_frame_bytes_) {
    error_ = CorruptFrame(StrCat("oversized payload length ", len,
                                 " (max ", max_frame_bytes_, ")"));
    return error_;
  }
  uint32_t crc = GetWireU32(buffer_, &offset).value();
  if (avail < kFrameHeaderBytes + len) return false;  // need more bytes

  const std::string_view payload(buffer_.data() + offset, len);
  if (FrameCrc(static_cast<FrameType>(type), payload) != crc) {
    error_ = CorruptFrame("CRC mismatch");
    return error_;
  }
  consumed_ = offset + len;
  frame->type = static_cast<FrameType>(type);
  frame->payload.assign(payload);
  frame->crc = crc;
  return true;
}

StatusOr<Frame> DecodeFrame(const std::string& data,
                            uint32_t max_frame_bytes) {
  FrameReader reader(max_frame_bytes);
  reader.Feed(data.data(), data.size());
  Frame frame;
  DIABLO_ASSIGN_OR_RETURN(bool done, reader.Next(&frame));
  if (!done) return Status::RuntimeError("corrupt frame: truncated");
  if (reader.buffered() != 0) {
    return Status::RuntimeError("trailing bytes after frame");
  }
  return frame;
}

}  // namespace diablo::dist
