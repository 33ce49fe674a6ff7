#include "dist/transport.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/strings.h"

namespace diablo::dist {

namespace {

Status Errno(const char* what) {
  return Status::DistError(StrCat(what, ": ", std::strerror(errno)));
}

sockaddr_in LoopbackAddr(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

}  // namespace

StatusOr<int> ListenLoopback(uint16_t* port) {
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Errno("socket");
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = LoopbackAddr(0);
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Errno("bind");
    CloseFd(fd);
    return st;
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status st = Errno("getsockname");
    CloseFd(fd);
    return st;
  }
  if (listen(fd, SOMAXCONN) != 0) {
    Status st = Errno("listen");
    CloseFd(fd);
    return st;
  }
  *port = ntohs(addr.sin_port);
  return fd;
}

StatusOr<int> ConnectWithBackoff(uint16_t port, int attempts,
                                 int backoff_ms) {
  attempts = std::max(attempts, 1);
  int delay_ms = std::max(backoff_ms, 1);
  Status last = Status::DistError("connect: no attempts made");
  for (int i = 0; i < attempts; ++i) {
    if (i > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      delay_ms = std::min(delay_ms * 2, 2000);
    }
    int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      last = Errno("socket");
      continue;
    }
    sockaddr_in addr = LoopbackAddr(port);
    if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      SetNoDelay(fd);
      return fd;
    }
    last = Errno("connect");
    CloseFd(fd);
  }
  return last;
}

namespace {

/// Writes `header` then `payload` with one gathering sendmsg per
/// attempt, so the payload is never copied behind its header. Short
/// writes resume where they stopped.
Status SendHeaderAndPayload(int fd, const std::string& header,
                            std::string_view payload) {
  iovec parts[2] = {
      {const_cast<char*>(header.data()), header.size()},
      {const_cast<char*>(payload.data()), payload.size()},
  };
  size_t first = 0;
  size_t left = header.size() + payload.size();
  while (left > 0) {
    msghdr msg{};
    msg.msg_iov = parts + first;
    msg.msg_iovlen = 2 - first;
    ssize_t n = sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("send");
    }
    if (n == 0) return Status::DistError("send: peer closed connection");
    left -= static_cast<size_t>(n);
    for (size_t sent = static_cast<size_t>(n); first < 2;) {
      const size_t step = std::min(sent, parts[first].iov_len);
      parts[first].iov_base = static_cast<char*>(parts[first].iov_base) + step;
      parts[first].iov_len -= step;
      sent -= step;
      if (parts[first].iov_len > 0) break;
      ++first;
    }
  }
  return Status::OK();
}

}  // namespace

Status SendFrame(int fd, FrameType type, const std::string& payload) {
  std::string header;
  EncodeFrameHeader(type, static_cast<uint32_t>(payload.size()),
                    FrameCrc(type, payload), &header);
  return SendHeaderAndPayload(fd, header, payload);
}

Status RelayFrame(int fd, const Frame& frame) {
  std::string header;
  EncodeFrameHeader(frame.type, static_cast<uint32_t>(frame.payload.size()),
                    frame.crc, &header);
  return SendHeaderAndPayload(fd, header, frame.payload);
}

StatusOr<Frame> RecvFrameBlocking(int fd, FrameReader* reader) {
  Frame frame;
  for (;;) {
    DIABLO_ASSIGN_OR_RETURN(bool done, reader->Next(&frame));
    if (done) return frame;
    char buf[64 * 1024];
    ssize_t n = recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("recv");
    }
    if (n == 0) return Status::DistError("recv: peer closed connection");
    reader->Feed(buf, static_cast<size_t>(n));
  }
}

void SetNoDelay(int fd) {
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void SetSendTimeout(int fd, int ms) {
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = (ms % 1000) * 1000;
  setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

void CloseFd(int fd) {
  if (fd >= 0) close(fd);
}

}  // namespace diablo::dist
