#include "machdep/net.hpp"

#include "machdep/wait.hpp"
#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#endif

#include <algorithm>
#include <bit>
#include <utility>

namespace force::machdep::net {

static_assert(std::endian::native == std::endian::little,
              "the cluster wire codec assumes a little-endian host (as does "
              "the rest of machdep)");

void encode_frame_header(const FrameHeader& h,
                         unsigned char out[kFrameHeaderBytes]) {
  std::uint32_t magic = kFrameMagic;
  std::memcpy(out, &magic, 4);
  std::memcpy(out + 4, &h.version, 2);
  std::memcpy(out + 6, &h.type, 2);
  std::memcpy(out + 8, &h.payload_bytes, 4);
}

DecodeStatus decode_frame_header(const unsigned char* data, std::size_t len,
                                 FrameHeader* out) {
  if (len < kFrameHeaderBytes) return DecodeStatus::kNeedMore;
  std::uint32_t magic = 0;
  std::memcpy(&magic, data, 4);
  if (magic != kFrameMagic) return DecodeStatus::kBadMagic;
  FrameHeader h;
  std::memcpy(&h.version, data + 4, 2);
  std::memcpy(&h.type, data + 6, 2);
  std::memcpy(&h.payload_bytes, data + 8, 4);
  if (h.version != kProtocolVersion) return DecodeStatus::kBadVersion;
  if (h.payload_bytes > kMaxPayloadBytes) return DecodeStatus::kOversized;
  *out = h;
  return DecodeStatus::kOk;
}

#if defined(__unix__) || defined(__APPLE__)

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  head_ = tail_ = 0;
}

void Conn::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

long Conn::read_input(bool wait) {
  // The unread bytes move to the front of a buffer of one chunk or of the
  // frame they start, whichever is larger (and never full). A connection
  // in steady state reads with no allocation; a buffer grown for a large
  // frame is released once the frame is consumed.
  constexpr std::size_t kChunk = 16 * 1024;
  if (head_ == tail_ && in_cap_ > kChunk) {
    in_.reset();
    in_cap_ = 0;
  }
  if (head_ > 0) {
    std::memmove(in_.get(), in_.get() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
  }
  std::size_t want = kChunk;
  FrameHeader h;
  if (decode_frame_header(in_.get(), tail_, &h) == DecodeStatus::kOk) {
    want = std::max(want, kFrameHeaderBytes + h.payload_bytes);
  }
  if (want <= tail_) want = tail_ + kChunk;  // whole frames left unread
  if (in_cap_ < want) {
    auto grown = std::make_unique_for_overwrite<unsigned char[]>(want);
    if (tail_ > 0) std::memcpy(grown.get(), in_.get(), tail_);
    in_ = std::move(grown);
    in_cap_ = want;
  }
  for (;;) {
    const ssize_t r = ::recv(fd_, in_.get() + tail_, in_cap_ - tail_,
                             wait ? 0 : MSG_DONTWAIT);
    if (r > 0) {
      tail_ += static_cast<std::size_t>(r);
      return static_cast<long>(r);
    }
    if (r < 0 && errno == EINTR) {
      if (wait) continue;
      return 0;
    }
    // Nothing yet is only "try again" for a probe: a blocking read that
    // returns empty-handed timed out (SO_RCVTIMEO), and fails.
    if (r < 0 && !wait && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return 0;
    }
    return -1;
  }
}

bool PollSet::poll(int timeout_ms) {
  return ::poll(fds_.data(), fds_.size(), timeout_ms) > 0;
}

bool write_frame(int fd, MsgType type, const void* payload, std::size_t n) {
  unsigned char hdr[kFrameHeaderBytes];
  FrameHeader h;
  h.type = static_cast<std::uint16_t>(type);
  h.payload_bytes = static_cast<std::uint32_t>(n);
  encode_frame_header(h, hdr);
  iovec iov[2] = {{hdr, sizeof hdr}, {const_cast<void*>(payload), n}};
  iovec* next = iov;
  std::size_t left = n == 0 ? 1 : 2;
  while (left > 0) {
    msghdr msg{};
    msg.msg_iov = next;
    msg.msg_iovlen = left;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (w > 0) {
      // Drop the iovecs sent whole and trim the one the write stopped in.
      auto sent = static_cast<std::size_t>(w);
      while (left > 0 && sent >= next->iov_len) {
        sent -= next->iov_len;
        ++next;
        --left;
      }
      if (left > 0) {
        next->iov_base = static_cast<unsigned char*>(next->iov_base) + sent;
        next->iov_len -= sent;
      }
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 100);
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    return false;  // EPIPE / ECONNRESET: the far side is gone.
  }
  return true;
}

void Conn::send_frame(MsgType type, const void* payload, std::size_t n) {
  FORCE_CHECK(fd_ >= 0, "send_frame on a closed cluster connection");
  FORCE_CHECK(n <= kMaxPayloadBytes,
              "cluster frame payload exceeds kMaxPayloadBytes");
  FORCE_CHECK(write_frame(fd_, type, payload, n),
              "cluster connection closed while sending a frame (the "
              "coordinator is gone)");
}

std::pair<Conn, Conn> connected_pair(Transport transport) {
  if (transport == Transport::kUnix) {
    int fds[2] = {-1, -1};
    FORCE_CHECK(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) == 0,
                "socketpair(AF_UNIX) failed for the cluster transport");
    return {Conn(fds[0]), Conn(fds[1])};
  }
  // Loopback TCP: listen on an ephemeral port, connect, accept. Models the
  // real-cluster topology (a routable stream with no kernel-shared state)
  // while staying self-contained in one host.
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  FORCE_CHECK(lfd >= 0, "socket(AF_INET) failed for the cluster transport");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  bool ok = ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0 &&
            ::listen(lfd, 1) == 0;
  socklen_t alen = sizeof addr;
  ok = ok && ::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &alen) == 0;
  FORCE_CHECK(ok, "could not bind a loopback listener for cluster tcp");
  const int cfd = ::socket(AF_INET, SOCK_STREAM, 0);
  FORCE_CHECK(cfd >= 0, "socket(AF_INET) failed for the cluster transport");
  FORCE_CHECK(
      ::connect(cfd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0,
      "loopback connect failed for cluster tcp");
  const int afd = ::accept(lfd, nullptr, nullptr);
  ::close(lfd);
  FORCE_CHECK(afd >= 0, "loopback accept failed for cluster tcp");
  int one = 1;
  (void)::setsockopt(afd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  (void)::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return {Conn(afd), Conn(cfd)};
}

#else  // !unix

void Conn::close() { fd_ = -1; }
void Conn::shutdown_both() {}
long Conn::read_input(bool) { return -1; }
bool PollSet::poll(int) { return false; }
bool write_frame(int, MsgType, const void*, std::size_t) { return false; }
void Conn::send_frame(MsgType, const void*, std::size_t) {
  FORCE_CHECK(false, "the cluster transport requires a POSIX platform");
}
std::pair<Conn, Conn> connected_pair(Transport) {
  FORCE_CHECK(false, "the cluster transport requires a POSIX platform");
}

#endif

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    in_ = std::move(other.in_);
    in_cap_ = std::exchange(other.in_cap_, 0);
    head_ = std::exchange(other.head_, 0);
    tail_ = std::exchange(other.tail_, 0);
  }
  return *this;
}

long Conn::fill() { return read_input(false); }

DecodeStatus Conn::next_frame(MsgType* type, const unsigned char** body,
                              std::size_t* n) {
  const std::size_t held = tail_ - head_;
  FrameHeader h;
  const DecodeStatus st = decode_frame_header(in_.get() + head_, held, &h);
  if (st != DecodeStatus::kOk) return st;
  if (held - kFrameHeaderBytes < h.payload_bytes) {
    return DecodeStatus::kNeedMore;
  }
  *type = static_cast<MsgType>(h.type);
  *body = in_.get() + head_ + kFrameHeaderBytes;
  *n = h.payload_bytes;
  head_ += kFrameHeaderBytes + h.payload_bytes;
  return DecodeStatus::kOk;
}

bool Conn::recv_frame(MsgType* type, const unsigned char** body,
                      std::size_t* n, std::int64_t spin_ns) {
  FORCE_CHECK(fd_ >= 0, "recv_frame on a closed cluster connection");
  Waiter waiter;
  for (;;) {
    const DecodeStatus st = next_frame(type, body, n);
    if (st == DecodeStatus::kOk) return true;
    FORCE_CHECK(st == DecodeStatus::kNeedMore,
                st == DecodeStatus::kBadMagic
                    ? "cluster frame rejected: bad magic"
                    : (st == DecodeStatus::kBadVersion
                           ? "cluster frame rejected: protocol version "
                             "mismatch"
                           : "cluster frame rejected: oversized payload"));
    // Spin-then-block, with the window spent once per frame: the rest of
    // a frame longer than one read is waited for in the kernel.
    long r = 0;
    if (!waiter.spin_for(std::exchange(spin_ns, 0),
                         [&] { return (r = fill()) != 0; })) {
      r = read_input(/*wait=*/true);
    }
    if (r > 0) continue;
    const std::size_t held = tail_ - head_;
    if (held == 0) return false;  // orderly EOF at a frame boundary
    FORCE_CHECK(held >= kFrameHeaderBytes,
                "cluster connection closed mid-frame (truncated header)");
    FORCE_CHECK(false,
                "cluster connection closed mid-frame (truncated payload)");
  }
}

bool Conn::recv_frame(MsgType* type, std::vector<unsigned char>* payload,
                      std::int64_t spin_ns) {
  const unsigned char* body = nullptr;
  std::size_t n = 0;
  if (!recv_frame(type, &body, &n, spin_ns)) return false;
  payload->assign(body, body + n);
  return true;
}

bool parse_transport(const std::string& text, Transport* out) {
  if (text == "unix") {
    *out = Transport::kUnix;
    return true;
  }
  if (text == "tcp") {
    *out = Transport::kTcp;
    return true;
  }
  return false;
}

}  // namespace force::machdep::net
