#include "machdep/net.hpp"

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

#include <bit>

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

Conn& Conn::operator=(Conn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Conn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Conn::shutdown_both() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

long Conn::read_some(void* buf, std::size_t n) {
  const ssize_t r = ::recv(fd_, buf, n, 0);
  if (r > 0) return static_cast<long>(r);
  if (r < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return 0;
  }
  return -1;
}

bool poll_input(const int* fds, char* ready, std::size_t n, int timeout_ms) {
  std::vector<pollfd> pfds(n);
  for (std::size_t k = 0; k < n; ++k) pfds[k] = {fds[k], POLLIN, 0};
  if (::poll(pfds.data(), n, timeout_ms) <= 0) return false;
  for (std::size_t k = 0; k < n; ++k) {
    ready[k] = (pfds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }
  return true;
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

namespace {

// Blocking read of exactly n bytes. Returns bytes read (short only at EOF).
std::size_t recv_exact(int fd, unsigned char* out, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    break;  // EOF or hard error.
  }
  return got;
}

}  // namespace

bool Conn::recv_frame(MsgType* type, std::vector<unsigned char>* payload) {
  FORCE_CHECK(fd_ >= 0, "recv_frame on a closed cluster connection");
  unsigned char hdr[kFrameHeaderBytes];
  const std::size_t got = recv_exact(fd_, hdr, sizeof hdr);
  if (got == 0) return false;  // orderly EOF at a frame boundary
  FORCE_CHECK(got == sizeof hdr,
              "cluster connection closed mid-frame (truncated header)");
  FrameHeader h;
  const DecodeStatus st = decode_frame_header(hdr, sizeof hdr, &h);
  FORCE_CHECK(st == DecodeStatus::kOk,
              st == DecodeStatus::kBadMagic
                  ? "cluster frame rejected: bad magic"
                  : (st == DecodeStatus::kBadVersion
                         ? "cluster frame rejected: protocol version mismatch"
                         : "cluster frame rejected: oversized payload"));
  payload->resize(h.payload_bytes);
  if (h.payload_bytes != 0) {
    const std::size_t body = recv_exact(fd_, payload->data(), h.payload_bytes);
    FORCE_CHECK(body == h.payload_bytes,
                "cluster connection closed mid-frame (truncated payload)");
  }
  *type = static_cast<MsgType>(h.type);
  return true;
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

Conn& Conn::operator=(Conn&& other) noexcept {
  fd_ = other.fd_;
  other.fd_ = -1;
  return *this;
}
void Conn::close() { fd_ = -1; }
void Conn::shutdown_both() {}
long Conn::read_some(void*, std::size_t) { return -1; }
bool poll_input(const int*, char*, std::size_t, int) { return false; }
bool write_frame(int, MsgType, const void*, std::size_t) { return false; }
void Conn::send_frame(MsgType, const void*, std::size_t) {
  FORCE_CHECK(false, "the cluster transport requires a POSIX platform");
}
bool Conn::recv_frame(MsgType*, std::vector<unsigned char>*) {
  FORCE_CHECK(false, "the cluster transport requires a POSIX platform");
}
std::pair<Conn, Conn> connected_pair(Transport) {
  FORCE_CHECK(false, "the cluster transport requires a POSIX platform");
}

#endif

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
