// Framed socket transport for the cluster process model.
//
// The cluster backend runs force members as separate processes with *no*
// shared mapping at all; every byte that crosses an address-space boundary
// travels through this module as a framed message:
//
//   +--------+---------+--------+-------------+----------------------+
//   | magic  | version | type   | payload_len | payload bytes ...    |
//   | u32    | u16     | u16    | u32         | payload_len bytes    |
//   +--------+---------+--------+-------------+----------------------+
//
// All header fields are little-endian. Frames are length-prefixed and
// versioned so a truncated, oversized, or mismatched stream is rejected
// deterministically instead of being misparsed. Payloads are flat byte
// sequences produced by the bounds-checked Writer/Reader below - only
// trivially-copyable data ever crosses the wire.
//
// The pure encode/decode half of this file (header codec, Writer, Reader)
// has no socket dependency and is unit/fuzz-tested directly in
// tests/test_cluster_proto.cpp.
#pragma once

#include <poll.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace force::machdep::net {

/// 'FRCN' - distinguishes force cluster frames from stray bytes.
inline constexpr std::uint32_t kFrameMagic = 0x4652434Eu;

/// Bumped whenever the frame layout or any payload layout changes.
/// Version 2: every construct request opens with the sender's release
/// records. Version 3: one reply frame (kReply) answers every request.
/// Version 4: a selfsched episode opens on its first claim, which carries
/// the bounds; the dispatch reset is gone.
inline constexpr std::uint16_t kProtocolVersion = 4;

/// Fixed size of the frame header on the wire.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Upper bound on a single payload. Large enough for a full-arena update
/// flush (arenas default to 4 MiB), small enough that a corrupted length
/// field cannot drive an allocation into the gigabytes.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

/// Every message the coordinator and peers exchange. The numeric values
/// are wire-visible: never renumber, and never reuse a retired value
/// (5 was version 1's update frame; 2, 3, 7, 9, 11, 13, 16, 18, 21, 25,
/// 27, 29, 32, 34 and 36 were version 2's site note and its per-construct
/// reply frames; 15 was version 3's dispatch reset).
///
/// A construct is one RPC. Every peer -> coord frame but kError is a
/// request whose payload is {records, key str, body}: the records block is
/// the sender's release flush (count 0 when clean or not a release point),
/// the key names the construct's state on the coordinator, and the body is
/// listed here (machdep/cluster.cpp encodes and decodes it). Every request
/// but the four one-way ones gets exactly one kReply: {records, body}, the
/// records being the log suffix the peer has not seen, so every reply is
/// an acquire point.
enum class MsgType : std::uint16_t {
  kHello = 1,          // {proc0 u32} -> {}
  kError = 4,          // peer -> coord (one-way, no records): {what str}
  kBarrierArrive = 6,  // {width u32, has_section u8} -> {run_section u8}
  kBarrierSectionDone = 8,  // {} -> {run_section u8 = 0}, the release
  kLockAcquire = 10,   // {} -> {}
  kLockTry = 12,       // {} -> {ok u8}
  kLockRelease = 14,   // one-way: {}
  kDispatchClaim = 17, // {episode u64, mode u8, amount i64, arrival u8,
                       //  and if arrival: start i64, last i64, incr i64,
                       //  trips i64}
                       //   -> {mismatch u8, begin i64, count i64}
  kAskforPut = 19,     // one-way: {task bytes}
  kAskforAsk = 20,     // {} -> {has_task u8, task bytes if has_task}
  kAskforComplete = 22,  // one-way: {}
  kAskforProbend = 23,   // one-way: {}
  kAskforStatus = 24,    // {} -> {ended u8, granted u64}
  kCellProduce = 26,     // {value bytes} -> {}
  kCellConsume = 28,     // {copy u8} -> {value bytes}
  kCellTryProduce = 30,  // {value bytes} -> {ok u8}
  kCellTryConsume = 31,  // {} -> {ok u8, value bytes if ok}
  kCellVoid = 33,        // {} -> {}
  kJoin = 35,            // {} -> {}
  kPoison = 37,  // coord -> peer (unsolicited, team death): {}
  kReply = 38,   // coord -> peer: {records, body}
};

struct FrameHeader {
  std::uint16_t version = kProtocolVersion;
  std::uint16_t type = 0;
  std::uint32_t payload_bytes = 0;
};

enum class DecodeStatus {
  kOk,         // header decoded; *out is valid
  kNeedMore,   // fewer than kFrameHeaderBytes available
  kBadMagic,   // stream is not force cluster traffic
  kBadVersion, // peer speaks a different protocol revision
  kOversized,  // payload_len exceeds kMaxPayloadBytes
};

/// Serializes a header into exactly kFrameHeaderBytes at `out`.
void encode_frame_header(const FrameHeader& h,
                         unsigned char out[kFrameHeaderBytes]);

/// Decodes a header from the first kFrameHeaderBytes of `data`. Never
/// reads past `len`; never trusts `payload_bytes` beyond the bound check.
DecodeStatus decode_frame_header(const unsigned char* data, std::size_t len,
                                 FrameHeader* out);

// ---------------------------------------------------------------------------
// Payload codec: little-endian, bounds-checked, allocation-bounded.
// ---------------------------------------------------------------------------

/// Appends fields to a growable byte buffer.
class Writer {
 public:
  void u8(std::uint8_t v) { buf_.push_back(static_cast<unsigned char>(v)); }
  // Little-endian hosts only (matches the rest of machdep); a
  // static_assert in net.cpp enforces the assumption.
  void u16(std::uint16_t v) { raw(&v, sizeof v); }
  void u32(std::uint32_t v) { raw(&v, sizeof v); }
  void u64(std::uint64_t v) { raw(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Length-prefixed byte run.
  void bytes(const void* data, std::size_t n) {
    u32(static_cast<std::uint32_t>(n));
    raw(data, n);
  }

  /// Bytes as they are, with no length prefix.
  void raw(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Length-prefixed UTF-8/opaque string.
  void str(const std::string& s) { bytes(s.data(), s.size()); }

  /// Overwrites the u32 written at byte `at` (a count known only once the
  /// items after it are written).
  void patch_u32(std::size_t at, std::uint32_t v) {
    std::memcpy(buf_.data() + at, &v, sizeof v);
  }

  /// Empties the buffer. Storage of up to kKeepBytes is kept, so a Writer
  /// reused for every request allocates only while its requests grow; a
  /// larger one, left by a rare large message, is released.
  void clear() {
    if (buf_.capacity() > kKeepBytes) {
      buf_ = {};
    } else {
      buf_.clear();
    }
  }

  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  [[nodiscard]] const std::vector<unsigned char>& data() const {
    return buf_;
  }
  [[nodiscard]] std::vector<unsigned char> take() { return std::move(buf_); }

 private:
  static constexpr std::size_t kKeepBytes = 16 * 1024;
  std::vector<unsigned char> buf_;
};

/// Consumes fields from a fixed byte span. Every getter returns false
/// (and latches !ok()) instead of reading out of bounds, so arbitrary
/// bytes can be fed through a Reader without UB - the fuzz tests do.
class Reader {
 public:
  Reader(const unsigned char* data, std::size_t n) : p_(data), end_(data + n) {}
  explicit Reader(const std::vector<unsigned char>& v)
      : Reader(v.data(), v.size()) {}

  bool u8(std::uint8_t* v) { return raw(v, 1); }
  bool u16(std::uint16_t* v) { return raw(v, sizeof *v); }
  bool u32(std::uint32_t* v) { return raw(v, sizeof *v); }
  bool u64(std::uint64_t* v) { return raw(v, sizeof *v); }
  bool i64(std::int64_t* v) {
    std::uint64_t u = 0;
    if (!u64(&u)) return false;
    std::memcpy(v, &u, sizeof u);
    return true;
  }

  /// Length-prefixed byte run, viewed in place: *data points into the
  /// Reader's span and stays valid as long as that span does.
  bool view(const unsigned char** data, std::size_t* n) {
    std::uint32_t len = 0;
    if (!u32(&len)) return false;
    if (static_cast<std::size_t>(end_ - p_) < len) return fail();
    *data = p_;
    *n = len;
    p_ += len;
    return true;
  }

  /// Length-prefixed byte run into an owned buffer.
  bool bytes(std::vector<unsigned char>* out) {
    const unsigned char* p = nullptr;
    std::size_t n = 0;
    if (!view(&p, &n)) return false;
    out->assign(p, p + n);
    return true;
  }

  bool str(std::string* out) {
    const unsigned char* p = nullptr;
    std::size_t n = 0;
    if (!view(&p, &n)) return false;
    out->assign(reinterpret_cast<const char*>(p), n);
    return true;
  }

  /// True once any getter has run out of bytes.
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when the payload was consumed exactly.
  [[nodiscard]] bool exhausted() const { return ok_ && p_ == end_; }
  [[nodiscard]] std::size_t remaining() const {
    return static_cast<std::size_t>(end_ - p_);
  }

 private:
  bool raw(void* out, std::size_t n) {
    if (!ok_ || static_cast<std::size_t>(end_ - p_) < n) return fail();
    std::memcpy(out, p_, n);
    p_ += n;
    return true;
  }
  bool fail() {
    ok_ = false;
    return false;
  }
  const unsigned char* p_;
  const unsigned char* end_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Stream connection over a socket fd.
// ---------------------------------------------------------------------------

/// Owns one end of a stream socket and the bytes read from it that no
/// frame has consumed yet. Peers wait for a frame with recv_frame; the
/// coordinator reads through its own poll loop (PollSet, fill, next_frame).
class Conn {
 public:
  Conn() = default;
  explicit Conn(int fd) : fd_(fd) {}
  Conn(Conn&& other) noexcept { *this = std::move(other); }
  Conn& operator=(Conn&& other) noexcept;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() { close(); }

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }

  /// Writes one complete frame with write_frame (blocking until fully
  /// sent). Throws via FORCE_CHECK on a broken pipe or malformed size.
  void send_frame(MsgType type, const void* payload, std::size_t n);
  void send_frame(MsgType type, const std::vector<unsigned char>& payload) {
    send_frame(type, payload.data(), payload.size());
  }

  /// Waits for one complete frame and views its payload in place: *body
  /// stays valid until the next read on this connection. The wait spins
  /// first, probing without blocking for up to `spin_ns` (a
  /// Waiter::team_window_ns; 0 blocks at once), then blocks in recv(2);
  /// the probe that finds the frame also reads it. Returns false on
  /// orderly EOF at a frame boundary; throws on a malformed header or
  /// mid-frame EOF.
  bool recv_frame(MsgType* type, const unsigned char** body, std::size_t* n,
                  std::int64_t spin_ns = 0);
  /// recv_frame that copies the payload out.
  bool recv_frame(MsgType* type, std::vector<unsigned char>* payload,
                  std::int64_t spin_ns = 0);

  /// Reads whatever has arrived into the input buffer without waiting: the
  /// byte count; 0 when nothing could be read just now (interrupted, or it
  /// would block); -1 once the far side has closed or the link failed.
  long fill();

  /// Takes the next whole frame off the input buffer: kOk with *type,
  /// *body and *n set (*body valid until the next read), kNeedMore when no
  /// whole frame is buffered, or the header's fault.
  DecodeStatus next_frame(MsgType* type, const unsigned char** body,
                          std::size_t* n);

  /// Tears both directions down without closing the fd (the torn-connection
  /// fault-injection hook): the far side sees EOF while this process lives.
  void shutdown_both();

  void close();

 private:
  /// Reads into the input buffer; `wait` blocks until something arrives.
  long read_input(bool wait);

  int fd_ = -1;
  // The input buffer, allocated without zero-filling so only the bytes
  // read into it become resident: [head_, tail_) is unread.
  std::unique_ptr<unsigned char[]> in_;
  std::size_t in_cap_ = 0;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// The stream transport between cluster members and the coordinator.
enum class Transport {
  kUnix,  ///< AF_UNIX socketpair (default)
  kTcp    ///< loopback TCP with TCP_NODELAY
};

/// Parses a ForceConfig::cluster_transport value ("unix" or "tcp");
/// false on anything else.
[[nodiscard]] bool parse_transport(const std::string& text, Transport* out);

/// A connected pair of stream sockets on `transport`.
/// first = coordinator end, second = peer end.
std::pair<Conn, Conn> connected_pair(Transport transport);

/// A set of fds to wait for input on, kept across polls so a poll loop
/// allocates nothing once the set has reached its size.
class PollSet {
 public:
  void clear() { fds_.clear(); }
  void add(int fd) { fds_.push_back({fd, POLLIN, 0}); }
  [[nodiscard]] std::size_t size() const { return fds_.size(); }

  /// Waits up to `timeout_ms` (0: one probe) for input on the set. False
  /// when no fd is ready.
  bool poll(int timeout_ms);
  /// After a poll that returned true: whether entry k is readable, hung up
  /// or in error.
  [[nodiscard]] bool ready(std::size_t k) const {
    return (fds_[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0;
  }

 private:
  std::vector<pollfd> fds_;
};

/// Sends one frame of `type` on `fd`: header and payload leave in one
/// sendmsg(2) of two iovecs, with no copy, so the receiver wakes once per
/// frame. Partial writes resume where they stopped, waiting via poll(2)
/// when the socket buffer is full. Returns false if the far side has gone
/// away (EPIPE / ECONNRESET) - callers decide whether that is fatal.
bool write_frame(int fd, MsgType type, const void* payload, std::size_t n);

}  // namespace force::machdep::net
