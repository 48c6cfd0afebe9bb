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

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace force::machdep::net {

/// 'FRCN' - distinguishes force cluster frames from stray bytes.
inline constexpr std::uint32_t kFrameMagic = 0x4652434Eu;

/// Bumped whenever the frame layout or any payload layout changes.
/// Version 2: every construct request opens with the sender's release
/// records.
inline constexpr std::uint16_t kProtocolVersion = 2;

/// Fixed size of the frame header on the wire.
inline constexpr std::size_t kFrameHeaderBytes = 12;

/// Upper bound on a single payload. Large enough for a full-arena update
/// flush (arenas default to 4 MiB), small enough that a corrupted length
/// field cannot drive an allocation into the gigabytes.
inline constexpr std::uint32_t kMaxPayloadBytes = 64u * 1024u * 1024u;

/// Every message the coordinator and peers exchange. The numeric values
/// are wire-visible; append only, never renumber (5 was the version-1
/// update frame). Every peer -> coord payload other than kHello, kSite and
/// kError is a construct request: it starts with a {records} block, the
/// sender's release flush (count 0 when clean or not a release point),
/// ahead of the fields listed here.
enum class MsgType : std::uint16_t {
  kHello = 1,         // peer -> coord: {proc0 u32}
  kHelloAck = 2,      // coord -> peer: {}
  kSite = 3,          // peer -> coord (one-way): {site str}
  kError = 4,         // peer -> coord (one-way): {what str}
  kBarrierArrive = 6, // peer -> coord: {key str, width u32, has_section u8}
  kBarrierRunSection = 7,  // coord -> champion: {records}
  kBarrierSectionDone = 8, // champion -> coord: {key str}
  kBarrierRelease = 9,     // coord -> peer: {records}
  kLockAcquire = 10,  // peer -> coord: {key str}
  kLockGranted = 11,  // coord -> peer: {records}
  kLockTry = 12,      // peer -> coord: {key str}
  kLockTryReply = 13, // coord -> peer: {ok u8, records if ok}
  kLockRelease = 14,  // peer -> coord (one-way): {key str}
  kDispatchReset = 15,      // peer -> coord: {key str}
  kDispatchResetAck = 16,   // coord -> peer: {}
  kDispatchClaim = 17,      // peer -> coord: {key str, want i64, limit i64,
                            //                 divisor i64 (0 = plain claim)}
  kDispatchClaimReply = 18, // coord -> peer: {begin i64, count i64}
  kAskforPut = 19,      // peer -> coord (one-way): {key str, task bytes}
  kAskforAsk = 20,      // peer -> coord: {key str}
  kAskforGrant = 21,    // coord -> peer: {has_task u8, records, task bytes}
  kAskforComplete = 22, // peer -> coord (one-way): {key str}
  kAskforProbend = 23,  // peer -> coord (one-way): {key str}
  kAskforStatus = 24,   // peer -> coord: {key str}
  kAskforStatusReply = 25, // coord -> peer: {ended u8, granted u64}
  kCellProduce = 26,    // peer -> coord: {key str, value bytes}
  kCellProduceAck = 27, // coord -> peer: {records}
  kCellConsume = 28,    // peer -> coord: {key str, copy u8}
  kCellValue = 29,      // coord -> peer: {records, value bytes}
  kCellTryProduce = 30, // peer -> coord: {key str, value bytes}
  kCellTryConsume = 31, // peer -> coord: {key str}
  kCellTryReply = 32,   // coord -> peer: {ok u8, records, value bytes if ok}
  kCellVoid = 33,       // peer -> coord: {key str}
  kCellVoidAck = 34,    // coord -> peer: {}
  kJoin = 35,           // peer -> coord: {}
  kJoinAck = 36,        // coord -> peer: {}
  kPoison = 37,         // coord -> peer (one-way, the only unsolicited
                        // coordinator frame): {}
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
  void u16(std::uint16_t v) { raw_le(&v, sizeof v); }
  void u32(std::uint32_t v) { raw_le(&v, sizeof v); }
  void u64(std::uint64_t v) { raw_le(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

  /// Length-prefixed byte run.
  void bytes(const void* data, std::size_t n) {
    u32(static_cast<std::uint32_t>(n));
    const auto* p = static_cast<const unsigned char*>(data);
    buf_.insert(buf_.end(), p, p + n);
  }

  /// Length-prefixed UTF-8/opaque string.
  void str(const std::string& s) { bytes(s.data(), s.size()); }

  [[nodiscard]] const std::vector<unsigned char>& data() const {
    return buf_;
  }
  [[nodiscard]] std::vector<unsigned char> take() { return std::move(buf_); }

 private:
  void raw_le(const void* v, std::size_t n) {
    // Little-endian hosts only (matches the rest of machdep); a
    // static_assert in net.cpp enforces the assumption.
    const auto* p = static_cast<const unsigned char*>(v);
    buf_.insert(buf_.end(), p, p + n);
  }
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

  /// Length-prefixed byte run into an owned buffer.
  bool bytes(std::vector<unsigned char>* out) {
    std::uint32_t n = 0;
    if (!u32(&n)) return false;
    if (static_cast<std::size_t>(end_ - p_) < n) return fail();
    out->assign(p_, p_ + n);
    p_ += n;
    return true;
  }

  bool str(std::string* out) {
    std::uint32_t n = 0;
    if (!u32(&n)) return false;
    if (static_cast<std::size_t>(end_ - p_) < n) return fail();
    out->assign(reinterpret_cast<const char*>(p_), n);
    p_ += n;
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
// Blocking stream connection over a socket fd.
// ---------------------------------------------------------------------------

/// Owns one end of a stream socket. Peers use it blocking; the coordinator
/// reads through its own poll loop and only uses send_frame/fd here.
class Conn {
 public:
  Conn() = default;
  explicit Conn(int fd) : fd_(fd) {}
  Conn(Conn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
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

  /// Blocks for one complete frame. Returns false on orderly EOF at a
  /// frame boundary; throws on malformed headers or mid-frame EOF.
  bool recv_frame(MsgType* type, std::vector<unsigned char>* payload);

  /// Tears both directions down without closing the fd (the torn-connection
  /// fault-injection hook): the far side sees EOF while this process lives.
  void shutdown_both();

  void close();

 private:
  int fd_ = -1;
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

/// Sends one frame of `type` on `fd`: header and payload leave in one
/// sendmsg(2) of two iovecs, with no copy, so the receiver wakes once per
/// frame. Partial writes resume where they stopped, waiting via poll(2)
/// when the socket buffer is full. Returns false if the far side has gone
/// away (EPIPE / ECONNRESET) - callers decide whether that is fatal.
bool write_frame(int fd, MsgType type, const void* payload, std::size_t n);

}  // namespace force::machdep::net
