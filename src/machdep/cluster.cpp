#include "machdep/cluster.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <map>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#endif

#include "machdep/arena.hpp"
#include "machdep/shm.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"

namespace force::machdep::cluster {

// ---------------------------------------------------------------------------
// DSM building blocks (pure).
// ---------------------------------------------------------------------------
namespace dsm {

std::vector<Record> diff(const unsigned char* data, std::size_t n,
                         std::vector<unsigned char>* shadow) {
  if (shadow->size() < n) shadow->resize(n, 0);
  std::vector<Record> out;
  std::size_t i = 0;
  while (i < n) {
    // Every release flush scans the whole used arena and most find nothing,
    // so a clean block is skipped with one memcmp and a clean word inside a
    // dirty block with another; the byte steps below still place each
    // record exactly at its first and last changed byte.
    if (i % kDiffBlockBytes == 0) {
      const std::size_t len = std::min(kDiffBlockBytes, n - i);
      if (std::memcmp(data + i, shadow->data() + i, len) == 0) {
        i += len;
        continue;
      }
    }
    const std::size_t block_end =
        std::min(n, (i / kDiffBlockBytes + 1) * kDiffBlockBytes);
    while (i + sizeof(std::uint64_t) <= block_end &&
           std::memcmp(data + i, shadow->data() + i,
                       sizeof(std::uint64_t)) == 0) {
      i += sizeof(std::uint64_t);
    }
    if (i >= block_end) continue;
    if (data[i] == (*shadow)[i]) {
      ++i;
      continue;
    }
    std::size_t j = i + 1;
    while (j < n && data[j] != (*shadow)[j]) ++j;
    Record rec;
    rec.offset = i;
    rec.bytes.assign(data + i, data + j);
    std::memcpy(shadow->data() + i, data + i, j - i);
    out.push_back(std::move(rec));
    i = j;
  }
  return out;
}

void apply(std::vector<unsigned char>* image, const std::vector<Record>& recs,
           std::size_t capacity) {
  for (const Record& rec : recs) {
    const std::size_t end = static_cast<std::size_t>(rec.offset) +
                            rec.bytes.size();
    FORCE_CHECK(rec.offset <= capacity && end <= capacity,
                "cluster DSM record is outside the arena");
    if (image->size() < end) image->resize(end, 0);
    std::memcpy(image->data() + rec.offset, rec.bytes.data(),
                rec.bytes.size());
  }
}

void encode_records(net::Writer* w, const std::vector<Record>& recs) {
  w->u32(static_cast<std::uint32_t>(recs.size()));
  for (const Record& rec : recs) {
    w->u64(rec.offset);
    w->bytes(rec.bytes.data(), rec.bytes.size());
  }
}

bool decode_records(net::Reader* r, std::vector<Record>* out) {
  std::uint32_t count = 0;
  if (!r->u32(&count)) return false;
  out->clear();
  for (std::uint32_t i = 0; i < count; ++i) {
    Record rec;
    if (!r->u64(&rec.offset) || !r->bytes(&rec.bytes)) return false;
    out->push_back(std::move(rec));
  }
  return true;
}

}  // namespace dsm

// ---------------------------------------------------------------------------
// Runtime configuration.
// ---------------------------------------------------------------------------

namespace {
RuntimeConfig g_config;       // what the next cluster run will use
RuntimeConfig g_saved_config; // ScopedRuntimeConfig restore slot
ClusterClient* g_client = nullptr;  // member-process client (post-fork)
Traffic g_last_traffic;             // the last run's coordinator tally
}  // namespace

ScopedRuntimeConfig::ScopedRuntimeConfig(RuntimeConfig cfg) {
  g_saved_config = g_config;
  g_config = std::move(cfg);
}

ScopedRuntimeConfig::~ScopedRuntimeConfig() { g_config = g_saved_config; }

const RuntimeConfig& runtime_config() { return g_config; }

ClusterClient* client() { return g_client; }

Traffic last_run_traffic() { return g_last_traffic; }

ClusterClient& require_client() {
  FORCE_CHECK(g_client != nullptr,
              "cluster construct used outside a cluster member process");
  return *g_client;
}

void sever_connection_for_test() {
  if (g_client != nullptr) g_client->sever_connection_for_test();
}

// ---------------------------------------------------------------------------
// Peer-side client.
// ---------------------------------------------------------------------------

ClusterClient::ClusterClient(net::Conn conn, int proc0, SharedArena* arena)
    : conn_(std::move(conn)), proc0_(proc0), arena_(arena) {
  if (arena_ != nullptr) {
    // The shadow starts as a full copy of the already-used arena so the
    // first flush diffs against real initial contents, not zeros - a
    // zeroed shadow would make the first flush re-send (and potentially
    // clobber) every nonzero byte the parent initialized before the fork.
    const std::size_t used = arena_->bytes_used();
    const auto* base = reinterpret_cast<const unsigned char*>(
        arena_->raw_bytes());
    shadow_.assign(base, base + used);
  }
  handshake();
}

void ClusterClient::handshake() {
  net::Writer w;
  w.u32(static_cast<std::uint32_t>(proc0_));
  conn_.send_frame(net::MsgType::kHello, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kHelloAck}, &payload);
}

net::MsgType ClusterClient::recv_expect(
    std::initializer_list<net::MsgType> allowed,
    std::vector<unsigned char>* payload) {
  for (;;) {
    net::MsgType type;
    const bool got = conn_.recv_frame(&type, payload);
    FORCE_CHECK(got, "cluster coordinator connection closed (the parent "
                     "process is gone)");
    if (type == net::MsgType::kPoison) throw shm::TeamPoisoned();
    for (net::MsgType a : allowed) {
      if (type == a) return type;
    }
    FORCE_CHECK(false, "unexpected frame type from the cluster coordinator");
  }
}

void ClusterClient::note_site(const std::string& site) {
  if (site == last_site_) return;
  last_site_ = site;
  net::Writer w;
  w.str(site);
  conn_.send_frame(net::MsgType::kSite, w.data());
}

void ClusterClient::apply_record(std::uint64_t offset,
                                 const unsigned char* data, std::size_t n) {
  if (arena_ == nullptr || n == 0) return;
  const std::size_t used = arena_->bytes_used();
  if (offset >= used) {
    // Ahead of this peer's local allocation cursor: hold it until the
    // allocation (and its constructor) has run here, then overlay.
    pending_.push_back({offset, std::vector<unsigned char>(data, data + n)});
    return;
  }
  const std::size_t can =
      std::min<std::size_t>(n, used - static_cast<std::size_t>(offset));
  auto* base = reinterpret_cast<unsigned char*>(arena_->raw_bytes());
  std::memcpy(base + offset, data, can);
  if (shadow_.size() < offset + can) shadow_.resize(offset + can, 0);
  std::memcpy(shadow_.data() + offset, data, can);
  if (can < n) {
    pending_.push_back(
        {offset + can, std::vector<unsigned char>(data + can, data + n)});
  }
}

void ClusterClient::drain_pending() {
  if (pending_.empty()) return;
  std::vector<dsm::Record> retry = std::move(pending_);
  pending_.clear();
  for (const dsm::Record& rec : retry) {
    apply_record(rec.offset, rec.bytes.data(), rec.bytes.size());
  }
}

net::Writer ClusterClient::release_request() {
  if (arena_ == nullptr) return plain_request();
  drain_pending();
  const std::size_t used = arena_->bytes_used();
  const auto* base =
      reinterpret_cast<const unsigned char*>(arena_->raw_bytes());
  net::Writer w;
  dsm::encode_records(&w, dsm::diff(base, used, &shadow_));
  return w;
}

net::Writer ClusterClient::plain_request() {
  net::Writer w;
  dsm::encode_records(&w, {});
  return w;
}

void ClusterClient::apply_updates(net::Reader* r) {
  std::vector<dsm::Record> recs;
  FORCE_CHECK(dsm::decode_records(r, &recs),
              "malformed update records from the cluster coordinator");
  if (arena_ == nullptr) return;
  drain_pending();
  for (const dsm::Record& rec : recs) {
    apply_record(rec.offset, rec.bytes.data(), rec.bytes.size());
  }
}

void ClusterClient::barrier_arrive(const std::string& key, int width,
                                   const std::function<void()>* section) {
  net::Writer w = release_request();
  w.str(key);
  w.u32(static_cast<std::uint32_t>(width));
  w.u8(section != nullptr ? 1 : 0);
  conn_.send_frame(net::MsgType::kBarrierArrive, w.data());
  std::vector<unsigned char> payload;
  net::MsgType type = recv_expect(
      {net::MsgType::kBarrierRunSection, net::MsgType::kBarrierRelease},
      &payload);
  if (type == net::MsgType::kBarrierRunSection) {
    net::Reader r(payload);
    apply_updates(&r);
    (*section)();
    net::Writer done = release_request();
    done.str(key);
    conn_.send_frame(net::MsgType::kBarrierSectionDone, done.data());
    recv_expect({net::MsgType::kBarrierRelease}, &payload);
  }
  net::Reader r(payload);
  apply_updates(&r);
}

void ClusterClient::lock_acquire(const std::string& key) {
  net::Writer w = release_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kLockAcquire, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kLockGranted}, &payload);
  net::Reader r(payload);
  apply_updates(&r);
}

bool ClusterClient::lock_try_acquire(const std::string& key) {
  net::Writer w = release_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kLockTry, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kLockTryReply}, &payload);
  net::Reader r(payload);
  std::uint8_t ok = 0;
  FORCE_CHECK(r.u8(&ok), "malformed lock-try reply");
  if (ok != 0) apply_updates(&r);
  return ok != 0;
}

void ClusterClient::lock_release(const std::string& key) {
  net::Writer w = release_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kLockRelease, w.data());
}

void ClusterClient::dispatch_reset(const std::string& key) {
  net::Writer w = plain_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kDispatchReset, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kDispatchResetAck}, &payload);
}

Claim ClusterClient::dispatch_claim(const std::string& key, std::int64_t want,
                                    std::int64_t limit) {
  return claim_rpc(key, want, limit, 0);
}

Claim ClusterClient::dispatch_claim_fraction(const std::string& key,
                                             std::int64_t limit,
                                             std::int64_t divisor) {
  return claim_rpc(key, 0, limit, divisor);
}

Claim ClusterClient::claim_rpc(const std::string& key, std::int64_t want,
                               std::int64_t limit, std::int64_t divisor) {
  net::Writer w = plain_request();
  w.str(key);
  w.i64(want);
  w.i64(limit);
  w.i64(divisor);
  conn_.send_frame(net::MsgType::kDispatchClaim, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kDispatchClaimReply}, &payload);
  net::Reader r(payload);
  Claim c;
  FORCE_CHECK(r.i64(&c.begin) && r.i64(&c.count),
              "malformed dispatch claim reply");
  return c;
}

void ClusterClient::askfor_put(const std::string& key, const void* task,
                               std::size_t n) {
  net::Writer w = release_request();
  w.str(key);
  w.bytes(task, n);
  conn_.send_frame(net::MsgType::kAskforPut, w.data());
}

bool ClusterClient::askfor_ask(const std::string& key, void* task,
                               std::size_t n) {
  net::Writer w = release_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kAskforAsk, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kAskforGrant}, &payload);
  net::Reader r(payload);
  std::uint8_t has = 0;
  FORCE_CHECK(r.u8(&has), "malformed askfor grant");
  apply_updates(&r);
  if (has == 0) return false;
  std::vector<unsigned char> bytes;
  FORCE_CHECK(r.bytes(&bytes) && bytes.size() == n,
              "askfor task payload size mismatch on the wire");
  std::memcpy(task, bytes.data(), n);
  return true;
}

void ClusterClient::askfor_complete(const std::string& key) {
  net::Writer w = release_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kAskforComplete, w.data());
}

void ClusterClient::askfor_probend(const std::string& key) {
  net::Writer w = release_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kAskforProbend, w.data());
}

void ClusterClient::askfor_status(const std::string& key, bool* ended,
                                  std::uint64_t* granted) {
  net::Writer w = plain_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kAskforStatus, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kAskforStatusReply}, &payload);
  net::Reader r(payload);
  std::uint8_t e = 0;
  std::uint64_t g = 0;
  FORCE_CHECK(r.u8(&e) && r.u64(&g), "malformed askfor status reply");
  *ended = e != 0;
  *granted = g;
}

void ClusterClient::cell_produce(const std::string& key, const void* value,
                                 std::size_t n) {
  net::Writer w = release_request();
  w.str(key);
  w.bytes(value, n);
  conn_.send_frame(net::MsgType::kCellProduce, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kCellProduceAck}, &payload);
  net::Reader r(payload);
  apply_updates(&r);
}

namespace {

void read_cell_value(net::Reader* r, void* value, std::size_t n) {
  std::vector<unsigned char> bytes;
  FORCE_CHECK(r->bytes(&bytes) && bytes.size() == n,
              "async value payload size mismatch on the wire");
  std::memcpy(value, bytes.data(), n);
}

}  // namespace

void ClusterClient::cell_consume(const std::string& key, void* value,
                                 std::size_t n) {
  net::Writer w = release_request();
  w.str(key);
  w.u8(0);
  conn_.send_frame(net::MsgType::kCellConsume, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kCellValue}, &payload);
  net::Reader r(payload);
  apply_updates(&r);
  read_cell_value(&r, value, n);
}

void ClusterClient::cell_copy(const std::string& key, void* value,
                              std::size_t n) {
  net::Writer w = release_request();
  w.str(key);
  w.u8(1);
  conn_.send_frame(net::MsgType::kCellConsume, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kCellValue}, &payload);
  net::Reader r(payload);
  apply_updates(&r);
  read_cell_value(&r, value, n);
}

bool ClusterClient::cell_try_produce(const std::string& key, const void* value,
                                     std::size_t n) {
  net::Writer w = release_request();
  w.str(key);
  w.bytes(value, n);
  conn_.send_frame(net::MsgType::kCellTryProduce, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kCellTryReply}, &payload);
  net::Reader r(payload);
  std::uint8_t ok = 0;
  FORCE_CHECK(r.u8(&ok), "malformed async try reply");
  if (ok != 0) apply_updates(&r);
  return ok != 0;
}

bool ClusterClient::cell_try_consume(const std::string& key, void* value,
                                     std::size_t n) {
  net::Writer w = release_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kCellTryConsume, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kCellTryReply}, &payload);
  net::Reader r(payload);
  std::uint8_t ok = 0;
  FORCE_CHECK(r.u8(&ok), "malformed async try reply");
  if (ok == 0) return false;
  apply_updates(&r);
  read_cell_value(&r, value, n);
  return true;
}

void ClusterClient::cell_void(const std::string& key) {
  net::Writer w = release_request();
  w.str(key);
  conn_.send_frame(net::MsgType::kCellVoid, w.data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kCellVoidAck}, &payload);
}

void ClusterClient::join() {
  conn_.send_frame(net::MsgType::kJoin, release_request().data());
  std::vector<unsigned char> payload;
  recv_expect({net::MsgType::kJoinAck}, &payload);
}

void ClusterClient::report_error(const std::string& what) noexcept {
  try {
    net::Writer w;
    w.str(what);
    conn_.send_frame(net::MsgType::kError, w.data());
  } catch (...) {
    // Best-effort only: the socket may already be gone.
  }
}

void ClusterClient::sever_connection_for_test() { conn_.shutdown_both(); }

#if defined(__unix__) || defined(__APPLE__)

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

namespace {

constexpr std::int64_t kGraceNs = 5'000'000'000;  // SIGKILL stragglers after
constexpr int kPollTickMs = 10;

struct PeerIO {
  net::Conn conn;
  pid_t pid = -1;
  bool joined = false;  // sent kJoin (subsequent EOF is orderly)
  bool eof = false;     // socket is gone
  bool torn = false;    // EOF while the process still ran (half-closed link)
  std::string site = "startup";
  std::string error;
  std::vector<unsigned char> inbuf;
  std::size_t inpos = 0;
  std::size_t synced = 0;  // update-log records this peer has seen
};

struct LockState {
  int held_by = -1;
  std::deque<int> waiters;
};

struct BarrierState {
  std::vector<int> arrivers;
  bool has_section = false;
  bool section_running = false;
};

struct DispatchState {
  std::int64_t value = 0;
};

struct AskforState {
  std::deque<std::vector<unsigned char>> tasks;
  int working = 0;
  std::uint8_t ended = 0;  // 0 open / 1 drained (provisional) / 2 probend
  std::uint64_t granted = 0;
  std::deque<int> parked;
};

struct CellState {
  bool full = false;
  std::vector<unsigned char> payload;
  std::deque<std::pair<int, std::vector<unsigned char>>> producers;
  struct Waiter {
    int peer;
    bool copy;
  };
  std::deque<Waiter> consumers;
};

class Coordinator {
 public:
  struct Death {
    int proc0 = -1;
    pid_t pid = -1;
    int status = 0;
    std::string site;
    std::string error;
  };

  Coordinator(SharedArena* arena, std::vector<net::Conn> conns,
              const std::vector<pid_t>& pids)
      : arena_(arena) {
    peers_.resize(conns.size());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      peers_[i].conn = std::move(conns[i]);
      peers_[i].pid = pids[i];
    }
  }

  /// Serves until every peer is reaped. Returns true when a primary death
  /// was recorded into *death.
  bool serve(Death* death) {
    int live = static_cast<int>(peers_.size());
    std::int64_t poisoned_at = -1;
    bool killed_stragglers = false;
    while (live > 0) {
      poll_and_read();
      // Reap: mirrors the os-fork join. First abnormal status poisons. A
      // peer whose socket closed after it joined, after it was killed as
      // torn, or under poison is already exiting, so it is reaped with a
      // blocking wait rather than polled until it turns zombie; any other
      // peer is only polled, and a closed one is classified below.
      for (std::size_t i = 0; i < peers_.size(); ++i) {
        PeerIO& p = peers_[i];
        if (p.pid <= 0) continue;
        const bool exiting = p.eof && (p.joined || p.torn || poisoned_);
        int status = 0;
        const pid_t r = ::waitpid(p.pid, &status, exiting ? 0 : WNOHANG);
        if (r == 0) continue;
        FORCE_CHECK(r == p.pid, "waitpid lost track of a force process");
        // Drain any frames the child managed to send before dying (its
        // kError provenance may still sit in the socket buffer).
        drain_to_eof(static_cast<int>(i));
        const pid_t pid = p.pid;
        p.pid = -1;
        --live;
        const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
        const bool collateral = WIFEXITED(status) &&
                                WEXITSTATUS(status) == kPoisonCollateralExit;
        if (!clean && !collateral && death_.proc0 < 0) {
          death_.proc0 = static_cast<int>(i);
          death_.pid = pid;
          death_.status = status;
          death_.site = p.site;
          death_.error = p.error;
          poison_team();
          poisoned_at = util::now_ns();
        }
      }
      // Torn links: EOF from a process that is still running and never
      // joined means the connection died under it. Kill it; the next reap
      // then reports it as the primary death with torn provenance.
      if (!poisoned_) {
        for (PeerIO& p : peers_) {
          if (p.eof && !p.joined && !p.torn && p.pid > 0) {
            p.torn = true;
            if (p.error.empty()) {
              p.error =
                  "connection to the coordinator torn (socket closed "
                  "mid-run)";
            }
            ::kill(p.pid, SIGKILL);
          }
        }
      }
      if (poisoned_at >= 0 && !killed_stragglers &&
          util::now_ns() - poisoned_at > kGraceNs) {
        for (PeerIO& p : peers_) {
          if (p.pid > 0) ::kill(p.pid, SIGKILL);
        }
        killed_stragglers = true;
      }
    }
    *death = death_;
    return death_.proc0 >= 0;
  }

  [[nodiscard]] const Traffic& traffic() const { return traffic_; }

 private:
  // --- transport ----------------------------------------------------------

  void send_to(int peer, net::MsgType type,
               const std::vector<unsigned char>& payload) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    if (!p.conn.valid() || p.eof) return;
    ++traffic_.replies_out;
    // A failed send means the peer is gone; the reaper owns that story.
    (void)net::write_frame(p.conn.fd(), type, payload.data(), payload.size());
  }

  void poll_and_read() {
    std::vector<pollfd> fds;
    std::vector<int> idx;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      PeerIO& p = peers_[i];
      if (p.conn.valid() && !p.eof) {
        fds.push_back({p.conn.fd(), POLLIN, 0});
        idx.push_back(static_cast<int>(i));
      }
    }
    // Every live socket closed: the reap waits for the exits instead.
    if (fds.empty()) return;
    // The timeout bounds how stale the grace-kill clock can get.
    const int n = ::poll(fds.data(), fds.size(), kPollTickMs);
    if (n <= 0) return;
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        read_some(idx[k]);
      }
    }
  }

  void read_some(int peer) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    unsigned char buf[65536];
    const ssize_t r = ::recv(p.conn.fd(), buf, sizeof buf, 0);
    if (r > 0) {
      p.inbuf.insert(p.inbuf.end(), buf, buf + r);
      parse_frames(peer);
      return;
    }
    if (r < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    p.eof = true;
    p.conn.close();
  }

  void drain_to_eof(int peer) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    while (p.conn.valid() && !p.eof) read_some(peer);
  }

  void parse_frames(int peer) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    for (;;) {
      const std::size_t avail = p.inbuf.size() - p.inpos;
      if (avail < net::kFrameHeaderBytes) break;
      net::FrameHeader h;
      const net::DecodeStatus st =
          net::decode_frame_header(p.inbuf.data() + p.inpos, avail, &h);
      if (st != net::DecodeStatus::kOk) {
        // A child of our own fork never sends garbage; treat the stream as
        // torn rather than taking the coordinator (and the reaper) down.
        if (p.error.empty()) {
          p.error = "malformed frame from peer (protocol corruption)";
        }
        p.eof = true;
        p.conn.close();
        return;
      }
      if (avail - net::kFrameHeaderBytes < h.payload_bytes) break;
      const unsigned char* body =
          p.inbuf.data() + p.inpos + net::kFrameHeaderBytes;
      p.inpos += net::kFrameHeaderBytes + h.payload_bytes;
      handle_frame(peer, static_cast<net::MsgType>(h.type), body,
                   h.payload_bytes);
    }
    if (p.inpos > 0 && p.inpos == p.inbuf.size()) {
      p.inbuf.clear();
      p.inpos = 0;
    } else if (p.inpos > (1u << 20)) {
      p.inbuf.erase(p.inbuf.begin(),
                    p.inbuf.begin() + static_cast<std::ptrdiff_t>(p.inpos));
      p.inpos = 0;
    }
  }

  // --- update log ---------------------------------------------------------

  /// Appends a peer's release records to the log and the master arena.
  void append_and_apply(int peer, std::vector<dsm::Record> recs) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    // A peer that had seen the whole log already holds every byte its own
    // records set, so they need not come back to it.
    const bool caught_up = p.synced == log_.size();
    for (dsm::Record& rec : recs) {
      ++traffic_.records_in;
      traffic_.record_bytes_in += rec.bytes.size();
      if (arena_ != nullptr) {
        const std::size_t end =
            static_cast<std::size_t>(rec.offset) + rec.bytes.size();
        FORCE_CHECK(end <= arena_->capacity(),
                    "cluster DSM update outside the arena");
        std::memcpy(reinterpret_cast<unsigned char*>(arena_->raw_bytes()) +
                        rec.offset,
                    rec.bytes.data(), rec.bytes.size());
      }
      log_.push_back(std::move(rec));
    }
    if (caught_up) p.synced = log_.size();
  }

  /// Appends the log suffix this peer has not seen and marks it seen.
  void write_updates(net::Writer* w, int peer) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    const std::size_t from = std::min(p.synced, log_.size());
    w->u32(static_cast<std::uint32_t>(log_.size() - from));
    for (std::size_t i = from; i < log_.size(); ++i) {
      w->u64(log_[i].offset);
      w->bytes(log_[i].bytes.data(), log_[i].bytes.size());
      traffic_.record_bytes_out += log_[i].bytes.size();
    }
    p.synced = log_.size();
  }

  // --- construct servicing ------------------------------------------------

  void poison_team() {
    if (poisoned_) return;
    poisoned_ = true;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      send_to(static_cast<int>(i), net::MsgType::kPoison, {});
    }
  }

  static bool is_reply_expected(net::MsgType t) {
    switch (t) {
      case net::MsgType::kSite:
      case net::MsgType::kError:
      case net::MsgType::kLockRelease:
      case net::MsgType::kAskforPut:
      case net::MsgType::kAskforComplete:
      case net::MsgType::kAskforProbend:
      case net::MsgType::kPoison:
        return false;
      default:
        return true;
    }
  }

  void handle_frame(int peer, net::MsgType type, const unsigned char* body,
                    std::size_t n) {
    net::Reader r(body, n);
    // Provenance frames are served even after poisoning.
    if (type == net::MsgType::kSite) {
      ++traffic_.notes_in;
      std::string site;
      if (r.str(&site)) peers_[static_cast<std::size_t>(peer)].site = site;
      return;
    }
    if (type == net::MsgType::kError) {
      ++traffic_.notes_in;
      std::string what;
      if (r.str(&what)) peers_[static_cast<std::size_t>(peer)].error = what;
      return;
    }
    ++traffic_.requests_in;
    if (poisoned_) {
      // The team is dead: every parked or future request gets poison so
      // survivors unwind instead of waiting on a construct that will
      // never complete.
      if (is_reply_expected(type)) send_to(peer, net::MsgType::kPoison, {});
      return;
    }
    if (type == net::MsgType::kHello) {
      std::uint32_t proc = 0;
      FORCE_CHECK(r.u32(&proc) && proc == static_cast<std::uint32_t>(peer),
                  "cluster hello from the wrong peer");
      send_to(peer, net::MsgType::kHelloAck, {});
      return;
    }
    // Every construct request leads with the sender's release records;
    // applying them first keeps the release ahead of the construct it
    // precedes.
    std::vector<dsm::Record> recs;
    if (!dsm::decode_records(&r, &recs)) return;
    if (!recs.empty()) append_and_apply(peer, std::move(recs));
    switch (type) {
      case net::MsgType::kBarrierArrive: return on_barrier_arrive(peer, &r);
      case net::MsgType::kBarrierSectionDone:
        return on_barrier_section_done(peer, &r);
      case net::MsgType::kLockAcquire: return on_lock_acquire(peer, &r);
      case net::MsgType::kLockTry: return on_lock_try(peer, &r);
      case net::MsgType::kLockRelease: return on_lock_release(peer, &r);
      case net::MsgType::kDispatchReset: {
        std::string key;
        if (!r.str(&key)) return;
        dispatches_[key].value = 0;
        send_to(peer, net::MsgType::kDispatchResetAck, {});
        return;
      }
      case net::MsgType::kDispatchClaim: return on_dispatch_claim(peer, &r);
      case net::MsgType::kAskforPut: return on_askfor_put(peer, &r);
      case net::MsgType::kAskforAsk: return on_askfor_ask(peer, &r);
      case net::MsgType::kAskforComplete: return on_askfor_complete(peer, &r);
      case net::MsgType::kAskforProbend: return on_askfor_probend(peer, &r);
      case net::MsgType::kAskforStatus: {
        std::string key;
        if (!r.str(&key)) return;
        AskforState& st = askfors_[key];
        net::Writer w;
        w.u8(st.ended != 0 ? 1 : 0);
        w.u64(st.granted);
        send_to(peer, net::MsgType::kAskforStatusReply, w.take());
        return;
      }
      case net::MsgType::kCellProduce: return on_cell_produce(peer, &r);
      case net::MsgType::kCellConsume: return on_cell_consume(peer, &r);
      case net::MsgType::kCellTryProduce:
        return on_cell_try_produce(peer, &r);
      case net::MsgType::kCellTryConsume:
        return on_cell_try_consume(peer, &r);
      case net::MsgType::kCellVoid: return on_cell_void(peer, &r);
      case net::MsgType::kJoin: {
        peers_[static_cast<std::size_t>(peer)].joined = true;
        send_to(peer, net::MsgType::kJoinAck, {});
        return;
      }
      default:
        return;  // unknown/unsolicited: ignore (forward compatibility)
    }
  }

  void on_barrier_arrive(int peer, net::Reader* r) {
    std::string key;
    std::uint32_t width = 0;
    std::uint8_t has_section = 0;
    if (!r->str(&key) || !r->u32(&width) || !r->u8(&has_section)) return;
    BarrierState& st = barriers_[key];
    st.arrivers.push_back(peer);
    st.has_section = has_section != 0;
    if (st.arrivers.size() < width) return;
    if (st.has_section) {
      // The last arriver is the champion: it runs the one-process section
      // with every earlier arrival's updates already applied.
      st.section_running = true;
      const int champion = st.arrivers.back();
      net::Writer w;
      write_updates(&w, champion);
      send_to(champion, net::MsgType::kBarrierRunSection, w.take());
      return;
    }
    release_barrier(key);
  }

  void on_barrier_section_done(int /*peer*/, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    release_barrier(key);
  }

  void release_barrier(const std::string& key) {
    BarrierState& st = barriers_[key];
    for (int arriver : st.arrivers) {
      net::Writer w;
      write_updates(&w, arriver);
      send_to(arriver, net::MsgType::kBarrierRelease, w.take());
    }
    barriers_.erase(key);
  }

  void on_lock_acquire(int peer, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    LockState& st = locks_[key];
    if (st.held_by < 0) {
      st.held_by = peer;
      net::Writer w;
      write_updates(&w, peer);
      send_to(peer, net::MsgType::kLockGranted, w.take());
    } else {
      st.waiters.push_back(peer);
    }
  }

  void on_lock_try(int peer, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    LockState& st = locks_[key];
    net::Writer w;
    if (st.held_by < 0) {
      st.held_by = peer;
      w.u8(1);
      write_updates(&w, peer);
    } else {
      w.u8(0);
    }
    send_to(peer, net::MsgType::kLockTryReply, w.take());
  }

  void on_lock_release(int peer, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    LockState& st = locks_[key];
    if (st.held_by != peer) return;  // stale release from a dying peer
    st.held_by = -1;
    if (!st.waiters.empty()) {
      const int next = st.waiters.front();
      st.waiters.pop_front();
      st.held_by = next;
      net::Writer w;
      write_updates(&w, next);
      send_to(next, net::MsgType::kLockGranted, w.take());
    }
  }

  void on_dispatch_claim(int peer, net::Reader* r) {
    std::string key;
    std::int64_t want = 0, limit = 0, divisor = 0;
    if (!r->str(&key) || !r->i64(&want) || !r->i64(&limit) ||
        !r->i64(&divisor)) {
      return;
    }
    DispatchState& st = dispatches_[key];
    const std::int64_t t = st.value;
    std::int64_t count = 0;
    if (t < limit) {
      // Mirrors DispatchCounter::claim / claim_fraction (locks.cpp):
      // claims tile [0, limit) exactly once, clamped at the limit.
      count = divisor == 0
                  ? std::min(want, limit - t)
                  : std::max<std::int64_t>(1, (limit - t) / divisor);
      st.value = t + count;
    }
    net::Writer w;
    w.i64(t);
    w.i64(count);
    send_to(peer, net::MsgType::kDispatchClaimReply, w.take());
  }

  void grant_task(const std::string& key, AskforState* st, int peer) {
    net::Writer w;
    w.u8(1);
    write_updates(&w, peer);
    w.bytes(st->tasks.front().data(), st->tasks.front().size());
    st->tasks.pop_front();
    ++st->working;
    ++st->granted;
    send_to(peer, net::MsgType::kAskforGrant, w.take());
    (void)key;
  }

  void grant_no_task(int peer) {
    net::Writer w;
    w.u8(0);
    write_updates(&w, peer);
    send_to(peer, net::MsgType::kAskforGrant, w.take());
  }

  void on_askfor_put(int peer, net::Reader* r) {
    std::string key;
    std::vector<unsigned char> task;
    if (!r->str(&key) || !r->bytes(&task)) return;
    AskforState& st = askfors_[key];
    if (st.ended == 2) return;  // probend is final: late puts are dropped
    st.ended = 0;               // a put re-opens a provisionally drained pool
    st.tasks.push_back(std::move(task));
    if (!st.parked.empty()) {
      const int asker = st.parked.front();
      st.parked.pop_front();
      grant_task(key, &st, asker);
    }
    (void)peer;
  }

  void on_askfor_ask(int peer, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    AskforState& st = askfors_[key];
    if (st.ended != 0) {
      grant_no_task(peer);
      return;
    }
    if (!st.tasks.empty()) {
      grant_task(key, &st, peer);
      return;
    }
    if (st.working > 0) {
      // Someone may still put child tasks; park until put or drain.
      st.parked.push_back(peer);
      return;
    }
    st.ended = 1;  // drained (provisional: a put re-opens)
    grant_no_task(peer);
  }

  void on_askfor_complete(int peer, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    AskforState& st = askfors_[key];
    if (st.working > 0) --st.working;
    if (st.working == 0 && st.tasks.empty() && st.ended == 0) {
      st.ended = 1;
      for (int asker : st.parked) grant_no_task(asker);
      st.parked.clear();
    }
    (void)peer;
  }

  void on_askfor_probend(int peer, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    AskforState& st = askfors_[key];
    st.ended = 2;
    st.tasks.clear();
    for (int asker : st.parked) grant_no_task(asker);
    st.parked.clear();
    (void)peer;
  }

  /// Drains a cell's wait queues as far as its full/empty state allows:
  /// a full cell feeds copies and one consume; an empty cell accepts the
  /// next parked producer.
  void settle_cell(CellState* st) {
    for (;;) {
      if (st->full) {
        if (st->consumers.empty()) return;
        const CellState::Waiter wtr = st->consumers.front();
        st->consumers.pop_front();
        net::Writer w;
        write_updates(&w, wtr.peer);
        w.bytes(st->payload.data(), st->payload.size());
        send_to(wtr.peer, net::MsgType::kCellValue, w.take());
        if (!wtr.copy) {
          st->full = false;
          st->payload.clear();
        }
      } else {
        if (st->producers.empty()) return;
        auto [producer, bytes] = std::move(st->producers.front());
        st->producers.pop_front();
        st->full = true;
        st->payload = std::move(bytes);
        net::Writer w;
        write_updates(&w, producer);
        send_to(producer, net::MsgType::kCellProduceAck, w.take());
      }
    }
  }

  void on_cell_produce(int peer, net::Reader* r) {
    std::string key;
    std::vector<unsigned char> value;
    if (!r->str(&key) || !r->bytes(&value)) return;
    CellState& st = cells_[key];
    st.producers.push_back({peer, std::move(value)});
    settle_cell(&st);
  }

  void on_cell_consume(int peer, net::Reader* r) {
    std::string key;
    std::uint8_t copy = 0;
    if (!r->str(&key) || !r->u8(&copy)) return;
    CellState& st = cells_[key];
    st.consumers.push_back({peer, copy != 0});
    settle_cell(&st);
  }

  void on_cell_try_produce(int peer, net::Reader* r) {
    std::string key;
    std::vector<unsigned char> value;
    if (!r->str(&key) || !r->bytes(&value)) return;
    CellState& st = cells_[key];
    net::Writer w;
    if (!st.full && st.producers.empty()) {
      st.full = true;
      st.payload = std::move(value);
      w.u8(1);
      write_updates(&w, peer);
      send_to(peer, net::MsgType::kCellTryReply, w.take());
      settle_cell(&st);
    } else {
      w.u8(0);
      send_to(peer, net::MsgType::kCellTryReply, w.take());
    }
  }

  void on_cell_try_consume(int peer, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    CellState& st = cells_[key];
    net::Writer w;
    if (st.full) {
      w.u8(1);
      write_updates(&w, peer);
      w.bytes(st.payload.data(), st.payload.size());
      st.full = false;
      st.payload.clear();
      send_to(peer, net::MsgType::kCellTryReply, w.take());
      settle_cell(&st);
    } else {
      w.u8(0);
      send_to(peer, net::MsgType::kCellTryReply, w.take());
    }
  }

  void on_cell_void(int peer, net::Reader* r) {
    std::string key;
    if (!r->str(&key)) return;
    CellState& st = cells_[key];
    st.full = false;
    st.payload.clear();
    send_to(peer, net::MsgType::kCellVoidAck, {});
    settle_cell(&st);
  }

  SharedArena* arena_;
  std::vector<PeerIO> peers_;
  std::vector<dsm::Record> log_;
  Traffic traffic_;
  std::map<std::string, LockState> locks_;
  std::map<std::string, BarrierState> barriers_;
  std::map<std::string, DispatchState> dispatches_;
  std::map<std::string, AskforState> askfors_;
  std::map<std::string, CellState> cells_;
  bool poisoned_ = false;
  Death death_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Team entry.
// ---------------------------------------------------------------------------

SpawnStats run_cluster_team(int nproc, PrivateSpace* space,
                            const std::function<void(int)>& entry) {
  SpawnStats stats;
  stats.processes = nproc;
  const RuntimeConfig cfg = runtime_config();

  const std::int64_t t0 = util::now_ns();
  if (space != nullptr) {
    space->materialize(nproc, init_mode_for(ProcessModelKind::kCluster));
    stats.bytes_copied = space->bytes_copied();
  }

  // All connections exist before the first fork so each child only has to
  // keep its own end and close the rest.
  std::vector<net::Conn> coord_ends(static_cast<std::size_t>(nproc));
  std::vector<net::Conn> peer_ends(static_cast<std::size_t>(nproc));
  for (int i = 0; i < nproc; ++i) {
    auto [c, p] = net::connected_pair(cfg.transport);
    coord_ends[static_cast<std::size_t>(i)] = std::move(c);
    peer_ends[static_cast<std::size_t>(i)] = std::move(p);
  }

  std::fflush(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(nproc), -1);
  for (int proc = 0; proc < nproc; ++proc) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Member process. Keep only this peer's socket; _Exit discipline is
      // identical to the os-fork backend (no parent atexit handlers, child
      // stdio flushed explicitly).
      for (int k = 0; k < nproc; ++k) {
        coord_ends[static_cast<std::size_t>(k)].close();
        if (k != proc) peer_ends[static_cast<std::size_t>(k)].close();
      }
      try {
        ClusterClient member(std::move(peer_ends[static_cast<std::size_t>(proc)]),
                             proc, cfg.arena);
        g_client = &member;
        try {
          entry(proc);
          member.join();
          std::fflush(nullptr);
          std::_Exit(0);
        } catch (const shm::TeamPoisoned&) {
          std::fflush(nullptr);
          std::_Exit(kPoisonCollateralExit);
        } catch (const std::exception& e) {
          member.report_error(e.what());
          std::fflush(nullptr);
          std::_Exit(1);
        } catch (...) {
          member.report_error("unknown exception");
          std::fflush(nullptr);
          std::_Exit(1);
        }
      } catch (const shm::TeamPoisoned&) {
        std::fflush(nullptr);
        std::_Exit(kPoisonCollateralExit);
      } catch (...) {
        std::fflush(nullptr);
        std::_Exit(1);
      }
    }
    if (pid < 0) {
      for (int k = 0; k < proc; ++k) {
        const pid_t spawned = pids[static_cast<std::size_t>(k)];
        if (spawned > 0) {
          ::kill(spawned, SIGKILL);
          int status = 0;
          ::waitpid(spawned, &status, 0);
        }
      }
      FORCE_CHECK(false, "fork() failed spawning force process " +
                             std::to_string(proc + 1) + " of " +
                             std::to_string(nproc));
    }
    pids[static_cast<std::size_t>(proc)] = pid;
  }
  for (int k = 0; k < nproc; ++k) {
    peer_ends[static_cast<std::size_t>(k)].close();
  }
  stats.create_ns = util::now_ns() - t0;

  const std::int64_t t1 = util::now_ns();
  Coordinator coord(cfg.arena, std::move(coord_ends), pids);
  Coordinator::Death death;
  const bool died = coord.serve(&death);
  stats.join_ns = util::now_ns() - t1;
  g_last_traffic = coord.traffic();

  if (died) {
    const int exit_code =
        WIFEXITED(death.status) ? WEXITSTATUS(death.status) : -1;
    const int term_signal =
        WIFSIGNALED(death.status) ? WTERMSIG(death.status) : 0;
    std::ostringstream msg;
    msg << "force process " << (death.proc0 + 1) << " of " << nproc
        << " (pid " << death.pid << ")";
    if (term_signal != 0) {
      msg << " killed by signal " << term_signal;
    } else {
      msg << " exited with code " << exit_code;
    }
    msg << " at construct site '" << death.site << "'";
    if (!death.error.empty()) msg << ": " << death.error;
    msg << " (surviving processes released by team poison)";
    throw ProcessDeathError(msg.str(), death.proc0 + 1,
                            static_cast<long>(death.pid), exit_code,
                            term_signal, death.site, death.error);
  }
  return stats;
}

#else  // !(__unix__ || __APPLE__)

SpawnStats run_cluster_team(int, PrivateSpace*,
                            const std::function<void(int)>&) {
  FORCE_CHECK(false,
              "the cluster process model needs a POSIX host (fork + "
              "socketpair); use a thread-emulated machine model here");
  return {};
}

#endif

}  // namespace force::machdep::cluster
