#include "machdep/cluster.hpp"

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <optional>
#include <utility>

#include "machdep/arena.hpp"
#include "machdep/backend.hpp"
#include "machdep/forkteam.hpp"
#include "machdep/shm.hpp"
#include "machdep/wait.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"

namespace force::machdep::cluster {

// ---------------------------------------------------------------------------
// DSM building blocks (pure).
// ---------------------------------------------------------------------------
namespace dsm {

namespace {

/// The diff's walk: calls run(offset, first, len) once per changed run of
/// data[0, n) against the shadow, in offset order, and updates the shadow.
template <typename Run>
void for_each_run(const unsigned char* data, std::size_t n,
                  std::vector<unsigned char>* shadow, Run&& run) {
  if (shadow->size() < n) shadow->resize(n, 0);
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
    run(i, data + i, j - i);
    std::memcpy(shadow->data() + i, data + i, j - i);
    i = j;
  }
}

}  // namespace

std::vector<Record> diff(const unsigned char* data, std::size_t n,
                         std::vector<unsigned char>* shadow) {
  std::vector<Record> out;
  for_each_run(data, n, shadow,
               [&out](std::size_t offset, const unsigned char* first,
                      std::size_t len) {
                 out.push_back({offset, {first, first + len}});
               });
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

void encode_diff(net::Writer* w, const unsigned char* data, std::size_t n,
                 std::vector<unsigned char>* shadow) {
  const std::size_t count_at = w->size();
  w->u32(0);
  std::uint32_t count = 0;
  for_each_run(data, n, shadow,
               [w, &count](std::size_t offset, const unsigned char* first,
                           std::size_t len) {
                 w->u64(offset);
                 w->bytes(first, len);
                 ++count;
               });
  w->patch_u32(count_at, count);
}

}  // namespace dsm

// ---------------------------------------------------------------------------
// Runtime configuration.
// ---------------------------------------------------------------------------

namespace {
RuntimeConfig g_config;       // what the next cluster run will use
RuntimeConfig g_saved_config; // ScopedRuntimeConfig restore slot
Traffic g_last_traffic;       // the last run's coordinator tally
}  // namespace

ScopedRuntimeConfig::ScopedRuntimeConfig(RuntimeConfig cfg) {
  g_saved_config = g_config;
  g_config = std::move(cfg);
}

ScopedRuntimeConfig::~ScopedRuntimeConfig() { g_config = g_saved_config; }

Traffic last_run_traffic() { return g_last_traffic; }

// ---------------------------------------------------------------------------
// Peer-side link: transport and DSM only. Every construct operation below
// is one call() (or, one-way, post()) of {records, key, body}.
// ---------------------------------------------------------------------------

namespace {

/// Whether a request of this type carries the sender's release flush.
/// Claims and status reads are not release points, and hello comes before
/// the member has run.
bool releases(net::MsgType type) {
  return type != net::MsgType::kHello &&
         type != net::MsgType::kDispatchClaim &&
         type != net::MsgType::kAskforStatus;
}

class ClusterClient {
 public:
  /// `nproc`: the team's members, which with the coordinator make the
  /// team whose fit to the CPUs sets how long a reply wait spins.
  ClusterClient(net::Conn conn, int proc0, int nproc, SharedArena* arena)
      : conn_(std::move(conn)),
        arena_(arena),
        spin_ns_(Waiter::team_window_ns(nproc + 1)) {
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
    begin(net::MsgType::kHello, "").u32(static_cast<std::uint32_t>(proc0));
    (void)call();
  }

  /// Starts a request {records, key, body} in the client's request buffer,
  /// which every request reuses: writes the release flush (count 0 unless
  /// the type is a release point) and the key, and returns the buffer for
  /// the body. call() or post() sends it.
  net::Writer& begin(net::MsgType type, const std::string& key) {
    type_ = type;
    request_.clear();
    if (arena_ != nullptr && releases(type)) {
      drain_pending();
      const auto* base =
          reinterpret_cast<const unsigned char*>(arena_->raw_bytes());
      dsm::encode_diff(&request_, base, arena_->bytes_used(), &shadow_);
    } else {
      request_.u32(0);
    }
    request_.str(key);
    return request_;
  }

  /// One construct RPC: sends the request begun, waits for its kReply
  /// (spin, then block) and applies the reply's records. Returns a Reader
  /// over the reply body, valid until the next call. kPoison throws
  /// shm::TeamPoisoned so the member unwinds and exits 103.
  net::Reader call() {
    post();
    net::MsgType got{};
    const unsigned char* reply = nullptr;
    std::size_t n = 0;
    FORCE_CHECK(conn_.recv_frame(&got, &reply, &n, spin_ns_),
                "cluster coordinator connection closed (the parent "
                "process is gone)");
    if (got == net::MsgType::kPoison) throw shm::TeamPoisoned();
    FORCE_CHECK(got == net::MsgType::kReply,
                "unexpected frame type from the cluster coordinator");
    net::Reader r(reply, n);
    drain_pending();
    FORCE_CHECK(dsm::visit_records(&r,
                                   [this](std::uint64_t offset,
                                          const unsigned char* data,
                                          std::size_t len) {
                                     apply_record(offset, data, len);
                                   }),
                "malformed update records from the cluster coordinator");
    return r;
  }
  net::Reader call(net::MsgType type, const std::string& key) {
    begin(type, key);
    return call();
  }

  /// Sends the request begun alone: the one-way requests (lock release,
  /// askfor put, complete and probend) get no reply. Clearing it at once
  /// frees a large flush's storage before its reply is read.
  void post() {
    conn_.send_frame(type_, request_.data());
    request_.clear();
  }
  void post(net::MsgType type, const std::string& key) {
    begin(type, key);
    post();
  }

  /// Best-effort: ships an exception message for death provenance.
  void report_error(const std::string& what) noexcept {
    try {
      net::Writer w;
      w.str(what);
      conn_.send_frame(net::MsgType::kError, w.data());
    } catch (...) {
      // Best-effort only: the socket may already be gone.
    }
  }

  /// Half-closes the socket so the coordinator sees EOF while this
  /// process is still alive.
  void sever_connection_for_test() { conn_.shutdown_both(); }

 private:
  void apply_record(std::uint64_t offset, const unsigned char* data,
                    std::size_t n) {
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

  void drain_pending() {
    if (pending_.empty()) return;
    std::vector<dsm::Record> retry = std::move(pending_);
    pending_.clear();
    for (const dsm::Record& rec : retry) {
      apply_record(rec.offset, rec.bytes.data(), rec.bytes.size());
    }
  }

  net::Conn conn_;
  SharedArena* arena_;
  std::int64_t spin_ns_;  // how long a reply wait spins before it blocks
  std::vector<unsigned char> shadow_;
  std::vector<dsm::Record> pending_;  // records ahead of local allocation
  net::MsgType type_{};   // the type of the request begun
  net::Writer request_;  // the request begun, its storage kept
};

ClusterClient* g_client = nullptr;  // member-process link (post-fork)

ClusterClient& member_link() {
  FORCE_CHECK(g_client != nullptr,
              "cluster construct used outside a cluster member process");
  return *g_client;
}

std::uint8_t read_flag(net::Reader* r) {
  std::uint8_t v = 0;
  FORCE_CHECK(r->u8(&v), "malformed reply from the cluster coordinator");
  return v;
}

/// Copies a length-prefixed value of exactly `n` bytes out of a reply.
void read_value(net::Reader* r, void* out, std::size_t n) {
  const unsigned char* data = nullptr;
  std::size_t len = 0;
  FORCE_CHECK(r->view(&data, &len) && len == n,
              "cluster payload size mismatch on the wire");
  std::memcpy(out, data, n);
}

// ---------------------------------------------------------------------------
// Construct engines: the member half of each construct's RPCs. The
// coordinator half, which decodes these bodies, is Coordinator::serve_request.
// ---------------------------------------------------------------------------

class ClusterBarrier final : public BarrierEngine {
 public:
  ClusterBarrier(int width, std::string key)
      : width_(width), key_(std::move(key)) {}

  void arrive(int /*proc0*/, const std::function<void()>* section) override {
    ClusterClient& c = member_link();
    net::Writer& body = c.begin(net::MsgType::kBarrierArrive, key_);
    body.u32(static_cast<std::uint32_t>(width_));
    body.u8(section != nullptr ? 1 : 0);
    net::Reader r = c.call();
    if (read_flag(&r) == 0) return;
    // Elected champion: run the section with every earlier arrival's
    // writes applied; its own writes ride the section-done request, whose
    // reply is this member's release.
    (*section)();
    (void)c.call(net::MsgType::kBarrierSectionDone, key_);
  }

  [[nodiscard]] const char* name() const override { return "cluster"; }

 private:
  int width_;
  std::string key_;
};

/// A selfsched claim's mode, which says what its amount is: the trips
/// wanted (plain and chunked), the guided divisor, or nothing (a departure
/// that claims no trip).
enum class ClaimMode : std::uint8_t { kPlain = 0, kGuided = 1, kLeave = 2 };

class ClusterDoallSite final : public DoallSite {
 public:
  /// The site's dispatch state lives on the coordinator alone. Entry sends
  /// nothing: a member's first claim of an episode is its arrival and
  /// carries its bounds, the first arrival opens the episode there, and an
  /// empty reply is the member's departure.
  explicit ClusterDoallSite(std::string site) : site_(std::move(site)) {}

  DoallBounds enter(std::int64_t start, std::int64_t last, std::int64_t incr,
                    std::int64_t trips) override {
    ++episode_;
    bounds_ = {start, last, incr, trips};
    arrived_ = false;
    departed_ = false;
    return bounds_;
  }

  // The coordinator knows the claimer's home: a cluster team is every
  // peer, so member me0 is peer me0.
  DispatchClaim claim(int /*me0*/, std::int64_t want,
                      std::int64_t /*limit*/) override {
    return claim_rpc(ClaimMode::kPlain, want);
  }

  DispatchClaim claim_fraction(int /*me0*/, std::int64_t /*limit*/,
                               std::int64_t divisor) override {
    return claim_rpc(ClaimMode::kGuided, divisor);
  }

  void leave() override {
    // The empty claim that ended the loop was the departure. A member
    // whose body threw left without one and departs now, or the next
    // episode could never open; best effort, since it is unwinding and
    // the team may already be poisoned.
    if (departed_) return;
    try {
      (void)claim_rpc(ClaimMode::kLeave, 0);
    } catch (...) {
      // The coordinator poisons or reaps the team either way.
    }
  }

 private:
  DispatchClaim claim_rpc(ClaimMode mode, std::int64_t amount) {
    ClusterClient& link = member_link();
    net::Writer& body = link.begin(net::MsgType::kDispatchClaim, site_);
    body.u64(episode_);
    body.u8(static_cast<std::uint8_t>(mode));
    body.i64(amount);
    body.u8(arrived_ ? 0 : 1);
    if (!arrived_) {
      body.i64(bounds_.start);
      body.i64(bounds_.last);
      body.i64(bounds_.incr);
      body.i64(bounds_.trips);
      arrived_ = true;
    }
    net::Reader r = link.call();
    std::uint8_t mismatch = 0;
    DispatchClaim c;
    FORCE_CHECK(r.u8(&mismatch) && r.i64(&c.begin) && r.i64(&c.count),
                "malformed dispatch claim reply");
    departed_ = mismatch != 0 || c.count == 0;
    FORCE_CHECK(mismatch == 0,
                "selfsched DO reached with divergent loop bounds");
    return c;
  }

  std::string site_;
  std::uint64_t episode_ = 0;  // this member's episodes at the site
  DoallBounds bounds_;         // this member's bounds for the episode
  bool arrived_ = false;       // its first claim of the episode is sent
  bool departed_ = false;      // the coordinator counted its departure
};

class ClusterAskforRing final : public AskforRing {
 public:
  ClusterAskforRing(std::string key, std::size_t task_bytes)
      : key_(std::move(key)), bytes_(task_bytes) {}

  void put(const void* task) override {
    ClusterClient& c = member_link();
    c.begin(net::MsgType::kAskforPut, key_).bytes(task, bytes_);
    c.post();
  }

  std::size_t work(void* task, const std::function<void()>& run) override {
    ClusterClient& c = member_link();
    std::size_t executed = 0;
    for (;;) {
      net::Reader r = c.call(net::MsgType::kAskforAsk, key_);
      if (read_flag(&r) == 0) return executed;
      read_value(&r, task, bytes_);
      try {
        run();
      } catch (...) {
        c.post(net::MsgType::kAskforComplete, key_);
        throw;
      }
      ++executed;
      c.post(net::MsgType::kAskforComplete, key_);
    }
  }

  void probend() override {
    member_link().post(net::MsgType::kAskforProbend, key_);
  }

  [[nodiscard]] bool ended() const override { return status().first; }
  [[nodiscard]] std::uint64_t granted() const override {
    return status().second;
  }

 private:
  [[nodiscard]] std::pair<bool, std::uint64_t> status() const {
    net::Reader r = member_link().call(net::MsgType::kAskforStatus, key_);
    std::uint8_t ended = 0;
    std::uint64_t granted = 0;
    FORCE_CHECK(r.u8(&ended) && r.u64(&granted),
                "malformed askfor status reply");
    return {ended != 0, granted};
  }

  std::string key_;
  std::size_t bytes_;
};

class ClusterAsyncCell final : public AsyncCell {
 public:
  ClusterAsyncCell(std::string label, std::size_t payload_bytes)
      : label_(std::move(label)), bytes_(payload_bytes) {}

  void produce(const void* value) override {
    (void)send_value(net::MsgType::kCellProduce, value);
  }
  void consume(void* out) override { take(out, false); }
  void copy(void* out) override { take(out, true); }
  bool try_produce(const void* value) override {
    net::Reader r = send_value(net::MsgType::kCellTryProduce, value);
    return read_flag(&r) != 0;
  }
  bool try_consume(void* out) override {
    net::Reader r = member_link().call(net::MsgType::kCellTryConsume, label_);
    if (read_flag(&r) == 0) return false;
    read_value(&r, out, bytes_);
    return true;
  }
  void void_state() override {
    (void)member_link().call(net::MsgType::kCellVoid, label_);
  }

  [[nodiscard]] bool is_full() override {
    FORCE_CHECK(false,
                capability_reject_message(ProcessModel::kCluster,
                                          Capability::kIsfull, "Isfull",
                                          label_));
  }

 private:
  net::Reader send_value(net::MsgType type, const void* value) {
    ClusterClient& c = member_link();
    c.begin(type, label_).bytes(value, bytes_);
    return c.call();
  }
  void take(void* out, bool copy) {
    ClusterClient& c = member_link();
    c.begin(net::MsgType::kCellConsume, label_).u8(copy ? 1 : 0);
    net::Reader r = c.call();
    read_value(&r, out, bytes_);
  }

  std::string label_;
  std::size_t bytes_;
};

class ClusterLock final : public BasicLock {
 public:
  explicit ClusterLock(std::string label) : label_(std::move(label)) {}

  void acquire() override {
    (void)member_link().call(net::MsgType::kLockAcquire, label_);
  }
  bool try_acquire() override {
    net::Reader r = member_link().call(net::MsgType::kLockTry, label_);
    return read_flag(&r) != 0;
  }
  void release() override {
    member_link().post(net::MsgType::kLockRelease, label_);
  }
  const char* mechanism() const override { return "cluster-rpc"; }

 private:
  std::string label_;
};

}  // namespace

std::unique_ptr<BarrierEngine> make_team_barrier(int width, std::string key) {
  return std::make_unique<ClusterBarrier>(width, std::move(key));
}

std::unique_ptr<DoallSite> make_doall_site(const std::string& site) {
  return std::make_unique<ClusterDoallSite>(site);
}

std::unique_ptr<AskforRing> make_askfor_ring(std::string key,
                                             std::size_t task_bytes) {
  return std::make_unique<ClusterAskforRing>(std::move(key), task_bytes);
}

std::unique_ptr<AsyncCell> make_async_cell(std::string label,
                                           std::size_t payload_bytes) {
  return std::make_unique<ClusterAsyncCell>(std::move(label), payload_bytes);
}

std::unique_ptr<BasicLock> make_lock(std::string label) {
  return std::make_unique<ClusterLock>(std::move(label));
}

void sever_connection_for_test() {
  if (g_client != nullptr) g_client->sever_connection_for_test();
}

// ---------------------------------------------------------------------------
// Coordinator.
// ---------------------------------------------------------------------------

namespace {

constexpr int kPollTickMs = 10;

struct PeerIO {
  net::Conn conn;
  long pid = -1;
  bool joined = false;  // sent kJoin (subsequent EOF is orderly)
  bool eof = false;     // socket is gone
  bool torn = false;    // EOF while the process still ran (half-closed link)
  // The construct of the last request, for death provenance (site_label).
  net::MsgType site_type = net::MsgType::kHello;
  std::string site_key;
  std::string error;
  std::size_t synced = 0;  // update-log entries this peer has seen
};

/// The construct a request belongs to, as death provenance names it.
std::string site_label(net::MsgType type, const std::string& key) {
  switch (type) {
    case net::MsgType::kHello:
      return "startup";
    case net::MsgType::kBarrierArrive:
    case net::MsgType::kBarrierSectionDone:
      return "barrier '" + key + "'";
    case net::MsgType::kDispatchClaim:
      return "selfsched '" + key + "'";
    case net::MsgType::kAskforPut:
    case net::MsgType::kAskforAsk:
    case net::MsgType::kAskforComplete:
    case net::MsgType::kAskforProbend:
    case net::MsgType::kAskforStatus:
      return "askfor '" + key + "'";
    default:
      return key;  // locks and async variables are keyed by their label
  }
}

/// The requests that get no reply.
bool is_one_way(net::MsgType type) {
  return type == net::MsgType::kLockRelease ||
         type == net::MsgType::kAskforPut ||
         type == net::MsgType::kAskforComplete ||
         type == net::MsgType::kAskforProbend;
}

struct LockState {
  int held_by = -1;
  std::deque<int> waiters;
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

/// One selfsched claim as its request body reads.
struct DoallClaim {
  std::uint64_t episode = 0;
  ClaimMode mode = ClaimMode::kPlain;
  std::int64_t amount = 0;
  bool arrival = false;  // the member's first claim of the episode
  DoallBounds bounds;    // rides its arrival only
};

bool read_claim(net::Reader* r, DoallClaim* c) {
  std::uint8_t mode = 0;
  std::uint8_t arrival = 0;
  if (!r->u64(&c->episode) || !r->u8(&mode) || !r->i64(&c->amount) ||
      !r->u8(&arrival) || mode > static_cast<std::uint8_t>(ClaimMode::kLeave)) {
    return false;
  }
  c->mode = static_cast<ClaimMode>(mode);
  c->arrival = arrival != 0;
  if (!c->arrival) return true;
  return r->i64(&c->bounds.start) && r->i64(&c->bounds.last) &&
         r->i64(&c->bounds.incr) && r->i64(&c->bounds.trips);
}

/// One selfsched site: the paper's episode gate (§4.2) kept where the
/// claims land. The first arrival of an episode arms one home block per
/// peer, an empty reply is a peer's departure, and the next episode's
/// claims wait until every peer has departed this one.
struct DoallState {
  std::uint64_t episode = 0;  // the open episode's member-side number
  std::uint32_t staying = 0;  // peers yet to depart the open episode
  DoallBounds bounds;         // the opener's
  std::uint32_t blocks = 1;
  DispatchBlock block[kDispatchBlocks];
  std::deque<std::pair<int, DoallClaim>> parked;  // the next episode's
};

/// One release record in the coordinator's update log: its bytes sit at
/// [start, start + len) of the log's byte buffer.
struct LogEntry {
  std::uint64_t offset = 0;
  std::size_t start = 0;
  std::size_t len = 0;
  int author = -1;
};

class Coordinator {
 public:
  Coordinator(SharedArena* arena, std::vector<net::Conn> conns,
              const std::vector<long>& pids)
      : arena_(arena),
        spin_ns_(Waiter::team_window_ns(static_cast<int>(conns.size()) + 1)) {
    peers_.resize(conns.size());
    for (std::size_t i = 0; i < conns.size(); ++i) {
      peers_[i].conn = std::move(conns[i]);
      peers_[i].pid = pids[i];
    }
  }

  /// Serves until every peer is reaped. Returns true when a primary death
  /// was recorded into *death.
  bool serve(MemberDeath* death) {
    int live = static_cast<int>(peers_.size());
    std::int64_t poisoned_at = -1;
    bool killed_stragglers = false;
    while (live > 0) {
      poll_and_read();
      // Reap: the fork-team join (machdep/forkteam.*), interleaved with
      // the socket reads. First abnormal status poisons. A peer whose
      // socket closed after it joined, after it was killed as torn, or
      // under poison is already exiting, so it is reaped with a blocking
      // wait rather than polled until it turns zombie; any other peer is
      // only polled, and a closed one is classified below.
      for (std::size_t i = 0; i < peers_.size(); ++i) {
        PeerIO& p = peers_[i];
        if (p.pid <= 0) continue;
        const bool exiting = p.eof && (p.joined || p.torn || poisoned_);
        MemberExit how;
        if (!reap_member(p.pid, exiting, &how)) continue;
        // Drain any frames the child managed to send before dying (its
        // kError provenance may still sit in the socket buffer).
        drain_to_eof(static_cast<int>(i));
        const long pid = std::exchange(p.pid, -1);
        --live;
        if (!how.clean() && !how.collateral() && death_.proc0 < 0) {
          death_ = {static_cast<int>(i), pid, how,
                    site_label(p.site_type, p.site_key), p.error};
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
            kill_member(p.pid);
          }
        }
      }
      if (poisoned_at >= 0 && !killed_stragglers &&
          util::now_ns() - poisoned_at > kStragglerGraceNs) {
        for (PeerIO& p : peers_) {
          if (p.pid > 0) kill_member(p.pid);
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
    poll_set_.clear();
    poll_peers_.clear();
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      PeerIO& p = peers_[i];
      if (p.conn.valid() && !p.eof) {
        poll_set_.add(p.conn.fd());
        poll_peers_.push_back(static_cast<int>(i));
      }
    }
    // Every live socket closed: the reap waits for the exits instead.
    if (poll_set_.size() == 0) return;
    // Spin, then block: zero-timeout probes for the team's window, then
    // one poll whose timeout bounds how stale the grace-kill clock can get.
    Waiter waiter;
    if (!waiter.spin_for(spin_ns_, [this] { return poll_set_.poll(0); }) &&
        !poll_set_.poll(kPollTickMs)) {
      return;
    }
    for (std::size_t k = 0; k < poll_set_.size(); ++k) {
      if (poll_set_.ready(k)) read_some(poll_peers_[k]);
    }
  }

  void read_some(int peer) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    const long r = p.conn.fill();
    if (r > 0) {
      parse_frames(peer);
      return;
    }
    if (r == 0) return;
    p.eof = true;
    p.conn.close();
  }

  void drain_to_eof(int peer) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    while (p.conn.valid() && !p.eof) read_some(peer);
  }

  void parse_frames(int peer) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    net::MsgType type{};
    const unsigned char* body = nullptr;
    std::size_t n = 0;
    net::DecodeStatus st;
    while ((st = p.conn.next_frame(&type, &body, &n)) ==
           net::DecodeStatus::kOk) {
      handle_frame(peer, type, body, n);
    }
    if (st != net::DecodeStatus::kNeedMore) {
      // A child of our own fork never sends garbage; treat the stream as
      // torn rather than taking the coordinator (and the reaper) down.
      if (p.error.empty()) {
        p.error = "malformed frame from peer (protocol corruption)";
      }
      p.eof = true;
      p.conn.close();
    }
  }

  // --- update log ---------------------------------------------------------

  /// Appends one release record of `author` to the log and the master
  /// arena, straight from the request payload.
  void append_record(int author, std::uint64_t offset,
                     const unsigned char* data, std::size_t n) {
    ++traffic_.records_in;
    traffic_.record_bytes_in += n;
    if (arena_ != nullptr) {
      FORCE_CHECK(offset <= arena_->capacity() &&
                      n <= arena_->capacity() - offset,
                  "cluster DSM update outside the arena");
      std::memcpy(reinterpret_cast<unsigned char*>(arena_->raw_bytes()) +
                      offset,
                  data, n);
    }
    log_.push_back({offset, log_bytes_.size(), n, author});
    log_bytes_.insert(log_bytes_.end(), data, data + n);
  }

  /// Sends `peer` its one kReply: the log suffix it has not seen, minus its
  /// own records (it holds those bytes already), then the body `fill`
  /// writes.
  template <typename Fill>
  void reply(int peer, Fill&& fill) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    std::uint32_t count = 0;
    for (std::size_t i = p.synced; i < log_.size(); ++i) {
      count += log_[i].author != peer ? 1 : 0;
    }
    net::Writer w;
    w.u32(count);
    for (std::size_t i = p.synced; i < log_.size(); ++i) {
      const LogEntry& e = log_[i];
      if (e.author == peer) continue;
      w.u64(e.offset);
      w.bytes(log_bytes_.data() + e.start, e.len);
      traffic_.record_bytes_out += e.len;
    }
    p.synced = log_.size();
    fill(&w);
    send_to(peer, net::MsgType::kReply, w.data());
  }

  void reply(int peer) {
    reply(peer, [](net::Writer*) {});
  }

  // --- construct servicing ------------------------------------------------

  void poison_team() {
    if (poisoned_) return;
    poisoned_ = true;
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      send_to(static_cast<int>(i), net::MsgType::kPoison, {});
    }
  }

  void handle_frame(int peer, net::MsgType type, const unsigned char* body,
                    std::size_t n) {
    PeerIO& p = peers_[static_cast<std::size_t>(peer)];
    net::Reader r(body, n);
    // Provenance is served even after poisoning.
    if (type == net::MsgType::kError) {
      ++traffic_.notes_in;
      std::string what;
      if (r.str(&what)) p.error = what;
      return;
    }
    ++traffic_.requests_in;
    const std::uint64_t records_before = traffic_.records_in;
    // Every request leads with the sender's release records, applied first
    // so the release stays ahead of the construct it precedes, and the
    // construct's key, which is also the peer's site from here on.
    if (!dsm::visit_records(&r,
                            [this, peer](std::uint64_t offset,
                                         const unsigned char* data,
                                         std::size_t len) {
                              append_record(peer, offset, data, len);
                            }) ||
        !r.str(&key_)) {
      return;  // a child of our own fork never sends a malformed request
    }
    if (type == net::MsgType::kDispatchClaim) {
      ++traffic_.claims_in;
      traffic_.claim_records_in += traffic_.records_in - records_before;
    }
    if (type != net::MsgType::kJoin) {
      p.site_type = type;
      p.site_key = key_;
    }
    if (poisoned_) {
      // The team is dead: every parked or future request gets poison so
      // survivors unwind instead of waiting on a construct that will
      // never complete.
      if (!is_one_way(type)) send_to(peer, net::MsgType::kPoison, {});
      return;
    }
    serve_request(peer, type, &r);
  }

  /// Serves one construct request; `r` is positioned at its body.
  void serve_request(int peer, net::MsgType type, net::Reader* r) {
    switch (type) {
      case net::MsgType::kHello: {
        std::uint32_t proc = 0;
        FORCE_CHECK(r->u32(&proc) && proc == static_cast<std::uint32_t>(peer),
                    "cluster hello from the wrong peer");
        return reply(peer);
      }
      case net::MsgType::kJoin:
        peers_[static_cast<std::size_t>(peer)].joined = true;
        return reply(peer);
      case net::MsgType::kBarrierArrive: {
        std::uint32_t width = 0;
        std::uint8_t has_section = 0;
        if (!r->u32(&width) || !r->u8(&has_section)) return;
        std::vector<int>& arrivers = barriers_[key_];
        arrivers.push_back(peer);
        if (arrivers.size() < width) return;
        if (has_section != 0) {
          // The last arriver is the champion: it runs the one-process
          // section with every earlier arrival's updates already applied,
          // and its section-done request releases the episode.
          return reply(peer, [](net::Writer* w) { w->u8(1); });
        }
        return release_barrier(&arrivers);
      }
      case net::MsgType::kBarrierSectionDone:
        return release_barrier(&barriers_[key_]);
      case net::MsgType::kLockAcquire: {
        LockState& st = locks_[key_];
        if (st.held_by >= 0) {
          st.waiters.push_back(peer);
          return;
        }
        st.held_by = peer;
        return reply(peer);
      }
      case net::MsgType::kLockTry: {
        LockState& st = locks_[key_];
        const bool ok = st.held_by < 0;
        if (ok) st.held_by = peer;
        return reply(peer, [ok](net::Writer* w) { w->u8(ok ? 1 : 0); });
      }
      case net::MsgType::kLockRelease: {
        LockState& st = locks_[key_];
        if (st.held_by != peer) return;  // stale release from a dying peer
        st.held_by = -1;
        if (st.waiters.empty()) return;
        st.held_by = st.waiters.front();
        st.waiters.pop_front();
        return reply(st.held_by);
      }
      case net::MsgType::kDispatchClaim: {
        DoallClaim c;
        if (!read_claim(r, &c)) return;
        return serve_claim(&doalls_[key_], peer, c);
      }
      case net::MsgType::kAskforPut: {
        std::vector<unsigned char> task;
        if (!r->bytes(&task)) return;
        AskforState& st = askfors_[key_];
        if (st.ended == 2) return;  // probend is final: late puts are dropped
        st.ended = 0;  // a put re-opens a provisionally drained pool
        st.tasks.push_back(std::move(task));
        if (st.parked.empty()) return;
        const int asker = st.parked.front();
        st.parked.pop_front();
        return grant_task(&st, asker);
      }
      case net::MsgType::kAskforAsk: {
        AskforState& st = askfors_[key_];
        if (st.ended != 0) return grant_no_task(peer);
        if (!st.tasks.empty()) return grant_task(&st, peer);
        if (st.working > 0) {
          // Someone may still put child tasks; park until put or drain.
          st.parked.push_back(peer);
          return;
        }
        st.ended = 1;  // drained (provisional: a put re-opens)
        return grant_no_task(peer);
      }
      case net::MsgType::kAskforComplete: {
        AskforState& st = askfors_[key_];
        if (st.working > 0) --st.working;
        if (st.working == 0 && st.tasks.empty() && st.ended == 0) {
          st.ended = 1;
          end_parked(&st);
        }
        return;
      }
      case net::MsgType::kAskforProbend: {
        AskforState& st = askfors_[key_];
        st.ended = 2;
        st.tasks.clear();
        return end_parked(&st);
      }
      case net::MsgType::kAskforStatus: {
        const AskforState& st = askfors_[key_];
        return reply(peer, [&st](net::Writer* w) {
          w->u8(st.ended != 0 ? 1 : 0);
          w->u64(st.granted);
        });
      }
      case net::MsgType::kCellProduce: {
        std::vector<unsigned char> value;
        if (!r->bytes(&value)) return;
        CellState& st = cells_[key_];
        st.producers.push_back({peer, std::move(value)});
        return settle_cell(&st);
      }
      case net::MsgType::kCellConsume: {
        std::uint8_t copy = 0;
        if (!r->u8(&copy)) return;
        CellState& st = cells_[key_];
        st.consumers.push_back({peer, copy != 0});
        return settle_cell(&st);
      }
      case net::MsgType::kCellTryProduce: {
        std::vector<unsigned char> value;
        if (!r->bytes(&value)) return;
        CellState& st = cells_[key_];
        const bool ok = !st.full && st.producers.empty();
        if (ok) {
          st.full = true;
          st.payload = std::move(value);
        }
        reply(peer, [ok](net::Writer* w) { w->u8(ok ? 1 : 0); });
        return settle_cell(&st);
      }
      case net::MsgType::kCellTryConsume: {
        CellState& st = cells_[key_];
        const bool ok = st.full;
        reply(peer, [&st, ok](net::Writer* w) {
          w->u8(ok ? 1 : 0);
          if (ok) w->bytes(st.payload.data(), st.payload.size());
        });
        if (ok) {
          st.full = false;
          st.payload.clear();
        }
        return settle_cell(&st);
      }
      case net::MsgType::kCellVoid: {
        CellState& st = cells_[key_];
        st.full = false;
        st.payload.clear();
        reply(peer);
        return settle_cell(&st);
      }
      default:
        return;  // not a request this protocol version serves
    }
  }

  void serve_claim(DoallState* st, int peer, const DoallClaim& c) {
    if (c.episode != st->episode) {
      // An arrival for the next episode opens it, once the last peer has
      // departed this one: the gate's "the last one out re-opens".
      if (st->staying > 0) {
        st->parked.emplace_back(peer, c);
        return;
      }
      open_episode(st, c, static_cast<std::uint32_t>(peers_.size()));
    }
    // The fields the core's SPMD check compares on the in-process gate.
    const bool mismatch = c.arrival && (c.bounds.last != st->bounds.last ||
                                        c.bounds.incr != st->bounds.incr);
    // A cluster team is every peer, so peer k is member k.
    const DispatchClaim g =
        mismatch || c.mode == ClaimMode::kLeave
            ? DispatchClaim{}
            : grant(*st, static_cast<std::uint32_t>(peer) % st->blocks, c);
    reply(peer, [mismatch, &g](net::Writer* w) {
      w->u8(mismatch ? 1 : 0);
      w->i64(g.begin);
      w->i64(g.count);
    });
    if (g.count > 0 || --st->staying > 0) return;
    // The last departure: the first parked arrival opens the next episode.
    std::deque<std::pair<int, DoallClaim>> next = std::move(st->parked);
    st->parked.clear();
    for (const auto& [waiter, claim] : next) serve_claim(st, waiter, claim);
  }

  static void open_episode(DoallState* st, const DoallClaim& c,
                           std::uint32_t width) {
    st->episode = c.episode;
    st->staying = width;
    st->bounds = c.bounds;
    st->blocks = std::min(width, kDispatchBlocks);
    dispatch_arm(st->block, st->blocks, c.bounds.trips);
  }

  /// One grant of an open episode, always a dispatch_claim or
  /// dispatch_claim_fraction on one block's word through
  /// dispatch_claim_home. A plain claim takes half of what is left of its
  /// home block, or once that is empty of the fullest block left, and
  /// never less than it wants; a guided claim takes the word engine's
  /// share of its home block, then of the others. Halving keeps half of
  /// every block open to thieves, so trips of uneven cost still balance,
  /// and bounds the claims: a block of b trips meets at most
  /// floor(log2 b) + 1 plain claims.
  static DispatchClaim grant(DoallState& st, std::uint32_t home,
                             const DoallClaim& c) {
    if (c.mode == ClaimMode::kGuided) {
      const std::int64_t share =
          std::max<std::int64_t>(1, c.amount / st.blocks);
      return dispatch_claim_home(
          st.block, st.blocks, home,
          [share](std::atomic<std::int64_t>& word, std::int64_t end) {
            return dispatch_claim_fraction(word, end, share);
          });
    }
    const auto left = [&st](std::uint32_t s) {
      return st.block[s].end -
             st.block[s].next.load(std::memory_order_relaxed);
    };
    std::uint32_t from = home;
    if (left(home) <= 0) {
      for (std::uint32_t s = 0; s < st.blocks; ++s) {
        if (left(s) > left(from)) from = s;
      }
    }
    return dispatch_claim_home(
        st.block, st.blocks, from,
        [want = c.amount](std::atomic<std::int64_t>& word, std::int64_t end) {
          const std::int64_t rest =
              end - word.load(std::memory_order_relaxed);
          return dispatch_claim(word, std::max(want, (rest + 1) / 2), end);
        });
  }

  void release_barrier(std::vector<int>* arrivers) {
    for (int arriver : *arrivers) {
      reply(arriver, [](net::Writer* w) { w->u8(0); });
    }
    arrivers->clear();
  }

  void grant_task(AskforState* st, int peer) {
    reply(peer, [st](net::Writer* w) {
      w->u8(1);
      w->bytes(st->tasks.front().data(), st->tasks.front().size());
    });
    st->tasks.pop_front();
    ++st->working;
    ++st->granted;
  }

  void grant_no_task(int peer) {
    reply(peer, [](net::Writer* w) { w->u8(0); });
  }

  void end_parked(AskforState* st) {
    for (int asker : st->parked) grant_no_task(asker);
    st->parked.clear();
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
        reply(wtr.peer, [st](net::Writer* w) {
          w->bytes(st->payload.data(), st->payload.size());
        });
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
        reply(producer);
      }
    }
  }

  SharedArena* arena_;
  std::vector<PeerIO> peers_;
  std::int64_t spin_ns_;  // how long a poll spins before it blocks
  // poll_and_read's scratch, kept across polls.
  net::PollSet poll_set_;
  std::vector<int> poll_peers_;
  std::vector<LogEntry> log_;
  std::vector<unsigned char> log_bytes_;  // every logged record's bytes
  std::string key_;  // the key of the request being served
  Traffic traffic_;
  std::map<std::string, LockState> locks_;
  std::map<std::string, std::vector<int>> barriers_;  // arrivers
  std::map<std::string, DoallState> doalls_;
  std::map<std::string, AskforState> askfors_;
  std::map<std::string, CellState> cells_;
  bool poisoned_ = false;
  MemberDeath death_;
};

}  // namespace

// ---------------------------------------------------------------------------
// Team entry.
// ---------------------------------------------------------------------------

SpawnStats run_cluster_team(int nproc, PrivateSpace* space,
                            const std::function<void(int)>& entry) {
  SpawnStats stats;
  stats.processes = nproc;
  const RuntimeConfig cfg = g_config;

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

  // Each member's own copy of this link (fork copies the frame) outlives
  // its entry, so a dying member can still report over it.
  std::optional<ClusterClient> link;
  const std::vector<long> pids = fork_members(
      nproc,
      [&](int proc) {
        for (int k = 0; k < nproc; ++k) {
          coord_ends[static_cast<std::size_t>(k)].close();
          if (k != proc) peer_ends[static_cast<std::size_t>(k)].close();
        }
        link.emplace(std::move(peer_ends[static_cast<std::size_t>(proc)]),
                     proc, nproc, cfg.arena);
        g_client = &*link;
        entry(proc);
        // The orderly goodbye carries the final flush.
        (void)link->call(net::MsgType::kJoin, "");
      },
      [&](int, const char* what) {
        if (link) link->report_error(what);
      });
  for (int k = 0; k < nproc; ++k) {
    peer_ends[static_cast<std::size_t>(k)].close();
  }
  stats.create_ns = util::now_ns() - t0;

  const std::int64_t t1 = util::now_ns();
  Coordinator coord(cfg.arena, std::move(coord_ends), pids);
  MemberDeath death;
  const bool died = coord.serve(&death);
  stats.join_ns = util::now_ns() - t1;
  g_last_traffic = coord.traffic();

  if (died) throw_process_death(death, nproc, /*pooled=*/false);
  return stats;
}

}  // namespace force::machdep::cluster
