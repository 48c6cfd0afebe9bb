// Cluster process model: force members as separate processes with no shared
// mapping at all, cooperating through a coordinator over the framed socket
// transport in machdep/net.hpp.
//
// Topology. The parent process is a pure coordinator - it never runs member
// code. It forks nproc peers, each holding one stream connection back to the
// coordinator (Unix-domain socketpair by default, loopback TCP with
// cluster_transport="tcp"). Every synchronization construct - barrier, lock,
// dispatch counter, askfor monitor, async variable - is a keyed state table
// on the coordinator driven by request/response frames (protocol version
// 2). A construct RPC is exactly one request frame, and every frame, either
// way, leaves in one sendmsg(2) of header and payload. The protocol is
// strictly request -> response (lock release and askfor put, complete and
// probend are one-way requests): a peer that is waiting is always parked in
// recv, so coordinator replies can never deadlock; the only unsolicited
// coordinator frame is kPoison (team death).
//
// Software distributed shared arena. Each peer's arena is a private
// copy-on-write image of the parent's; a shadow copy tracks what the
// coordinator has last been told. At every RELEASE point (barrier arrival,
// lock acquire and release, askfor put/ask/complete/probend, async
// operations, join) the peer diffs arena against shadow - one memcmp per
// clean 4 KB block, exact byte runs inside a dirty one - and the changed
// runs ride at the head of the request itself as a records block (count 0
// when clean; claims, dispatch resets and status reads always send 0). The
// coordinator applies that block before it serves the construct, appending
// the records to a global monotone update log and to the master arena.
// At every ACQUIRE point (lock grant, barrier release, askfor grant, async
// value) the reply carries the log suffix the peer has not yet seen, which
// the peer applies to both arena and shadow; a peer that had seen the
// whole log when it flushed is not sent its own records back. Under the
// Force's data-race-free discipline (shared writes happen under locks,
// barriers order phases) this write-through/log-replay scheme makes
// release-point arena contents deterministic - the fuzz tests in
// tests/test_cluster_proto.cpp drive the pure diff/apply half directly.
//
// Death. Identical in shape to the os-fork backend: the coordinator reaps
// with waitpid(WNOHANG); the first abnormal exit poisons the team (kPoison
// to every live peer, SIGKILL stragglers after a grace period) and surfaces
// as ProcessDeathError with pid/signal/exit-code/site provenance. EOF on a
// live peer's connection is a torn link: the peer is killed and reported.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "machdep/locks.hpp"
#include "machdep/net.hpp"
#include "machdep/process.hpp"

namespace force::machdep {
class SharedArena;
}

namespace force::machdep::cluster {

// ---------------------------------------------------------------------------
// Distributed-shared-arena building blocks (pure; fuzz-tested directly).
// ---------------------------------------------------------------------------
namespace dsm {

/// One contiguous run of changed bytes at an arena offset.
struct Record {
  std::uint64_t offset = 0;
  std::vector<unsigned char> bytes;
};

/// The diff's skip granule: a block-aligned run of this many bytes that
/// equals the shadow costs one memcmp.
inline constexpr std::size_t kDiffBlockBytes = 4096;

/// Byte-diffs data[0, n) against `shadow`, appending one Record per changed
/// run and updating shadow to match. The shadow is zero-extended first, so
/// freshly allocated arena space is shipped once in full. Clean
/// kDiffBlockBytes blocks are skipped whole; a run may straddle blocks and
/// is still one record.
std::vector<Record> diff(const unsigned char* data, std::size_t n,
                         std::vector<unsigned char>* shadow);

/// Applies records in order to a flat byte image, zero-extending as needed
/// (bounded by `capacity`). This is the coordinator's master-arena apply.
void apply(std::vector<unsigned char>* image, const std::vector<Record>& recs,
           std::size_t capacity);

void encode_records(net::Writer* w, const std::vector<Record>& recs);
/// Returns false (without UB) on malformed input.
bool decode_records(net::Reader* r, std::vector<Record>* out);

}  // namespace dsm

// ---------------------------------------------------------------------------
// Runtime configuration (installed by the environment before a cluster run).
// ---------------------------------------------------------------------------

struct RuntimeConfig {
  SharedArena* arena = nullptr;      // null: no DSM (bare spawn benches)
  net::Transport transport = net::Transport::kUnix;
};

/// Installs the config ProcessTeam::run(kCluster) will use. Scoped so a
/// finished run cannot leak a dangling arena pointer into the next one.
class ScopedRuntimeConfig {
 public:
  explicit ScopedRuntimeConfig(RuntimeConfig cfg);
  ~ScopedRuntimeConfig();
  ScopedRuntimeConfig(const ScopedRuntimeConfig&) = delete;
  ScopedRuntimeConfig& operator=(const ScopedRuntimeConfig&) = delete;
};

[[nodiscard]] const RuntimeConfig& runtime_config();

// ---------------------------------------------------------------------------
// Peer-side client: one per member process, installed globally after fork.
// ---------------------------------------------------------------------------

struct Claim {
  std::int64_t begin = 0;
  std::int64_t count = 0;
};

class ClusterClient {
 public:
  ClusterClient(net::Conn conn, int proc0, SharedArena* arena);

  [[nodiscard]] int proc0() const { return proc0_; }

  /// Updates the coordinator's last-known-construct-site for this peer
  /// (sent only when it changes; feeds ProcessDeathError provenance).
  void note_site(const std::string& site);

  /// Barrier arrival: arrive with this peer's release records, run
  /// `section` if elected champion (its writes ride the section-done frame),
  /// block until the whole episode releases (applying updates).
  void barrier_arrive(const std::string& key, int width,
                      const std::function<void()>* section);

  void lock_acquire(const std::string& key);
  bool lock_try_acquire(const std::string& key);
  void lock_release(const std::string& key);

  void dispatch_reset(const std::string& key);
  Claim dispatch_claim(const std::string& key, std::int64_t want,
                       std::int64_t limit);
  Claim dispatch_claim_fraction(const std::string& key, std::int64_t limit,
                                std::int64_t divisor);

  void askfor_put(const std::string& key, const void* task, std::size_t n);
  /// Blocks for a task (or end-of-work). Returns true and fills `task`
  /// when granted; false when the pool has drained or probend was called.
  bool askfor_ask(const std::string& key, void* task, std::size_t n);
  void askfor_complete(const std::string& key);
  void askfor_probend(const std::string& key);
  void askfor_status(const std::string& key, bool* ended,
                     std::uint64_t* granted);

  void cell_produce(const std::string& key, const void* value, std::size_t n);
  void cell_consume(const std::string& key, void* value, std::size_t n);
  void cell_copy(const std::string& key, void* value, std::size_t n);
  bool cell_try_produce(const std::string& key, const void* value,
                        std::size_t n);
  bool cell_try_consume(const std::string& key, void* value, std::size_t n);
  void cell_void(const std::string& key);

  /// Orderly goodbye carrying the final flush; the member exits cleanly
  /// after this.
  void join();

  /// Best-effort: ships an exception message for death provenance.
  void report_error(const std::string& what) noexcept;

  /// Fault-injection hook: half-closes the socket so the coordinator sees
  /// EOF while this process is still alive.
  void sever_connection_for_test();

 private:
  void handshake();
  /// A construct request payload that starts with this peer's release
  /// flush: the dirty arena runs, diffed against the shadow, as a records
  /// block (count 0 when clean). Every RELEASE point sends one.
  net::Writer release_request();
  /// A request payload that starts with an empty records block (claims,
  /// dispatch resets and status reads are not release points).
  static net::Writer plain_request();
  Claim claim_rpc(const std::string& key, std::int64_t want,
                  std::int64_t limit, std::int64_t divisor);
  void apply_updates(net::Reader* r);
  void drain_pending();
  void apply_record(std::uint64_t offset, const unsigned char* data,
                    std::size_t n);
  /// Blocks for a frame of one of the `allowed` types; kPoison anywhere
  /// throws shm::TeamPoisoned so the member unwinds and exits 103.
  net::MsgType recv_expect(std::initializer_list<net::MsgType> allowed,
                           std::vector<unsigned char>* payload);

  net::Conn conn_;
  int proc0_;
  SharedArena* arena_;
  std::vector<unsigned char> shadow_;
  std::vector<dsm::Record> pending_;  // records ahead of local allocation
  std::string last_site_;
};

/// The member process's client (null outside a cluster member).
[[nodiscard]] ClusterClient* client();
/// As above but FORCE_CHECKs that a client is installed.
[[nodiscard]] ClusterClient& require_client();

/// What the coordinator of one cluster run received and sent. Hello and
/// join count as requests; a construct RPC is one request frame, whose
/// release records count below.
struct Traffic {
  std::uint64_t requests_in = 0;       // peer frames other than notes
  std::uint64_t notes_in = 0;          // one-way site and error notes
  std::uint64_t replies_out = 0;       // coordinator frames, poison included
  std::uint64_t records_in = 0;        // release records in requests
  std::uint64_t record_bytes_in = 0;   // their changed bytes
  std::uint64_t record_bytes_out = 0;  // changed bytes in acquire replies
};

/// The tally of the last cluster run this process coordinated (zeros
/// before the first).
[[nodiscard]] Traffic last_run_traffic();

/// Half-closes the calling member's coordinator link (torn-connection
/// fault injection). No-op outside a cluster member.
void sever_connection_for_test();

/// BasicLock over coordinator RPCs: one keyed lock cell per label. Like
/// ShmLock, labels are construct-unique, so every member that reaches the
/// same construct contends on the same coordinator-side cell. The lock is
/// constructed freely in any process (including the coordinator, where
/// lock objects exist but are never acquired); the client is looked up at
/// acquire time.
class ClusterLock final : public BasicLock {
 public:
  explicit ClusterLock(std::string label) : label_(std::move(label)) {}

  void acquire() override {
    ClusterClient& c = require_client();
    c.note_site(label_);
    c.lock_acquire(label_);
  }
  bool try_acquire() override {
    return require_client().lock_try_acquire(label_);
  }
  void release() override { require_client().lock_release(label_); }
  const char* mechanism() const override { return "cluster-rpc"; }

  [[nodiscard]] const std::string& label() const { return label_; }

 private:
  std::string label_;
};

// ---------------------------------------------------------------------------
// Team entry: fork peers, serve the coordinator loop, reap, report.
// ---------------------------------------------------------------------------

SpawnStats run_cluster_team(int nproc, PrivateSpace* space,
                            const std::function<void(int)>& entry);

}  // namespace force::machdep::cluster
