// Cluster process model: force members as separate processes with no shared
// mapping at all, cooperating through a coordinator over the framed socket
// transport in machdep/net.hpp.
//
// Topology. The parent process is a pure coordinator - it never runs member
// code. It forks nproc peers, each holding one stream connection back to the
// coordinator (Unix-domain socketpair by default, loopback TCP with
// cluster_transport="tcp"). Every synchronization construct - barrier, lock,
// dispatch counter, askfor monitor, async variable - is a keyed state table
// on the coordinator, and every construct operation is one RPC (protocol
// version 4): a request frame {records, key, body} and, unless it is one
// of the four one-way requests (lock release, askfor put, complete and
// probend), one kReply {records, body}. Each construct's engine, the
// member-side half, lives in cluster.cpp beside the coordinator handler
// that decodes its bodies, so each wire format is known in one file. Every
// frame, either way, leaves in one sendmsg(2) of header and payload. A
// peer that is waiting is always reading its socket, so coordinator
// replies can never deadlock; the only unsolicited coordinator frame is
// kPoison (team death). Both sides wait spin-then-block: a peer probes
// with non-blocking reads, the coordinator with zero-timeout polls, for
// the window of machdep::Waiter's team-fit rule (np peers plus the
// coordinator against the usable CPUs; 0 when they do not fit), and only
// then sleeps in recv(2) or poll(2).
//
// Software distributed shared arena. Each peer's arena is a private
// copy-on-write image of the parent's; a shadow copy tracks what the
// coordinator has last been told. At every RELEASE point (barrier arrival,
// lock acquire and release, askfor put/ask/complete/probend, async
// operations, join) the peer diffs arena against shadow - one memcmp per
// clean 4 KB block, exact byte runs inside a dirty one - and the changed
// runs ride at the head of the request itself as a records block (count 0
// when clean; claims and status reads always send 0). The
// coordinator applies that block before it serves the construct, appending
// the bytes to a global monotone update log, tagged with their author, and
// to the master arena. EVERY reply is an acquire point: it carries the log
// suffix the peer has not yet seen, minus the peer's own records, which the
// peer applies to both arena and shadow straight from the frame. Under the
// Force's data-race-free discipline (shared writes happen under locks,
// barriers order phases) no record a peer has not seen can overlap bytes it
// wrote since, so this write-through/log-replay scheme makes release-point
// arena contents deterministic - the fuzz tests in
// tests/test_cluster_proto.cpp drive the pure diff/apply half directly.
//
// Selfscheduled DOALL. The coordinator runs the paper's episode gate
// (§4.2) for each site, with no entry barrier and no entry RPC: a member's
// first claim of an episode carries its bounds, the first such claim arms
// one home block per member, and a claim whose last or increment differs
// from the opener's is flagged, so the member raises the SPMD check. A
// plain or chunked claim takes half of what is left of the member's home
// block, once that is empty half of the fullest block left, and never less
// than its chunk, so every block stays open to thieves and meets O(log)
// claims; guided ones take the word engine's share of the home block. A
// claim names no member, since peer k is member k. An empty reply is the
// member's departure, and claims for the next episode wait on the
// coordinator until every member has departed this one.
//
// Death. Peers are forked and exit through the fork-team module
// (machdep/forkteam.*), as os-fork members are, and the coordinator reaps
// them with its reap_member between socket polls: the first abnormal exit
// poisons the team (kPoison to every live peer, SIGKILL stragglers after
// kStragglerGraceNs) and surfaces, through the same death builder, as
// ProcessDeathError with pid/signal/exit-code/site provenance. The site
// is the construct of the peer's last request, read from its type and key;
// a peer's exception text arrives as a one-way kError. EOF on a live peer's
// connection is a torn link: the peer is killed and reported.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machdep/locks.hpp"
#include "machdep/net.hpp"
#include "machdep/process.hpp"

namespace force::machdep {
class SharedArena;
class AskforRing;     // machdep/backend.hpp
class AsyncCell;      // machdep/backend.hpp
class BarrierEngine;  // machdep/backend.hpp
class DoallSite;      // machdep/backend.hpp
}  // namespace force::machdep

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

/// A records block: {count u32, count x {offset u64, bytes}}.
void encode_records(net::Writer* w, const std::vector<Record>& recs);

/// diff() written straight into `w` as a records block, with no Record
/// built: the bytes equal encode_records(w, diff(data, n, shadow)). This is
/// a peer's release flush.
void encode_diff(net::Writer* w, const unsigned char* data, std::size_t n,
                 std::vector<unsigned char>* shadow);

/// Walks a records block in place, calling visit(offset, data, n) once per
/// record with a view into the Reader's span - no record is copied out.
/// Returns false (without UB) on malformed input, after visiting the
/// records before the fault.
template <typename Visit>
bool visit_records(net::Reader* r, Visit&& visit) {
  std::uint32_t count = 0;
  if (!r->u32(&count)) return false;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint64_t offset = 0;
    const unsigned char* data = nullptr;
    std::size_t n = 0;
    if (!r->u64(&offset) || !r->view(&data, &n)) return false;
    visit(offset, data, n);
  }
  return true;
}

}  // namespace dsm

// ---------------------------------------------------------------------------
// Runtime configuration (installed by the environment before a cluster run).
// ---------------------------------------------------------------------------

struct RuntimeConfig {
  SharedArena* arena = nullptr;      // null: no DSM (bare spawn benches)
  net::Transport transport = net::Transport::kUnix;
};

/// Installs the config run_cluster_team will use. Scoped so a
/// finished run cannot leak a dangling arena pointer into the next one.
class ScopedRuntimeConfig {
 public:
  explicit ScopedRuntimeConfig(RuntimeConfig cfg);
  ~ScopedRuntimeConfig();
  ScopedRuntimeConfig(const ScopedRuntimeConfig&) = delete;
  ScopedRuntimeConfig& operator=(const ScopedRuntimeConfig&) = delete;
};

// ---------------------------------------------------------------------------
// Construct engines: each call is one coordinator RPC from the calling
// member process. They may be built in any process (the coordinator builds
// lock objects it never acquires); the member's link is looked up per call.
// ---------------------------------------------------------------------------

/// A keyed team barrier of `width` members; the last arriver runs the
/// section.
std::unique_ptr<BarrierEngine> make_team_barrier(int width, std::string key);
/// A selfscheduled DOALL site of the whole team: one claim RPC per grant
/// and nothing at entry. A member's first claim of an episode carries its
/// bounds and opens the episode on the coordinator, which grants halves
/// of home blocks.
std::unique_ptr<DoallSite> make_doall_site(const std::string& site);
std::unique_ptr<AskforRing> make_askfor_ring(std::string key,
                                             std::size_t task_bytes);
std::unique_ptr<AsyncCell> make_async_cell(std::string label,
                                           std::size_t payload_bytes);
/// One keyed lock cell per label. Like ShmLock, labels are
/// construct-unique, so every member that reaches the same construct
/// contends on the same coordinator-side cell.
std::unique_ptr<BasicLock> make_lock(std::string label);

/// What the coordinator of one cluster run received and sent. Hello and
/// join count as requests; a construct RPC is one request frame, whose
/// release records count below.
struct Traffic {
  std::uint64_t requests_in = 0;       // peer frames other than notes
  std::uint64_t notes_in = 0;          // one-way error notes
  std::uint64_t replies_out = 0;       // coordinator frames, poison included
  std::uint64_t records_in = 0;        // release records in requests
  std::uint64_t claims_in = 0;         // selfsched claims among the requests
  std::uint64_t claim_records_in = 0;  // release records in claims
  std::uint64_t record_bytes_in = 0;   // their changed bytes
  std::uint64_t record_bytes_out = 0;  // changed bytes in replies
};

/// The tally of the last cluster run this process coordinated (zeros
/// before the first).
[[nodiscard]] Traffic last_run_traffic();

/// Half-closes the calling member's coordinator link (torn-connection
/// fault injection). No-op outside a cluster member.
void sever_connection_for_test();

// ---------------------------------------------------------------------------
// Team entry: fork peers, serve the coordinator loop, reap, report.
// ---------------------------------------------------------------------------

SpawnStats run_cluster_team(int nproc, PrivateSpace* space,
                            const std::function<void(int)>& entry);

}  // namespace force::machdep::cluster
