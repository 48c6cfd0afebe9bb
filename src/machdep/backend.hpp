// The execution-backend seam between core/ constructs and the three process
// substrates.
//
// The Force's portability claim is that one program runs unchanged across
// machine models, yet the original construct code hand-branched on "is this
// the os-fork backend? the cluster backend?" at every site, and the narrowing
// rules (what each substrate rejects) were duplicated between those runtime
// checks and forcelint's R7 portability matrix. This header fixes both:
//
//   * ProcessModel / ExecutionBackend - the process substrate is chosen ONCE
//     (ForceEnvironment construction) and every construct talks to one
//     polymorphic surface. Thread and os-fork run the same in-process
//     expansion of every construct over the machdep/words.hpp words; the
//     only thing the backend decides is where those words live
//     (word_arena(): the MAP_SHARED arena under os-fork, a block each
//     construct owns on thread). ClusterBackend, which has no shared
//     memory, hands out RPC engines over machdep/cluster instead. Core
//     never names a backend (enforced by a CI layering lint).
//
//   * Capability / capability_table() - ONE declarative table of what each
//     backend supports, consumed by (a) runtime rejection diagnostics
//     (capability_reject_message gives every rejected construct the same
//     shape: construct, site, backend, capability, reason), (b) forcelint
//     R7's static portability matrix (src/preproc/lint.cpp), and (c) the
//     generated matrix in docs/PORTING.md. A conformance test
//     (tests/test_backend_capabilities.cpp) proves all three agree.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <typeinfo>
#include <vector>

#include "machdep/arena.hpp"
#include "machdep/locks.hpp"
#include "machdep/net.hpp"
#include "machdep/process.hpp"
#include "util/check.hpp"

namespace force::machdep {

class MachineModel;    // machdep/machine.hpp
class ForkTeam;        // machdep/forkteam.hpp

// ---------------------------------------------------------------------------
// Process model: which substrate runs the force members.
//
// Distinct from ProcessModelKind (machdep/process.hpp), which is the
// *machine-spec* axis describing how a 1989 machine created processes. This
// enum is the *configuration* axis: what ForceConfig::process_model selects.
// ---------------------------------------------------------------------------

enum class ProcessModel {
  kThread,   ///< thread-emulated processes under a machine model (default)
  kOsFork,   ///< fork(2) children over a MAP_SHARED arena (machdep/shm)
  kCluster,  ///< separate processes, coordinator RPCs (machdep/cluster)
};

/// "thread" / "os-fork" / "cluster" - the names forcelint's portability
/// matrix and --process-model use. Overloads the ProcessModelKind spelling.
[[nodiscard]] const char* process_model_name(ProcessModel model);

/// Every model, in a fixed order: drives forcelint's matrix rendering and
/// the capability conformance tests.
[[nodiscard]] const std::vector<ProcessModel>& all_process_models();

/// Parses a ForceConfig::process_model / forcepp --process-model value.
/// "machine" (the historic default spelling) and "thread" both name the
/// thread-emulated model. Returns false on unknown text.
[[nodiscard]] bool parse_process_model(const std::string& text,
                                       ProcessModel* out);

/// The valid spellings, for diagnostics on unparseable values.
[[nodiscard]] const char* process_model_valid_set();

// ---------------------------------------------------------------------------
// Capabilities: the one declarative table of backend narrowing rules.
// ---------------------------------------------------------------------------

enum class Capability {
  kResolve,             ///< Resolve component scheduling
  kSentry,              ///< runtime race/deadlock sentry
  kTrace,               ///< per-member event tracing
  kTeamPool,            ///< persistent (pre-spawned) team pools
  kNmScheduling,        ///< N:M member multiplexing (pool_workers > 0)
  kNonTrivialPayloads,  ///< Askfor/Async/Reduce payloads that are not
                        ///< provably trivially copyable
  kIsfull               ///< non-blocking full/empty probe of a cell
};

/// One row of the capability matrix.
struct CapabilityRow {
  Capability cap;
  const char* id;         ///< stable kebab-case id, e.g. "team-pool"
  const char* construct;  ///< construct name as diagnostics spell it
  bool thread;
  bool os_fork;
  bool cluster;
  const char* reason;     ///< why the unsupporting backends reject it
};

[[nodiscard]] const std::vector<CapabilityRow>& capability_table();
[[nodiscard]] const CapabilityRow& capability_row(Capability cap);
[[nodiscard]] bool backend_supports(ProcessModel model, Capability cap);

/// The uniform rejection diagnostic - every rejected construct reports the
/// same fields in the same shape: construct, site, backend name, failed
/// capability id, and the table's reason.
[[nodiscard]] std::string capability_reject_message(ProcessModel model,
                                                    Capability cap,
                                                    const std::string& construct,
                                                    const std::string& site);

/// Markdown rendering of the whole matrix. docs/PORTING.md embeds this
/// between `capability-matrix` markers; test_backend_capabilities fails if
/// the embedded copy drifts from the table.
[[nodiscard]] std::string capability_matrix_markdown();

// ---------------------------------------------------------------------------
// Construct engines and the arena words of the in-process expansions.
//
// Byte-oriented so one interface covers every payload type. The cluster
// backend hands out an engine per construct (only for trivially copyable
// payloads: the capability table rejects the rest before an engine is
// requested); thread and os-fork get none and run the in-process engines
// (GateDoallSite, core's Askfor monitor, async cell and central-sense
// barrier), whose words ForceEnvironment places through word_arena() under
// the arena keys below.
// ---------------------------------------------------------------------------

/// A construct's words, placed once: at `key` in the backend's word arena
/// (ExecutionBackend::word_arena; shared scope), or in a block the
/// construct owns when there is none (private scope). The words never
/// move, so the handle may.
template <typename Words>
class PlacedWords {
 public:
  PlacedWords() : PlacedWords(nullptr, {}) {}
  PlacedWords(SharedArena* arena, const std::string& key) {
    if constexpr (std::is_trivially_destructible_v<Words>) {
      if (arena != nullptr) {
        words_ = &arena->get_or_create<Words>(key);
        return;
      }
    }
    FORCE_CHECK(arena == nullptr,
                "only trivially destructible words live in the arena");
    own_ = std::make_unique<Words>();
    words_ = own_.get();
  }
  /// Words with a trailing array sized at placement: `bytes` from the
  /// first word, constructed once by `init`.
  PlacedWords(SharedArena* arena, const std::string& key, std::size_t bytes,
              const std::function<void(void*)>& init) {
    static_assert(std::is_trivially_destructible_v<Words>,
                  "variable-length words are freed as raw bytes");
    if (arena != nullptr) {
      words_ = static_cast<Words*>(arena->allocate_once(
          key, bytes, alignof(Words), VarClass::kShared, init));
      return;
    }
    blob_.reset(::operator new(bytes, std::align_val_t{alignof(Words)}));
    init(blob_.get());
    words_ = static_cast<Words*>(blob_.get());
  }

  Words& operator*() const { return *words_; }
  Words* operator->() const { return words_; }
  [[nodiscard]] WordScope scope() const {
    return own_ != nullptr || blob_ != nullptr ? WordScope::kPrivate
                                               : WordScope::kShared;
  }

 private:
  struct FreeBlob {
    void operator()(void* p) const {
      ::operator delete(p, std::align_val_t{alignof(Words)});
    }
  };
  std::unique_ptr<Words> own_;
  std::unique_ptr<void, FreeBlob> blob_;
  Words* words_ = nullptr;
};

/// Arena key prefixes of the placed words, shared by the placement
/// (ForceEnvironment) and os-fork death recovery, which scrubs them.
inline constexpr const char* kBarrierWords = "%barrier/";  ///< EpisodeBarrier
inline constexpr const char* kDoallWords = "%ssdo/";       ///< DoallWords
inline constexpr const char* kAsyncWords = "%async/";     ///< AsyncWords<T>
inline constexpr const char* kAskforWords = "%askfor/";   ///< AskforWords

/// Episode bounds of one selfscheduled DOALL site, as published by the
/// episode's opener.
struct DoallBounds {
  std::int64_t start = 0;
  std::int64_t last = 0;
  std::int64_t incr = 1;
  std::int64_t trips = 0;
};

/// The words of one in-process selfscheduled DOALL site: the entry/exit
/// gate word, the dispatch words (the lock engine's shared loop index and
/// the word engine's home blocks) and the bounds the opener publishes.
struct DoallWords {
  alignas(64) std::atomic<std::uint32_t> gate{0};
  DispatchWords dispatch;
  alignas(64) DoallBounds bounds;
};

/// The words of one in-process async variable: the full/empty cell word
/// (machdep/words.hpp) and the payload beside it, so a handoff moves one
/// line. Death recovery reads only the leading cell word.
template <typename T>
struct AsyncWords {
  alignas(64) std::atomic<std::uint32_t> cell{kCellEmpty};
  T payload{};
};

/// The head of one member's slot in an Askfor site's words: the slot's
/// claim flag, the credit its holder keeps, and its grant tally. The
/// slot's steal deque of task records follows it.
struct alignas(64) AskforSlotHead {
  std::atomic<bool> taken{false};
  bool credit = false;
  std::atomic<std::uint64_t> grants{0};
  std::uint64_t stats_reported = 0;
};

/// The words of one in-process Askfor monitor (core/askfor.hpp), one blob
/// whose length is set at placement: this head, then `nslots` member
/// slots of `slot_bytes` each (an AskforSlotHead and its deque), then on
/// shared scope the central queue's ring of `ring_capacity` records.
/// Death recovery reads only this head and the slot heads.
struct AskforWords {
  /// Central-queue records (low 32 bits) and credits (high 32 bits).
  alignas(64) std::atomic<std::uint64_t> inflight{0};
  std::atomic<std::int64_t> central_count{0};
  std::atomic<std::uint64_t> granted{0};  ///< grants to slotless callers
  std::atomic<std::uint32_t> seen_generation{0};
  std::atomic<bool> ended{false};
  std::atomic<bool> probend{false};
  std::int32_t working = 0;  ///< lock engine's granted, uncompleted tasks
  std::uint32_t nslots = 0;
  std::uint32_t slot_bytes = 0;
  std::uint32_t ring_capacity = 0;  ///< 0: the central queue is private
  std::uint32_t ring_head = 0;      ///< monotonic, guarded by the monitor
  std::uint32_t ring_tail = 0;      ///< monotonic, guarded by the monitor

  [[nodiscard]] std::byte* slots() {
    return reinterpret_cast<std::byte*>(this + 1);
  }
  [[nodiscard]] AskforSlotHead& slot(std::uint32_t i) {
    return *reinterpret_cast<AskforSlotHead*>(
        slots() + static_cast<std::size_t>(i) * slot_bytes);
  }
  [[nodiscard]] std::byte* ring() {
    return slots() + static_cast<std::size_t>(nslots) * slot_bytes;
  }
};

/// One selfscheduled DOALL site: episode entry (the opener publishes the
/// bounds and re-arms the dispatch counter), the claim loop and the exit.
class DoallSite {
 public:
  virtual ~DoallSite() = default;
  /// Arrives at the episode entry with this member's loop bounds; the
  /// opener publishes them. Returns the published bounds (for SPMD
  /// divergence detection by the caller); the cluster site returns the
  /// caller's own and checks them against the opener's on its first claim.
  virtual DoallBounds enter(std::int64_t start, std::int64_t last,
                            std::int64_t incr, std::int64_t trips) = 0;
  /// Claims for member `me0` (0-based), which picks its home block where
  /// the site has them; see DispatchCounter.
  virtual DispatchClaim claim(int me0, std::int64_t want,
                              std::int64_t limit) = 0;
  virtual DispatchClaim claim_fraction(int me0, std::int64_t limit,
                                       std::int64_t divisor) = 0;
  /// Departs the episode. On the cluster an empty claim was the departure
  /// already, so only a member whose body threw sends one here.
  virtual void leave() = 0;
};

/// One Askfor monitor over fixed-stride trivially-copyable task records.
class AskforRing {
 public:
  virtual ~AskforRing() = default;
  virtual void put(const void* task) = 0;
  /// One member's worker loop: copies each granted task into `task`
  /// (storage of the task's size and alignment), calls `run`, completes
  /// the task, and returns the number run once the computation is over
  /// (drained or probend). A throwing `run` completes its task and
  /// propagates.
  virtual std::size_t work(void* task, const std::function<void()>& run) = 0;
  virtual void probend() = 0;
  [[nodiscard]] virtual bool ended() const = 0;
  [[nodiscard]] virtual std::uint64_t granted() const = 0;
};

/// One async full/empty cell over a payload of fixed type.
class AsyncCell {
 public:
  virtual ~AsyncCell() = default;
  virtual void produce(const void* value) = 0;
  virtual void consume(void* out) = 0;
  virtual void copy(void* out) = 0;
  virtual bool try_produce(const void* value) = 0;
  virtual bool try_consume(void* out) = 0;
  virtual void void_state() = 0;
  /// Isfull probe; rejecting backends throw the capability diagnostic.
  [[nodiscard]] virtual bool is_full() = 0;
};

/// One keyed team barrier spanning the cluster's address spaces.
class BarrierEngine {
 public:
  virtual ~BarrierEngine() = default;
  /// One arrival; `section` (null = none) runs in the elected champion.
  virtual void arrive(int proc0, const std::function<void()>* section) = 0;
  /// Algorithm name for barrier_name() observers ("cluster").
  [[nodiscard]] virtual const char* name() const = 0;
};

// ---------------------------------------------------------------------------
// ExecutionBackend: the polymorphic substrate surface, selected once.
// ---------------------------------------------------------------------------

class ExecutionBackend {
 public:
  virtual ~ExecutionBackend() = default;

  [[nodiscard]] virtual ProcessModel model() const = 0;
  [[nodiscard]] const char* name() const { return process_model_name(model()); }
  [[nodiscard]] bool supports(Capability cap) const {
    return backend_supports(model(), cap);
  }

  // --- construct engines (null where the constructs run in-process) ------
  [[nodiscard]] virtual std::unique_ptr<DoallSite> make_doall_site(
      const std::string& site, int width);
  [[nodiscard]] virtual std::unique_ptr<AskforRing> make_askfor_ring(
      const std::string& key, std::size_t task_bytes);
  [[nodiscard]] virtual std::unique_ptr<AsyncCell> make_async_cell(
      const std::string& label, std::size_t payload_bytes);
  [[nodiscard]] virtual std::unique_ptr<BarrierEngine> make_team_barrier(
      int width, const std::string& key);

  /// Where the in-process constructs' words live: the MAP_SHARED arena
  /// (shared scope) under os-fork, so every member process meets at the
  /// same words; null on thread (each construct's own object) and cluster
  /// (RPC engines, no shared words).
  [[nodiscard]] virtual SharedArena* word_arena();

  // --- locks ---------------------------------------------------------------

  /// A construct lock on this substrate. `label` is construct-unique, so
  /// the os-fork and cluster backends key the lock's word or cell by it.
  [[nodiscard]] virtual std::unique_ptr<BasicLock> new_lock(
      const std::string& label) = 0;

  // --- team lifetime -------------------------------------------------------

  /// One force: spawns/arms the team, runs `member` for [0, nproc), joins,
  /// reports deaths. `program_type` identifies the program closure (the
  /// os-fork pool pins one program per armed team).
  virtual SpawnStats run_team(int nproc, PrivateSpace* space,
                              const std::function<void(int)>& member,
                              const std::type_info* program_type) = 0;

  /// The os-fork team at width `nproc` (ShmBackend only).
  [[nodiscard]] virtual ForkTeam& fork_pool(int nproc);
};

/// Everything a backend needs from the environment, captured at selection
/// time so backends never reach back into core/.
struct BackendInit {
  MachineModel* machine = nullptr;
  SharedArena* arena = nullptr;
  bool team_pool = false;
  int pool_workers = 1;
  std::size_t member_stack_bytes = 256u << 10;
  net::Transport cluster_transport = net::Transport::kUnix;
};

/// The one selection point: ForceEnvironment construction.
[[nodiscard]] std::unique_ptr<ExecutionBackend> make_execution_backend(
    ProcessModel model, const BackendInit& init);

}  // namespace force::machdep
