// The Force parallel environment (paper §4.1.2).
//
// The preprocessor provides "a set of variables used to implement the Force
// constructs for work distribution and synchronization, such as process
// number, barrier locks and arrival counter, and asynchronous loop index
// for selfscheduled loops". ForceEnvironment is that set, plus ownership of
// the machine model, the shared arena, the private space, the startup
// linkage registry and the construct-site table.
//
// Everything here is machine independent: the environment only talks to
// the machine through MachineModel's generic interfaces.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "machdep/arena.hpp"
#include "machdep/backend.hpp"
#include "machdep/episodegate.hpp"
#include "machdep/fullempty.hpp"
#include "machdep/linkage.hpp"
#include "machdep/machine.hpp"
#include "core/site.hpp"
#include "util/counter.hpp"
#include "util/rng.hpp"
#include "util/trace.hpp"

namespace force::core {

class BarrierAlgorithm;  // core/barrier.hpp
class Sentry;            // core/sentry.hpp
enum class BarrierKind;  // core/barrier.hpp

/// How a construct *uses* a lock it owns. The machine layer does not care
/// (every Force lock is a binary semaphore), but the sentry does: only
/// mutex-role locks enter its locksets and lock-order graph, because
/// semaphore-role locks are legitimately released by a process other than
/// the acquirer.
enum class LockRole {
  kMutex,     ///< acquired and released by the same process, critical-style
  kSemaphore  ///< signalling use (async E/F pairs, barrier turnstiles,
              ///< DOALL gates): cross-process release is expected
};

/// Configuration of one Force program execution.
struct ForceConfig {
  /// Number of processes in the force. The whole point of the Force is
  /// that programs do not depend on this value.
  int nproc = 4;
  /// Machine model name: hep, flex32, encore, sequent, alliant, cray2,
  /// or native (default).
  std::string machine = "native";
  /// Barrier algorithm of ctx.barrier(), Resolve and Reduce, parsed once
  /// at construction: "auto" (default) is central-sense on the atomic
  /// words (see `dispatch`), paper-lock (the paper's two-lock/counter
  /// structure) otherwise; an explicit paper-lock, central-sense, tree or
  /// dissemination overrides it (the E2 sweep). Any other name fails
  /// construction on every backend. os-fork and cluster accept the five
  /// names but always run their keyed team barrier: no thread algorithm
  /// spans address spaces.
  std::string barrier_algorithm = "auto";
  /// "auto" (default) follows the machine's hardware_atomic_rmw: selfsched
  /// dispatch and entry gate and the default barrier run on the atomic
  /// words (machdep/words.hpp), and Askfor steals work, where the hardware
  /// has atomic RMW; async variables also run the full/empty cell word
  /// where the machine's locks are unbudgeted (native; see
  /// new_full_empty_gate). "locked" means the paper's lock expansions for
  /// all of them, the E/F pair included, as on lock-only machines
  /// (benches/tests comparing the two).
  std::string dispatch = "auto";
  /// Process backend. "machine" (default) uses the machine model's
  /// thread-emulated process creation; "os-fork" spawns real child
  /// processes with fork(2) over a MAP_SHARED arena and process-shared
  /// (futex) synchronization; "cluster" spawns real child processes with
  /// *no shared mapping at all* - a coordinator serves every construct
  /// over a framed socket transport and a software distributed-shared
  /// arena (machdep/cluster.hpp) - see docs/PORTING.md, process-model
  /// axis. Under os-fork and cluster the sentry, tracing and schedule
  /// fuzzing are unavailable (their state is per-address-space): setting
  /// them explicitly is an error, while the FORCE_SENTRY /
  /// FORCE_SCHEDULE_FUZZ environment variables are silently ignored so a
  /// suite-wide validation run does not break the fork/cluster tests.
  std::string process_model = "machine";
  /// Socket transport between cluster members and the coordinator:
  /// "unix" (AF_UNIX socketpair, default) or "tcp" (loopback TCP with
  /// TCP_NODELAY). Cluster backend only; also set by
  /// FORCE_CLUSTER_TRANSPORT when left at the default.
  std::string cluster_transport = "unix";
  /// Shared arena capacity (rounded up to whole pages).
  std::size_t arena_bytes = 4u << 20;
  /// Private data / stack region sizes per process.
  std::size_t private_data_bytes = 256u << 10;
  std::size_t private_stack_bytes = 256u << 10;
  /// Base seed; process p draws from substream p of this seed.
  std::uint64_t seed = 0x464f524345u;  // "FORCE"
  /// Record an execution trace (barrier episodes, sections, critical
  /// occupancy, DOALL participation and dispatches), one ring per member.
  /// Export it with env().tracer()->write_chrome_json(path). Recorded by
  /// decorators the environment puts around the construct engines
  /// (core/observe.cpp); off by default, and when off the engines are
  /// built undecorated, so the constructs pay nothing for it.
  bool trace = false;
  std::size_t trace_events_per_process = 64u << 10;
  /// Enable the sentry (runtime race/deadlock validation, core/sentry.hpp).
  /// It observes the constructs through the same decorators as tracing,
  /// so when off only the blocking waits and Async's full/empty window
  /// still test a pointer. Also switched on by FORCE_SENTRY=1, so the
  /// whole test suite can be validated without editing every test.
  bool sentry = false;
  /// Schedule-fuzz seed for the sentry (0 = no fuzzing). Deterministic:
  /// the same seed explores the same perturbation schedule. Also set by
  /// FORCE_SCHEDULE_FUZZ=<seed> (implies sentry).
  std::uint64_t schedule_fuzz = 0;
  /// Wait length the sentry's watchdog reports as a stall, in ms.
  /// Also set by FORCE_SENTRY_STALL_MS=<n>.
  int sentry_stall_ms = 1000;
  /// Keep the team alive across Force::run invocations: workers (or fork
  /// children under os-fork) park between forces on a generation-stamped
  /// entry protocol instead of being created and joined per run - see
  /// docs/PORTING.md, team-lifetime axis. Also switched on by
  /// FORCE_TEAM_POOL=1. Under os-fork, every pooled run must execute the
  /// same program closure (the resident children re-run the entry they
  /// were forked with).
  bool team_pool = false;
  /// N:M member scheduling: run the force's nproc members on this many
  /// pooled worker threads as run-to-barrier continuations (0 = one
  /// worker per member). Setting it implies team_pool; thread-backed
  /// process models only, and incompatible with the sentry (two members
  /// share one OS thread, defeating its per-thread bookkeeping). Also set
  /// by FORCE_POOL_WORKERS=<w>.
  int pool_workers = 0;
};

/// Machine-independent runtime statistics, aggregated across processes.
/// Each field is sharded per thread (util/counter.hpp), so members bumping
/// a counter on a hot path do not share its cache line; a read sums the
/// shards.
struct RuntimeStats {
  util::ShardedCounter barrier_episodes;
  util::ShardedCounter critical_entries;
  util::ShardedCounter doall_iterations;
  util::ShardedCounter doall_dispatches;  ///< selfsched index grabs
  util::ShardedCounter produces;
  util::ShardedCounter consumes;
  util::ShardedCounter askfor_grants;
  util::ShardedCounter pcase_blocks;

  void reset();
};

class ForceEnvironment {
 public:
  explicit ForceEnvironment(ForceConfig config);
  ~ForceEnvironment();

  ForceEnvironment(const ForceEnvironment&) = delete;
  ForceEnvironment& operator=(const ForceEnvironment&) = delete;

  [[nodiscard]] const ForceConfig& config() const { return config_; }
  [[nodiscard]] int nproc() const { return config_.nproc; }

  [[nodiscard]] machdep::MachineModel& machine() { return *machine_; }
  [[nodiscard]] const machdep::MachineModel& machine() const {
    return *machine_;
  }
  [[nodiscard]] machdep::SharedArena& arena() { return *arena_; }
  [[nodiscard]] machdep::PrivateSpace& private_space() { return *private_; }
  [[nodiscard]] machdep::LinkageRegistry& linkage() { return linkage_; }
  [[nodiscard]] SiteTable& sites() { return sites_; }
  [[nodiscard]] RuntimeStats& stats() { return stats_; }

  /// Lock factory for construct-internal locks that the sentry should
  /// observe (core/observe.cpp): `role` says how the construct uses the
  /// lock, `label` names it in reports and keys it on the backend. When
  /// the sentry is off this is exactly the backend's lock.
  std::unique_ptr<machdep::BasicLock> new_lock(LockRole role,
                                               std::string label);

  /// The one choice of expansion: true when the constructs named at
  /// ForceConfig::dispatch run on the atomic words this run - the machine
  /// declares hardware_atomic_rmw and the config does not force "locked",
  /// or the words are placed in the os-fork arena (the lock expansions
  /// keep process-local counters, so they cannot span processes).
  [[nodiscard]] bool atomic_words() const {
    return word_arena_ != nullptr ||
           (machine_->spec().hardware_atomic_rmw &&
            dispatch_ == Dispatch::kAuto);
  }

  /// Places an in-process construct's words: at `key` in the backend's
  /// MAP_SHARED arena under os-fork, so every member process meets at the
  /// same words; otherwise in a block of the construct's own.
  template <typename Words>
  machdep::PlacedWords<Words> place_words(const std::string& key) {
    return machdep::PlacedWords<Words>(word_arena_, key);
  }
  /// Places words with a trailing array: `bytes` in all, constructed once
  /// by `init` (the first member process to reach them under os-fork).
  template <typename Words>
  machdep::PlacedWords<Words> place_words(
      const std::string& key, std::size_t bytes,
      const std::function<void(void*)>& init) {
    return machdep::PlacedWords<Words>(word_arena_, key, bytes, init);
  }
  /// Where place_words puts words: shared under os-fork, else private.
  [[nodiscard]] machdep::WordScope word_scope() const { return word_scope_; }

  /// Dispatch-counter factory for a team of `width` over the placed
  /// `words`, honouring atomic_words(): the home blocks, or the shared
  /// word behind a machine lock.
  std::unique_ptr<machdep::DispatchCounter> new_dispatch_counter(
      int width, machdep::DispatchWords& words) {
    if (atomic_words()) {
      return std::make_unique<machdep::DispatchCounter>(words, width);
    }
    return std::make_unique<machdep::DispatchCounter>(words,
                                                      machine_->new_lock());
  }

  /// Selfsched entry/exit gate for `width` members honouring
  /// atomic_words(): the placed gate `word`, or the BARWIN/BARWOT locks.
  std::unique_ptr<machdep::EpisodeGate> new_episode_gate(
      int width, std::atomic<std::uint32_t>& word);

  /// Full/empty gate of the in-process async variable `label`: the placed
  /// `cell` word where the machine has hardware_full_empty, where the
  /// words are in the arena, or where atomic_words() holds on a machine
  /// that passes machdep::atomic_full_empty (atomic RMW, unbudgeted
  /// locks: `native`); else the §4.2 E/F lock pair, which keeps a
  /// lock-budgeted machine's async variables on its scarce locks.
  machdep::FullEmptyGate new_full_empty_gate(const std::string& label,
                                             std::atomic<std::uint32_t>& cell);

  /// The process substrate this environment selected at construction
  /// (ForceConfig::process_model parsed into the enum).
  [[nodiscard]] machdep::ProcessModel process_model() const { return model_; }

  /// The execution backend realizing the constructs on that substrate.
  /// Constructs ask it for an engine where the substrate has no shared
  /// memory (cluster) and otherwise run in-process over words placed by
  /// place_words - core never names a backend.
  [[nodiscard]] machdep::ExecutionBackend& backend() { return *backend_; }

  /// Capability probe against the declarative backend matrix.
  [[nodiscard]] bool supports(machdep::Capability cap) const {
    return machdep::backend_supports(model_, cap);
  }

  /// Rejects `construct` at `site` with the uniform capability diagnostic
  /// when this backend does not support `cap`; no-op when it does.
  void require(machdep::Capability cap, const std::string& construct,
               const std::string& site) const;

  /// Worker-thread count of the pooled team: pool_workers when set,
  /// otherwise one worker per member except member 0, which the driver
  /// thread runs inline (still 1:1 - every member owns an OS thread).
  [[nodiscard]] int pool_workers() const {
    if (config_.pool_workers > 0) return config_.pool_workers;
    return config_.nproc > 1 ? config_.nproc - 1 : 1;
  }

  /// The os-fork team sized for `nproc` fork children (resident under
  /// team_pool, else respawned per run), created on first use and
  /// recreated if the width changes. os-fork backend only.
  [[nodiscard]] machdep::ForkTeam& fork_pool(int nproc);

  /// Force-entry generation: bumped once at the top of every Force::run,
  /// before the team is (re-)armed. Long-lived construct sites compare it
  /// to their own stamp to re-arm per-entry episode state (e.g. the
  /// Askfor drained/probend latch) when a pooled team re-enters the same
  /// force. The word is placed like any construct word, so under os-fork
  /// resident children observe the bump.
  [[nodiscard]] std::uint32_t run_generation() const;
  void begin_team_entry();

  /// The environment barrier used by un-sited ctx.barrier() calls on the
  /// full force; sized to nproc with the configured algorithm.
  [[nodiscard]] BarrierAlgorithm& global_barrier();

  /// Builds a barrier instance for `width` processes with the configured
  /// (or an explicitly named) algorithm; used by Resolve's component and
  /// join barriers. Rejected where thread barrier algorithms are (callers
  /// there must key a process-shared barrier).
  std::unique_ptr<BarrierAlgorithm> make_barrier(int width);
  std::unique_ptr<BarrierAlgorithm> make_barrier(int width,
                                                 const std::string& algorithm);

  /// The team barrier at `key`. On separate-process backends every
  /// process that resolves the key meets at the same barrier - the
  /// central-sense barrier over words placed at kBarrierWords + key under
  /// os-fork, the cluster's keyed engine - so lazy construction is
  /// race-free; on thread, a barrier with the configured algorithm.
  std::unique_ptr<BarrierAlgorithm> make_team_barrier(int width,
                                                      const std::string& key);

  /// The selfscheduled DOALL site at `key` for a team of `width`: the
  /// backend's engine where it hands one out (cluster), else the gate and
  /// dispatch counter over words placed at kDoallWords + key.
  std::unique_ptr<machdep::DoallSite> make_doall_site(int width,
                                                      const std::string& key);

  /// The lock of a critical section, in the kMutex role; the tracer
  /// records each occupancy as a kCritical span.
  std::unique_ptr<machdep::BasicLock> new_critical_lock(std::string label);

  /// The observer layer (core/observe.cpp): wraps a construct engine in a
  /// decorator that runs the sentry's and the tracer's hooks around it,
  /// or hands it back untouched when both are off. Every engine factory
  /// above goes through it (Askfor<T> calls it on its monitor), so
  /// construct bodies never test sentry() or tracer().
  std::unique_ptr<BarrierAlgorithm> observed(
      std::unique_ptr<BarrierAlgorithm> barrier);
  std::unique_ptr<machdep::DoallSite> observed(
      std::unique_ptr<machdep::DoallSite> site);
  std::unique_ptr<machdep::AskforRing> observed(
      std::unique_ptr<machdep::AskforRing> ring);

  /// Per-process deterministic RNG substream.
  [[nodiscard]] util::Xoshiro256 rng_for(int proc0) const;

  /// The execution tracer, or null when tracing is disabled.
  [[nodiscard]] util::Tracer* tracer() { return tracer_.get(); }

  /// The sentry, or null when validation is disabled.
  [[nodiscard]] Sentry* sentry() { return sentry_.get(); }

 private:
  ForceConfig config_;
  std::unique_ptr<machdep::MachineModel> machine_;
  std::unique_ptr<machdep::SharedArena> arena_;
  std::unique_ptr<machdep::PrivateSpace> private_;
  machdep::LinkageRegistry linkage_;
  SiteTable sites_;
  RuntimeStats stats_;
  std::unique_ptr<util::Tracer> tracer_;
  /// Must outlive every ObservedLock handed out by new_lock(role, label);
  /// declared before global_barrier_ (whose locks reference it) and
  /// destroyed after it.
  std::unique_ptr<Sentry> sentry_;
  machdep::ProcessModel model_ = machdep::ProcessModel::kThread;
  /// ForceConfig::dispatch, ::cluster_transport and ::barrier_algorithm,
  /// parsed once (::machine resolves to the MachineSpec behind machine_).
  enum class Dispatch { kAuto, kLocked };
  Dispatch dispatch_ = Dispatch::kAuto;
  BarrierKind barrier_kind_{};  // set by the constructor
  machdep::net::Transport transport_ = machdep::net::Transport::kUnix;
  /// The selected substrate. Declared after machine_ and arena_ (which it
  /// references) so it is destroyed first; it owns the pooled teams, whose
  /// resident fork children still reference the MAP_SHARED arena while
  /// they park.
  std::unique_ptr<machdep::ExecutionBackend> backend_;
  /// backend_->word_arena(), asked once, and how its words are waited on.
  machdep::SharedArena* word_arena_ = nullptr;
  machdep::WordScope word_scope_ = machdep::WordScope::kPrivate;
  std::unique_ptr<BarrierAlgorithm> global_barrier_;
  /// The placed generation word (children's copies of this object are
  /// COW-frozen at fork time; an arena word is live).
  machdep::PlacedWords<std::atomic<std::uint32_t>> run_generation_;
};

}  // namespace force::core
