// ExecutionBackend implementations: the one place that knows how each
// process substrate realizes the Force's constructs. ThreadBackend and
// ShmBackend hand out no construct engines - both run the constructs'
// in-process expansions, ShmBackend with their words placed in its
// MAP_SHARED arena - and ClusterBackend turns every construct into a
// coordinator RPC.
#include "machdep/backend.hpp"

#include "machdep/arena.hpp"
#include "machdep/cluster.hpp"
#include "machdep/forkteam.hpp"
#include "machdep/machine.hpp"
#include "machdep/shm.hpp"
#include "machdep/teampool.hpp"
#include "util/check.hpp"

namespace force::machdep {

// ---------------------------------------------------------------------------
// Process model names and parsing.
// ---------------------------------------------------------------------------

const char* process_model_name(ProcessModel model) {
  switch (model) {
    case ProcessModel::kThread:
      return "thread";
    case ProcessModel::kOsFork:
      return "os-fork";
    case ProcessModel::kCluster:
      return "cluster";
  }
  return "?";
}

const std::vector<ProcessModel>& all_process_models() {
  static const std::vector<ProcessModel> kModels = {
      ProcessModel::kThread, ProcessModel::kOsFork, ProcessModel::kCluster};
  return kModels;
}

bool parse_process_model(const std::string& text, ProcessModel* out) {
  if (text == "machine" || text == "thread") {
    *out = ProcessModel::kThread;
    return true;
  }
  if (text == "os-fork") {
    *out = ProcessModel::kOsFork;
    return true;
  }
  if (text == "cluster") {
    *out = ProcessModel::kCluster;
    return true;
  }
  return false;
}

const char* process_model_valid_set() {
  return "'machine' (alias 'thread'), 'os-fork' or 'cluster'";
}

// ---------------------------------------------------------------------------
// The capability table: the single source of truth for backend narrowing.
// ---------------------------------------------------------------------------

const std::vector<CapabilityRow>& capability_table() {
  // Columns: cap, id, construct, thread, os-fork, cluster, reason.
  static const std::vector<CapabilityRow> kTable = {
      {Capability::kResolve, "resolve", "Resolve", true, true, false,
       "a cluster selfsched site takes its width and home blocks from the "
       "whole peer team, so a selfsched loop inside a component would never "
       "re-open"},
      {Capability::kSentry, "sentry", "the runtime sentry", true, false,
       false,
       "the sentry cannot observe a separate-address-space team (its state "
       "is per-process); validate on a thread-emulated process model"},
      {Capability::kTrace, "trace", "event tracing", true, false, false,
       "tracing is per-address-space; the os-fork and cluster backends "
       "cannot collect child events"},
      {Capability::kTeamPool, "team-pool", "persistent team pools", true,
       true, false,
       "each cluster run forks a fresh socket-connected team"},
      {Capability::kNmScheduling, "nm-scheduling", "N:M member scheduling",
       true, false, false,
       "the os-fork pool keeps one resident child per member and the "
       "cluster backend forks one peer per member"},
      {Capability::kNonTrivialPayloads, "non-trivial-payloads",
       "non-trivially-copyable payloads", true, false, false,
       "payloads that are not trivially copyable cannot cross address "
       "spaces or the wire by memcpy"},
      {Capability::kIsfull, "isfull", "Isfull", true, true, false,
       "the full/empty state lives in the coordinator, so any snapshot "
       "would be stale by the time it arrived"},
  };
  return kTable;
}

const CapabilityRow& capability_row(Capability cap) {
  for (const CapabilityRow& row : capability_table()) {
    if (row.cap == cap) return row;
  }
  FORCE_CHECK(false, "capability missing from capability_table()");
}

bool backend_supports(ProcessModel model, Capability cap) {
  const CapabilityRow& row = capability_row(cap);
  switch (model) {
    case ProcessModel::kThread:
      return row.thread;
    case ProcessModel::kOsFork:
      return row.os_fork;
    case ProcessModel::kCluster:
      return row.cluster;
  }
  return false;
}

std::string capability_reject_message(ProcessModel model, Capability cap,
                                      const std::string& construct,
                                      const std::string& site) {
  const CapabilityRow& row = capability_row(cap);
  std::string msg = construct;
  if (!site.empty()) {
    msg += " at '";
    msg += site;
    msg += "'";
  }
  msg += " is not supported under the ";
  msg += process_model_name(model);
  msg += " backend [capability ";
  msg += row.id;
  msg += "]: ";
  msg += row.reason;
  return msg;
}

std::string capability_matrix_markdown() {
  std::string out =
      "| capability | construct | thread | os-fork | cluster |\n"
      "|---|---|---|---|---|\n";
  const auto cell = [](bool yes) { return yes ? "yes" : "no"; };
  for (const CapabilityRow& row : capability_table()) {
    out += "| `";
    out += row.id;
    out += "` | ";
    out += row.construct;
    out += " | ";
    out += cell(row.thread);
    out += " | ";
    out += cell(row.os_fork);
    out += " | ";
    out += cell(row.cluster);
    out += " |\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// ExecutionBackend base defaults.
// ---------------------------------------------------------------------------

std::unique_ptr<DoallSite> ExecutionBackend::make_doall_site(
    const std::string& /*site*/, int /*width*/) {
  return nullptr;
}

std::unique_ptr<AskforRing> ExecutionBackend::make_askfor_ring(
    const std::string& /*key*/, std::size_t /*task_bytes*/) {
  return nullptr;
}

std::unique_ptr<AsyncCell> ExecutionBackend::make_async_cell(
    const std::string& /*label*/, std::size_t /*payload_bytes*/) {
  return nullptr;
}

std::unique_ptr<BarrierEngine> ExecutionBackend::make_team_barrier(
    int /*width*/, const std::string& /*key*/) {
  return nullptr;
}

SharedArena* ExecutionBackend::word_arena() { return nullptr; }

ForkTeam& ExecutionBackend::fork_pool(int /*nproc*/) {
  FORCE_CHECK(false, "the fork team needs process_model = \"os-fork\"");
}

namespace {

// ---------------------------------------------------------------------------
// ThreadBackend: machine-model locks and teams; the constructs run their
// in-process expansions over words in their own objects.
// ---------------------------------------------------------------------------

class ThreadBackend final : public ExecutionBackend {
 public:
  explicit ThreadBackend(const BackendInit& init)
      : machine_(init.machine),
        team_pool_enabled_(init.team_pool),
        pool_workers_(init.pool_workers),
        member_stack_bytes_(init.member_stack_bytes) {}

  [[nodiscard]] ProcessModel model() const override {
    return ProcessModel::kThread;
  }

  [[nodiscard]] std::unique_ptr<BasicLock> new_lock(
      const std::string& /*label*/) override {
    return machine_->new_lock();
  }

  SpawnStats run_team(int nproc, PrivateSpace* space,
                      const std::function<void(int)>& member,
                      const std::type_info* /*program_type*/) override {
    if (!team_pool_enabled_) {
      return machine_->process_team().run(nproc, space, member);
    }
    if (space != nullptr) {
      // Same fork-time copy semantics as the one-shot team; the pool only
      // changes who executes the members, not what they inherit.
      space->materialize(nproc,
                         init_mode_for(machine_->process_team().kind()));
    }
    SpawnStats stats = team_pool().run(nproc, member);
    if (space != nullptr) stats.bytes_copied = space->bytes_copied();
    return stats;
  }

 private:
  /// The persistent thread team, created (its workers parked) on first use.
  TeamPool& team_pool() {
    if (team_pool_ == nullptr) {
      team_pool_ =
          std::make_unique<TeamPool>(pool_workers_, member_stack_bytes_);
    }
    return *team_pool_;
  }

  MachineModel* machine_;
  bool team_pool_enabled_;
  int pool_workers_;
  std::size_t member_stack_bytes_;
  std::unique_ptr<TeamPool> team_pool_;
};

// ---------------------------------------------------------------------------
// ShmBackend: fork(2) children over the MAP_SHARED arena.
// ---------------------------------------------------------------------------

class ShmBackend final : public ExecutionBackend {
 public:
  explicit ShmBackend(const BackendInit& init)
      : arena_(init.arena), team_pool_enabled_(init.team_pool) {}

  [[nodiscard]] ProcessModel model() const override {
    return ProcessModel::kOsFork;
  }

  [[nodiscard]] SharedArena* word_arena() override { return arena_; }

  [[nodiscard]] std::unique_ptr<BasicLock> new_lock(
      const std::string& label) override {
    // One futex word in the MAP_SHARED arena, keyed by the construct
    // label. Labels are construct-unique (critical sections embed their
    // site key, named locks their name), so every process that reaches
    // the same construct contends on the same word.
    auto* word =
        &arena_->get_or_create<std::atomic<std::uint32_t>>("%lock/" + label);
    return std::make_unique<shm::ShmLock>(word, label);
  }

  SpawnStats run_team(int nproc, PrivateSpace* space,
                      const std::function<void(int)>& member,
                      const std::type_info* program_type) override {
    ForkTeam& team = fork_pool(nproc);
    // Resident children re-execute the closure they were forked with, so
    // every pooled run must pass the same program. The closure's type is
    // the strongest identity available on a std::function; same-type
    // closures with different captured state cannot be told apart
    // (docs/PORTING.md spells out the contract).
    if (team.armed()) {
      FORCE_CHECK(pooled_program_type_ != nullptr &&
                      program_type != nullptr &&
                      *pooled_program_type_ == *program_type,
                  "an os-fork team pool runs one program: its resident "
                  "children re-execute the closure they were forked with; "
                  "use a fresh Force (or team_pool = false) for a "
                  "different program");
    }
    SpawnStats stats;
    try {
      stats = team.run(space, member);
    } catch (const ProcessDeathError&) {
      // The team is already retired; the dead one left the arena's
      // synchronization words wherever the victims stood. Scrub them now
      // so the fresh team the next run forks starts from a clean slate.
      reset_shared_sync_after_death();
      throw;
    }
    pooled_program_type_ = program_type;
    return stats;
  }

  [[nodiscard]] ForkTeam& fork_pool(int nproc) override {
    if (fork_team_ != nullptr && fork_team_->nproc() != nproc) {
      fork_team_.reset();  // retires the resident children
    }
    if (fork_team_ == nullptr) {
      fork_team_ = std::make_unique<ForkTeam>(nproc, team_pool_enabled_);
    }
    return *fork_team_;
  }

 private:
  /// Scrubs every process-shared synchronization blob in the arena after
  /// a team died mid-protocol: lock words freed, barrier arrival counts
  /// zeroed, askfor monitors and selfsched episodes re-initialized, busy
  /// async cells emptied. The victims left that state wherever they stood
  /// (a dead champion never publishes its episode), so the fresh team the
  /// next run forks must not inherit it. User data - shared variables,
  /// full async payloads - is untouched. Runs with no team alive (after
  /// the join, or between pool retirement and respawn).
  void reset_shared_sync_after_death() {
    arena_->for_each_allocation([](const std::string& name, void* addr,
                                   std::size_t) {
      const auto prefixed = [&name](const char* p) {
        return name.rfind(p, 0) == 0;
      };
      if (prefixed(kBarrierWords)) {
        // Arrival count of a keyed barrier: the victims' arrivals can
        // never complete. The episode word stays monotonic (arrivals read
        // it fresh), so zeroing the count alone re-arms the episode.
        static_cast<EpisodeBarrier*>(addr)->count.store(
            0, std::memory_order_release);
      } else if (prefixed("%lock/")) {
        static_cast<std::atomic<std::uint32_t>*>(addr)->store(
            0, std::memory_order_release);
      } else if (prefixed(kDoallWords)) {
        // The victims' arrivals and departures sit in the gate word: clear
        // it so the next episode opens fresh, and its opener re-arms the
        // dispatch words (cleared too, for a clean slate: a victim's home
        // block may still hold unrun trips).
        auto* w = static_cast<DoallWords*>(addr);
        w->gate.store(0, std::memory_order_release);
        w->dispatch.shared.store(0, std::memory_order_release);
        for (DispatchBlock& b : w->dispatch.blocks) {
          b.next.store(0, std::memory_order_release);
          b.end = 0;
        }
      } else if (prefixed(kAskforWords)) {
        // The victims' credits and slots can never be returned, and their
        // records died with them: clear the counters, the central ring and
        // every slot's claim and credit, and go back to "never armed", so
        // the next entry's first operation runs the full re-arm (which
        // also empties the deques).
        auto* w = static_cast<AskforWords*>(addr);
        w->inflight.store(0, std::memory_order_release);
        w->central_count.store(0, std::memory_order_release);
        w->working = 0;
        w->ring_head = w->ring_tail;
        w->ended.store(false, std::memory_order_release);
        w->probend.store(false, std::memory_order_release);
        for (std::uint32_t i = 0; i < w->nslots; ++i) {
          w->slot(i).taken.store(false, std::memory_order_release);
          w->slot(i).credit = false;
        }
        w->seen_generation.store(0, std::memory_order_release);
      } else if (prefixed(kAsyncWords)) {
        // Busy means a victim died inside the payload window and the bytes
        // are undefined: drop to empty. Full cells are user data and stay.
        std::uint32_t busy = kCellBusy;
        static_cast<std::atomic<std::uint32_t>*>(addr)
            ->compare_exchange_strong(busy, kCellEmpty,
                                      std::memory_order_acq_rel);
      }
    });
  }

  SharedArena* arena_;
  bool team_pool_enabled_;
  std::unique_ptr<ForkTeam> fork_team_;
  const std::type_info* pooled_program_type_ = nullptr;
};

// ---------------------------------------------------------------------------
// ClusterBackend: separate processes, every construct a coordinator RPC
// (its engines live in machdep/cluster.cpp beside the coordinator).
// ---------------------------------------------------------------------------

class ClusterBackend final : public ExecutionBackend {
 public:
  explicit ClusterBackend(const BackendInit& init)
      : arena_(init.arena), transport_(init.cluster_transport) {}

  [[nodiscard]] ProcessModel model() const override {
    return ProcessModel::kCluster;
  }

  [[nodiscard]] std::unique_ptr<DoallSite> make_doall_site(
      const std::string& site, int /*width*/) override {
    return cluster::make_doall_site(site);
  }

  [[nodiscard]] std::unique_ptr<AskforRing> make_askfor_ring(
      const std::string& key, std::size_t task_bytes) override {
    return cluster::make_askfor_ring(key, task_bytes);
  }

  [[nodiscard]] std::unique_ptr<AsyncCell> make_async_cell(
      const std::string& label, std::size_t payload_bytes) override {
    return cluster::make_async_cell(label, payload_bytes);
  }

  [[nodiscard]] std::unique_ptr<BarrierEngine> make_team_barrier(
      int width, const std::string& key) override {
    return cluster::make_team_barrier(width, key);
  }

  [[nodiscard]] std::unique_ptr<BasicLock> new_lock(
      const std::string& label) override {
    // One keyed lock cell on the coordinator. Same label discipline as
    // the shm backend: construct-unique labels mean every member contends
    // on the same coordinator cell.
    return cluster::make_lock(label);
  }

  SpawnStats run_team(int nproc, PrivateSpace* space,
                      const std::function<void(int)>& member,
                      const std::type_info* /*program_type*/) override {
    // The cluster team reads its arena and transport through the installed
    // runtime config (ProcessTeam::run's signature carries neither); the
    // scope guarantees no dangling arena pointer survives this run.
    cluster::ScopedRuntimeConfig cfg({arena_, transport_});
    return ProcessTeam(ProcessModelKind::kCluster).run(nproc, space, member);
  }

 private:
  SharedArena* arena_;
  net::Transport transport_;
};

}  // namespace

std::unique_ptr<ExecutionBackend> make_execution_backend(
    ProcessModel model, const BackendInit& init) {
  FORCE_CHECK(init.machine != nullptr && init.arena != nullptr,
              "BackendInit needs the machine model and the arena");
  switch (model) {
    case ProcessModel::kThread:
      return std::make_unique<ThreadBackend>(init);
    case ProcessModel::kOsFork:
      return std::make_unique<ShmBackend>(init);
    case ProcessModel::kCluster:
      return std::make_unique<ClusterBackend>(init);
  }
  FORCE_CHECK(false, "unreachable process model");
}

}  // namespace force::machdep
