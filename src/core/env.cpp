#include "core/env.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>

#include "core/barrier.hpp"
#include "core/sentry.hpp"
#include "util/check.hpp"

namespace force::core {

namespace {

// Environment-variable fallbacks let the whole existing test suite run
// under validation (FORCE_SENTRY=1 ctest ...) without touching each test.
// Explicit ForceConfig settings win; the variables only ever turn things on.
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::strtoull(v, nullptr, 10);
}

void apply_env_overrides(ForceConfig& config, machdep::ProcessModel model) {
  if (!config.sentry && env_u64("FORCE_SENTRY", 0) != 0) config.sentry = true;
  if (config.schedule_fuzz == 0) {
    config.schedule_fuzz = env_u64("FORCE_SCHEDULE_FUZZ", 0);
  }
  if (config.schedule_fuzz != 0) config.sentry = true;
  const std::uint64_t stall = env_u64("FORCE_SENTRY_STALL_MS", 0);
  if (stall != 0) config.sentry_stall_ms = static_cast<int>(stall);
  if (!config.team_pool && env_u64("FORCE_TEAM_POOL", 0) != 0) {
    config.team_pool = true;
  }
  if (config.pool_workers == 0) {
    const std::uint64_t workers = env_u64("FORCE_POOL_WORKERS", 0);
    FORCE_CHECK(workers <= INT_MAX,
                "FORCE_POOL_WORKERS=" + std::to_string(workers) +
                    " is out of range (at most " + std::to_string(INT_MAX) +
                    ")");
    // Env-var-driven N:M is dropped where the capability table says it
    // cannot work (os-fork and cluster fork one child per member), so
    // suite-wide pooled runs don't break the fork tests. Explicit configs
    // are validated in the constructor.
    if (machdep::backend_supports(model,
                                  machdep::Capability::kNmScheduling)) {
      config.pool_workers = static_cast<int>(workers);
    }
  }
  if (config.pool_workers > 0) config.team_pool = true;
  if (config.cluster_transport == "unix") {
    const char* t = std::getenv("FORCE_CLUSTER_TRANSPORT");
    if (t != nullptr && *t != '\0') config.cluster_transport = t;
  }
}

}  // namespace

void RuntimeStats::reset() {
  barrier_episodes.store(0, std::memory_order_relaxed);
  critical_entries.store(0, std::memory_order_relaxed);
  doall_iterations.store(0, std::memory_order_relaxed);
  doall_dispatches.store(0, std::memory_order_relaxed);
  produces.store(0, std::memory_order_relaxed);
  consumes.store(0, std::memory_order_relaxed);
  askfor_grants.store(0, std::memory_order_relaxed);
  pcase_blocks.store(0, std::memory_order_relaxed);
}

void ForceEnvironment::require(machdep::Capability cap,
                               const std::string& construct,
                               const std::string& site) const {
  FORCE_CHECK(machdep::backend_supports(model_, cap),
              machdep::capability_reject_message(model_, cap, construct,
                                                 site));
}

ForceEnvironment::ForceEnvironment(ForceConfig config)
    : config_(std::move(config)) {
  FORCE_CHECK(config_.nproc > 0, "ForceConfig::nproc must be positive");
  FORCE_CHECK(machdep::parse_process_model(config_.process_model, &model_),
              "ForceConfig::process_model '" + config_.process_model +
                  "' is not recognized; valid values: " +
                  machdep::process_model_valid_set());
  FORCE_CHECK(config_.pool_workers >= 0,
              "ForceConfig::pool_workers must be non-negative");
  if (config_.pool_workers > 0) {
    config_.team_pool = true;
    require(machdep::Capability::kNmScheduling, "N:M member scheduling", "");
    // Two members multiplexed on one OS thread defeat the sentry's
    // per-thread bookkeeping. Explicit configs are an error; the
    // FORCE_SENTRY family is dropped below, as for os-fork.
    FORCE_CHECK(!config_.sentry && config_.schedule_fuzz == 0,
                "the sentry cannot observe N:M pooled members (two members "
                "share one OS thread); validate with a 1:1 team");
  }
  if (config_.sentry || config_.schedule_fuzz != 0) {
    // The sentry keeps its state in ordinary (per-address-space) memory,
    // so it cannot see an os-fork or cluster team. Explicitly asking for
    // it is a configuration error; the FORCE_SENTRY family of environment
    // variables is dropped below instead, so suite-wide validation runs do
    // not break the fork/cluster tests.
    require(machdep::Capability::kSentry, "the runtime sentry", "");
  }
  if (config_.trace) {
    require(machdep::Capability::kTrace, "event tracing", "");
  }
  if (config_.team_pool) {
    require(machdep::Capability::kTeamPool, "persistent team pools", "");
  }
  // The FORCE_* variables apply before the values are parsed, so an
  // override is validated like an explicit setting - here, before any
  // thread or process starts.
  apply_env_overrides(config_, model_);
  FORCE_CHECK(config_.dispatch == "auto" || config_.dispatch == "locked",
              "ForceConfig::dispatch must be 'auto' or 'locked'");
  dispatch_ = config_.dispatch == "locked" ? Dispatch::kLocked
                                           : Dispatch::kAuto;
  FORCE_CHECK(parse_barrier_kind(config_.barrier_algorithm, &barrier_kind_),
              "ForceConfig::barrier_algorithm '" + config_.barrier_algorithm +
                  "' is not recognized; valid values: 'auto', 'paper-lock', "
                  "'central-sense', 'tree' or 'dissemination'");
  FORCE_CHECK(machdep::net::parse_transport(config_.cluster_transport,
                                            &transport_),
              "ForceConfig::cluster_transport (or FORCE_CLUSTER_TRANSPORT) '" +
                  config_.cluster_transport + "' must be 'unix' or 'tcp'");
  const machdep::MachineSpec& spec = machdep::machine_spec(config_.machine);
  machine_ = std::make_unique<machdep::MachineModel>(spec);
  arena_ = std::make_unique<machdep::SharedArena>(
      config_.arena_bytes, spec.page_size, spec.sharing,
      model_ == machdep::ProcessModel::kOsFork
          ? machdep::ArenaBacking::kSharedMapping
          : machdep::ArenaBacking::kPrivateHeap);
  private_ = std::make_unique<machdep::PrivateSpace>(
      config_.private_data_bytes, config_.private_stack_bytes);
  if (config_.trace) {
    tracer_ = std::make_unique<util::Tracer>(
        config_.nproc, config_.trace_events_per_process);
  }
  if (!supports(machdep::Capability::kSentry) && config_.sentry) {
    config_.sentry = false;  // env-var-driven; see the note above
    config_.schedule_fuzz = 0;
  }
  if (!supports(machdep::Capability::kTeamPool) && config_.team_pool) {
    config_.team_pool = false;  // env-var-driven (FORCE_TEAM_POOL); see above
    config_.pool_workers = 0;
  }
  if (config_.pool_workers > 0 && config_.sentry) {
    config_.sentry = false;  // env-var-driven; see the N:M note above
    config_.schedule_fuzz = 0;
  }
  if (config_.sentry) {
    Sentry::Options opts;
    opts.nproc = config_.nproc;
    opts.fuzz_seed = config_.schedule_fuzz;
    opts.stall_ms = config_.sentry_stall_ms;
    sentry_ = std::make_unique<Sentry>(opts);
  }
  machdep::BackendInit init;
  init.machine = machine_.get();
  init.arena = arena_.get();
  init.team_pool = config_.team_pool;
  init.pool_workers = pool_workers();
  init.member_stack_bytes = config_.private_stack_bytes;
  init.cluster_transport = transport_;
  backend_ = machdep::make_execution_backend(model_, init);
  word_arena_ = backend_->word_arena();
  if (word_arena_ != nullptr) word_scope_ = machdep::WordScope::kShared;
  run_generation_ = place_words<std::atomic<std::uint32_t>>("%force/run_gen");
  // Last: the barrier's locks may be ObservedLocks referencing sentry_.
  global_barrier_ = make_team_barrier(config_.nproc, "%force/global");
}

// Out of line so BarrierAlgorithm/Sentry can stay incomplete in the header.
ForceEnvironment::~ForceEnvironment() {
  // Surface validation findings even when the program never asked: a
  // sentry run that found something should not exit looking clean.
  if (sentry_ != nullptr && sentry_->total_reports() > 0) {
    std::fprintf(stderr, "[force.sentry] %zu finding(s) this run:\n",
                 sentry_->total_reports());
    for (const Sentry::Report& r : sentry_->reports()) {
      std::fprintf(stderr, "[force.sentry]   [%s] %s\n",
                   Sentry::report_kind_name(r.kind), r.what.c_str());
    }
  }
}

std::unique_ptr<machdep::BasicLock> ForceEnvironment::new_lock(
    machdep::LockRole role, std::string label) {
  return backend_->new_lock(role, label, sentry_.get());
}

machdep::ForkTeamPool& ForceEnvironment::fork_pool(int nproc) {
  return backend_->fork_pool(nproc);
}

std::uint32_t ForceEnvironment::run_generation() const {
  return run_generation_->load(std::memory_order_acquire);
}

void ForceEnvironment::begin_team_entry() {
  run_generation_->fetch_add(1, std::memory_order_acq_rel);
}

BarrierAlgorithm& ForceEnvironment::global_barrier() {
  return *global_barrier_;
}

std::unique_ptr<BarrierAlgorithm> ForceEnvironment::make_barrier(int width) {
  require(machdep::Capability::kThreadBarrierAlgorithms,
          "thread barrier algorithms", "");
  BarrierKind kind = barrier_kind_;
  if (kind == BarrierKind::kAuto) {
    kind = atomic_words() ? BarrierKind::kCentralSense
                          : BarrierKind::kPaperLock;
  }
  return observed(make_barrier_algorithm(kind, *this, width));
}

std::unique_ptr<BarrierAlgorithm> ForceEnvironment::make_barrier(
    int width, const std::string& algorithm) {
  require(machdep::Capability::kThreadBarrierAlgorithms,
          "thread barrier algorithms", "");
  return observed(make_barrier_algorithm(algorithm, *this, width));
}

std::unique_ptr<machdep::EpisodeGate> ForceEnvironment::new_episode_gate(
    int width, std::atomic<std::uint32_t>& word) {
  if (atomic_words()) {
    return std::make_unique<machdep::EpisodeGate>(width, word, word_scope_);
  }
  return std::make_unique<machdep::EpisodeGate>(
      width, new_lock(machdep::LockRole::kSemaphore, "doall.barwin"),
      new_lock(machdep::LockRole::kSemaphore, "doall.barwot"));
}

machdep::FullEmptyGate ForceEnvironment::new_full_empty_gate(
    const std::string& label, std::atomic<std::uint32_t>& cell) {
  const machdep::MachineSpec& spec = machine_->spec();
  if (spec.hardware_full_empty || word_arena_ != nullptr ||
      (atomic_words() && machdep::atomic_full_empty(spec))) {
    return machdep::FullEmptyGate(cell, word_scope_);
  }
  return machdep::FullEmptyGate(
      cell, new_lock(machdep::LockRole::kSemaphore, label + ".E"),
      new_lock(machdep::LockRole::kSemaphore, label + ".F"),
      new_lock(machdep::LockRole::kMutex, label + ".void"));
}

std::unique_ptr<BarrierAlgorithm> ForceEnvironment::make_team_barrier(
    int width, const std::string& key) {
  if (word_arena_ != nullptr) {
    return std::make_unique<CentralSenseBarrier>(
        width,
        place_words<machdep::EpisodeBarrier>(machdep::kBarrierWords + key),
        "barrier '" + key + "'");
  }
  std::unique_ptr<machdep::BarrierEngine> engine =
      backend_->make_team_barrier(width, key);
  if (engine == nullptr) return make_barrier(width);
  return std::make_unique<EngineBarrier>(width, std::move(engine));
}

std::unique_ptr<machdep::DoallSite> ForceEnvironment::make_doall_site(
    int width, const std::string& key) {
  FORCE_CHECK(width > 0, "selfsched loop width must be positive");
  if (auto remote = backend_->make_doall_site(key, width)) return remote;
  auto words = place_words<machdep::DoallWords>(machdep::kDoallWords + key);
  auto gate = new_episode_gate(width, words->gate);
  auto dispatch = new_dispatch_counter(width, words->dispatch);
  return observed(std::make_unique<machdep::GateDoallSite>(
      std::move(words), std::move(gate), std::move(dispatch),
      "selfsched '" + key + "'"));
}

util::Xoshiro256 ForceEnvironment::rng_for(int proc0) const {
  util::Xoshiro256 base(config_.seed);
  return base.substream(static_cast<unsigned>(proc0) + 1);
}

}  // namespace force::core
