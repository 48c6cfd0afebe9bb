// The Force driver and per-process context (paper §3, §4.1.1).
//
// A Force program has a *global parallelism* execution model: it is written
// assuming a force of processes executes all of it, SPMD style. The driver
// (class Force) creates the processes at program start with the machine
// model's creation semantics and joins them at the end (the Join
// statement). Work is never assigned to specific processes by the
// programmer; it is distributed over the whole force by the constructs
// exposed on Ctx.
//
//   force::Force f({.nproc = 8, .machine = "encore"});
//   f.run([&](force::core::Ctx& ctx) {
//     ctx.selfsched_do(FORCE_SITE, 1, n, 1, [&](long i) { ... });
//     ctx.barrier([&] { ...one process... });
//     ctx.critical(FORCE_SITE, [&] { ... });
//   });                                    // Join implied
//
// Ctx::me() is 1-based like the Force's process number; every construct
// that needs shared state takes a FORCE_SITE token, the library analogue
// of the preprocessor's statically generated shared variables.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <typeinfo>
#include <vector>

#include "core/askfor.hpp"
#include "core/async.hpp"
#include "core/barrier.hpp"
#include "core/critical.hpp"
#include "core/doall.hpp"
#include "core/env.hpp"
#include "core/module.hpp"
#include "core/pcase.hpp"
#include "core/reduce.hpp"
#include "core/resolve.hpp"
#include "core/sentry.hpp"
#include "core/site.hpp"
#include "machdep/process.hpp"
#include "util/rng.hpp"
#include "util/timing.hpp"
#include "util/trace.hpp"

namespace force::core {

class Force;
class ResolveBuilder;

/// Per-process view of the running force. Created by the driver (or by
/// Resolve for component sub-teams); cheap to copy around by reference.
class Ctx {
 public:
  /// Process number, 1..np (Fortran convention, like the Force's ME).
  [[nodiscard]] int me() const { return me0_ + 1; }
  /// 0-based process index.
  [[nodiscard]] int me0() const { return me0_; }
  /// Team size (the Force's NP). Programs should treat this as opaque.
  [[nodiscard]] int np() const { return np_; }
  [[nodiscard]] ForceEnvironment& env() const { return *env_; }
  /// True on exactly one process of the team (process 1).
  [[nodiscard]] bool leader() const { return me0_ == 0; }

  // --- synchronization ----------------------------------------------------

  /// Barrier over this team, optionally with a barrier section: one
  /// arbitrary process executes `section` while the others are suspended
  /// (paper §3.4).
  void barrier(const std::function<void()>& section =
                   BarrierAlgorithm::no_section()) {
    team_barrier_->arrive(me0_, section);
    if (me0_ == 0) {
      env_->stats().barrier_episodes.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// Critical section at `site`: mutual exclusion among the whole force.
  void critical(const Site& site, const std::function<void()>& body) {
    critical_section(site).enter(body);
  }
  /// The underlying section object (for RAII-style Guard use).
  CriticalSection& critical_section(const Site& site) {
    return state<CriticalSection>(site, "%crit", [this, &site] {
      return std::make_unique<CriticalSection>(*env_,
                                               "critical@" + site.key());
    });
  }

  // --- work distribution ----------------------------------------------------

  /// Prescheduled DO: iteration k to process k mod np; no shared state.
  void presched_do(std::int64_t start, std::int64_t last, std::int64_t incr,
                   const std::function<void(std::int64_t)>& body) const {
    core::presched_do(me0_, np_, start, last, incr, body);
  }

  /// Prescheduled doubly nested DO over index pairs.
  void presched_do2(std::int64_t i_start, std::int64_t i_last,
                    std::int64_t i_incr, std::int64_t j_start,
                    std::int64_t j_last, std::int64_t j_incr,
                    const std::function<void(std::int64_t, std::int64_t)>&
                        body) const {
    core::presched_do2(me0_, np_, i_start, i_last, i_incr, j_start, j_last,
                       j_incr, body);
  }

  /// Selfscheduled DO (paper's macro expansion); `chunk` > 1 is the
  /// chunked-selfscheduling extension.
  void selfsched_do(const Site& site, std::int64_t start, std::int64_t last,
                    std::int64_t incr,
                    const std::function<void(std::int64_t)>& body,
                    std::int64_t chunk = 1) {
    selfsched_loop(site).run(me0_, start, last, incr, body, chunk);
  }

  /// Guided selfscheduled DO (extension; decreasing chunk sizes).
  void guided_do(const Site& site, std::int64_t start, std::int64_t last,
                 std::int64_t incr,
                 const std::function<void(std::int64_t)>& body) {
    selfsched_loop(site).run_guided(me0_, start, last, incr, body);
  }

  /// Selfscheduled doubly nested DO over index pairs.
  void selfsched_do2(
      const Site& site, std::int64_t i_start, std::int64_t i_last,
      std::int64_t i_incr, std::int64_t j_start, std::int64_t j_last,
      std::int64_t j_incr,
      const std::function<void(std::int64_t, std::int64_t)>& body,
      std::int64_t chunk = 1) {
    auto& loop = state<Selfsched2Loop>(site, "%ss2", [this, &site] {
      return std::make_unique<Selfsched2Loop>(*env_, np_,
                                              site_key(site) + "#2");
    });
    loop.run(me0_, i_start, i_last, i_incr, j_start, j_last, j_incr, body,
             chunk);
  }

  /// Pcase builder for distinct code blocks (paper §3.3).
  [[nodiscard]] PcaseBuilder pcase(const Site& site) {
    env_->require(machdep::Capability::kPcase, "Pcase", site_key(site));
    return PcaseBuilder(*env_, me0_, np_, site_key(site));
  }

  /// The Askfor monitor at `site` (paper §3.3, [LO83]).
  template <typename T>
  [[nodiscard]] Askfor<T>& askfor(const Site& site) {
    return state<Askfor<T>>(site, "%askfor", [this, &site] {
      return std::make_unique<Askfor<T>>(*env_, site_key(site));
    });
  }

  /// Named Askfor monitor: dialect Askfor blocks and their Seedwork
  /// statements can be textually far apart, so the monitor is addressed by
  /// label rather than by source location.
  template <typename T>
  [[nodiscard]] Askfor<T>& askfor_named(const std::string& name) {
    const std::string key =
        (ns_.empty() ? name : ns_ + "/" + name) + "%askforvar";
    return env_->sites().get_or_create<Askfor<T>>(
        key, [this, &key] { return std::make_unique<Askfor<T>>(*env_, key); });
  }

  /// Resolve: partition the force into weighted components (paper §3.3,
  /// implemented extension). See ResolveBuilder below.
  [[nodiscard]] ResolveBuilder resolve(const Site& site);

  /// Allreduce over the team: contributes `local`, returns the combined
  /// value to every process. Packages the Force's "private partial +
  /// critical + barrier" idiom as one barrier episode: the partials are
  /// folded left in member order (process 0 first), so any `combine` gives
  /// the same bits on every run and every backend.
  template <typename T>
  T reduce(const Site& site, const T& local,
           const std::function<T(T, T)>& combine) {
    return reduction<T>(site).allreduce(me0_, local, combine);
  }

  /// Like reduce(), but also stores the result into a *shared* variable at
  /// the construct's single-writer point, the barrier section (race-free;
  /// visible to every process when reduce_into returns). The dialect's
  /// Reduce statement compiles to this.
  template <typename T>
  T reduce_into(const Site& site, const T& local, T& shared_target,
                const std::function<T(T, T)>& combine) {
    return reduction<T>(site).allreduce(me0_, local, combine,
                                        &shared_target);
  }

  /// A raw named lock: the paper's low-level define_lock / lock / unlock
  /// macros surfaced (the dialect's Lock/Unlock statements compile to
  /// this). Binary-semaphore semantics; prefer critical() in new code.
  [[nodiscard]] machdep::BasicLock& named_lock(const std::string& name) {
    struct Holder {
      std::unique_ptr<machdep::BasicLock> lock;
    };
    const std::string key =
        (ns_.empty() ? name : ns_ + "/" + name) + "%rawlock";
    auto& holder = env_->sites().get_or_create<Holder>(key, [this, &name] {
      auto h = std::make_unique<Holder>();
      h->lock = env_->new_lock(machdep::LockRole::kMutex, "lock '" + name + "'");
      return h;
    });
    return *holder.lock;
  }

  // --- validation -----------------------------------------------------------

  /// Annotates a read of a shared location for the sentry's race detector
  /// (no-op unless ForceConfig::sentry). `site` is report provenance.
  void note_read(const Site& site, const void* addr) {
    if (Sentry* sn = env_->sentry()) sn->on_access(addr, false, site.key());
  }
  /// Annotates a write of a shared location for the sentry's race detector.
  void note_write(const Site& site, const void* addr) {
    if (Sentry* sn = env_->sentry()) sn->on_access(addr, true, site.key());
  }

  // --- variables ------------------------------------------------------------

  /// Named shared variable in the machine's shared arena (Force `Shared`);
  /// default-constructed once, same object for every process.
  template <typename T>
  [[nodiscard]] T& shared(const std::string& name) {
    const std::string key = ns_.empty() ? name : ns_ + "/" + name;
    T& ref = env_->arena().get_or_create<T>(key, machdep::VarClass::kShared);
    if (Sentry* sn = env_->sentry()) sn->track_range(&ref, sizeof(T), key);
    return ref;
  }

  /// Asynchronous variable at `site` (Force `Async`), with
  /// produce/consume/void/isfull semantics.
  template <typename T>
  [[nodiscard]] Async<T>& async_var(const Site& site) {
    return state<Async<T>>(site, "%async", [this, &site] {
      return std::make_unique<Async<T>>(*env_, "async@" + site.key());
    });
  }

  /// Named asynchronous variable (Force `Async real V` declarations;
  /// preprocessor-generated code binds async variables by name).
  template <typename T>
  [[nodiscard]] Async<T>& async_named(const std::string& name) {
    const std::string key =
        (ns_.empty() ? name : ns_ + "/" + name) + "%asyncvar";
    return env_->sites().get_or_create<Async<T>>(key, [this, &name] {
      return std::make_unique<Async<T>>(*env_, "async '" + name + "'");
    });
  }

  /// Array of async variables at `site` (Force `Async real A(n)`). All
  /// processes must request the same size.
  template <typename T>
  [[nodiscard]] AsyncArray<T>& async_array(const Site& site, std::size_t n) {
    auto& arr = state<AsyncArray<T>>(site, "%asyncarr", [this, n, &site] {
      return std::make_unique<AsyncArray<T>>(*env_, n,
                                             "async@" + site.key());
    });
    FORCE_CHECK(arr.size() == n, "async array size disagrees across processes");
    return arr;
  }

  // --- misc -----------------------------------------------------------------

  /// Deterministic per-process RNG substream.
  [[nodiscard]] util::Xoshiro256& rng() { return rng_; }

  /// Forcecall: run a registered parallel subroutine on the whole team.
  void call(const std::string& subroutine);

  /// Namespaced key for `site` (component-qualified inside Resolve).
  [[nodiscard]] std::string site_key(const Site& site) const {
    return namespaced_site_key(ns_, site);
  }

  /// Shared construct state addressed by site (advanced; the typed
  /// accessors above are the normal interface).
  template <typename T>
  T& state(const Site& site, const char* kind,
           std::function<std::unique_ptr<T>()> factory) {
    return env_->sites().get_or_create<T>(site_key(site) + kind,
                                          std::move(factory));
  }

 private:
  friend class Force;
  friend class ResolveBuilder;

  Ctx(ForceEnvironment* env, const SubroutineRegistry* subs, int me0, int np,
      std::string ns, BarrierAlgorithm* team_barrier)
      : env_(env),
        subs_(subs),
        me0_(me0),
        np_(np),
        ns_(std::move(ns)),
        team_barrier_(team_barrier),
        rng_(env->rng_for(me0)) {}

  template <typename T>
  Reduction<T>& reduction(const Site& site) {
    return state<Reduction<T>>(site, "%reduce", [this, &site] {
      return std::make_unique<Reduction<T>>(*env_, np_, site_key(site));
    });
  }

  SelfschedLoop& selfsched_loop(const Site& site) {
    auto& loop = state<SelfschedLoop>(site, "%ssdo", [this, &site] {
      return std::make_unique<SelfschedLoop>(*env_, np_, site_key(site));
    });
    FORCE_CHECK(loop.width() == np_,
                "selfsched site reused from a team of different width");
    return loop;
  }

  ForceEnvironment* env_;
  const SubroutineRegistry* subs_;
  int me0_;
  int np_;
  std::string ns_;  // site namespace ("" for the root force)
  BarrierAlgorithm* team_barrier_;
  util::Xoshiro256 rng_;
};

/// Builder for a Resolve construct; collects weighted components, then
/// partitions the team and runs each component on its subset. Concludes
/// with a team-wide join barrier.
class ResolveBuilder {
 public:
  ResolveBuilder& component(std::string name, int weight,
                            std::function<void(Ctx&)> body);
  /// Executes; every process of the team must call run() (SPMD).
  void run();

 private:
  friend class Ctx;
  ResolveBuilder(Ctx& parent, std::string site_key)
      : parent_(parent), site_key_(std::move(site_key)) {}

  struct Component {
    std::string name;
    int weight;
    std::function<void(Ctx&)> body;
  };
  Ctx& parent_;
  std::string site_key_;
  std::vector<Component> components_;
};

/// The Force program driver: owns the environment, creates the force of
/// processes per the machine model, runs the program, joins (the Join
/// statement), and surfaces the first exception any process threw.
class Force {
 public:
  explicit Force(ForceConfig config = {});

  [[nodiscard]] ForceEnvironment& env() { return *env_; }
  [[nodiscard]] SubroutineRegistry& subroutines() { return subs_; }
  [[nodiscard]] int nproc() const { return env_->nproc(); }

  /// Declares a shared variable before the force starts (the role of a
  /// module's startup routine); useful to initialize shared data that
  /// fork-model machines must see before process creation.
  template <typename T>
  T& shared(const std::string& name) {
    return env_->arena().get_or_create<T>(name, machdep::VarClass::kShared);
  }

  /// Handle to initialize a private variable before the run: under the
  /// fork models children inherit this value, under HEP-create they see a
  /// default-constructed one. See core/privatevar.hpp.
  [[nodiscard]] machdep::PrivateSpace& private_space() {
    return env_->private_space();
  }

  /// Runs `program` on the whole force and joins. May be called multiple
  /// times; startup routines and private-space materialization happen on
  /// the first run only (one driver, one force - repeated runs reuse it).
  machdep::SpawnStats run(const std::function<void(Ctx&)>& program);

  /// Total creation/join statistics accumulated over all run() calls.
  [[nodiscard]] const machdep::SpawnStats& lifetime_stats() const {
    return lifetime_;
  }

 private:
  std::unique_ptr<ForceEnvironment> env_;
  SubroutineRegistry subs_;
  bool started_ = false;
  machdep::SpawnStats lifetime_;
  /// Arena placement generation whose allocations the sentry has already
  /// tracked; pooled re-entry skips the per-run range walk when nothing
  /// new was placed.
  std::uint64_t tracked_arena_generation_ = ~std::uint64_t{0};
};

}  // namespace force::core

namespace force {
// Convenience aliases: the public API most programs touch.
using core::Ctx;
using core::Force;
using core::ForceConfig;
}  // namespace force
