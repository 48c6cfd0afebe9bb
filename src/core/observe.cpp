// The observer layer: the sentry and the tracer watch the constructs
// through decorators that ForceEnvironment puts around their engines when
// it builds them, and around the construct locks. With both off the
// engines and locks come back undecorated. Every thread barrier episode
// (team, Resolve component, Unify join, Reduce) runs the one protocol
// below, so each carries the same edges and spans. Events go to the ring
// of the member's driver index (machdep::this_member), not a component
// rank.
#include <vector>

#include "core/barrier.hpp"
#include "core/env.hpp"
#include "core/sentry.hpp"
#include "machdep/fiber.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"
#include "util/trace.hpp"

namespace force::core {

namespace {

using util::TraceKind;

/// The observers a decorator serves; either may be null.
struct Observers {
  Sentry* sentry;
  util::Tracer* tracer;

  void fuzz() const {
    if (sentry != nullptr) sentry->fuzz();
  }
  /// The calling member's trace ring.
  [[nodiscard]] int member() const {
    const int m = machdep::this_member();
    FORCE_CHECK(m >= 0 && m < tracer->nproc(),
                "a traced construct ran outside a force member");
    return m;
  }
  void span(TraceKind kind, std::int64_t begin_ns) const {
    if (tracer == nullptr) return;
    tracer->record(member(), kind, begin_ns, util::now_ns());
  }
};

/// Publish before arriving (publishing also fuzzes: a barrier word has no
/// lock hook to do it), join after the release. A section joins first, so
/// its accesses follow the previous episode's, and republishes while the
/// team is still parked, so every member's join orders them.
class ObservedBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  ObservedBarrier(std::unique_ptr<BarrierAlgorithm> inner, Observers obs)
      : inner_(std::move(inner)), obs_(obs) {}

  void arrive(int proc0, const std::function<void()>& section) override {
    const std::int64_t t0 = util::now_ns();
    edge(&Sentry::barrier_publish);
    if (has_section(section)) {
      inner_->arrive(proc0, [&] {
        edge(&Sentry::barrier_join);
        const std::int64_t s0 = util::now_ns();
        section();
        obs_.span(TraceKind::kSection, s0);
        edge(&Sentry::barrier_publish);
      });
    } else {
      inner_->arrive(proc0);
    }
    edge(&Sentry::barrier_join);
    obs_.span(TraceKind::kBarrier, t0);
  }
  const char* name() const override { return inner_->name(); }
  int width() const override { return inner_->width(); }

 private:
  void edge(void (Sentry::*hook)(const void*)) {
    if (obs_.sentry != nullptr) (obs_.sentry->*hook)(this);
  }

  std::unique_ptr<BarrierAlgorithm> inner_;
  Observers obs_;
};

/// Fuzz before the entry and every claim (the gate word and the lock-free
/// claim have no lock hook); trace each claim's first index as an instant
/// and the participation, entry to departure, as a span.
class ObservedDoallSite final : public machdep::DoallSite {
 public:
  ObservedDoallSite(std::unique_ptr<machdep::DoallSite> inner, Observers obs)
      : inner_(std::move(inner)),
        obs_(obs),
        runs_(obs.tracer != nullptr
                  ? static_cast<std::size_t>(obs.tracer->nproc())
                  : 0) {}

  machdep::DoallBounds enter(std::int64_t start, std::int64_t last,
                             std::int64_t incr, std::int64_t trips) override {
    obs_.fuzz();
    const machdep::DoallBounds bounds = inner_->enter(start, last, incr, trips);
    if (obs_.tracer != nullptr) run() = {util::now_ns(), start, incr};
    return bounds;
  }
  machdep::DispatchClaim claim(int me0, std::int64_t want,
                               std::int64_t limit) override {
    obs_.fuzz();
    return traced(inner_->claim(me0, want, limit));
  }
  machdep::DispatchClaim claim_fraction(int me0, std::int64_t limit,
                                        std::int64_t divisor) override {
    obs_.fuzz();
    return traced(inner_->claim_fraction(me0, limit, divisor));
  }
  void leave() override {
    if (obs_.tracer != nullptr) obs_.span(TraceKind::kLoopRun, run().begin_ns);
    inner_->leave();
  }

 private:
  /// One member's participation: its entry time, and the loop start and
  /// increment that turn a claimed trip into the traced index.
  struct alignas(64) Run {
    std::int64_t begin_ns, start, incr;
  };
  Run& run() { return runs_[static_cast<std::size_t>(obs_.member())]; }
  machdep::DispatchClaim traced(machdep::DispatchClaim c) {
    if (obs_.tracer != nullptr) {
      const Run& r = run();
      obs_.tracer->instant(obs_.member(), TraceKind::kLoopDispatch,
                           r.start + c.begin * r.incr);
    }
    return c;
  }

  std::unique_ptr<machdep::DoallSite> inner_;
  Observers obs_;
  std::vector<Run> runs_;  // indexed by member while tracing
};

/// Fuzz every put and every grant (the work-stealing fast path has no
/// lock hook).
class FuzzedAskforRing final : public machdep::AskforRing {
 public:
  FuzzedAskforRing(std::unique_ptr<machdep::AskforRing> inner, Sentry& sentry)
      : inner_(std::move(inner)), sentry_(sentry) {}

  void put(const void* task) override {
    sentry_.fuzz();
    inner_->put(task);
  }
  std::size_t work(void* task, const std::function<void()>& run) override {
    return inner_->work(task, [&] {
      sentry_.fuzz();
      run();
    });
  }
  void probend() override { inner_->probend(); }
  bool ended() const override { return inner_->ended(); }
  std::uint64_t granted() const override { return inner_->granted(); }

 private:
  std::unique_ptr<machdep::AskforRing> inner_;
  Sentry& sentry_;
};

/// A construct lock. Every acquire fuzzes; a mutex-role lock also feeds
/// the sentry's wait registry, locksets and order graph, with this
/// decorator's address as its logical identity. With a tracer (critical
/// sections only) each occupancy is one kCritical span, from the start of
/// the acquire (the wait included) to the release.
class ObservedLock final : public machdep::BasicLock {
 public:
  ObservedLock(std::unique_ptr<machdep::BasicLock> inner, Observers obs,
               LockRole role, std::string label)
      : inner_(std::move(inner)),
        obs_(obs),
        mutex_sentry_(role == LockRole::kMutex ? obs.sentry : nullptr),
        label_(std::move(label)) {}

  void acquire() override {
    const std::int64_t t0 = util::now_ns();
    std::uint64_t token = 0;
    if (mutex_sentry_ != nullptr) {
      token = mutex_sentry_->lock_acquire_begin(this, label_);
    } else {
      obs_.fuzz();
    }
    inner_->acquire();
    if (mutex_sentry_ != nullptr) {
      mutex_sentry_->lock_acquired(this, label_, token);
    }
    begin_ns_ = t0;
  }
  bool try_acquire() override {
    if (!inner_->try_acquire()) return false;
    if (mutex_sentry_ != nullptr) mutex_sentry_->lock_acquired(this, label_, 0);
    begin_ns_ = util::now_ns();
    return true;
  }
  void release() override {
    const std::int64_t begin = begin_ns_;  // read while still held
    if (mutex_sentry_ != nullptr) mutex_sentry_->lock_released(this);
    inner_->release();
    obs_.span(TraceKind::kCritical, begin);
  }
  const char* mechanism() const override { return inner_->mechanism(); }

 private:
  std::unique_ptr<machdep::BasicLock> inner_;
  Observers obs_;
  Sentry* mutex_sentry_;  // null for a semaphore-role lock
  std::string label_;
  std::int64_t begin_ns_ = 0;  // guarded by *inner_
};

}  // namespace

std::unique_ptr<BarrierAlgorithm> ForceEnvironment::observed(
    std::unique_ptr<BarrierAlgorithm> barrier) {
  if (sentry() == nullptr && tracer() == nullptr) return barrier;
  return std::make_unique<ObservedBarrier>(std::move(barrier),
                                           Observers{sentry(), tracer()});
}

std::unique_ptr<machdep::DoallSite> ForceEnvironment::observed(
    std::unique_ptr<machdep::DoallSite> site) {
  if (sentry() == nullptr && tracer() == nullptr) return site;
  return std::make_unique<ObservedDoallSite>(std::move(site),
                                             Observers{sentry(), tracer()});
}

std::unique_ptr<machdep::AskforRing> ForceEnvironment::observed(
    std::unique_ptr<machdep::AskforRing> ring) {
  if (sentry() == nullptr) return ring;
  return std::make_unique<FuzzedAskforRing>(std::move(ring), *sentry());
}

std::unique_ptr<machdep::BasicLock> ForceEnvironment::new_lock(
    LockRole role, std::string label) {
  auto lock = backend_->new_lock(label);
  if (sentry() == nullptr) return lock;
  return std::make_unique<ObservedLock>(
      std::move(lock), Observers{sentry(), nullptr}, role, std::move(label));
}

std::unique_ptr<machdep::BasicLock> ForceEnvironment::new_critical_lock(
    std::string label) {
  auto lock = backend_->new_lock(label);
  if (sentry() == nullptr && tracer() == nullptr) return lock;
  return std::make_unique<ObservedLock>(std::move(lock),
                                        Observers{sentry(), tracer()},
                                        LockRole::kMutex, std::move(label));
}

}  // namespace force::core
