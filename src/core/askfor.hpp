// The Askfor monitor (paper §3.3, after Lusk & Overbeek [LO83]).
//
// "The most general concept for concurrent code segments ... provides a
// means of work distribution in cases where the degree of concurrency is
// not known at compile time. Rather, the program can request during run
// time that a new concurrent instance of the code segment is executed."
//
// AskforCore is the monitor: work tokens plus the bookkeeping needed to
// distinguish "no work right now, but a working process may still put()
// more" (wait) from "no work and nobody working" (done). Askfor<T> is the
// typed façade with the canonical worker loop.
//
// Dispatch has two engines, selected by the machine's atomic-RMW
// capability (ForceEnvironment::atomic_words):
//
//   * Lock-only machines run the Argonne monitor shape unchanged: one
//     generic lock around a central queue, poll-with-yield waiting. Every
//     operation is one lock pass, exactly as the 1989 expansion - and
//     exactly as the seed of this repo, so LockCounters totals for these
//     machines are unchanged.
//
//   * Hardware-RMW machines add a lock-free fast path: one bounded
//     Chase-Lev deque per worker (owner pops LIFO, thieves steal FIFO)
//     plus a single packed pending/working counter for termination
//     detection. The monitor lock survives as the slow path - seeding
//     from unregistered threads, deque overflow, probend, and the final
//     "computation drained" latch all still go through it.
//
// probend() aborts the whole computation early (e.g. when a search finds
// its answer).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>

#include "core/env.hpp"
#include "machdep/backend.hpp"
#include "machdep/locks.hpp"
#include "machdep/stealdeque.hpp"
#include "util/check.hpp"

namespace force::core {

class AskforCore {
 public:
  explicit AskforCore(ForceEnvironment& env);
  ~AskforCore();

  AskforCore(const AskforCore&) = delete;
  AskforCore& operator=(const AskforCore&) = delete;

  enum class Outcome {
    kWork,  ///< a token was granted; caller must complete() afterwards
    kDone   ///< the computation is over (drained or probend)
  };

  /// Registers the calling thread as a worker for the fast path: binds it
  /// to one of the per-worker steal deques for the guard's lifetime, so
  /// its put() calls go to its own deque and its ask() calls pop LIFO
  /// before stealing. Purely an optimization - threads without a slot
  /// (seeders, oversubscribed teams, lock-only machines) fall back to the
  /// central queue and stealing, with identical semantics.
  class WorkerSlot {
   public:
    explicit WorkerSlot(AskforCore& core);
    ~WorkerSlot();
    WorkerSlot(const WorkerSlot&) = delete;
    WorkerSlot& operator=(const WorkerSlot&) = delete;
    [[nodiscard]] int slot() const { return slot_; }

   private:
    AskforCore& core_;
    int slot_;
    const void* saved_core_;
    int saved_slot_;
  };

  /// Adds a work token (callable from inside a granted task).
  void put(std::size_t token);

  /// Blocks until work is available or the computation completes.
  Outcome ask(std::size_t* token);

  /// Reports that the token most recently granted to this process has
  /// been fully processed (its put() calls, if any, already made).
  void complete();

  /// complete() for the current task fused with ask() for the next one.
  /// Semantically identical to the two calls in sequence; on the fast path
  /// the common case (next task from the caller's own deque) collapses the
  /// two inflight-counter updates into a single atomic subtract. On the
  /// lock engine it IS the two calls - same monitor passes as the seed.
  Outcome next(std::size_t* token);

  /// Ends the computation immediately; subsequent and pending ask()s
  /// return kDone. Idempotent.
  void probend();

  /// Re-arms the monitor for force-entry generation `gen`: a pooled team
  /// re-enters the same force (and so the same construct sites) many
  /// times, and the drained/probend latch must reset per entry. Leftover
  /// tokens of an aborted episode are discarded, and `clear_tasks` drops
  /// the caller's task storage in the same monitor pass, before the new
  /// generation is published. No-op once the monitor has seen `gen`; must
  /// only run at episode boundaries (no worker inside ask()/complete()).
  void rearm_for(std::uint32_t gen, const std::function<void()>& clear_tasks);

  [[nodiscard]] bool ended() const;
  [[nodiscard]] std::size_t granted() const;

  /// True when this monitor runs the work-stealing fast path.
  [[nodiscard]] bool lock_free() const { return deques_ != nullptr; }

 private:
  friend class WorkerSlot;

  [[nodiscard]] int current_slot() const;
  int grab_slot();
  void release_slot(int slot);
  void grant_fast(int slot);
  Outcome ask_fast(std::size_t* token);
  Outcome ask_locked(std::size_t* token);

  ForceEnvironment& env_;
  std::unique_ptr<machdep::BasicLock> monitor_;
  std::deque<std::size_t> queue_;  // central queue, guarded by *monitor_
  int working_ = 0;                // lock engine only, guarded by *monitor_

  // Shared by both engines. The lock engine only touches them under the
  // monitor (the atomics are then just storage); the fast path reads them
  // lock-free.
  std::atomic<bool> ended_{false};
  /// True when ended_ was set by probend() rather than the drained latch.
  /// The distinction matters for seeding: a drain is provisional - put()
  /// racing behind it re-opens the monitor, so a seed put from inside the
  /// force (the leader puts, everyone works) is never silently lost when a
  /// sibling's first ask latched "drained" first - while a probend is
  /// final for the force entry and later put()s are dropped, as ever.
  std::atomic<bool> probend_{false};
  std::atomic<std::size_t> granted_{0};
  /// Force-entry generation this monitor was last (re-)armed for; atomic
  /// so the common "already armed" probe in rearm_for stays lock-free.
  std::atomic<std::uint32_t> seen_generation_{0};

  // Fast path only (null / unused on lock-only machines):
  int nslots_ = 0;
  std::unique_ptr<machdep::StealDeque[]> deques_;
  std::unique_ptr<std::atomic<bool>[]> slot_taken_;
  /// Per-slot grant accounting on its own cache line: the slot owner
  /// tallies grants with a relaxed increment (exclusive line, no
  /// contention) instead of two shared fetch-adds per grant; the tally is
  /// cumulative and granted() sums it, while the env-stats delta is
  /// flushed when the slot is released.
  struct alignas(64) SlotTally {
    std::atomic<std::uint64_t> grants{0};
    std::uint64_t stats_reported = 0;  // touched only at grab/release
  };
  std::unique_ptr<SlotTally[]> slot_tally_;
  /// Tokens queued anywhere (low 32 bits) and tasks being executed (high
  /// 32 bits), packed so one load decides termination race-free: a grant
  /// moves one unit from pending to working in a single atomic add, so no
  /// interleaving can show "0 pending, 0 working" while work is alive.
  std::atomic<std::uint64_t> inflight_{0};
  /// Hint that queue_ is nonempty, so the fast path only pays a monitor
  /// pass when there is central work to fetch.
  std::atomic<std::int64_t> central_count_{0};
};

/// Typed askfor: stores tasks by value (stable storage) and runs the
/// canonical worker loop. Every process of the force calls work() with the
/// same site-shared instance; any process may seed() or put() tasks.
///
/// Under the separate-process backends the monitor is a backend engine
/// keyed by the construct's site key (a fixed-capacity FIFO ring in the
/// MAP_SHARED arena under os-fork; a coordinator monitor under cluster); T
/// must then be trivially copyable, and the worker body receives a
/// reference to a process-local *copy* of the granted task - mutations do
/// not write back into the ring.
template <typename T>
class Askfor {
 public:
  explicit Askfor(ForceEnvironment& env, const std::string& key = "askfor")
      : env_(&env) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      ring_ = env.backend().make_askfor_ring(key, kForkRingCapacity,
                                             sizeof(T));
    } else {
      // Null engine + supported capability = the thread monitor below;
      // backends that cannot memcpy tasks across reject here.
      env.require(machdep::Capability::kNonTrivialPayloads,
                  "Askfor task type", key);
    }
    if (ring_ == nullptr) core_ = std::make_unique<AskforCore>(env);
  }

  /// Adds a task; thread-safe, callable before or during work().
  void put(T task) {
    maybe_rearm();
    if (ring_ != nullptr) {
      ring_->put(&task);
      return;
    }
    std::size_t token;
    {
      std::lock_guard<std::mutex> g(guard_);
      tasks_.push_back(std::move(task));
      token = tasks_.size() - 1;
    }
    core_->put(token);
  }

  /// The worker loop: repeatedly asks for work and runs
  /// `body(task, *this)`; the body may put() new tasks and may probend().
  /// Returns the number of tasks this process executed.
  std::size_t work(const std::function<void(T&, Askfor<T>&)>& body) {
    maybe_rearm();
    if (ring_ != nullptr) return work_ring(body);
    // Register with the dispatch fast path for the duration of the loop
    // (no-op on lock-only machines).
    AskforCore::WorkerSlot worker(*core_);
    std::size_t executed = 0;
    std::size_t token = 0;
    AskforCore::Outcome outcome = core_->ask(&token);
    while (outcome == AskforCore::Outcome::kWork) {
      T* task = nullptr;
      {
        std::lock_guard<std::mutex> g(guard_);
        task = &tasks_[token];
      }
      try {
        body(*task, *this);
      } catch (...) {
        core_->complete();
        throw;
      }
      ++executed;
      // Fused complete+ask: one inflight update when the next task comes
      // from this worker's own deque.
      outcome = core_->next(&token);
    }
    return executed;
  }

  /// Aborts the computation (e.g. a search hit).
  void probend() {
    maybe_rearm();
    if (ring_ != nullptr) {
      ring_->probend();
      return;
    }
    core_->probend();
  }

  [[nodiscard]] bool ended() const {
    if (ring_ != nullptr) return ring_->ended();
    return core_->ended();
  }
  [[nodiscard]] std::size_t granted() const {
    if (ring_ != nullptr) {
      return static_cast<std::size_t>(ring_->granted());
    }
    return core_->granted();
  }

 private:
  /// Ring capacity under os-fork; put() beyond this many queued-but-
  /// ungranted tasks is a checked error (the thread engines' unbounded
  /// stable storage cannot be shared across address spaces).
  static constexpr std::uint32_t kForkRingCapacity = 4096;

  /// Pooled teams re-enter the same force over long-lived construct sites:
  /// the first put/work/probend of a new force entry resets the previous
  /// entry's drained/probend latch and drops its tasks.
  void maybe_rearm() {
    if (ring_ != nullptr) {
      // The engine decides what re-arming means on its substrate (the
      // cluster monitor is born fresh per team, so its rearm is a no-op).
      ring_->rearm(env_->run_generation());
      return;
    }
    core_->rearm_for(env_->run_generation(), clear_tasks_);
  }

  std::size_t work_ring(const std::function<void(T&, Askfor<T>&)>& body) {
    std::size_t executed = 0;
    // Raw storage instead of T{}: the grant memcpy fully initializes it,
    // and T need not be default constructible (only trivially copyable,
    // which the constructor already checked).
    alignas(T) unsigned char raw[sizeof(T)];
    T* task = reinterpret_cast<T*>(raw);
    while (ring_->ask(raw)) {
      try {
        body(*task, *this);
      } catch (...) {
        ring_->complete();
        throw;
      }
      ++executed;
      ring_->complete();
    }
    return executed;
  }

  ForceEnvironment* env_;
  std::unique_ptr<AskforCore> core_;  // thread backend only
  /// Backend monitor engine; null on the thread backend.
  std::unique_ptr<machdep::AskforRing> ring_;
  /// Guards growth of tasks_ only. The monitor lock cannot be reused
  /// (put() may be called while the caller does not hold it), and a plain
  /// mutex suffices: this is task *storage*, not dispatch.
  std::mutex guard_;
  /// Task storage. INVARIANT: tasks_ is a std::deque and only grows
  /// within a force entry (push_back; never erase/pop while workers run),
  /// so a reference obtained from tasks_[token] stays valid for the task's
  /// whole execution even while other threads put() concurrently - deque
  /// growth never relocates existing elements. It is cleared only by the
  /// re-arm of the next entry, when no worker holds a `T&`.
  std::deque<T> tasks_;
  /// Runs inside the re-arm's monitor pass.
  const std::function<void()> clear_tasks_ = [this] {
    std::lock_guard<std::mutex> g(guard_);
    tasks_.clear();
  };
};

}  // namespace force::core
