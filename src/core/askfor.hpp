// The Askfor monitor (paper §3.3, after Lusk & Overbeek [LO83]).
//
// "The most general concept for concurrent code segments ... provides a
// means of work distribution in cases where the degree of concurrency is
// not known at compile time. Rather, the program can request during run
// time that a new concurrent instance of the code segment is executed."
//
// BasicAskforCore<R> is the monitor: task records plus the bookkeeping
// needed to distinguish "no work right now, but a working process may
// still put() more" (wait) from "no work and nobody working" (done).
// Askfor<T> is the typed façade with the canonical worker loop. Tasks
// travel by value: a trivially copyable T is its own record, any other T
// (thread backend only) one owning pointer to a boxed copy.
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
//   * Hardware-RMW machines keep the records in one bounded Chase-Lev
//     deque per worker (owner pops LIFO, thieves steal FIFO) and detect
//     termination with credits on one packed pending/working word. A
//     registered worker takes one credit before its first pop or steal,
//     keeps it while it pushes to and pops from its own deque - no shared
//     write per task - and returns it only when its own deque, every steal
//     and the central queue all come up empty. Callers without a worker
//     slot hold one unit per granted task instead. The monitor lock
//     survives as the slow path - seeding from unregistered threads,
//     deque overflow, probend, and the final "computation drained" latch
//     all still go through it.
//
// probend() aborts the whole computation early (e.g. when a search finds
// its answer).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>

#include "core/env.hpp"
#include "core/sentry.hpp"
#include "machdep/backend.hpp"
#include "machdep/fiber.hpp"
#include "machdep/locks.hpp"
#include "machdep/stealdeque.hpp"
#include "machdep/wait.hpp"
#include "util/check.hpp"

namespace force::core {

/// The record of a task type without a trivial copy: one owning pointer.
template <typename T>
struct AskforBox {
  T* task;
};
template <typename T>
using AskforRecord =
    std::conditional_t<std::is_trivially_copyable_v<T>, T, AskforBox<T>>;

/// Frees what a record owns: after its task ran, or when the monitor drops
/// it unrun (a put after probend, the re-arm of the next entry).
template <typename R>
void drop_record(R&) {}
template <typename T>
void drop_record(AskforBox<T>& box) {
  delete box.task;
}

/// The calling thread's current worker binding. One binding per thread is
/// enough: a thread runs one work() loop at a time, and nested monitors
/// (a body driving a second Askfor) save and restore it via WorkerSlot.
struct AskforBinding {
  const void* core = nullptr;
  int slot = -1;
};
inline thread_local AskforBinding askfor_binding;

/// The monitor over trivially copyable records R: put() takes a record by
/// value, ask() copies the granted one into `*record` (raw storage is
/// fine).
template <typename R>
class BasicAskforCore {
 public:
  explicit BasicAskforCore(ForceEnvironment& env)
      : env_(env),
        monitor_(env.new_lock(machdep::LockRole::kMutex, "askfor.monitor")) {
    if (env.atomic_words()) {
      nslots_ = env.nproc();
      slots_ = std::make_unique<Slot[]>(static_cast<std::size_t>(nslots_));
    }
  }
  ~BasicAskforCore() { drop_queued(true); }

  enum class Outcome {
    kWork,  ///< a record was granted; caller must complete() afterwards
    kDone   ///< the computation is over (drained or probend)
  };

  /// Registers the calling thread as a worker for the fast path: binds it
  /// to one of the per-worker steal deques for the guard's lifetime, so
  /// its put() calls go to its own deque and its ask() calls pop LIFO
  /// before stealing. Purely an optimization - threads without a slot
  /// (seeders, oversubscribed teams, lock-only machines) fall back to the
  /// central queue and stealing, with identical semantics. A slot released
  /// with records still in its deque (a body threw) moves them to the
  /// central queue, counted pending, before it returns its credit -
  /// otherwise a sibling could latch "drained" over live records.
  class WorkerSlot {
   public:
    explicit WorkerSlot(BasicAskforCore& core)
        : core_(core),
          // Never bind a deque to an N:M pooled member: two members share
          // one OS thread, so a thread_local slot binding would be
          // clobbered (and dangle) across continuation switches. Slotless
          // workers are the documented fallback - central queue plus
          // stealing, same semantics.
          slot_(machdep::on_fiber() ? -1 : core.grab_slot()),
          saved_(askfor_binding) {
      askfor_binding = {&core_, slot_};
    }
    ~WorkerSlot() {
      askfor_binding = saved_;
      if (slot_ < 0) return;
      Slot& s = core_.slots_[slot_];
      if (s.credit) {
        core_.monitor_->acquire();
        core_.drain(s.deque, !core_.probend_.load(std::memory_order_relaxed));
        core_.monitor_->release();
        core_.drop_credit(slot_);
      }
      // Flush the grant tally into the env stats (the tally itself is
      // cumulative; granted() sums it live).
      const std::uint64_t grants = s.grants.load(std::memory_order_relaxed);
      core_.env_.stats().askfor_grants.fetch_add(
          grants - s.stats_reported, std::memory_order_relaxed);
      s.stats_reported = grants;
      s.taken.store(false, std::memory_order_release);
    }
    WorkerSlot(const WorkerSlot&) = delete;
    WorkerSlot& operator=(const WorkerSlot&) = delete;
    [[nodiscard]] int slot() const { return slot_; }

   private:
    BasicAskforCore& core_;
    int slot_;
    AskforBinding saved_;
  };

  /// Adds a record (callable from inside a granted task).
  void put(R record) {
    if (Sentry* sn = env_.sentry()) sn->fuzz();
    if (!lock_free()) {
      // Lock engine: the Argonne monitor shape, one lock pass.
      monitor_->acquire();
      if (!probend_.load(std::memory_order_relaxed)) {
        // A drained latch that beat this put is provisional: with the seed
        // put inside the force (the leader puts, everyone works), a
        // sibling's first ask can find the queue empty with nobody working
        // and latch "drained" first - on a parked pool every member wakes
        // hot at once, so the race is live, not theoretical. The seed must
        // never be lost: re-open. Workers that already left their work()
        // loop just sit at the next barrier while the remaining members
        // (at least the seeder itself) drain the work - fewer hands, same
        // answer. A probend stays final: those records drop, as ever.
        ended_.store(false, std::memory_order_relaxed);
        queue_.push_back(record);
      } else {
        drop_record(record);
      }
      monitor_->release();
      return;
    }
    if (probend_.load(std::memory_order_acquire)) {
      drop_record(record);  // dropped, as ever
      return;
    }
    const int slot = current_slot();
    if (slot >= 0) {
      // Own deque, covered by this worker's credit: no shared write. A
      // worker that puts before it ever asked takes its credit here.
      if (!slots_[slot].credit) {
        take_credit(slot);
        reopen_drained();
      }
      if (slots_[slot].deque.push(record)) return;
    }
    // Unregistered thread, or the bounded deque is full: central queue.
    // Count the record *before* it becomes visible so termination
    // detection can never see an empty system while it is mid-publish.
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    reopen_drained();
    monitor_->acquire();
    if (probend_.load(std::memory_order_relaxed)) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      drop_record(record);
    } else {
      queue_.push_back(record);
      central_count_.fetch_add(1, std::memory_order_release);
    }
    monitor_->release();
  }

  /// Blocks until a record is granted or the computation completes.
  Outcome ask(R* record) {
    FORCE_CHECK(record != nullptr, "ask needs an output slot");
    return lock_free() ? ask_fast(record) : ask_locked(record);
  }

  /// Reports that the record most recently granted to this process has
  /// been fully processed (its put() calls, if any, already made). A
  /// registered worker's credit outlives its tasks: a no-op for it.
  void complete() {
    if (lock_free()) {
      if (current_slot() >= 0) return;
      const std::uint64_t old =
          inflight_.fetch_sub(kWorkingOne, std::memory_order_acq_rel);
      if ((old >> 32) == 0) {
        inflight_.fetch_add(kWorkingOne, std::memory_order_acq_rel);
        FORCE_CHECK(false, "complete() without a granted task");
      }
      return;
    }
    monitor_->acquire();
    const bool granted = working_ > 0;
    if (granted) --working_;
    monitor_->release();
    FORCE_CHECK(granted, "complete() without a granted task");
  }

  /// Ends the computation immediately; subsequent and pending ask()s
  /// return kDone. Idempotent.
  void probend() {
    monitor_->acquire();
    // probend_ first: a reader that sees ended_ without the monitor must
    // never mistake an explicit end for a provisional drain and re-open it
    // (the re-open paths re-check probend_ under the monitor regardless).
    probend_.store(true, std::memory_order_release);
    ended_.store(true, std::memory_order_release);
    drop_queued(false);
    monitor_->release();
  }

  /// Re-arms the monitor for force-entry generation `gen`: a pooled team
  /// re-enters the same force (and so the same construct sites) many
  /// times, and the drained/probend latch must reset per entry. Leftover
  /// records of an aborted episode are dropped in the same monitor pass,
  /// before the new generation is published. No-op once the monitor has
  /// seen `gen`; must only run at episode boundaries (no worker inside
  /// ask()/complete()).
  void rearm_for(std::uint32_t gen) {
    if (seen_generation_.load(std::memory_order_acquire) == gen) return;
    monitor_->acquire();
    if (seen_generation_.load(std::memory_order_relaxed) != gen) {
      // Fresh force entry on a reused site: clear the previous episode.
      // The generation stamp is the last write, so racing first-ops of
      // the same entry see either the old generation (and reset
      // themselves, idempotently, under the monitor) or a fully reset
      // monitor.
      drop_queued(true);
      working_ = 0;
      inflight_.store(0, std::memory_order_release);
      probend_.store(false, std::memory_order_release);
      ended_.store(false, std::memory_order_release);
      seen_generation_.store(gen, std::memory_order_release);
    }
    monitor_->release();
  }

  [[nodiscard]] bool ended() const {
    if (!lock_free()) monitor_->acquire();
    const bool e = ended_.load(std::memory_order_acquire);
    if (!lock_free()) monitor_->release();
    return e;
  }

  [[nodiscard]] std::size_t granted() const {
    if (!lock_free()) monitor_->acquire();
    std::size_t g = granted_.load(std::memory_order_acquire);
    for (int i = 0; i < nslots_; ++i) {
      g += slots_[i].grants.load(std::memory_order_relaxed);
    }
    if (!lock_free()) monitor_->release();
    return g;
  }

  /// True when this monitor runs the work-stealing fast path.
  [[nodiscard]] bool lock_free() const { return nslots_ > 0; }

 private:
  /// One working unit (a credit) in the packed inflight counter: pending
  /// central-queue records in the low 32 bits, credits in the high 32.
  static constexpr std::uint64_t kWorkingOne = std::uint64_t{1} << 32;

  [[nodiscard]] int current_slot() const {
    return askfor_binding.core == this ? askfor_binding.slot : -1;
  }

  int grab_slot() {
    for (int i = 0; i < nslots_; ++i) {
      bool expected = false;
      if (slots_[i].taken.compare_exchange_strong(
              expected, true, std::memory_order_acq_rel,
              std::memory_order_relaxed)) {
        return i;
      }
    }
    // Lock engine, or more concurrent workers than nproc slots: work
    // slotless (correct, just steals instead of owning a deque).
    return -1;
  }

  void take_credit(int slot) {
    inflight_.fetch_add(kWorkingOne, std::memory_order_acq_rel);
    if (slot >= 0) slots_[slot].credit = true;
  }
  void drop_credit(int slot) {
    if (slot >= 0) slots_[slot].credit = false;
    inflight_.fetch_sub(kWorkingOne, std::memory_order_acq_rel);
  }

  void idle(std::optional<Sentry::WaitScope>& wait) {
    // Registered lazily, on the first unproductive pass: the watchdog then
    // sees "blocked in Askfor termination wait" if the loop never ends.
    Sentry* sn = env_.sentry();
    if (sn != nullptr && !wait.has_value()) {
      wait.emplace(sn, Sentry::WaitKind::kAskfor, this, "askfor");
    }
    machdep::Waiter::yield();
  }

  Outcome ask_fast(R* record) {
    const int slot = current_slot();
    std::optional<Sentry::WaitScope> wait;
    for (;;) {
      if (Sentry* sn = env_.sentry()) sn->fuzz();
      if (ended_.load(std::memory_order_acquire) && stays_ended()) {
        if (slot >= 0 && slots_[slot].credit) drop_credit(slot);
        return Outcome::kDone;
      }
      if (slot < 0 || !slots_[slot].credit) {
        // Idle: read before writing. Nothing in flight anywhere - no
        // record pending and nobody who could create one - ends the
        // computation; otherwise a credit is taken only when a size hint
        // shows a record to take.
        if (inflight_.load(std::memory_order_acquire) == 0) {
          if (latch_drained()) return Outcome::kDone;
          continue;
        }
        if (!work_visible()) {
          idle(wait);
          continue;
        }
        take_credit(slot);
      }
      if (take(slot, record)) {
        note_grant(slot);
        return Outcome::kWork;
      }
      drop_credit(slot);  // ran dry everywhere
    }
  }

  /// 1. Own deque, newest first (cache-warm, depth-first on task trees).
  /// 2. Steal from the other workers, oldest first. 3. The central
  /// (slow-path) queue, only when the hint says nonempty; its record moves
  /// off the pending count. The caller's credit covers what it takes.
  bool take(int slot, R* record) {
    if (slot >= 0 && slots_[slot].deque.pop(record)) return true;
    for (int i = 0; i < nslots_; ++i) {
      const int victim = slot >= 0 ? (slot + 1 + i) % nslots_ : i;
      if (victim != slot && slots_[victim].deque.steal(record)) return true;
    }
    if (central_count_.load(std::memory_order_acquire) <= 0) return false;
    monitor_->acquire();
    const bool got = pop_central(record);
    if (got) {
      central_count_.fetch_sub(1, std::memory_order_release);
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
    }
    monitor_->release();
    return got;
  }

  [[nodiscard]] bool work_visible() const {
    if (central_count_.load(std::memory_order_acquire) > 0) return true;
    for (int i = 0; i < nslots_; ++i) {
      if (slots_[i].deque.size_hint() > 0) return true;
    }
    return false;
  }

  void note_grant(int slot) {
    if (slot >= 0) {
      // Exclusive cache line: a relaxed increment, not a shared fetch-add.
      std::atomic<std::uint64_t>& tally = slots_[slot].grants;
      tally.store(tally.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
      return;
    }
    granted_.fetch_add(1, std::memory_order_relaxed);
    env_.stats().askfor_grants.fetch_add(1, std::memory_order_relaxed);
  }

  /// True when the latch is final: a probend, or a drain with nothing in
  /// flight. Live records behind a drained latch mean a seed was published
  /// right after the latch fired (put() re-opens, but this asker may
  /// observe the latch first): re-open under the monitor and keep serving.
  bool stays_ended() {
    if (probend_.load(std::memory_order_acquire) ||
        inflight_.load(std::memory_order_acquire) == 0) {
      return true;
    }
    reopen_drained();
    return false;
  }

  /// Latch the decision under the monitor so every process agrees (and so
  /// a racing probend cannot interleave half-way).
  bool latch_drained() {
    monitor_->acquire();
    bool done = ended_.load(std::memory_order_relaxed);
    if (!done && inflight_.load(std::memory_order_acquire) == 0) {
      ended_.store(true, std::memory_order_release);
      done = true;
    }
    monitor_->release();
    return done;
  }

  /// Drained latch raced ahead of a put (see the lock engine's put):
  /// re-open under the monitor. The latch cannot re-fire once the put's
  /// count has landed - its double-check reads inflight under the monitor
  /// - and ask re-opens too when it sees counts behind the latch, so the
  /// record survives either side of the race.
  void reopen_drained() {
    if (!ended_.load(std::memory_order_acquire)) return;
    monitor_->acquire();
    if (!probend_.load(std::memory_order_relaxed)) {
      ended_.store(false, std::memory_order_release);
    }
    monitor_->release();
  }

  Outcome ask_locked(R* record) {
    std::optional<Sentry::WaitScope> wait;
    for (;;) {
      monitor_->acquire();
      if (ended_.load(std::memory_order_relaxed)) {
        monitor_->release();
        return Outcome::kDone;
      }
      if (pop_central(record)) {
        ++working_;
        note_grant(-1);
        monitor_->release();
        return Outcome::kWork;
      }
      if (working_ == 0) {
        // No work queued and nobody who could create any: the computation
        // has drained. Latch the end so every process agrees.
        ended_.store(true, std::memory_order_relaxed);
        monitor_->release();
        return Outcome::kDone;
      }
      // Work may still appear: release the monitor and retry politely.
      monitor_->release();
      idle(wait);
    }
  }

  // The central queue, guarded by *monitor_ (as is everything below).
  bool pop_central(R* record) {
    if (queue_.empty()) return false;
    std::memcpy(static_cast<void*>(record), &queue_.front(), sizeof(R));
    queue_.pop_front();
    return true;
  }

  /// Empties `deque` by owner pops (its holder leaving) or steals (at an
  /// episode boundary nobody pops concurrently); `keep` moves the records
  /// to the central queue counted pending, otherwise they drop.
  void drain(machdep::StealDeque<R>& deque, bool keep, bool steal = false) {
    alignas(R) unsigned char raw[sizeof(R)];
    R* record = reinterpret_cast<R*>(raw);
    while (steal ? deque.steal(record) : deque.pop(record)) {
      if (!keep) {
        drop_record(*record);
        continue;
      }
      queue_.push_back(*record);
      inflight_.fetch_add(1, std::memory_order_acq_rel);
      central_count_.fetch_add(1, std::memory_order_release);
    }
  }

  /// Drops the central queue's records, and every deque's with `deques`.
  void drop_queued(bool deques) {
    for (R& record : queue_) drop_record(record);
    queue_.clear();
    central_count_.store(0, std::memory_order_release);
    for (int i = 0; deques && i < nslots_; ++i) {
      drain(slots_[i].deque, false, true);
    }
  }

  ForceEnvironment& env_;
  std::unique_ptr<machdep::BasicLock> monitor_;
  std::deque<R> queue_;  // central queue, guarded by *monitor_
  int working_ = 0;      // lock engine only, guarded by *monitor_

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

  // Fast path only (empty on lock-only machines):
  int nslots_ = 0;
  /// Per-worker state on its own cache lines. The holder tallies grants
  /// with a relaxed increment (exclusive line, no contention); the tally
  /// is cumulative and granted() sums it, while the env-stats delta is
  /// flushed when the slot is released. `credit` and `stats_reported` are
  /// touched only by the holder; the release/acquire pair on `taken`
  /// hands them to the next one.
  struct alignas(64) Slot {
    std::atomic<bool> taken{false};
    bool credit = false;
    std::atomic<std::uint64_t> grants{0};
    std::uint64_t stats_reported = 0;
    machdep::StealDeque<R> deque;
  };
  std::unique_ptr<Slot[]> slots_;
  /// Central-queue records (low 32 bits) and credits (high 32 bits),
  /// packed so one load decides termination race-free. Every record is
  /// covered: in the central queue by its pending unit, in a deque by its
  /// owner's credit, in a taker's hands by the credit or unit it took
  /// *before* popping or stealing. So 0 means no record anywhere and
  /// nobody who could create one.
  std::atomic<std::uint64_t> inflight_{0};
  /// Hint that queue_ is nonempty, so the fast path only pays a monitor
  /// pass when there is central work to fetch.
  std::atomic<std::int64_t> central_count_{0};
};

/// The monitor over plain word records, for direct users of the protocol.
using AskforCore = BasicAskforCore<std::size_t>;

/// Typed askfor: moves tasks by value through the monitor and runs the
/// canonical worker loop. Every process of the force calls work() with the
/// same site-shared instance; any process may seed() or put() tasks. The
/// worker body receives a reference to this process's copy of the granted
/// task.
///
/// Under the separate-process backends the monitor is a backend engine
/// keyed by the construct's site key (a fixed-capacity FIFO ring in the
/// MAP_SHARED arena under os-fork; a coordinator monitor under cluster); T
/// must then be trivially copyable, and mutations of the granted copy do
/// not write back into the ring.
template <typename T>
class Askfor {
  using Record = AskforRecord<T>;
  using Core = BasicAskforCore<Record>;

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
    if (ring_ == nullptr) core_ = std::make_unique<Core>(env);
  }

  /// Adds a task; thread-safe, callable before or during work().
  void put(T task) {
    maybe_rearm();
    if (ring_ != nullptr) {
      ring_->put(&task);
    } else if constexpr (std::is_trivially_copyable_v<T>) {
      core_->put(task);
    } else {
      core_->put(Record{new T(std::move(task))});
    }
  }

  /// The worker loop: repeatedly asks for work and runs
  /// `body(task, *this)`; the body may put() new tasks and may probend().
  /// Returns the number of tasks this process executed.
  std::size_t work(const std::function<void(T&, Askfor<T>&)>& body) {
    maybe_rearm();
    if (ring_ != nullptr) return work_ring(body);
    // Register with the dispatch fast path for the duration of the loop
    // (no-op on lock-only machines).
    typename Core::WorkerSlot worker(*core_);
    std::size_t executed = 0;
    // Raw storage: the grant copy fully initializes it, and T need not be
    // default constructible.
    alignas(Record) unsigned char raw[sizeof(Record)];
    Record* record = reinterpret_cast<Record*>(raw);
    while (core_->ask(record) == Core::Outcome::kWork) {
      try {
        body(task_of(*record), *this);
      } catch (...) {
        drop_record(*record);
        core_->complete();
        throw;
      }
      drop_record(*record);
      ++executed;
      core_->complete();
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
  /// ungranted tasks is a checked error (the thread engine's unbounded
  /// central queue cannot be shared across address spaces).
  static constexpr std::uint32_t kForkRingCapacity = 4096;

  static T& task_of(T& task) { return task; }
  static T& task_of(AskforBox<T>& box) { return *box.task; }

  /// Pooled teams re-enter the same force over long-lived construct sites:
  /// the first put/work/probend of a new force entry resets the previous
  /// entry's drained/probend latch and drops its leftover tasks.
  void maybe_rearm() {
    if (ring_ != nullptr) {
      // The engine decides what re-arming means on its substrate (the
      // cluster monitor is born fresh per team, so its rearm is a no-op).
      ring_->rearm(env_->run_generation());
      return;
    }
    core_->rearm_for(env_->run_generation());
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
  std::unique_ptr<Core> core_;  // thread backend only
  /// Backend monitor engine; null on the thread backend.
  std::unique_ptr<machdep::AskforRing> ring_;
};

}  // namespace force::core
