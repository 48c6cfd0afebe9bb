// The Askfor monitor (paper §3.3, after Lusk & Overbeek [LO83]).
//
// "The most general concept for concurrent code segments ... provides a
// means of work distribution in cases where the degree of concurrency is
// not known at compile time. Rather, the program can request during run
// time that a new concurrent instance of the code segment is executed."
//
// BasicAskforCore<R> is the monitor: task records plus the bookkeeping
// needed to distinguish "no work right now, but a working process may
// still put() more" (wait) from "no work and nobody working" (done), and
// the canonical worker loop. Askfor<T> is the typed façade. Tasks travel
// by value: a trivially copyable T is its own record, any other T (thread
// backend only) one owning pointer to a boxed copy.
//
// One engine serves thread and os-fork. Its shared state is one blob of
// words (machdep::AskforWords: the counters, the latches and a slot per
// member) placed by ForceEnvironment::place_words at kAskforWords + key:
// private to the engine on thread, in the MAP_SHARED arena under os-fork,
// where every member process meets at the same words. Only the central
// queue's storage depends on that scope: an unbounded std::deque on
// private scope, a ring of kSharedCentralCapacity records inside the blob
// on shared scope (a put() beyond it is a checked error). The cluster
// backend, which has no shared memory, hands out a coordinator monitor
// instead; Askfor<T> holds whichever of the two as one machdep::AskforRing,
// the in-process one wrapped by ForceEnvironment::observed, whose decorator
// fuzzes every put and grant when the sentry is on.
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
#include <new>
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
/// fine). Direct users drive put/ask/complete; Askfor<T> drives it through
/// machdep::AskforRing, whose entry points also re-arm the monitor for
/// the current force entry.
template <typename R>
class BasicAskforCore final : public machdep::AskforRing {
 public:
  explicit BasicAskforCore(ForceEnvironment& env,
                           const std::string& key = "askfor")
      : env_(env),
        label_("askfor '" + key + "'"),
        // Keyed by site: os-fork keys a lock's arena word by its label.
        monitor_(env.new_lock(machdep::LockRole::kMutex,
                              "askfor.monitor/" + key)),
        words_(place(env, key)),
        slots_(reinterpret_cast<Slot*>(words_->slots())),
        nslots_(static_cast<int>(words_->nslots)) {
    FORCE_CHECK(words_->slot_bytes == sizeof(Slot),
                label_ + " is already placed for another task type");
    if (words_->ring_capacity > 0) {
      shared_queue_ = reinterpret_cast<R*>(words_->ring());
    }
  }
  ~BasicAskforCore() override {
    // Shared words outlive this process's handle; private ones die here,
    // and their boxed records with them.
    if (words_.scope() == machdep::WordScope::kPrivate) drop_queued(true);
  }

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
      machdep::AskforSlotHead& s = core_.slots_[slot_].head;
      if (s.credit) {
        core_.monitor_->acquire();
        core_.drain(core_.slots_[slot_].deque,
                    !core_.words_->probend.load(std::memory_order_relaxed));
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
    machdep::AskforWords& w = *words_;
    if (!lock_free()) {
      // Lock engine: the Argonne monitor shape, one lock pass.
      monitor_->acquire();
      if (!w.probend.load(std::memory_order_relaxed)) {
        // A drained latch that beat this put is provisional: with the seed
        // put inside the force (the leader puts, everyone works), a
        // sibling's first ask can find the queue empty with nobody working
        // and latch "drained" first - on a parked pool every member wakes
        // hot at once, so the race is live, not theoretical. The seed must
        // never be lost: re-open. Workers that already left their work()
        // loop just sit at the next barrier while the remaining members
        // (at least the seeder itself) drain the work - fewer hands, same
        // answer. A probend stays final: those records drop, as ever.
        w.ended.store(false, std::memory_order_relaxed);
        push_central(record);  // private scope: unbounded
      } else {
        drop_record(record);
      }
      monitor_->release();
      return;
    }
    if (w.probend.load(std::memory_order_acquire)) {
      drop_record(record);  // dropped, as ever
      return;
    }
    const int slot = current_slot();
    if (slot >= 0) {
      // Own deque, covered by this worker's credit: no shared write. A
      // worker that puts before it ever asked takes its credit here.
      if (!slots_[slot].head.credit) {
        take_credit(slot);
        reopen_drained();
      }
      if (slots_[slot].deque.push(record)) return;
    }
    // Unregistered thread, or the bounded deque is full: central queue.
    // Count the record *before* it becomes visible so termination
    // detection can never see an empty system while it is mid-publish.
    w.inflight.fetch_add(1, std::memory_order_acq_rel);
    reopen_drained();
    monitor_->acquire();
    const bool dropped = w.probend.load(std::memory_order_relaxed);
    const bool queued = !dropped && push_central(record);
    if (queued) w.central_count.fetch_add(1, std::memory_order_release);
    monitor_->release();
    if (queued) return;
    w.inflight.fetch_sub(1, std::memory_order_acq_rel);
    drop_record(record);
    FORCE_CHECK(dropped, overflow_message());
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
    machdep::AskforWords& w = *words_;
    if (lock_free()) {
      if (current_slot() >= 0) return;
      const std::uint64_t old =
          w.inflight.fetch_sub(kWorkingOne, std::memory_order_acq_rel);
      if ((old >> 32) == 0) {
        w.inflight.fetch_add(kWorkingOne, std::memory_order_acq_rel);
        FORCE_CHECK(false, "complete() without a granted task");
      }
      return;
    }
    monitor_->acquire();
    const bool granted = w.working > 0;
    if (granted) --w.working;
    monitor_->release();
    FORCE_CHECK(granted, "complete() without a granted task");
  }

  // --- machdep::AskforRing --------------------------------------------------

  void put(const void* record) override {
    rearm(env_.run_generation());
    put(*static_cast<const R*>(record));
  }

  /// The canonical worker loop, registered with the fast path (a no-op on
  /// lock-only machines) for its duration; every record it is granted is
  /// dropped once `run` is done with it.
  std::size_t work(void* record, const std::function<void()>& run) override {
    rearm(env_.run_generation());
    machdep::Waiter::note_site(label_.c_str(), words_.scope());
    WorkerSlot worker(*this);
    R* granted = static_cast<R*>(record);
    std::size_t executed = 0;
    while (ask(granted) == Outcome::kWork) {
      try {
        run();
      } catch (...) {
        drop_record(*granted);
        complete();
        throw;
      }
      drop_record(*granted);
      ++executed;
      complete();
    }
    return executed;
  }

  /// Ends the computation immediately; subsequent and pending ask()s
  /// return kDone. Idempotent.
  void probend() override {
    rearm(env_.run_generation());
    machdep::AskforWords& w = *words_;
    monitor_->acquire();
    // probend first: a reader that sees ended without the monitor must
    // never mistake an explicit end for a provisional drain and re-open it
    // (the re-open paths re-check probend under the monitor regardless).
    w.probend.store(true, std::memory_order_release);
    w.ended.store(true, std::memory_order_release);
    drop_queued(false);
    monitor_->release();
  }

  [[nodiscard]] bool ended() const override {
    if (!lock_free()) monitor_->acquire();
    const bool e = words_->ended.load(std::memory_order_acquire);
    if (!lock_free()) monitor_->release();
    return e;
  }

  [[nodiscard]] std::uint64_t granted() const override {
    if (!lock_free()) monitor_->acquire();
    std::uint64_t g = words_->granted.load(std::memory_order_acquire);
    for (int i = 0; i < nslots_; ++i) {
      g += slots_[i].head.grants.load(std::memory_order_relaxed);
    }
    if (!lock_free()) monitor_->release();
    return g;
  }

  /// True when this monitor runs the work-stealing fast path.
  [[nodiscard]] bool lock_free() const { return nslots_ > 0; }

 private:
  /// One member's slot: its head (claim, credit, grant tally) on its own
  /// cache lines, then its deque. The holder tallies grants with a relaxed
  /// increment (exclusive line, no contention); the tally is cumulative
  /// and granted() sums it, while the env-stats delta is flushed when the
  /// slot is released. `credit` and `stats_reported` are touched only by
  /// the holder; the release/acquire pair on `taken` hands them to the
  /// next one.
  struct Slot {
    machdep::AskforSlotHead head;
    machdep::StealDeque<R> deque;
  };
  static_assert(std::is_trivially_destructible_v<Slot>);

  /// The shared-scope central queue's capacity; a put beyond this many
  /// records queued outside the members' deques is a checked error.
  static constexpr std::uint32_t kSharedCentralCapacity = 4096;

  /// One working unit (a credit) in the packed inflight counter: pending
  /// central-queue records in the low 32 bits, credits in the high 32.
  static constexpr std::uint64_t kWorkingOne = std::uint64_t{1} << 32;

  /// The words: a slot per member where the machine has atomic RMW (none
  /// on the lock engine), and the central ring on shared scope.
  static machdep::PlacedWords<machdep::AskforWords> place(
      ForceEnvironment& env, const std::string& key) {
    const auto nslots =
        static_cast<std::uint32_t>(env.atomic_words() ? env.nproc() : 0);
    const std::uint32_t capacity =
        env.word_scope() == machdep::WordScope::kShared
            ? kSharedCentralCapacity
            : 0;
    const std::size_t bytes = sizeof(machdep::AskforWords) +
                              std::size_t{nslots} * sizeof(Slot) +
                              std::size_t{capacity} * sizeof(R);
    return env.place_words<machdep::AskforWords>(
        machdep::kAskforWords + key, bytes, [nslots, capacity](void* blob) {
          auto* w = ::new (blob) machdep::AskforWords();
          w->nslots = nslots;
          w->slot_bytes = sizeof(Slot);
          w->ring_capacity = capacity;
          for (std::uint32_t i = 0; i < nslots; ++i) {
            ::new (&w->slot(i)) Slot();
          }
        });
  }

  [[nodiscard]] std::string overflow_message() const {
    return label_ + ": more than " + std::to_string(kSharedCentralCapacity) +
           " tasks queued outside the members' deques under os-fork";
  }

  [[nodiscard]] int current_slot() const {
    return askfor_binding.core == this ? askfor_binding.slot : -1;
  }

  int grab_slot() {
    for (int i = 0; i < nslots_; ++i) {
      bool expected = false;
      if (slots_[i].head.taken.compare_exchange_strong(
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
    words_->inflight.fetch_add(kWorkingOne, std::memory_order_acq_rel);
    if (slot >= 0) slots_[slot].head.credit = true;
  }
  void drop_credit(int slot) {
    if (slot >= 0) slots_[slot].head.credit = false;
    words_->inflight.fetch_sub(kWorkingOne, std::memory_order_acq_rel);
  }

  void idle(std::optional<Sentry::WaitScope>& wait) {
    // Registered lazily, on the first unproductive pass: the watchdog then
    // sees "blocked in Askfor termination wait" if the loop never ends.
    Sentry* sn = env_.sentry();
    if (sn != nullptr && !wait.has_value()) {
      wait.emplace(sn, Sentry::WaitKind::kAskfor, this, "askfor");
    }
    // On shared scope the yield throws once a dead sibling poisoned the
    // team: its credit can never come back.
    machdep::Waiter::note_site(label_.c_str(), words_.scope());
    machdep::Waiter::yield(words_.scope());
  }

  Outcome ask_fast(R* record) {
    machdep::AskforWords& w = *words_;
    const int slot = current_slot();
    std::optional<Sentry::WaitScope> wait;
    for (;;) {
      if (w.ended.load(std::memory_order_acquire) && stays_ended()) {
        if (slot >= 0 && slots_[slot].head.credit) drop_credit(slot);
        return Outcome::kDone;
      }
      if (slot < 0 || !slots_[slot].head.credit) {
        // Idle: read before writing. Nothing in flight anywhere - no
        // record pending and nobody who could create one - ends the
        // computation; otherwise a credit is taken only when a size hint
        // shows a record to take.
        if (w.inflight.load(std::memory_order_acquire) == 0) {
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
    machdep::AskforWords& w = *words_;
    if (w.central_count.load(std::memory_order_acquire) <= 0) return false;
    monitor_->acquire();
    const bool got = pop_central(record);
    if (got) {
      w.central_count.fetch_sub(1, std::memory_order_release);
      w.inflight.fetch_sub(1, std::memory_order_acq_rel);
    }
    monitor_->release();
    return got;
  }

  [[nodiscard]] bool work_visible() const {
    if (words_->central_count.load(std::memory_order_acquire) > 0) {
      return true;
    }
    for (int i = 0; i < nslots_; ++i) {
      if (slots_[i].deque.size_hint() > 0) return true;
    }
    return false;
  }

  void note_grant(int slot) {
    if (slot >= 0) {
      // Exclusive cache line: a relaxed increment, not a shared fetch-add.
      std::atomic<std::uint64_t>& tally = slots_[slot].head.grants;
      tally.store(tally.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
      return;
    }
    words_->granted.fetch_add(1, std::memory_order_relaxed);
    env_.stats().askfor_grants.fetch_add(1, std::memory_order_relaxed);
  }

  /// True when the latch is final: a probend, or a drain with nothing in
  /// flight. Live records behind a drained latch mean a seed was published
  /// right after the latch fired (put() re-opens, but this asker may
  /// observe the latch first): re-open under the monitor and keep serving.
  bool stays_ended() {
    if (words_->probend.load(std::memory_order_acquire) ||
        words_->inflight.load(std::memory_order_acquire) == 0) {
      return true;
    }
    reopen_drained();
    return false;
  }

  /// Latch the decision under the monitor so every process agrees (and so
  /// a racing probend cannot interleave half-way).
  bool latch_drained() {
    machdep::AskforWords& w = *words_;
    monitor_->acquire();
    bool done = w.ended.load(std::memory_order_relaxed);
    if (!done && w.inflight.load(std::memory_order_acquire) == 0) {
      w.ended.store(true, std::memory_order_release);
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
    machdep::AskforWords& w = *words_;
    if (!w.ended.load(std::memory_order_acquire)) return;
    monitor_->acquire();
    if (!w.probend.load(std::memory_order_relaxed)) {
      w.ended.store(false, std::memory_order_release);
    }
    monitor_->release();
  }

  Outcome ask_locked(R* record) {
    machdep::AskforWords& w = *words_;
    std::optional<Sentry::WaitScope> wait;
    for (;;) {
      monitor_->acquire();
      if (w.ended.load(std::memory_order_relaxed)) {
        monitor_->release();
        return Outcome::kDone;
      }
      if (pop_central(record)) {
        ++w.working;
        note_grant(-1);
        monitor_->release();
        return Outcome::kWork;
      }
      if (w.working == 0) {
        // No work queued and nobody who could create any: the computation
        // has drained. Latch the end so every process agrees.
        w.ended.store(true, std::memory_order_relaxed);
        monitor_->release();
        return Outcome::kDone;
      }
      // Work may still appear: release the monitor and retry politely.
      monitor_->release();
      idle(wait);
    }
  }

  /// Re-arms the monitor for force-entry generation `gen`: a pooled team
  /// re-enters the same force (and so the same construct sites) many
  /// times, and the drained/probend latch must reset per entry. Leftover
  /// records of an aborted episode are dropped in the same monitor pass,
  /// before the new generation is published. No-op once the monitor has
  /// seen `gen`; must only run at episode boundaries (no worker inside
  /// ask()/complete()).
  void rearm(std::uint32_t gen) {
    machdep::AskforWords& w = *words_;
    if (w.seen_generation.load(std::memory_order_acquire) == gen) return;
    monitor_->acquire();
    if (w.seen_generation.load(std::memory_order_relaxed) != gen) {
      // Fresh force entry on a reused site: clear the previous episode.
      // The generation stamp is the last write, so racing first-ops of
      // the same entry see either the old generation (and reset
      // themselves, idempotently, under the monitor) or a fully reset
      // monitor.
      drop_queued(true);
      w.working = 0;
      w.inflight.store(0, std::memory_order_release);
      w.probend.store(false, std::memory_order_release);
      w.ended.store(false, std::memory_order_release);
      w.seen_generation.store(gen, std::memory_order_release);
    }
    monitor_->release();
  }

  // The central queue, guarded by *monitor_ (as is everything below).
  bool push_central(const R& record) {
    if (shared_queue_ == nullptr) {
      queue_.push_back(record);
      return true;
    }
    machdep::AskforWords& w = *words_;
    if (w.ring_tail - w.ring_head >= w.ring_capacity) return false;
    std::memcpy(static_cast<void*>(&shared_queue_[w.ring_tail % w.ring_capacity]),
                &record, sizeof(R));
    ++w.ring_tail;
    return true;
  }
  bool pop_central(R* record) {
    if (shared_queue_ == nullptr) {
      if (queue_.empty()) return false;
      std::memcpy(static_cast<void*>(record), &queue_.front(), sizeof(R));
      queue_.pop_front();
      return true;
    }
    machdep::AskforWords& w = *words_;
    if (w.ring_head == w.ring_tail) return false;
    std::memcpy(static_cast<void*>(record),
                &shared_queue_[w.ring_head++ % w.ring_capacity], sizeof(R));
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
      const bool queued = push_central(*record);
      FORCE_CHECK(queued, overflow_message());
      words_->inflight.fetch_add(1, std::memory_order_acq_rel);
      words_->central_count.fetch_add(1, std::memory_order_release);
    }
  }

  /// Drops the central queue's records, and every deque's with `deques`.
  void drop_queued(bool deques) {
    alignas(R) unsigned char raw[sizeof(R)];
    R* record = reinterpret_cast<R*>(raw);
    while (pop_central(record)) drop_record(*record);
    words_->central_count.store(0, std::memory_order_release);
    for (int i = 0; deques && i < nslots_; ++i) {
      drain(slots_[i].deque, false, true);
      slots_[i].deque.reset();
    }
  }

  ForceEnvironment& env_;
  std::string label_;
  std::unique_ptr<machdep::BasicLock> monitor_;
  /// ended/probend: the lock engine only touches them under the monitor
  /// (the atomics are then just storage); the fast path reads them
  /// lock-free. A probend is final for the force entry (later put()s
  /// drop), a drain is provisional (a put() racing behind it re-opens).
  /// inflight covers every record: in the central queue by its pending
  /// unit, in a deque by its owner's credit, in a taker's hands by the
  /// credit or unit it took *before* popping or stealing - so 0 means no
  /// record anywhere and nobody who could create one. central_count hints
  /// that the central queue is nonempty, so the fast path only pays a
  /// monitor pass when there is central work to fetch.
  machdep::PlacedWords<machdep::AskforWords> words_;
  Slot* slots_;  // nslots_ of them, in the words
  int nslots_;   // 0 on lock-only machines
  std::deque<R> queue_;        // central queue on private scope
  R* shared_queue_ = nullptr;  // central queue on shared scope, in the words
};

/// The monitor over plain word records, for direct users of the protocol.
using AskforCore = BasicAskforCore<std::size_t>;

/// Typed askfor: moves tasks by value through one machdep::AskforRing and
/// runs the canonical worker loop. Every process of the force calls work()
/// with the same site-shared instance; any process may seed() or put()
/// tasks. The worker body receives a reference to this process's copy of
/// the granted task.
///
/// The ring is the cluster's coordinator monitor where the backend hands
/// one out (keyed by the construct's site key), else the in-process engine
/// above. Tasks cross address spaces by memcpy there and under os-fork, so
/// only the thread backend takes a T that is not trivially copyable, and
/// mutations of the granted copy never write back into the monitor.
template <typename T>
class Askfor {
  using Record = AskforRecord<T>;

 public:
  explicit Askfor(ForceEnvironment& env, const std::string& key = "askfor")
      : ring_(make_ring(env, key)) {}

  /// Adds a task; thread-safe, callable before or during work().
  void put(T task) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      ring_->put(&task);
    } else {
      const Record record{new T(std::move(task))};
      ring_->put(&record);
    }
  }

  /// The worker loop: repeatedly asks for work and runs
  /// `body(task, *this)`; the body may put() new tasks and may probend().
  /// Returns the number of tasks this process executed.
  std::size_t work(const std::function<void(T&, Askfor<T>&)>& body) {
    // Raw storage: the grant copy fully initializes it, and T need not be
    // default constructible.
    alignas(Record) unsigned char raw[sizeof(Record)];
    Record* record = reinterpret_cast<Record*>(raw);
    return ring_->work(raw, [&] { body(task_of(*record), *this); });
  }

  /// Aborts the computation (e.g. a search hit).
  void probend() { ring_->probend(); }

  [[nodiscard]] bool ended() const { return ring_->ended(); }
  [[nodiscard]] std::size_t granted() const {
    return static_cast<std::size_t>(ring_->granted());
  }

 private:
  static std::unique_ptr<machdep::AskforRing> make_ring(
      ForceEnvironment& env, const std::string& key) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (auto remote = env.backend().make_askfor_ring(key, sizeof(T))) {
        return remote;
      }
    } else {
      // Boxed records are pointers into this address space: backends that
      // cannot share one reject here.
      env.require(machdep::Capability::kNonTrivialPayloads,
                  "Askfor task type", key);
    }
    return env.observed(std::make_unique<BasicAskforCore<Record>>(env, key));
  }

  static T& task_of(T& task) { return task; }
  static T& task_of(AskforBox<T>& box) { return *box.task; }

  std::unique_ptr<machdep::AskforRing> ring_;
};

}  // namespace force::core
