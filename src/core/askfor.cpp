#include "core/askfor.hpp"

#include <optional>

#include "core/env.hpp"
#include "core/sentry.hpp"
#include "machdep/fiber.hpp"
#include "machdep/wait.hpp"

namespace force::core {

namespace {

/// One pending/working unit in the packed inflight counter: pending in
/// the low 32 bits, working in the high 32. A grant adds kGrantDelta -
/// pending-1 and working+1 in a single atomic RMW.
constexpr std::uint64_t kWorkingOne = std::uint64_t{1} << 32;
constexpr std::uint64_t kGrantDelta = kWorkingOne - 1;

/// The calling thread's current worker binding. One binding per thread is
/// enough: a thread runs one work() loop at a time, and nested monitors
/// (a body driving a second Askfor) save and restore it via WorkerSlot.
struct TlsBinding {
  const void* core = nullptr;
  int slot = -1;
};
thread_local TlsBinding tls_binding;

}  // namespace

AskforCore::AskforCore(ForceEnvironment& env)
    : env_(env),
      monitor_(env.new_lock(machdep::LockRole::kMutex, "askfor.monitor")) {
  if (env.atomic_words()) {
    nslots_ = env.nproc();
    deques_ = std::make_unique<machdep::StealDeque[]>(
        static_cast<std::size_t>(nslots_));
    slot_taken_ = std::make_unique<std::atomic<bool>[]>(
        static_cast<std::size_t>(nslots_));
    slot_tally_ = std::make_unique<SlotTally[]>(
        static_cast<std::size_t>(nslots_));
    for (int i = 0; i < nslots_; ++i) {
      slot_taken_[i].store(false, std::memory_order_relaxed);
    }
  }
}

AskforCore::~AskforCore() = default;

// ---------------------------------------------------------------------------
// Worker-slot registration (fast path only; a no-op shell otherwise).
// ---------------------------------------------------------------------------

AskforCore::WorkerSlot::WorkerSlot(AskforCore& core)
    : core_(core),
      // Never bind a deque to an N:M pooled member: two members share one
      // OS thread, so a thread_local slot binding would be clobbered (and
      // dangle) across continuation switches. Slotless workers are the
      // documented fallback - central queue plus stealing, same semantics.
      slot_(machdep::on_fiber() ? -1 : core.grab_slot()),
      saved_core_(tls_binding.core),
      saved_slot_(tls_binding.slot) {
  tls_binding.core = &core_;
  tls_binding.slot = slot_;
}

AskforCore::WorkerSlot::~WorkerSlot() {
  tls_binding.core = saved_core_;
  tls_binding.slot = saved_slot_;
  core_.release_slot(slot_);
}

int AskforCore::current_slot() const {
  return tls_binding.core == this ? tls_binding.slot : -1;
}

int AskforCore::grab_slot() {
  if (deques_ == nullptr) return -1;
  for (int i = 0; i < nslots_; ++i) {
    bool expected = false;
    if (slot_taken_[i].compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
      return i;
    }
  }
  // More concurrent workers than nproc slots: work slotless (correct,
  // just steals instead of owning a deque).
  return -1;
}

void AskforCore::release_slot(int slot) {
  if (slot < 0) return;
  // Flush this slot's grant tally into the env stats (the tally itself is
  // cumulative; granted() sums it live). stats_reported needs no atomics:
  // it is only touched by the slot holder, and the release/acquire pair on
  // slot_taken_ hands it to the next holder.
  SlotTally& tally = slot_tally_[slot];
  const std::uint64_t grants = tally.grants.load(std::memory_order_relaxed);
  env_.stats().askfor_grants.fetch_add(grants - tally.stats_reported,
                                       std::memory_order_relaxed);
  tally.stats_reported = grants;
  // The deque stays owned by the core, not the slot holder: tokens left
  // behind (e.g. a body threw mid-episode) remain stealable, and the next
  // holder of the slot simply inherits them.
  slot_taken_[slot].store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// put / ask / complete - engine dispatch.
// ---------------------------------------------------------------------------

void AskforCore::put(std::size_t token) {
  if (Sentry* sn = env_.sentry()) sn->fuzz();
  if (deques_ == nullptr) {
    // Lock engine: the Argonne monitor shape, one lock pass.
    monitor_->acquire();
    if (!probend_.load(std::memory_order_relaxed)) {
      // A drained latch that beat this put is provisional: with the seed
      // put inside the force (the leader puts, everyone works), a
      // sibling's first ask can find the queue empty with nobody working
      // and latch "drained" first - on a parked pool every member wakes
      // hot at once, so the race is live, not theoretical. The seed must
      // never be lost: re-open. Workers that already left their work()
      // loop just sit at the next barrier while the remaining members (at
      // least the seeder itself) drain the work - fewer hands, same
      // answer. A probend stays final: those tokens drop, as ever.
      ended_.store(false, std::memory_order_relaxed);
      queue_.push_back(token);
    }
    monitor_->release();
    return;
  }
  if (probend_.load(std::memory_order_acquire)) return;  // dropped, as ever
  // Count the token *before* it becomes visible so termination detection
  // can never see an empty system while a token is mid-publish.
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  if (ended_.load(std::memory_order_acquire)) {
    // Drained latch raced ahead of this seed (see the lock engine above):
    // re-open under the monitor. The latch cannot re-fire once the
    // fetch_add has landed - its double-check reads inflight under the
    // monitor - and ask_fast re-opens too when it sees tokens behind the
    // latch, so the seed survives either side of the race.
    monitor_->acquire();
    if (probend_.load(std::memory_order_relaxed)) {
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      monitor_->release();
      return;
    }
    ended_.store(false, std::memory_order_release);
    monitor_->release();
  }
  const int slot = current_slot();
  if (slot >= 0 && deques_[slot].push(token)) return;
  // Unregistered thread, or the bounded deque is full: central queue.
  monitor_->acquire();
  if (probend_.load(std::memory_order_relaxed)) {
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  } else {
    queue_.push_back(token);
    central_count_.fetch_add(1, std::memory_order_release);
  }
  monitor_->release();
}

AskforCore::Outcome AskforCore::ask(std::size_t* token) {
  FORCE_CHECK(token != nullptr, "ask needs an output slot");
  return deques_ != nullptr ? ask_fast(token) : ask_locked(token);
}

void AskforCore::grant_fast(int slot) {
  inflight_.fetch_add(kGrantDelta, std::memory_order_acq_rel);
  if (slot >= 0) {
    // Exclusive cache line: a relaxed increment, not a shared fetch-add.
    SlotTally& tally = slot_tally_[slot];
    tally.grants.store(tally.grants.load(std::memory_order_relaxed) + 1,
                       std::memory_order_relaxed);
    return;
  }
  granted_.fetch_add(1, std::memory_order_relaxed);
  env_.stats().askfor_grants.fetch_add(1, std::memory_order_relaxed);
}

AskforCore::Outcome AskforCore::ask_fast(std::size_t* token) {
  const int slot = current_slot();
  Sentry* sn = env_.sentry();
  // Registered lazily, on the first unproductive pass: the watchdog then
  // sees "blocked in Askfor termination wait" if the loop never ends.
  std::optional<Sentry::WaitScope> wait;
  for (;;) {
    if (sn != nullptr) sn->fuzz();
    if (ended_.load(std::memory_order_acquire)) {
      if (probend_.load(std::memory_order_acquire) ||
          inflight_.load(std::memory_order_acquire) == 0) {
        return Outcome::kDone;
      }
      // Live tokens behind a drained latch: a seed was published right
      // after the latch fired (put() re-opens, but this asker may observe
      // the latch first). Re-open under the monitor and keep serving.
      monitor_->acquire();
      if (!probend_.load(std::memory_order_relaxed) &&
          inflight_.load(std::memory_order_acquire) != 0) {
        ended_.store(false, std::memory_order_release);
      }
      monitor_->release();
      continue;
    }
    // 1. Own deque, newest first (cache-warm, depth-first on task trees).
    if (slot >= 0 && deques_[slot].pop(token)) {
      grant_fast(slot);
      return Outcome::kWork;
    }
    // 2. Steal from the other workers, oldest first.
    for (int i = 0; i < nslots_; ++i) {
      const int victim = slot >= 0 ? (slot + 1 + i) % nslots_ : i;
      if (victim == slot) continue;
      if (deques_[victim].steal(token)) {
        grant_fast(slot);
        return Outcome::kWork;
      }
    }
    // 3. The central (slow-path) queue, only when the hint says nonempty.
    if (central_count_.load(std::memory_order_acquire) > 0) {
      monitor_->acquire();
      if (!queue_.empty()) {
        *token = queue_.front();
        queue_.pop_front();
        central_count_.fetch_sub(1, std::memory_order_release);
        monitor_->release();
        grant_fast(slot);
        return Outcome::kWork;
      }
      monitor_->release();
    }
    // 4. Termination: one load of the packed counter is authoritative -
    //    no token pending anywhere and nobody who could create one.
    if (inflight_.load(std::memory_order_acquire) == 0) {
      // Latch the decision under the monitor so every process agrees
      // (and so a racing probend cannot interleave half-way).
      monitor_->acquire();
      bool done = ended_.load(std::memory_order_relaxed);
      if (!done && inflight_.load(std::memory_order_acquire) == 0 &&
          queue_.empty()) {
        ended_.store(true, std::memory_order_release);
        done = true;
      }
      monitor_->release();
      if (done) return Outcome::kDone;
      continue;
    }
    // Work may still appear: retry politely.
    if (sn != nullptr && !wait.has_value()) {
      wait.emplace(sn, Sentry::WaitKind::kAskfor, this, "askfor");
    }
    machdep::Waiter::yield();
  }
}

AskforCore::Outcome AskforCore::ask_locked(std::size_t* token) {
  Sentry* sn = env_.sentry();
  std::optional<Sentry::WaitScope> wait;
  for (;;) {
    monitor_->acquire();
    if (ended_.load(std::memory_order_relaxed)) {
      monitor_->release();
      return Outcome::kDone;
    }
    if (!queue_.empty()) {
      *token = queue_.front();
      queue_.pop_front();
      ++working_;
      granted_.fetch_add(1, std::memory_order_relaxed);
      env_.stats().askfor_grants.fetch_add(1, std::memory_order_relaxed);
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
    if (sn != nullptr && !wait.has_value()) {
      wait.emplace(sn, Sentry::WaitKind::kAskfor, this, "askfor");
    }
    machdep::Waiter::yield();
  }
}

AskforCore::Outcome AskforCore::next(std::size_t* token) {
  FORCE_CHECK(token != nullptr, "next needs an output slot");
  if (deques_ != nullptr) {
    const int slot = current_slot();
    if (slot >= 0 && !ended_.load(std::memory_order_acquire) &&
        deques_[slot].pop(token)) {
      // The common case on task trees: finish one task, start its child.
      // complete() (working-1) and grant (pending-1, working+1) fuse into
      // pending-1 - one RMW, and the working count never transiently
      // drops, so termination detection only gets *more* conservative.
      // No underflow: the popped token was counted pending by put().
      inflight_.fetch_sub(1, std::memory_order_acq_rel);
      SlotTally& tally = slot_tally_[slot];
      tally.grants.store(tally.grants.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
      return Outcome::kWork;
    }
  }
  // Own deque empty (or lock engine / no slot): the plain two-step path.
  complete();
  return ask(token);
}

void AskforCore::complete() {
  if (deques_ != nullptr) {
    const std::uint64_t old =
        inflight_.fetch_sub(kWorkingOne, std::memory_order_acq_rel);
    if ((old >> 32) == 0) {
      inflight_.fetch_add(kWorkingOne, std::memory_order_acq_rel);
      FORCE_CHECK(false, "complete() without a granted task");
    }
    return;
  }
  monitor_->acquire();
  FORCE_CHECK(working_ > 0, "complete() without a granted task");
  --working_;
  monitor_->release();
}

void AskforCore::rearm_for(std::uint32_t gen,
                           const std::function<void()>& clear_tasks) {
  if (seen_generation_.load(std::memory_order_acquire) == gen) return;
  monitor_->acquire();
  if (seen_generation_.load(std::memory_order_relaxed) != gen) {
    // Fresh force entry on a reused site: clear the previous episode.
    // Tokens still queued belonged to a probend()ed computation - drain
    // them from the central queue and, on the fast path, from the deques
    // by stealing (safe: the caller is at an episode boundary, so no
    // deque owner is popping concurrently). The generation stamp is the
    // last write, so racing first-ops of the same entry see either the
    // old generation (and reset themselves, idempotently, under the
    // monitor) or a fully reset monitor.
    queue_.clear();
    working_ = 0;
    if (deques_ != nullptr) {
      std::size_t token;
      for (int i = 0; i < nslots_; ++i) {
        while (deques_[i].steal(&token)) {
        }
      }
      central_count_.store(0, std::memory_order_release);
      inflight_.store(0, std::memory_order_release);
    }
    // Tokens index the caller's task storage: both reset together, so a
    // racing first put() of this entry lands after the clear.
    clear_tasks();
    probend_.store(false, std::memory_order_release);
    ended_.store(false, std::memory_order_release);
    seen_generation_.store(gen, std::memory_order_release);
  }
  monitor_->release();
}

void AskforCore::probend() {
  monitor_->acquire();
  // probend_ first: a reader that sees ended_ without the monitor must
  // never mistake an explicit end for a provisional drain and re-open it
  // (the re-open paths re-check probend_ under the monitor regardless).
  probend_.store(true, std::memory_order_release);
  ended_.store(true, std::memory_order_release);
  queue_.clear();
  central_count_.store(0, std::memory_order_release);
  monitor_->release();
}

bool AskforCore::ended() const {
  if (deques_ != nullptr) return ended_.load(std::memory_order_acquire);
  monitor_->acquire();
  const bool e = ended_.load(std::memory_order_relaxed);
  monitor_->release();
  return e;
}

std::size_t AskforCore::granted() const {
  if (deques_ != nullptr) {
    std::size_t g = granted_.load(std::memory_order_acquire);
    for (int i = 0; i < nslots_; ++i) {
      g += slot_tally_[i].grants.load(std::memory_order_relaxed);
    }
    return g;
  }
  monitor_->acquire();
  const std::size_t g = granted_.load(std::memory_order_relaxed);
  monitor_->release();
  return g;
}

}  // namespace force::core
