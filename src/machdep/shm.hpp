// The os-fork backend's process-shared layer: raw futex waits and wakes
// on address-free words in MAP_SHARED mappings (FUTEX_WAIT / FUTEX_WAKE
// without the PRIVATE flag, so the wait queue is keyed by physical page;
// a bounded sleep-poll elsewhere), the team-poison word and the last-known
// site slot. The mappings the words live in are machdep::zero_pages
// (pages.hpp) with PageSharing::kShared. The lock, barrier, full/empty,
// dispatch and Askfor words are the same ones the thread backend uses
// (machdep/words.hpp, core/askfor.hpp), placed in the arena and run with
// WordScope::kShared.
//
// Liveness contract: every blocking wait on a shared word is a
// machdep::Waiter await, which sleeps one bounded futex slice at a time
// and re-checks the installed team-poison word between slices. When the
// parent reaps a dead child it poisons the team; survivors parked on any
// shared word throw TeamPoisoned within one slice instead of waiting
// forever on a peer that no longer exists. This is the "never deadlocks
// the survivors" half of the robust-join design.
//
// All state structs are trivially destructible PODs so they can live in
// the SharedArena (which reclaims storage as raw bytes) and be addressed
// by name from every process.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "machdep/locks.hpp"

namespace force::machdep::shm {

/// One bounded wait slice; poison is re-checked at this period.
constexpr std::int64_t kWaitSliceNs = 10'000'000;  // 10 ms

// --- futex layer -----------------------------------------------------------

static_assert(sizeof(std::atomic<std::uint32_t>) == 4,
              "futex words must be exactly 32 bits");
static_assert(std::atomic<std::uint32_t>::is_always_lock_free,
              "shared-memory words must be address-free atomics");

/// Sleeps until `*word != expected` is *likely* (spurious wakeups allowed;
/// callers always re-check), for at most one kWaitSliceNs. Cross-process:
/// the kernel keys the wait queue by the physical page behind `word`.
/// Waits go through machdep::Waiter (wait.hpp), which calls this between
/// team-poison checks.
void futex_wait(const std::atomic<std::uint32_t>* word,
                std::uint32_t expected);

/// Wakes up to `count` waiters (`count < 0` means all).
void futex_wake(std::atomic<std::uint32_t>* word, int count);

// --- team poison -----------------------------------------------------------

/// Thrown out of any shm wait when the team has been poisoned (a sibling
/// process died). Forked children translate it into a quiet collateral
/// exit; the parent reports only the primary death.
class TeamPoisoned : public std::runtime_error {
 public:
  TeamPoisoned() : std::runtime_error(
      "force team poisoned: a sibling process died") {}
};

/// Installs the team-wide poison word (in the control mapping) for the
/// duration of a fork run; `nullptr` uninstalls. Not thread-safe against
/// concurrent runs - one fork team per process at a time, which is the
/// Force's one-driver model anyway.
void set_team_poison(std::atomic<std::uint32_t>* word);
[[nodiscard]] std::atomic<std::uint32_t>* team_poison();

/// True when a poison word is installed and set.
[[nodiscard]] bool team_poisoned();

/// Throws TeamPoisoned when the team is poisoned; called between wait
/// slices by every primitive below.
void check_poison();

// --- last-known construct site ---------------------------------------------

/// Installs the calling process's site slot (a char buffer inside the
/// team control mapping). Blocking primitives record the label of the
/// construct they are waiting at, so the parent can name the last-known
/// construct site of a process that died.
void set_site_slot(char* slot, std::size_t capacity);

/// Records `label` in the installed slot (no-op when none is installed).
void note_site(const char* label);

// --- process-shared lock ---------------------------------------------------

/// BasicLock façade over an arena-resident word lock (words.hpp), so the
/// generic lock engine (critical sections, named locks, monitors) works
/// across address spaces without the constructs changing. The wrapper
/// object is per-process; only the word is shared. Cross-process release
/// is legal, as the Force lock contract requires.
class ShmLock final : public BasicLock {
 public:
  ShmLock(std::atomic<std::uint32_t>* word, std::string label)
      : word_(word), label_(std::move(label)) {}

  void acquire() override {
    note_site(label_.c_str());
    word_lock_acquire(*word_, WordScope::kShared);
  }
  bool try_acquire() override { return word_lock_try(*word_); }
  void release() override { word_lock_release(*word_, WordScope::kShared); }
  const char* mechanism() const override { return "futex-shared"; }

  [[nodiscard]] const std::string& label() const { return label_; }

 private:
  std::atomic<std::uint32_t>* word_;
  std::string label_;
};

}  // namespace force::machdep::shm
