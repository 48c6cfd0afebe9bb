#include "machdep/shm.hpp"

#include <cstring>
#include <thread>

#include "machdep/wait.hpp"

#ifdef __linux__
#include <linux/futex.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#endif

namespace force::machdep::shm {

// --- futex layer -----------------------------------------------------------

void futex_wait(const std::atomic<std::uint32_t>* word,
                std::uint32_t expected) {
#ifdef __linux__
  timespec ts;
  ts.tv_sec = static_cast<time_t>(kWaitSliceNs / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(kWaitSliceNs % 1'000'000'000);
  // No FUTEX_PRIVATE_FLAG: the queue must be keyed by the shared page so
  // waiters and wakers in different address spaces find each other.
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(word), FUTEX_WAIT,
          expected, &ts, nullptr, 0);
#else
  // Portable fallback: bounded sleep-poll. Correct (callers re-check) but
  // slower to wake; Linux never takes this path.
  if (word->load(std::memory_order_acquire) == expected) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
#endif
}

void futex_wake(std::atomic<std::uint32_t>* word, int count) {
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
          count < 0 ? INT32_MAX : count, nullptr, nullptr, 0);
#else
  (void)word;
  (void)count;  // sleep-poll waiters wake by themselves
#endif
}

// --- team poison / site slot -----------------------------------------------

namespace {
// One fork team per process at a time (the Force's one-driver model), and
// forked children are single-threaded, so plain globals suffice. They are
// atomics anyway so thread-mode unit tests of these primitives stay clean.
std::atomic<std::atomic<std::uint32_t>*> g_poison{nullptr};
std::atomic<char*> g_site_slot{nullptr};
std::atomic<std::size_t> g_site_cap{0};
}  // namespace

void set_team_poison(std::atomic<std::uint32_t>* word) {
  g_poison.store(word, std::memory_order_release);
}

std::atomic<std::uint32_t>* team_poison() {
  return g_poison.load(std::memory_order_acquire);
}

bool team_poisoned() {
  std::atomic<std::uint32_t>* w = team_poison();
  return w != nullptr && w->load(std::memory_order_acquire) != 0;
}

void check_poison() {
  if (team_poisoned()) throw TeamPoisoned();
}

void set_site_slot(char* slot, std::size_t capacity) {
  g_site_slot.store(slot, std::memory_order_release);
  g_site_cap.store(capacity, std::memory_order_release);
}

void note_site(const char* label) {
  char* slot = g_site_slot.load(std::memory_order_acquire);
  if (slot == nullptr || label == nullptr) return;
  const std::size_t cap = g_site_cap.load(std::memory_order_acquire);
  if (cap == 0) return;
  // Best-effort: torn reads by the parent can only garble the *text* of a
  // diagnostic, never correctness, and the buffer stays NUL-terminated.
  std::strncpy(slot, label, cap - 1);
  slot[cap - 1] = '\0';
}

}  // namespace force::machdep::shm
