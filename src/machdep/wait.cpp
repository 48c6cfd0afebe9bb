#include "machdep/wait.hpp"

#include <thread>
#include <type_traits>

#include "machdep/fiber.hpp"
#include "machdep/shm.hpp"
#include "util/check.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace force::machdep {

unsigned Waiter::usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<unsigned>(CPU_COUNT(&set));
  }
#endif
  return std::thread::hardware_concurrency();
}

int Waiter::host_window() {
  // Long enough that a wake arriving within a few microseconds (a barrier
  // release, a pooled force entry) is caught without a kernel round trip.
  static const int window = fits(2, usable_cpus()) ? 1024 : 0;
  return window;
}

void Waiter::yield(WordScope scope) {
  if (scope == WordScope::kShared) shm::check_poison();
  member_yield();
}

template <typename T>
void Waiter::sleep(const std::atomic<T>& word, T seen, WordScope scope) {
  if (scope == WordScope::kShared) {
    if constexpr (std::is_same_v<T, std::uint32_t>) {
      // A peer in another address space stores and wakes through the same
      // physical page; one bounded slice, so a dead peer is noticed.
      shm::check_poison();
      shm::futex_wait(&word, seen);
      return;
    }
    FORCE_CHECK(false, "a shared wait needs a 32-bit futex word");
  }
  if (on_fiber()) {
    // Never block the worker in the kernel: the wake may come from a
    // sibling member multiplexed onto this same worker.
    member_yield();
    return;
  }
  word.wait(seen, std::memory_order_relaxed);
}

void Waiter::note_shared_site(const char* label) { shm::note_site(label); }

template <typename T>
void Waiter::wake_shared(std::atomic<T>& word, Wake who) {
  if constexpr (std::is_same_v<T, std::uint32_t>) {
    shm::futex_wake(&word, who == Wake::kOne ? 1 : -1);
  } else {
    FORCE_CHECK(false, "a shared wake needs a 32-bit futex word");
  }
}

template void Waiter::sleep(const std::atomic<std::uint32_t>&, std::uint32_t,
                            WordScope);
template void Waiter::sleep(const std::atomic<std::uint64_t>&, std::uint64_t,
                            WordScope);
template void Waiter::wake_shared(std::atomic<std::uint32_t>&, Wake);
template void Waiter::wake_shared(std::atomic<std::uint64_t>&, Wake);

}  // namespace force::machdep
