// The one wait primitive (paper §4.1.3: the machines differ in how a lock
// *waits* - spin, system call, or spin-then-block).
//
// Every spin, yield and sleep in the runtime goes through a Waiter, so the
// wait policy lives here and nowhere else:
//
//   * pause()  - one probe step of a hand-rolled spin loop: a cpu-relax,
//     and on every 64th call a yield. The yield is fiber-aware: on a pooled
//     N:M member it switches continuations (the holder of what we wait for
//     may be a sibling member on this very worker), on a plain thread it is
//     an OS yield.
//   * await()  - waits for a predicate on one atomic word: it spends the
//     Waiter's spin window on pause() probes, then yields (on a fiber) or
//     sleeps. The default window is worked out once from the CPUs this
//     process may run on; it is 0 on a 1-CPU host, where a spinner only
//     holds the CPU against the thread it waits for.
//   * the sleep picks its mechanism by where the word lives: std::atomic
//     wait for a word private to the process, or one raw futex slice with
//     a team-poison check for a word in a MAP_SHARED mapping (the os-fork
//     backend), so a survivor of a dead sibling throws shm::TeamPoisoned.
//   * wake()   - the other half: whoever changes a word others may sleep on
//     wakes them through the same scope - an atomic notify for a private
//     word, a futex wake keyed by the physical page for a shared one. No
//     other code in the runtime wakes a word.
//   * spin_for() - the spin half of a wait on something that is not a word:
//     the cluster transport's socket input (machdep/net.*). It probes
//     without blocking (a MSG_DONTWAIT read on a peer, a zero-timeout poll
//     on the coordinator), a yield() between probes, until the probe
//     succeeds or a window bounded in time runs out; then the caller
//     blocks in recv(2) or poll(2). The window is the team-fit rule,
//     team_window_ns(): a team's processes (a cluster's np members plus
//     its coordinator) each get a CPU of their own or nobody spins. On one
//     CPU, or with more processes than CPUs, the window is 0 and the wait
//     blocks at once, since a spinner would hold the CPU its partner needs.
//
// The spinning lock kinds keep their own probe protocols (TAS, TTAS
// backoff, ticket FIFO, MCS queue); the word shapes that sleep (word lock,
// episode barrier, full/empty cell) are machdep/words.hpp. A Waiter is
// one wait: construct it where the wait starts, and read spins()/slept()
// afterwards for the lock counters.
#pragma once

#include <atomic>
#include <cstdint>

#include "util/timing.hpp"

namespace force::machdep {

/// Where a waited-on word lives; picks how a Waiter sleeps on it.
enum class WordScope {
  kPrivate,  ///< in this process's memory: std::atomic wait
  kShared    ///< in a MAP_SHARED mapping: futex slices, poison-checked
};

/// How many sleepers a wake releases.
enum class Wake { kOne, kAll };

class Waiter {
 public:
  /// `window`: spin probes this wait may spend before sleeping; 0 blocks
  /// at once (the system lock).
  explicit Waiter(int window = host_window()) : window_(window) {}

  /// One probe step of a spin loop: cpu-relax, a yield every 64th call.
  void pause() {
    if (++spins_ % kYieldEvery == 0) {
      yield();
    } else {
      relax();
    }
  }

  /// Waits until `pred(value)` holds for the word's value and returns that
  /// value (acquire). Spins out the remaining window first, then yields
  /// the member (on a fiber) or sleeps until the word changes. A shared
  /// word must be 32 bits, and throws shm::TeamPoisoned once the team's
  /// poison word is set.
  template <typename T, typename Pred>
  T await(const std::atomic<T>& word, Pred pred,
          WordScope scope = WordScope::kPrivate) {
    for (;;) {
      const T v = word.load(std::memory_order_acquire);
      if (pred(v)) return v;
      if (window_ > 0) {
        --window_;
        pause();
      } else {
        slept_ = true;
        sleep(word, v, scope);
      }
    }
  }

  /// Calls `probe()` until it returns true or `window_ns` has passed since
  /// the first call, a yield() between calls. True once the probe
  /// succeeded; false when the window ran out, and the caller then blocks
  /// in the kernel. A window of 0 probes nothing and returns false.
  template <typename Probe>
  bool spin_for(std::int64_t window_ns, Probe&& probe) {
    if (window_ns <= 0) return false;
    const std::int64_t until = util::now_ns() + window_ns;
    do {
      if (probe()) return true;
      // Each probe is a system call already, so a yield between probes
      // costs little, and it hands the CPU over to a partner process the
      // scheduler has put on this one.
      ++spins_;
      yield();
    } while (util::now_ns() < until);
    slept_ = true;
    return false;
  }

  /// The team-fit rule: how long a wait on another process of a team of
  /// `processes` may spin before it blocks, given `cpus` CPUs to run on.
  /// kTeamWindowNs when every process has a CPU of its own, and 0 when
  /// they do not fit: on one CPU, or with more processes than CPUs.
  static std::int64_t team_window_ns(int processes, unsigned cpus) {
    return fits(processes, cpus) ? kTeamWindowNs : 0;
  }
  /// The rule against the CPUs this process may run on now.
  static std::int64_t team_window_ns(int processes) {
    return team_window_ns(processes, usable_cpus());
  }
  /// The spin bound of a team that fits: a few socket round trips.
  static constexpr std::int64_t kTeamWindowNs = 50'000;

  /// CPUs this process may run on: the affinity mask where the host has
  /// one, so a team pinned to one CPU (taskset) counts as a 1-CPU host.
  static unsigned usable_cpus();

  /// Wakes sleepers of a word just changed. A private word takes an atomic
  /// notify inline (the pool and barrier hot paths); a shared word a futex
  /// wake, which must be 32 bits.
  template <typename T>
  static void wake(std::atomic<T>& word, WordScope scope, Wake who) {
    if (scope == WordScope::kShared) {
      wake_shared(word, who);
    } else if (who == Wake::kOne) {
      word.notify_one();
    } else {
      word.notify_all();
    }
  }

  /// Names the construct a member is about to wait at. Only a shared-scope
  /// wait records it: the os-fork parent reports the label if the member
  /// process dies. Private waits have no such reader.
  static void note_site(const char* label, WordScope scope) {
    if (scope == WordScope::kShared) note_shared_site(label);
  }

  /// pause() calls and spin_for() steps so far, window probes included.
  [[nodiscard]] std::uint64_t spins() const { return spins_; }
  /// True once an await() or spin_for() has run out of window and slept
  /// (or yielded), or left its caller to block.
  [[nodiscard]] bool slept() const { return slept_; }

  /// The fiber-aware yield: a continuation switch on a pooled N:M member,
  /// an OS yield on a plain thread. A poll loop over shared-scope words
  /// passes their scope, so it throws shm::TeamPoisoned once the team's
  /// poison word is set.
  static void yield(WordScope scope = WordScope::kPrivate);
  /// `n` cpu-relax instructions: a backoff delay, not a probe.
  static void relax(std::uint32_t n = 1) {
    for (std::uint32_t i = 0; i < n; ++i) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
    }
  }

 private:
  static constexpr std::uint64_t kYieldEvery = 64;

  /// Spin probes an await() spends before it sleeps: 0 on a 1-CPU host.
  static int host_window();
  /// Whether `processes` each get one of `cpus` CPUs, with more than one.
  static bool fits(int processes, unsigned cpus) {
    return cpus > 1 && processes > 0 &&
           static_cast<unsigned>(processes) <= cpus;
  }

  /// Blocks while the word still reads `seen` (spurious returns allowed).
  template <typename T>
  static void sleep(const std::atomic<T>& word, T seen, WordScope scope);
  /// The last-known site record of a shared-scope wait.
  static void note_shared_site(const char* label);
  /// The futex wake of a shared word.
  template <typename T>
  static void wake_shared(std::atomic<T>& word, Wake who);

  int window_;
  std::uint64_t spins_ = 0;
  bool slept_ = false;
};

}  // namespace force::machdep
