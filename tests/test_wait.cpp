// The one wait primitive (machdep/wait.*): what the lock and construct
// suites do not reach directly.
//
//   * An await or a lock wait inside an N:M member must hand the worker to
//     the sibling that will satisfy it, even when that sibling yields
//     before it does.
//   * An await on a shared (MAP_SHARED-style) word - bare, or inside the
//     episode barrier or a cell seize - leaves with shm::TeamPoisoned once
//     the team is poisoned, within one wait slice.
//   * The fast path: a satisfied await neither spins nor sleeps.
//   * The team-fit rule that sizes a socket wait's spin: a window bounded
//     in time when the team's processes each get a CPU, 0 when they do not
//     (one CPU, or more processes than CPUs), and spin_for keeps to it.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "machdep/fiber.hpp"
#include "machdep/locks.hpp"
#include "machdep/shm.hpp"
#include "machdep/wait.hpp"
#include "machdep/words.hpp"
#include "util/timing.hpp"

#ifdef __linux__
#include <sched.h>
#endif

namespace md = force::machdep;

TEST(WaitOnFiber, AwaitHandsTheWorkerToTheSiblingThatSetsTheWord) {
  std::atomic<std::uint32_t> word{0};
  std::string order;
  md::MemberScheduler sched;
  std::vector<std::function<void()>> bodies;
  bodies.emplace_back([&] {
    order += "a";
    EXPECT_EQ(md::Waiter().await(word,
                                 [](std::uint32_t v) { return v == 1; }),
              1u);
    order += "A";
  });
  bodies.emplace_back([&] {
    order += "b";
    md::Waiter::yield();  // the setter itself gives the worker away first
    order += "B";
    word.store(1, std::memory_order_release);
    md::Waiter::wake(word, md::WordScope::kPrivate, md::Wake::kAll);
  });
  sched.run(std::move(bodies));
  EXPECT_EQ(order.substr(0, 2), "ab");
  EXPECT_LT(order.find('B'), order.find('A'));
}

TEST(WaitOnFiber, ContendedTicketLockHandsTheWorkerToItsHolder) {
  md::LockCounters counters;
  md::TicketLock lock(&counters);
  int inside = 0;
  int max_inside = 0;
  md::MemberScheduler sched;
  std::vector<std::function<void()>> bodies;
  for (int m = 0; m < 2; ++m) {
    bodies.emplace_back([&] {
      lock.acquire();
      max_inside = std::max(max_inside, ++inside);
      md::Waiter::yield();  // the holder yields inside its critical section
      --inside;
      lock.release();
    });
  }
  sched.run(std::move(bodies));
  EXPECT_EQ(max_inside, 1);
  const auto s = md::snapshot(counters);
  EXPECT_EQ(s.acquires, 2u);
  EXPECT_EQ(s.releases, 2u);
  EXPECT_GE(s.contended_acquires, 1u);
  EXPECT_GE(s.spin_iterations, 1u);
}

/// Runs `wait` (which nobody ever satisfies or wakes) against a team that is
/// poisoned 30 ms in, and checks it throws TeamPoisoned within one slice.
void expect_poison_ends(const std::function<void()>& wait) {
  std::atomic<std::uint32_t> poison{0};
  md::shm::set_team_poison(&poison);
  constexpr auto kPoisonAfter = std::chrono::milliseconds(30);
  // The clock starts before the poisoner does, so a preempted test thread
  // cannot see the poison sooner than kPoisonAfter.
  const auto t0 = std::chrono::steady_clock::now();
  std::jthread poisoner([&] {
    std::this_thread::sleep_for(kPoisonAfter);
    poison.store(1, std::memory_order_release);  // no wake: the slice ends it
  });
  EXPECT_THROW(wait(), md::shm::TeamPoisoned);
  const auto waited = std::chrono::steady_clock::now() - t0;
  md::shm::set_team_poison(nullptr);
  EXPECT_GE(waited, kPoisonAfter);
  // One slice after the poison, plus scheduling slack for a loaded host.
  EXPECT_LT(waited, kPoisonAfter +
                        std::chrono::nanoseconds(md::shm::kWaitSliceNs) +
                        std::chrono::milliseconds(200));
}

TEST(WaitShared, PoisonedTeamEndsASharedAwaitWithinOneSlice) {
  std::atomic<std::uint32_t> word{0};
  expect_poison_ends([&] {
    md::Waiter().await(word, [](std::uint32_t v) { return v != 0; },
                       md::WordScope::kShared);
  });
}

TEST(WaitShared, PoisonedTeamEndsASharedBarrierWaitWithinOneSlice) {
  md::EpisodeBarrier barrier;  // width 2, and the second never arrives
  expect_poison_ends([&] {
    md::episode_arrive(barrier, 2, [] {}, md::WordScope::kShared);
  });
}

TEST(WaitShared, PoisonedTeamEndsASharedCellWaitWithinOneSlice) {
  std::atomic<std::uint32_t> cell{md::kCellEmpty};  // never produced
  expect_poison_ends(
      [&] { md::cell_seize(cell, md::kCellFull, md::WordScope::kShared); });
}

TEST(WaitFastPath, SatisfiedAwaitNeitherSpinsNorSleeps) {
  std::atomic<std::uint64_t> word{5};
  md::Waiter w;
  EXPECT_EQ(w.await(word, [](std::uint64_t v) { return v == 5; }), 5u);
  EXPECT_EQ(w.spins(), 0u);
  EXPECT_FALSE(w.slept());
}

TEST(WaitTeamFit, WindowIsZeroWhenTheTeamOutnumbersTheCpus) {
  // A cluster of np members plus its coordinator is np + 1 processes.
  EXPECT_EQ(md::Waiter::team_window_ns(5, 4), 0);
  EXPECT_EQ(md::Waiter::team_window_ns(9, 8), 0);
  EXPECT_EQ(md::Waiter::team_window_ns(3, 2), 0);
}

TEST(WaitTeamFit, WindowIsZeroOnOneCpu) {
  EXPECT_EQ(md::Waiter::team_window_ns(1, 1), 0);
  EXPECT_EQ(md::Waiter::team_window_ns(2, 1), 0);
  EXPECT_EQ(md::Waiter::team_window_ns(2, 0), 0);
}

TEST(WaitTeamFit, WindowIsBoundedWhenTheTeamFits) {
  for (const auto& [processes, cpus] :
       {std::pair{2, 2u}, std::pair{4, 4u}, std::pair{3, 64u}}) {
    const std::int64_t w = md::Waiter::team_window_ns(processes, cpus);
    EXPECT_GT(w, 0) << processes << " processes on " << cpus << " CPUs";
    // A few socket round trips, never a scheduler quantum.
    EXPECT_LE(w, 200'000) << processes << " processes on " << cpus;
  }
}

#ifdef __linux__
TEST(WaitTeamFit, AThreadPinnedToOneCpuGetsNoWindow) {
  cpu_set_t saved;
  ASSERT_EQ(sched_getaffinity(0, sizeof saved, &saved), 0);
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved)) {
      CPU_SET(c, &one);
      break;
    }
  }
  ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
  const unsigned cpus = md::Waiter::usable_cpus();
  const std::int64_t window = md::Waiter::team_window_ns(2);
  ASSERT_EQ(sched_setaffinity(0, sizeof saved, &saved), 0);
  EXPECT_EQ(cpus, 1u);
  EXPECT_EQ(window, 0);
}
#endif

TEST(WaitSpinFor, ZeroWindowProbesNothing) {
  md::Waiter w;
  int probes = 0;
  EXPECT_FALSE(w.spin_for(0, [&] { return ++probes > 0; }));
  EXPECT_EQ(probes, 0);
  EXPECT_EQ(w.spins(), 0u);
}

TEST(WaitSpinFor, StopsAtTheProbeThatSucceeds) {
  md::Waiter w;
  int probes = 0;
  EXPECT_TRUE(w.spin_for(1'000'000'000, [&] { return ++probes == 3; }));
  EXPECT_EQ(probes, 3);
  EXPECT_FALSE(w.slept());
}

TEST(WaitSpinFor, GivesUpOnceTheWindowRunsOut) {
  constexpr std::int64_t kWindowNs = 2'000'000;
  md::Waiter w;
  const std::int64_t t0 = force::util::now_ns();
  EXPECT_FALSE(w.spin_for(kWindowNs, [] { return false; }));
  const std::int64_t spent = force::util::now_ns() - t0;
  EXPECT_GE(spent, kWindowNs);
  // Scheduling slack for a loaded host, far short of a hang.
  EXPECT_LT(spent, kWindowNs + 500'000'000);
  EXPECT_TRUE(w.slept());
  EXPECT_GT(w.spins(), 0u);
}
