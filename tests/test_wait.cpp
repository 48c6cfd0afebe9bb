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
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "machdep/fiber.hpp"
#include "machdep/locks.hpp"
#include "machdep/shm.hpp"
#include "machdep/wait.hpp"
#include "machdep/words.hpp"

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
