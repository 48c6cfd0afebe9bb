// Unit and property tests for the generic lock layer (paper §4.1.3).
//
// Every mechanism must satisfy the same binary-semaphore contract,
// including release from a different thread than the acquirer - the
// property Produce/Consume depends on.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "machdep/locks.hpp"
#include "util/check.hpp"

namespace md = force::machdep;

namespace {

std::vector<md::LockKind> all_kinds() {
  return {md::LockKind::kTasSpin, md::LockKind::kTtasSpin,
          md::LockKind::kTicket, md::LockKind::kMcs, md::LockKind::kSystem,
          md::LockKind::kCombined, md::LockKind::kHepFullEmpty};
}

}  // namespace

class LockTest : public ::testing::TestWithParam<md::LockKind> {
 protected:
  md::LockCounters counters_;
  std::unique_ptr<md::BasicLock> make() {
    return md::make_lock(GetParam(), &counters_);
  }
};

TEST_P(LockTest, StartsUnlocked) {
  auto lock = make();
  EXPECT_TRUE(lock->try_acquire());
  lock->release();
}

TEST_P(LockTest, TryAcquireFailsWhenHeld) {
  auto lock = make();
  lock->acquire();
  EXPECT_FALSE(lock->try_acquire());
  lock->release();
  EXPECT_TRUE(lock->try_acquire());
  lock->release();
}

TEST_P(LockTest, MutualExclusionUnderContention) {
  auto lock = make();
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  long counter = 0;  // deliberately non-atomic: the lock must protect it
  std::atomic<int> overlap{0};
  std::atomic<bool> violated{false};
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < kThreads; ++t) {
      team.emplace_back([&] {
        for (int i = 0; i < kIters; ++i) {
          lock->acquire();
          if (overlap.fetch_add(1) != 0) violated = true;
          ++counter;
          overlap.fetch_sub(1);
          lock->release();
        }
      });
    }
  }
  EXPECT_FALSE(violated.load());
  EXPECT_EQ(counter, kThreads * kIters);
}

TEST_P(LockTest, CrossThreadRelease) {
  // The Produce/Consume pattern: thread A locks, thread B unlocks.
  auto lock = make();
  lock->acquire();
  std::atomic<bool> released{false};
  std::jthread releaser([&] {
    lock->release();
    released = true;
  });
  releaser.join();
  EXPECT_TRUE(released.load());
  EXPECT_TRUE(lock->try_acquire());
  lock->release();
}

TEST_P(LockTest, BlockedAcquirerWokenByOtherThread) {
  auto lock = make();
  lock->acquire();
  std::atomic<bool> got_it{false};
  std::jthread waiter([&] {
    lock->acquire();  // blocks until the main thread releases
    got_it = true;
    lock->release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(got_it.load());
  lock->release();
  waiter.join();
  EXPECT_TRUE(got_it.load());
}

TEST_P(LockTest, CountersTrackAcquiresAndReleases) {
  counters_.reset();
  auto lock = make();
  for (int i = 0; i < 10; ++i) {
    lock->acquire();
    lock->release();
  }
  const auto snap = md::snapshot(counters_);
  EXPECT_EQ(snap.acquires, 10u);
  EXPECT_EQ(snap.releases, 10u);
  EXPECT_EQ(snap.contended_acquires, 0u);  // single-threaded: no contention
}

TEST_P(LockTest, ContentionIsCounted) {
  counters_.reset();
  auto lock = make();
  lock->acquire();
  std::jthread waiter([&] { lock->acquire(); lock->release(); });
  // Release only once the waiter has found the lock held: a fixed sleep
  // loses to a waiter the host has not yet scheduled.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (md::snapshot(counters_).contended_acquires < 1u &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  lock->release();
  waiter.join();
  EXPECT_GE(md::snapshot(counters_).contended_acquires, 1u);
}

TEST_P(LockTest, MechanismNameMatchesKind) {
  auto lock = make();
  EXPECT_STREQ(lock->mechanism(), md::lock_kind_name(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(
    AllMechanisms, LockTest, ::testing::ValuesIn(all_kinds()),
    [](const ::testing::TestParamInfo<md::LockKind>& info) {
      std::string name = md::lock_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// --- non-parameterized specifics ---------------------------------------------

TEST(LockKindNames, RoundTrip) {
  for (md::LockKind k : all_kinds()) {
    EXPECT_EQ(md::lock_kind_from_name(md::lock_kind_name(k)), k);
  }
  EXPECT_THROW(md::lock_kind_from_name("nonsense"),
               force::util::CheckError);
}

TEST(TicketLock, IsFifoFair) {
  // With a ticket lock, a queued waiter cannot be overtaken by a later
  // try_acquire: the ticket counter has moved past the serving counter.
  md::TicketLock lock(nullptr);
  lock.acquire();
  std::atomic<bool> waiter_done{false};
  std::jthread waiter([&] {
    lock.acquire();
    waiter_done = true;
    lock.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_FALSE(lock.try_acquire());  // the queue position belongs to waiter
  lock.release();
  waiter.join();
  EXPECT_TRUE(waiter_done.load());
}

TEST(McsLock, ReleaseWithoutHoldThrows) {
  md::McsLock lock(nullptr);
  EXPECT_THROW(lock.release(), force::util::CheckError);
}

TEST(CombinedLock, FallsBackToBlockingUnderLongHold) {
  md::LockCounters counters;
  md::CombinedLock lock(&counters);  // a 50 ms hold outlasts any spin window
  lock.acquire();
  std::jthread waiter([&] {
    lock.acquire();
    lock.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  lock.release();
  waiter.join();
  EXPECT_GE(md::snapshot(counters).blocking_waits, 1u);
}

TEST(SystemLock, NeverSpins) {
  md::LockCounters counters;
  md::SystemLock lock(&counters);
  lock.acquire();
  std::jthread waiter([&] {
    lock.acquire();
    lock.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.release();
  waiter.join();
  EXPECT_EQ(md::snapshot(counters).spin_iterations, 0u);
  EXPECT_GE(md::snapshot(counters).blocking_waits, 1u);
}

TEST(SpinLocks, SpinIterationsAreRecorded) {
  md::LockCounters counters;
  md::TasSpinLock lock(&counters);
  lock.acquire();
  std::jthread waiter([&] {
    lock.acquire();
    lock.release();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  lock.release();
  waiter.join();
  EXPECT_GT(md::snapshot(counters).spin_iterations, 0u);
}

TEST(CounterSnapshots, DifferenceOperator) {
  md::LockCounters c;
  c.acquires = 10;
  c.releases = 8;
  const auto a = md::snapshot(c);
  c.acquires = 15;
  c.releases = 12;
  const auto d = md::snapshot(c) - a;
  EXPECT_EQ(d.acquires, 5u);
  EXPECT_EQ(d.releases, 4u);
}
