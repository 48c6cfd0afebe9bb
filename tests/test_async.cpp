// Tests for asynchronous variables (paper §3.2, §3.4, §4.2): full/empty
// semantics via the two-lock software scheme and the full/empty cell word
// (the HEP's tagged cell, native's atomic RMW), which expansion each
// machine takes, conservation under contention, Copy, Void and state
// tests, a pooled N:M pipeline, and the sharded runtime counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/async.hpp"
#include "core/force.hpp"

namespace fc = force::core;

namespace {
fc::ForceConfig test_config(const std::string& machine) {
  fc::ForceConfig cfg;
  cfg.nproc = 4;
  cfg.machine = machine;
  return cfg;
}
}  // namespace

// Parameterized over machine models: "hep" and "native" exercise the cell
// word, "encore" and "cray2" the two-lock scheme.
class AsyncTest : public ::testing::TestWithParam<std::string> {
 protected:
  AsyncTest() : env_(test_config(GetParam())) {}
  fc::ForceEnvironment env_;
};

TEST_P(AsyncTest, StartsEmpty) {
  fc::Async<int> v(env_);
  EXPECT_FALSE(v.is_full());
}

TEST_P(AsyncTest, ProduceConsumeRoundTrip) {
  fc::Async<double> v(env_);
  v.produce(2.5);
  EXPECT_TRUE(v.is_full());
  EXPECT_DOUBLE_EQ(v.consume(), 2.5);
  EXPECT_FALSE(v.is_full());
}

TEST_P(AsyncTest, CopyLeavesFull) {
  fc::Async<int> v(env_);
  v.produce(9);
  EXPECT_EQ(v.copy(), 9);
  EXPECT_TRUE(v.is_full());
  EXPECT_EQ(v.copy(), 9);
  EXPECT_EQ(v.consume(), 9);
  EXPECT_FALSE(v.is_full());
}

TEST_P(AsyncTest, VoidEmptiesFromAnyState) {
  fc::Async<int> v(env_);
  v.void_state();  // already empty: no-op
  EXPECT_FALSE(v.is_full());
  v.produce(1);
  v.void_state();
  EXPECT_FALSE(v.is_full());
  v.produce(2);  // usable afterwards
  EXPECT_EQ(v.consume(), 2);
}

TEST_P(AsyncTest, TryOperations) {
  fc::Async<int> v(env_);
  int out = 0;
  EXPECT_FALSE(v.try_consume(&out));
  EXPECT_TRUE(v.try_produce(5));
  EXPECT_FALSE(v.try_produce(6));  // full
  EXPECT_TRUE(v.try_consume(&out));
  EXPECT_EQ(out, 5);
  EXPECT_FALSE(v.try_consume(&out));
}

TEST_P(AsyncTest, ProduceBlocksWhileFull) {
  fc::Async<int> v(env_);
  v.produce(1);
  std::atomic<bool> second_done{false};
  std::jthread producer([&] {
    v.produce(2);
    second_done = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_done.load());
  EXPECT_EQ(v.consume(), 1);
  producer.join();
  EXPECT_TRUE(second_done.load());
  EXPECT_EQ(v.consume(), 2);
}

TEST_P(AsyncTest, ConsumeBlocksWhileEmpty) {
  fc::Async<int> v(env_);
  std::atomic<int> got{-1};
  std::jthread consumer([&] { got = v.consume(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(got.load(), -1);
  v.produce(7);
  consumer.join();
  EXPECT_EQ(got.load(), 7);
}

TEST_P(AsyncTest, ConservationUnderContention) {
  // Multiset in == multiset out with several producers and consumers.
  fc::Async<std::int64_t> v(env_);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr int kEach = 300;
  std::mutex m;
  std::vector<std::int64_t> consumed;
  {
    std::vector<std::jthread> team;
    for (int p = 0; p < kProducers; ++p) {
      team.emplace_back([&, p] {
        for (int i = 0; i < kEach; ++i) {
          v.produce(static_cast<std::int64_t>(p) * kEach + i + 1);
        }
      });
    }
    for (int c = 0; c < kConsumers; ++c) {
      team.emplace_back([&] {
        for (int i = 0; i < kEach; ++i) {
          const std::int64_t x = v.consume();
          std::lock_guard<std::mutex> g(m);
          consumed.push_back(x);
        }
      });
    }
  }
  ASSERT_EQ(consumed.size(), static_cast<std::size_t>(kProducers * kEach));
  std::sort(consumed.begin(), consumed.end());
  for (std::size_t i = 0; i < consumed.size(); ++i) {
    ASSERT_EQ(consumed[i], static_cast<std::int64_t>(i + 1));
  }
  EXPECT_FALSE(v.is_full());
}

TEST_P(AsyncTest, WidePayloadsWork) {
  // Payloads wider than one word cannot live inside a HEP cell; the
  // runtime must still move them atomically.
  struct Wide {
    double a = 0, b = 0, c = 0;
  };
  fc::Async<Wide> v(env_);
  v.produce({1.5, 2.5, 3.5});
  const Wide w = v.consume();
  EXPECT_DOUBLE_EQ(w.a, 1.5);
  EXPECT_DOUBLE_EQ(w.b, 2.5);
  EXPECT_DOUBLE_EQ(w.c, 3.5);
}

TEST_P(AsyncTest, StatsAreCounted) {
  env_.stats().reset();
  fc::Async<int> v(env_);
  for (int i = 0; i < 5; ++i) {
    v.produce(i);
    (void)v.consume();
  }
  EXPECT_EQ(env_.stats().produces.load(std::memory_order_relaxed), 5u);
  EXPECT_EQ(env_.stats().consumes.load(std::memory_order_relaxed), 5u);
}

TEST_P(AsyncTest, AsyncArrayIndependentCells) {
  fc::AsyncArray<int> arr(env_, 8);
  EXPECT_EQ(arr.size(), 8u);
  arr[3].produce(33);
  EXPECT_TRUE(arr[3].is_full());
  EXPECT_FALSE(arr[2].is_full());
  EXPECT_EQ(arr[3].consume(), 33);
  EXPECT_THROW(arr[8], force::util::CheckError);
}

INSTANTIATE_TEST_SUITE_P(Machines, AsyncTest,
                         ::testing::Values("hep", "encore", "cray2",
                                           "native"),
                         [](const auto& info) { return info.param; });

// --- path selection -------------------------------------------------------------

TEST(AsyncPaths, HepUsesHardwareOthersUseLocks) {
  fc::ForceEnvironment hep(test_config("hep"));
  fc::ForceEnvironment enc(test_config("encore"));
  fc::Async<int> vh(hep);
  fc::Async<int> ve(enc);
  EXPECT_TRUE(vh.uses_hardware_path());
  EXPECT_FALSE(ve.uses_hardware_path());
}

TEST(AsyncPaths, SoftwareSchemeUsesTwoLocksPerVariable) {
  // The paper: "all other machines require the use of two locks for
  // implementation of the full/empty state" (plus our Void guard).
  fc::ForceEnvironment enc(test_config("encore"));
  const auto before = enc.machine().lock_stats().logical_locks;
  fc::Async<int> v(enc);
  const auto after = enc.machine().lock_stats().logical_locks;
  EXPECT_EQ(after - before, 3u);  // E, F, void guard
}

TEST(AsyncPaths, HardwareSchemeAllocatesNoLocks) {
  fc::ForceEnvironment hep(test_config("hep"));
  const auto before = hep.machine().lock_stats().logical_locks;
  fc::Async<int> v(hep);
  EXPECT_EQ(hep.machine().lock_stats().logical_locks, before);
}

TEST(AsyncPaths, SoftwareLockTrafficIsVisible) {
  fc::ForceEnvironment enc(test_config("encore"));
  fc::Async<int> v(enc);
  const auto before = force::machdep::snapshot(enc.machine().counters());
  v.produce(1);
  (void)v.consume();
  const auto delta =
      force::machdep::snapshot(enc.machine().counters()) - before;
  // Produce: lock F, unlock E; Consume: lock E, unlock F.
  EXPECT_EQ(delta.acquires, 2u);
  EXPECT_EQ(delta.releases, 2u);
}

TEST(AsyncPaths, NativeRunsTheCellWord) {
  // Atomic RMW and unbudgeted locks: no E/F pair is allocated, and a
  // handoff touches no lock.
  fc::ForceEnvironment nat(test_config("native"));
  const auto locks = nat.machine().lock_stats().logical_locks;
  fc::Async<int> v(nat);
  EXPECT_TRUE(v.uses_hardware_path());
  EXPECT_EQ(nat.machine().lock_stats().logical_locks, locks);
  const auto before = force::machdep::snapshot(nat.machine().counters());
  v.produce(1);
  EXPECT_EQ(v.consume(), 1);
  const auto delta =
      force::machdep::snapshot(nat.machine().counters()) - before;
  EXPECT_EQ(delta.acquires, 0u);
  EXPECT_EQ(delta.releases, 0u);
}

TEST(AsyncPaths, LockedDispatchAndLockBudgetsKeepTheLockPair) {
  // dispatch="locked" restores the paper's expansion on native; the Cray-2
  // and the Alliant have atomic RMW but a lock budget, so their async
  // variables still spend it (E9).
  fc::ForceConfig locked = test_config("native");
  locked.dispatch = "locked";
  for (const fc::ForceConfig& cfg :
       {locked, test_config("cray2"), test_config("alliant")}) {
    SCOPED_TRACE(cfg.machine + "/" + cfg.dispatch);
    fc::ForceEnvironment env(cfg);
    const auto locks = env.machine().lock_stats().logical_locks;
    fc::Async<int> v(env);
    EXPECT_FALSE(v.uses_hardware_path());
    EXPECT_EQ(env.machine().lock_stats().logical_locks - locks, 3u);
    const auto before = force::machdep::snapshot(env.machine().counters());
    v.produce(1);
    EXPECT_EQ(v.consume(), 1);
    const auto delta =
        force::machdep::snapshot(env.machine().counters()) - before;
    EXPECT_EQ(delta.acquires, 2u);
    EXPECT_EQ(delta.releases, 2u);
  }
}

// --- pooled N:M pipeline -------------------------------------------------------

TEST(AsyncPipeline, PooledNmNativeRingDeliversEveryItemOnceInOrder) {
  // Four stages on two workers: a stage blocked on a cell word must yield
  // its worker to the stage it waits for. Stage s passes item i through
  // cell i % kDepth of ring s; the sink must see 0, 1, ... exactly once.
  constexpr int kStages = 4;
  constexpr std::size_t kDepth = 4;
  constexpr std::int64_t kItems = 10000;
  force::ForceConfig cfg;
  cfg.nproc = kStages;
  cfg.machine = "native";
  cfg.pool_workers = 2;
  force::Force f(cfg);
  std::int64_t received = 0;
  std::int64_t out_of_order = 0;
  f.run([&](force::Ctx& ctx) {
    auto& rings = ctx.async_array<std::int64_t>(FORCE_SITE,
                                                (kStages - 1) * kDepth);
    const auto stage = static_cast<std::size_t>(ctx.me0());
    for (std::int64_t i = 0; i < kItems; ++i) {
      const std::size_t cell = static_cast<std::size_t>(i) % kDepth;
      const std::int64_t v =
          stage == 0 ? i : rings[(stage - 1) * kDepth + cell].consume();
      if (stage + 1 < kStages) {
        rings[stage * kDepth + cell].produce(v);
      } else {
        ++received;
        if (v != i) ++out_of_order;
      }
    }
  });
  EXPECT_EQ(received, kItems);
  EXPECT_EQ(out_of_order, 0);
  // The sharded counters sum every member's Produce and Consume.
  constexpr auto kHandoffs = static_cast<std::uint64_t>((kStages - 1) * kItems);
  EXPECT_EQ(f.env().stats().produces.load(), kHandoffs);
  EXPECT_EQ(f.env().stats().consumes.load(), kHandoffs);
}

// --- sharded runtime counters -------------------------------------------------

TEST(ShardedCounter, ConcurrentAddsSumExactlyAndResetClearsEveryShard) {
  // Each thread counts on its own shard; the read sums them exactly, and
  // RuntimeStats::reset() clears every shard, not only the caller's.
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 100000;
  fc::RuntimeStats stats;
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < kThreads; ++t) {
      team.emplace_back([&] {
        for (std::uint64_t i = 0; i < kAdds; ++i) {
          stats.produces.fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
  }
  EXPECT_EQ(stats.produces.load(), kThreads * kAdds);
  EXPECT_EQ(stats.consumes.load(), 0u);
  stats.reset();
  EXPECT_EQ(stats.produces.load(), 0u);
  stats.produces.fetch_add(3);
  EXPECT_EQ(stats.produces.load(), 3u);
}
