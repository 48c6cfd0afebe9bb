// Tests for the capability-gated dispatch fast path: the DispatchCounter
// engines, the Chase-Lev StealDeque, and the lock-accounting contract -
// lock-only machine models keep routing every dispatch, entry gate and
// default barrier through MachineModel::new_lock() locks (visible in
// LockCounters), while hardware-RMW machines pay no lock at all.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "core/askfor.hpp"
#include "core/barrier.hpp"
#include "core/doall.hpp"
#include "core/env.hpp"
#include "machdep/machine.hpp"
#include "machdep/stealdeque.hpp"

namespace fc = force::core;
namespace fm = force::machdep;

namespace {

fc::ForceConfig test_config(int np, const std::string& machine = "native",
                            const std::string& dispatch = "auto") {
  fc::ForceConfig cfg;
  cfg.nproc = np;
  cfg.machine = machine;
  cfg.dispatch = dispatch;
  return cfg;
}

void on_team(int np, const std::function<void(int)>& fn) {
  std::vector<std::jthread> team;
  for (int t = 0; t < np; ++t) team.emplace_back([&fn, t] { fn(t); });
}

}  // namespace

// --- capability wiring -----------------------------------------------------------

TEST(DispatchCapability, MatchesTheMachineRegistry) {
  // The 1989 split: HEP, Flex/32, Multimax and Balance dispatch through
  // generic locks; Alliant FX/8, Cray-2 and native have hardware RMW.
  EXPECT_FALSE(fm::machine_spec("hep").hardware_atomic_rmw);
  EXPECT_FALSE(fm::machine_spec("flex32").hardware_atomic_rmw);
  EXPECT_FALSE(fm::machine_spec("encore").hardware_atomic_rmw);
  EXPECT_FALSE(fm::machine_spec("sequent").hardware_atomic_rmw);
  EXPECT_TRUE(fm::machine_spec("alliant").hardware_atomic_rmw);
  EXPECT_TRUE(fm::machine_spec("cray2").hardware_atomic_rmw);
  EXPECT_TRUE(fm::machine_spec("native").hardware_atomic_rmw);
}

TEST(DispatchCapability, FactoryHonoursCapabilityAndOverride) {
  fm::DispatchWords words;
  fc::ForceEnvironment auto_env(test_config(2, "native"));
  EXPECT_TRUE(auto_env.atomic_words());
  EXPECT_TRUE(auto_env.new_dispatch_counter(2, words)->lock_free());
  fc::ForceEnvironment sequent_env(test_config(2, "sequent"));
  EXPECT_FALSE(sequent_env.atomic_words());
  EXPECT_FALSE(sequent_env.new_dispatch_counter(2, words)->lock_free());
  fc::ForceEnvironment locked_env(test_config(2, "native", "locked"));
  EXPECT_FALSE(locked_env.atomic_words());
  EXPECT_FALSE(locked_env.new_dispatch_counter(2, words)->lock_free());
}

TEST(DispatchCapability, BadDispatchConfigThrows) {
  EXPECT_THROW(fc::ForceEnvironment env(test_config(1, "native", "turbo")),
               force::util::CheckError);
}

// --- DispatchCounter -------------------------------------------------------------

class DispatchCounterBothEngines : public ::testing::TestWithParam<bool> {
 protected:
  /// A counter for a team of `width`, armed for `trips`.
  std::unique_ptr<fm::DispatchCounter> make(int width, std::int64_t trips) {
    machine_ = std::make_unique<fm::MachineModel>(fm::machine_spec("native"));
    auto counter =
        GetParam()
            ? std::make_unique<fm::DispatchCounter>(words_,
                                                    machine_->new_lock())
            : std::make_unique<fm::DispatchCounter>(words_, width);
    counter->reset(trips);
    return counter;
  }
  std::unique_ptr<fm::MachineModel> machine_;
  fm::DispatchWords words_;
};

TEST_P(DispatchCounterBothEngines, TilesTheTripSpaceExactlyOnce) {
  constexpr std::int64_t kTrips = 10000;
  constexpr int kThreads = 8;
  auto counter = make(kThreads, kTrips);
  EXPECT_EQ(counter->lock_free(), !GetParam());
  std::mutex m;
  std::vector<char> seen(kTrips, 0);
  std::atomic<int> exhausted_claims{0};
  on_team(kThreads, [&](int me) {
    const std::int64_t want = 1 + me % 3;  // mixed chunk sizes
    for (;;) {
      const fm::DispatchClaim c = counter->claim(me, want, kTrips);
      if (c.count == 0) {
        exhausted_claims.fetch_add(1);
        break;
      }
      ASSERT_LE(c.begin + c.count, kTrips);
      std::lock_guard<std::mutex> g(m);
      for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
        ASSERT_EQ(seen[static_cast<std::size_t>(t)], 0) << t;
        seen[static_cast<std::size_t>(t)] = 1;
      }
    }
  });
  for (std::int64_t t = 0; t < kTrips; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], 1) << t;
  }
  EXPECT_EQ(exhausted_claims.load(), kThreads);
}

TEST_P(DispatchCounterBothEngines, ClampsInsteadOfRunningAway) {
  // The signed-overflow guard: exhausted processes may keep claiming
  // forever without the stored value drifting past the limit.
  constexpr std::int64_t kTrips = 10;
  auto counter = make(4, kTrips);
  on_team(4, [&](int me) {
    for (int i = 0; i < 1000; ++i) {
      (void)counter->claim(me, 1 << 20, kTrips);
    }
  });
  EXPECT_EQ(counter->value(), kTrips);
}

TEST_P(DispatchCounterBothEngines, FractionClaimsShrinkAndCover) {
  constexpr std::int64_t kTrips = 4096;
  auto counter = make(4, kTrips);
  std::mutex m;
  std::vector<char> seen(kTrips, 0);
  std::vector<std::int64_t> first_claims;
  on_team(4, [&](int me) {
    for (;;) {
      const fm::DispatchClaim c = counter->claim_fraction(me, kTrips, 8);
      if (c.count == 0) break;
      std::lock_guard<std::mutex> g(m);
      if (first_claims.empty()) first_claims.push_back(c.count);
      for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
        ASSERT_EQ(seen[static_cast<std::size_t>(t)], 0) << t;
        seen[static_cast<std::size_t>(t)] = 1;
      }
    }
  });
  for (std::int64_t t = 0; t < kTrips; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(t)], 1) << t;
  }
  // The first grant is a big fraction, never more than remaining/divisor.
  EXPECT_LE(first_claims.at(0), kTrips / 8);
  EXPECT_EQ(counter->value(), kTrips);
}

INSTANTIATE_TEST_SUITE_P(Engines, DispatchCounterBothEngines,
                         ::testing::Values(false, true),
                         [](const auto& info) {
                           return info.param ? "locked" : "atomic";
                         });

// --- home blocks: the word engine's claim order ----------------------------------

TEST(SelfschedAffinity, ClaimsTheHomeBlockFirstThenStealsInMemberOrder) {
  // 19 trips over 4 members: blocks [0,5) [5,10) [10,15) [15,19). Member 2
  // runs its own block front to back, then steals from the front of
  // member 3's, 0's and 1's, then draws its one exhausted claim.
  fm::DispatchWords words;
  fm::DispatchCounter counter(words, 4);
  constexpr std::int64_t kTrips = 19;
  counter.reset(kTrips);
  std::vector<std::int64_t> order;
  for (;;) {
    const fm::DispatchClaim c = counter.claim(2, 1, kTrips);
    if (c.count == 0) break;
    EXPECT_EQ(c.count, 1);
    order.push_back(c.begin);
  }
  std::vector<std::int64_t> want;
  for (std::int64_t t : {10, 11, 12, 13, 14, 15, 16, 17, 18}) want.push_back(t);
  for (std::int64_t t = 0; t < 10; ++t) want.push_back(t);
  EXPECT_EQ(order, want);
  EXPECT_EQ(counter.claim(0, 1, kTrips).count, 0);
  EXPECT_EQ(counter.value(), kTrips);
}

TEST(SelfschedAffinity, ChunksAndGuidedClaimsStayInsideABlock) {
  fm::DispatchWords words;
  fm::DispatchCounter counter(words, 4);
  counter.reset(400);  // blocks of 100
  // A chunk stops at its block's end rather than running into the next.
  EXPECT_EQ(counter.claim(1, 64, 400).begin, 100);
  const fm::DispatchClaim tail = counter.claim(1, 64, 400);
  EXPECT_EQ(tail.begin, 164);
  EXPECT_EQ(tail.count, 36);
  // Guided over 4 members (divisor 8): half of the home block's remainder,
  // the same share the shared word would take of the whole.
  const fm::DispatchClaim g = counter.claim_fraction(3, 400, 8);
  EXPECT_EQ(g.begin, 300);
  EXPECT_EQ(g.count, 50);
}

TEST(SelfschedAffinity, MembersBeyondTheBlocksShareThem) {
  // 20 members over 16 blocks: member 17 shares block 1 with member 1.
  constexpr int kWidth = 20;
  constexpr std::int64_t kTrips = 32;  // blocks of 2
  fm::DispatchWords words;
  fm::DispatchCounter counter(words, kWidth);
  counter.reset(kTrips);
  EXPECT_EQ(counter.claim(17, 1, kTrips).begin, 2);
  EXPECT_EQ(counter.claim(1, 1, kTrips).begin, 3);
  EXPECT_EQ(counter.claim(17, 1, kTrips).begin, 4);  // stolen from block 2
}

TEST(SelfschedAffinity, RearmingReplacesEveryBlock) {
  // An episode left half claimed is fully replaced by the next arming.
  fm::DispatchWords words;
  fm::DispatchCounter counter(words, 4);
  counter.reset(40);
  (void)counter.claim(0, 3, 40);
  (void)counter.claim(3, 1, 40);
  counter.reset(6);  // blocks [0,2) [2,4) [4,5) [5,6)
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(counter.claim(3, 1, 6).begin, 5);
  EXPECT_EQ(counter.claim(3, 1, 6).begin, 0);
}

// --- StealDeque ------------------------------------------------------------------

TEST(StealDeque, OwnerIsLifoThievesAreFifo) {
  fm::StealDeque<std::size_t> dq;
  for (std::size_t v = 1; v <= 4; ++v) EXPECT_TRUE(dq.push(v));
  std::size_t v = 0;
  EXPECT_TRUE(dq.steal(&v));
  EXPECT_EQ(v, 1u);  // oldest first
  EXPECT_TRUE(dq.pop(&v));
  EXPECT_EQ(v, 4u);  // newest first
  EXPECT_TRUE(dq.pop(&v));
  EXPECT_EQ(v, 3u);
  EXPECT_TRUE(dq.steal(&v));
  EXPECT_EQ(v, 2u);
  EXPECT_FALSE(dq.pop(&v));
  EXPECT_FALSE(dq.steal(&v));
}

TEST(StealDeque, BoundedPushReportsFull) {
  fm::StealDeque<std::size_t> dq;
  for (std::size_t v = 0; v < fm::StealDeque<std::size_t>::kCapacity; ++v) {
    EXPECT_TRUE(dq.push(v));
  }
  EXPECT_FALSE(dq.push(999));
  std::size_t v = 0;
  EXPECT_TRUE(dq.steal(&v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(dq.push(999));  // space reopened
}

TEST(StealDeque, ConcurrentOwnerAndThievesLoseNothing) {
  // One owner interleaving push/pop with three thieves: every pushed
  // value is consumed exactly once across pops and steals.
  fm::StealDeque<std::size_t> dq;
  constexpr std::size_t kValues = 20000;
  std::mutex m;
  std::multiset<std::size_t> consumed;
  std::atomic<bool> owner_done{false};
  std::vector<std::jthread> thieves;
  for (int t = 0; t < 3; ++t) {
    thieves.emplace_back([&] {
      std::size_t v = 0;
      for (;;) {
        if (dq.steal(&v)) {
          std::lock_guard<std::mutex> g(m);
          consumed.insert(v);
        } else if (owner_done.load(std::memory_order_acquire)) {
          if (!dq.steal(&v)) break;
          std::lock_guard<std::mutex> g(m);
          consumed.insert(v);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  {
    std::size_t next = 1;
    std::size_t v = 0;
    while (next <= kValues) {
      // Push a small burst, pop part of it back: exercises the b==t race.
      for (int burst = 0; burst < 4 && next <= kValues; ++burst) {
        while (!dq.push(next)) std::this_thread::yield();
        ++next;
      }
      if (dq.pop(&v)) {
        std::lock_guard<std::mutex> g(m);
        consumed.insert(v);
      }
    }
    owner_done.store(true, std::memory_order_release);
  }
  thieves.clear();  // join
  ASSERT_EQ(consumed.size(), kValues);
  for (std::size_t v = 1; v <= kValues; ++v) {
    EXPECT_EQ(consumed.count(v), 1u) << v;
  }
}

// --- lock accounting: the acceptance contract ------------------------------------

TEST(DispatchLockAccounting, LockOnlyMachinePaysOneAcquirePerDispatch) {
  // On a lock-only model one selfsched episode costs exactly:
  //   np BARWIN passes + np BARWOT passes + (trips + np) dispatch passes,
  // all on locks handed out by MachineModel::new_lock(). This is the
  // seed's lock traffic, unchanged.
  const int np = 2;
  const std::int64_t trips = 50;
  fc::ForceEnvironment env(test_config(np, "sequent"));
  fc::SelfschedLoop loop(env, np, "loop");
  const auto before = fm::snapshot(env.machine().counters());
  on_team(np, [&](int me) { loop.run(me, 1, trips, 1, [](std::int64_t) {}); });
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  EXPECT_EQ(delta.acquires,
            static_cast<std::uint64_t>(2 * np + (trips + np)));
  EXPECT_EQ(env.stats().doall_dispatches.load(),
            static_cast<std::uint64_t>(trips + np));
}

TEST(DispatchLockAccounting, NativeEpisodePaysNoLocks) {
  // Same episode on native: the entry gate is one atomic word and every
  // claim one fetch-add, so the whole episode never touches a lock.
  const int np = 2;
  const std::int64_t trips = 50;
  fc::ForceEnvironment env(test_config(np, "native"));
  fc::SelfschedLoop loop(env, np, "loop");
  const auto before = fm::snapshot(env.machine().counters());
  on_team(np, [&](int me) { loop.run(me, 1, trips, 1, [](std::int64_t) {}); });
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  EXPECT_EQ(delta.acquires, 0u);
  EXPECT_EQ(env.stats().doall_dispatches.load(),
            static_cast<std::uint64_t>(trips + np));
}

TEST(DispatchLockAccounting, ForcedLockedNativeMatchesTheSeedTraffic) {
  // dispatch="locked" restores the seed's full lock traffic on a capable
  // machine - the knob the benches use to measure the speedup.
  const int np = 2;
  const std::int64_t trips = 50;
  fc::ForceEnvironment env(test_config(np, "native", "locked"));
  fc::SelfschedLoop loop(env, np, "loop");
  const auto before = fm::snapshot(env.machine().counters());
  on_team(np, [&](int me) { loop.run(me, 1, trips, 1, [](std::int64_t) {}); });
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  EXPECT_EQ(delta.acquires,
            static_cast<std::uint64_t>(2 * np + (trips + np)));
}

namespace {

/// Lock acquires of `episodes` default ctx.barrier() episodes (the
/// environment's global barrier) on the whole team.
std::uint64_t default_barrier_acquires(fc::ForceEnvironment& env,
                                       int episodes) {
  fc::BarrierAlgorithm& barrier = env.global_barrier();
  const auto before = fm::snapshot(env.machine().counters());
  on_team(env.nproc(), [&](int me) {
    for (int e = 0; e < episodes; ++e) barrier.arrive(me);
  });
  return (fm::snapshot(env.machine().counters()) - before).acquires;
}

}  // namespace

TEST(DispatchLockAccounting, NativeDefaultBarrierPaysNoLocks) {
  fc::ForceEnvironment env(test_config(4, "native"));
  EXPECT_STREQ(env.global_barrier().name(), "central-sense");
  EXPECT_EQ(default_barrier_acquires(env, 10), 0u);
}

TEST(DispatchLockAccounting, LockOnlyDefaultBarrierKeepsThePaperLockTraffic) {
  // paper-lock per episode: each of np members takes the mutex twice and
  // passes both turnstiles once, and the last arriver and the last one out
  // each re-arm a turnstile - 4*np + 2 generic lock passes.
  const int np = 4;
  const int episodes = 10;
  fc::ForceEnvironment env(test_config(np, "sequent"));
  EXPECT_STREQ(env.global_barrier().name(), "paper-lock");
  EXPECT_EQ(default_barrier_acquires(env, episodes),
            static_cast<std::uint64_t>(episodes * (4 * np + 2)));
}

TEST(DispatchLockAccounting, AskforFastPathKeepsTheMonitorCold) {
  // A worker expanding a task tree from its own deque touches the monitor
  // lock only to fetch the externally seeded root and to latch
  // termination - a handful of acquires for hundreds of tasks.
  fc::ForceEnvironment env(test_config(1, "native"));
  fc::Askfor<int> monitor(env);
  ASSERT_TRUE(env.atomic_words());
  const auto before = fm::snapshot(env.machine().counters());
  monitor.put(0);  // external seed: slow path by design
  std::atomic<int> executed{0};
  on_team(1, [&](int) {
    monitor.work([&](int& depth, fc::Askfor<int>& self) {
      executed.fetch_add(1);
      if (depth < 7) {
        self.put(depth + 1);
        self.put(depth + 1);
      }
    });
  });
  EXPECT_EQ(executed.load(), (1 << 8) - 1);  // full binary tree, depth 7
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  EXPECT_LE(delta.acquires, 8u);
}

TEST(DispatchLockAccounting, AskforLockedEngineKeepsSeedTraffic) {
  // Single-threaded drain on a lock-only machine: put, grant, the final
  // drained probe and complete are one monitor pass each - deterministic,
  // exactly the seed's counts.
  fc::ForceEnvironment env(test_config(1, "sequent"));
  fc::AskforCore core(env);
  EXPECT_FALSE(core.lock_free());
  const auto before = fm::snapshot(env.machine().counters());
  for (std::size_t t = 0; t < 5; ++t) core.put(t);
  std::size_t token = 0;
  while (core.ask(&token) == fc::AskforCore::Outcome::kWork) {
    core.complete();
  }
  const auto delta = fm::snapshot(env.machine().counters()) - before;
  // 5 puts + 6 asks (5 grants + 1 drain) + 5 completes.
  EXPECT_EQ(delta.acquires, 16u);
}
