// Tests for DOALL work distribution (paper §3.3, §4.2): trip counting,
// prescheduled and selfscheduled loops (1D/2D), chunked and guided
// variants. The central property: every index executes exactly once, for
// arbitrary (start, last, incr) including negative increments.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "core/doall.hpp"
#include "core/env.hpp"

namespace fc = force::core;

namespace {

fc::ForceConfig test_config(int np, const std::string& machine = "native",
                            const std::string& dispatch = "auto") {
  fc::ForceConfig cfg;
  cfg.nproc = np;
  cfg.machine = machine;
  cfg.dispatch = dispatch;
  return cfg;
}

/// Runs fn(proc) on `np` threads.
void on_team(int np, const std::function<void(int)>& fn) {
  std::vector<std::jthread> team;
  for (int t = 0; t < np; ++t) team.emplace_back([&fn, t] { fn(t); });
}

/// Processes 0 and 1 disagree about the loop bound, an SPMD violation: it
/// is reported, and the gate still lets both depart.
void expect_divergent_bounds_detected(const fc::ForceConfig& cfg) {
  fc::ForceEnvironment env(cfg);
  fc::SelfschedLoop loop(env, cfg.nproc);
  std::atomic<int> failures{0};
  on_team(cfg.nproc, [&](int me) {
    try {
      loop.run(me, 1, me == 0 ? 10 : 20, 1, [](std::int64_t) {});
    } catch (const force::util::CheckError&) {
      failures.fetch_add(1);
    }
  });
  EXPECT_GE(failures.load(), 1);
}

/// A throwing body still reports its departure: the loop stays usable
/// across episodes, and exactly one process throws per episode (index 5
/// is claimed once).
void expect_throwing_body_departs(const fc::ForceConfig& cfg) {
  fc::ForceEnvironment env(cfg);
  fc::SelfschedLoop loop(env, cfg.nproc);
  std::atomic<int> thrown{0};
  on_team(cfg.nproc, [&](int me) {
    for (int episode = 0; episode < 3; ++episode) {
      try {
        loop.run(me, 1, 10, 1, [&](std::int64_t i) {
          if (i == 5) throw std::runtime_error("boom");
        });
      } catch (const std::runtime_error&) {
        thrown.fetch_add(1);
      }
    }
  });
  EXPECT_EQ(thrown.load(), 3);
}

}  // namespace

// --- trip counting -------------------------------------------------------------

TEST(TripCount, FortranSemantics) {
  EXPECT_EQ(fc::loop_trip_count(1, 10, 1), 10);
  EXPECT_EQ(fc::loop_trip_count(1, 10, 2), 5);
  EXPECT_EQ(fc::loop_trip_count(1, 10, 3), 4);   // 1,4,7,10
  EXPECT_EQ(fc::loop_trip_count(10, 1, -1), 10);
  EXPECT_EQ(fc::loop_trip_count(10, 1, -4), 3);  // 10,6,2
  EXPECT_EQ(fc::loop_trip_count(5, 5, 1), 1);
  EXPECT_EQ(fc::loop_trip_count(6, 5, 1), 0);    // empty
  EXPECT_EQ(fc::loop_trip_count(5, 6, -1), 0);   // empty
  EXPECT_EQ(fc::loop_trip_count(-10, 10, 5), 5);
}

TEST(TripCount, ZeroIncrementThrows) {
  EXPECT_THROW(fc::loop_trip_count(1, 10, 0), force::util::CheckError);
}

// --- presched (pure function; no environment needed) ----------------------------

TEST(Presched, CyclicDealCoversExactlyOnce) {
  const int np = 4;
  std::map<std::int64_t, int> counts;
  for (int me = 0; me < np; ++me) {
    fc::presched_do(me, np, 1, 17, 2,
                    [&](std::int64_t i) { counts[i]++; });
  }
  ASSERT_EQ(counts.size(), 9u);  // 1,3,...,17
  for (auto& [idx, n] : counts) {
    EXPECT_EQ(n, 1) << idx;
    EXPECT_EQ((idx - 1) % 2, 0);
  }
}

TEST(Presched, AssignmentIsCyclicByTrip) {
  // Trip t belongs to process t mod np.
  std::vector<std::int64_t> got;
  fc::presched_do(1, 3, 10, 1, -1, [&](std::int64_t i) { got.push_back(i); });
  // Trips: 10(t0) 9(t1) 8(t2) 7(t3) ... process 1 takes t=1,4,7 -> 9,6,3.
  EXPECT_EQ(got, (std::vector<std::int64_t>{9, 6, 3}));
}

TEST(Presched, EmptyRangeExecutesNothing) {
  int runs = 0;
  fc::presched_do(0, 2, 5, 4, 1, [&](std::int64_t) { ++runs; });
  EXPECT_EQ(runs, 0);
}

TEST(Presched, BadArgsThrow) {
  EXPECT_THROW(fc::presched_do(2, 2, 1, 2, 1, [](std::int64_t) {}),
               force::util::CheckError);
  EXPECT_THROW(fc::presched_do(0, 0, 1, 2, 1, [](std::int64_t) {}),
               force::util::CheckError);
}

TEST(Presched2D, CoversThePairSpaceExactlyOnce) {
  const int np = 3;
  std::mutex m;
  std::map<std::pair<std::int64_t, std::int64_t>, int> counts;
  for (int me = 0; me < np; ++me) {
    fc::presched_do2(me, np, 1, 4, 1, 10, 2, -4,
                     [&](std::int64_t i, std::int64_t j) {
                       std::lock_guard<std::mutex> g(m);
                       counts[{i, j}]++;
                     });
  }
  EXPECT_EQ(counts.size(), 4u * 3u);  // i in 1..4, j in 10,6,2
  for (auto& [pair, n] : counts) EXPECT_EQ(n, 1);
}

// --- selfsched: parameterized sweep over ranges and widths -----------------------

struct RangeCase {
  std::int64_t start, last, incr;
};

class SelfschedRangeTest
    : public ::testing::TestWithParam<std::tuple<RangeCase, int>> {};

TEST_P(SelfschedRangeTest, EveryIndexExactlyOnce) {
  const auto [range, np] = GetParam();
  fc::ForceEnvironment env(test_config(np));
  fc::SelfschedLoop loop(env, np);
  std::mutex m;
  std::map<std::int64_t, int> counts;
  on_team(np, [&](int me) {
    loop.run(me, range.start, range.last, range.incr, [&](std::int64_t i) {
      std::lock_guard<std::mutex> g(m);
      counts[i]++;
    });
  });
  const std::int64_t trips =
      fc::loop_trip_count(range.start, range.last, range.incr);
  EXPECT_EQ(static_cast<std::int64_t>(counts.size()), trips);
  for (auto& [idx, n] : counts) {
    EXPECT_EQ(n, 1) << idx;
    EXPECT_TRUE(fc::loop_index_in_range(idx, range.last, range.incr));
    EXPECT_EQ((idx - range.start) % range.incr, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RangesAndWidths, SelfschedRangeTest,
    ::testing::Combine(
        ::testing::Values(RangeCase{1, 100, 1}, RangeCase{1, 100, 7},
                          RangeCase{100, 1, -1}, RangeCase{50, -50, -3},
                          RangeCase{0, 0, 1}, RangeCase{5, 4, 1},
                          RangeCase{-20, 20, 4}),
        ::testing::Values(1, 2, 4, 7)));

// --- selfsched specifics ---------------------------------------------------------

TEST(Selfsched, ReentryAfterAllLeft) {
  // A selfsched loop inside an outer sequential loop: the entry gate must
  // re-arm every episode (BARWIN/BARWOT protocol).
  const int np = 4;
  fc::ForceEnvironment env(test_config(np));
  fc::SelfschedLoop loop(env, np);
  std::atomic<std::int64_t> total{0};
  on_team(np, [&](int me) {
    for (int episode = 0; episode < 10; ++episode) {
      loop.run(me, 1, 20, 1,
               [&](std::int64_t i) { total.fetch_add(i); });
    }
  });
  EXPECT_EQ(total.load(), 10 * 210);
}

TEST(Selfsched, ChunkedCoversExactlyOnce) {
  const int np = 3;
  fc::ForceEnvironment env(test_config(np));
  fc::SelfschedLoop loop(env, np);
  std::mutex m;
  std::map<std::int64_t, int> counts;
  on_team(np, [&](int me) {
    loop.run(
        me, 0, 997, 1,
        [&](std::int64_t i) {
          std::lock_guard<std::mutex> g(m);
          counts[i]++;
        },
        /*chunk=*/16);
  });
  EXPECT_EQ(counts.size(), 998u);
  for (auto& [idx, n] : counts) EXPECT_EQ(n, 1) << idx;
}

TEST(Selfsched, ChunkingReducesDispatches) {
  const int np = 2;
  fc::ForceEnvironment env(test_config(np));
  fc::SelfschedLoop fine(env, np);
  fc::SelfschedLoop coarse(env, np);
  on_team(np, [&](int me) { fine.run(me, 1, 512, 1, [](std::int64_t) {}); });
  const auto fine_dispatches =
      env.stats().doall_dispatches.load(std::memory_order_relaxed);
  env.stats().reset();
  on_team(np, [&](int me) {
    coarse.run(me, 1, 512, 1, [](std::int64_t) {}, 64);
  });
  const auto coarse_dispatches =
      env.stats().doall_dispatches.load(std::memory_order_relaxed);
  EXPECT_GT(fine_dispatches, 8 * coarse_dispatches);
}

TEST(Selfsched, GuidedCoversExactlyOnceWithDecreasingClaims) {
  const int np = 4;
  fc::ForceEnvironment env(test_config(np));
  fc::SelfschedLoop loop(env, np);
  std::mutex m;
  std::map<std::int64_t, int> counts;
  on_team(np, [&](int me) {
    loop.run_guided(me, 1, 1000, 1, [&](std::int64_t i) {
      std::lock_guard<std::mutex> g(m);
      counts[i]++;
    });
  });
  EXPECT_EQ(counts.size(), 1000u);
  for (auto& [idx, n] : counts) EXPECT_EQ(n, 1) << idx;
  // Guided must dispatch far fewer times than once per iteration but more
  // than once per process.
  const auto dispatches =
      env.stats().doall_dispatches.load(std::memory_order_relaxed);
  EXPECT_LT(dispatches, 500u);
  EXPECT_GT(dispatches, static_cast<std::uint64_t>(np));
}

TEST(Selfsched, DivergentBoundsAreDetected) {
  expect_divergent_bounds_detected(test_config(2));
}

TEST(Selfsched, IterationStatsAreCounted) {
  const int np = 2;
  fc::ForceEnvironment env(test_config(np));
  fc::SelfschedLoop loop(env, np);
  on_team(np, [&](int me) { loop.run(me, 1, 50, 1, [](std::int64_t) {}); });
  EXPECT_EQ(env.stats().doall_iterations.load(std::memory_order_relaxed),
            50u);
  // Dispatches: one per iteration plus one exhausted grab per process.
  EXPECT_EQ(env.stats().doall_dispatches.load(std::memory_order_relaxed),
            50u + static_cast<std::uint64_t>(np));
}

TEST(Selfsched, WorksOnEveryMachineModel) {
  for (const auto& machine : force::machdep::machine_names()) {
    const int np = 3;
    fc::ForceEnvironment env(test_config(np, machine));
    fc::SelfschedLoop loop(env, np);
    std::atomic<std::int64_t> sum{0};
    on_team(np, [&](int me) {
      loop.run(me, 1, 100, 1, [&](std::int64_t i) { sum.fetch_add(i); });
    });
    EXPECT_EQ(sum.load(), 5050) << machine;
  }
}

// --- 2D selfsched ---------------------------------------------------------------

TEST(Selfsched2D, CoversPairSpaceExactlyOnce) {
  const int np = 3;
  fc::ForceEnvironment env(test_config(np));
  fc::Selfsched2Loop loop(env, np);
  std::mutex m;
  std::map<std::pair<std::int64_t, std::int64_t>, int> counts;
  on_team(np, [&](int me) {
    loop.run(me, 1, 7, 2, 30, 10, -10,
             [&](std::int64_t i, std::int64_t j) {
               std::lock_guard<std::mutex> g(m);
               counts[{i, j}]++;
             });
  });
  EXPECT_EQ(counts.size(), 4u * 3u);  // i in {1,3,5,7}, j in {30,20,10}
  for (auto& [pair, n] : counts) EXPECT_EQ(n, 1);
}

TEST(Selfsched2D, EmptyInnerRangeExecutesNothing) {
  const int np = 2;
  fc::ForceEnvironment env(test_config(np));
  fc::Selfsched2Loop loop(env, np);
  std::atomic<int> runs{0};
  on_team(np, [&](int me) {
    loop.run(me, 1, 5, 1, 5, 1, 1,
             [&](std::int64_t, std::int64_t) { runs.fetch_add(1); });
  });
  EXPECT_EQ(runs.load(), 0);
}

// --- contention sweep: every machine x both dispatch engines --------------------
//
// The dispatch rewrite's safety net: exactly-once coverage for chunked,
// guided and 2-D selfscheduled loops under real contention (8 threads) on
// all seven machine models, with the dispatch engine both auto-selected
// and forced to the lock path. On lock-only machines "locked" equals
// "auto"; on hardware-RMW machines it pins the seed's lock engine, so the
// sweep exercises the atomic fast path AND its fallback everywhere.

class DispatchContentionTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  static constexpr int kNp = 8;
  fc::ForceConfig config() const {
    const auto& [machine, dispatch] = GetParam();
    return test_config(kNp, machine, dispatch);
  }
};

TEST_P(DispatchContentionTest, ChunkedCoversExactlyOnce) {
  fc::ForceEnvironment env(config());
  fc::SelfschedLoop loop(env, kNp);
  std::mutex m;
  std::map<std::int64_t, int> counts;
  on_team(kNp, [&](int me) {
    loop.run(
        me, 0, 1499, 1,
        [&](std::int64_t i) {
          std::lock_guard<std::mutex> g(m);
          counts[i]++;
        },
        /*chunk=*/16);
  });
  ASSERT_EQ(counts.size(), 1500u);
  for (auto& [idx, n] : counts) EXPECT_EQ(n, 1) << idx;
}

TEST_P(DispatchContentionTest, GuidedCoversExactlyOnce) {
  fc::ForceEnvironment env(config());
  fc::SelfschedLoop loop(env, kNp);
  std::mutex m;
  std::map<std::int64_t, int> counts;
  on_team(kNp, [&](int me) {
    loop.run_guided(me, 1, 1500, 1, [&](std::int64_t i) {
      std::lock_guard<std::mutex> g(m);
      counts[i]++;
    });
  });
  ASSERT_EQ(counts.size(), 1500u);
  for (auto& [idx, n] : counts) EXPECT_EQ(n, 1) << idx;
}

TEST_P(DispatchContentionTest, TwoDimensionalCoversExactlyOnce) {
  fc::ForceEnvironment env(config());
  fc::Selfsched2Loop loop(env, kNp);
  std::mutex m;
  std::map<std::pair<std::int64_t, std::int64_t>, int> counts;
  on_team(kNp, [&](int me) {
    loop.run(
        me, 1, 30, 1, 40, 2, -2,
        [&](std::int64_t i, std::int64_t j) {
          std::lock_guard<std::mutex> g(m);
          counts[{i, j}]++;
        },
        /*chunk=*/4);
  });
  ASSERT_EQ(counts.size(), 30u * 20u);
  for (auto& [pair, n] : counts) EXPECT_EQ(n, 1);
}

INSTANTIATE_TEST_SUITE_P(
    AllMachinesBothEngines, DispatchContentionTest,
    ::testing::Combine(::testing::ValuesIn(force::machdep::machine_names()),
                       ::testing::Values("auto", "locked")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });

// --- exception safety -------------------------------------------------------------

TEST(Selfsched, ThrowingBodyStillReportsDeparture) {
  expect_throwing_body_departs(test_config(2));
}

// --- the entry gate: word and lock expansions -------------------------------------
//
// The gate's semantics, checked on both expansions: native/auto runs the
// one-word gate, native/locked and sequent the paper's BARWIN/BARWOT locks.

class EpisodeGateTest
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {
 protected:
  fc::ForceConfig config(int np) const {
    const auto& [machine, dispatch] = GetParam();
    return test_config(np, machine, dispatch);
  }
};

TEST_P(EpisodeGateTest, PicksTheExpectedExpansion) {
  fc::ForceEnvironment env(config(2));
  const auto& [machine, dispatch] = GetParam();
  std::atomic<std::uint32_t> word{0};
  EXPECT_EQ(env.new_episode_gate(2, word)->lock_free(),
            machine == "native" && dispatch == "auto");
}

TEST_P(EpisodeGateTest, NoEntryBarrier) {
  // Member 1 enters only after member 0 has run every trip: member 0 must
  // claim without waiting for member 1's arrival.
  constexpr std::int64_t kTrips = 100;
  fc::ForceEnvironment env(config(2));
  fc::SelfschedLoop loop(env, 2);
  std::atomic<std::int64_t> ran_by_0{0};
  std::atomic<std::int64_t> ran_by_1{0};
  std::atomic<bool> waited_out{false};
  on_team(2, [&](int me) {
    if (me == 1) {
      // Bounded, so an entry barrier fails the test instead of hanging it.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (ran_by_0.load() < kTrips) {
        if (std::chrono::steady_clock::now() > deadline) {
          waited_out.store(true);
          break;
        }
        std::this_thread::yield();
      }
    }
    loop.run(me, 1, kTrips, 1, [&](std::int64_t) {
      (me == 0 ? ran_by_0 : ran_by_1).fetch_add(1);
    });
  });
  EXPECT_FALSE(waited_out.load());
  EXPECT_EQ(ran_by_0.load(), kTrips);
  EXPECT_EQ(ran_by_1.load(), 0);
}

TEST_P(EpisodeGateTest, ExitsWaitForAllArrivals) {
  // Member 0 finds the work exhausted long before member 1 arrives, but
  // may not leave the loop until member 1 has arrived.
  fc::ForceEnvironment env(config(2));
  fc::SelfschedLoop loop(env, 2);
  std::atomic<bool> member1_arriving{false};
  std::atomic<bool> member0_left_early{false};
  on_team(2, [&](int me) {
    if (me == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      member1_arriving.store(true);
    }
    loop.run(me, 1, 4, 1, [](std::int64_t) {});
    if (me == 0 && !member1_arriving.load()) member0_left_early.store(true);
  });
  EXPECT_FALSE(member0_left_early.load());
}

TEST_P(EpisodeGateTest, BackToBackReentryWithChangingBounds) {
  // Episode e runs trips 0..e%32: the bounds change every episode, so a
  // member that raced into the next episode before the last one left
  // would claim against the wrong bounds. (The same loop on N:M pooled
  // members is PooledGate.NmSelfschedReentryRunsEveryTripOnce, in
  // test_teampool.cpp.)
  constexpr int kNp = 4;
  constexpr int kEpisodes = 10000;
  constexpr std::int64_t kMaxTrips = 32;
  fc::ForceEnvironment env(config(kNp));
  fc::SelfschedLoop loop(env, kNp);
  std::vector<std::atomic<int>> hits(kEpisodes * kMaxTrips);
  on_team(kNp, [&](int me) {
    for (int e = 0; e < kEpisodes; ++e) {
      loop.run(me, 0, e % kMaxTrips, 1, [&](std::int64_t t) {
        hits[static_cast<std::size_t>(e * kMaxTrips + t)].fetch_add(1);
      });
    }
  });
  int wrong = 0;
  for (int e = 0; e < kEpisodes; ++e) {
    for (std::int64_t t = 0; t < kMaxTrips; ++t) {
      const int want = t <= e % kMaxTrips ? 1 : 0;
      if (hits[static_cast<std::size_t>(e * kMaxTrips + t)].load() != want) {
        ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0);
}

TEST_P(EpisodeGateTest, DivergentBoundsAreDetected) {
  expect_divergent_bounds_detected(config(2));
}

TEST_P(EpisodeGateTest, ThrowingBodyStillReportsDeparture) {
  expect_throwing_body_departs(config(2));
}

INSTANTIATE_TEST_SUITE_P(
    WordAndLockGates, EpisodeGateTest,
    ::testing::Values(std::make_tuple("native", "auto"),
                      std::make_tuple("native", "locked"),
                      std::make_tuple("sequent", "auto")),
    [](const auto& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param);
    });
