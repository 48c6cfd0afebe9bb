// Tests for DOALL work distribution (paper §3.3, §4.2): trip counting,
// prescheduled and selfscheduled loops (1D/2D), chunked and guided
// variants. The central property: every index executes exactly once, for
// arbitrary (start, last, incr) including negative increments.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>
#include <tuple>
#include <vector>

#include "core/doall.hpp"
#include "core/env.hpp"
#include "core/force.hpp"

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
  fc::SelfschedLoop loop(env, cfg.nproc, "loop");
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
  fc::SelfschedLoop loop(env, cfg.nproc, "loop");
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
  fc::SelfschedLoop loop(env, np, "loop");
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
  fc::SelfschedLoop loop(env, np, "loop");
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
  fc::SelfschedLoop loop(env, np, "loop");
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
  fc::SelfschedLoop fine(env, np, "fine");
  fc::SelfschedLoop coarse(env, np, "coarse");
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
  fc::SelfschedLoop loop(env, np, "loop");
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
  fc::SelfschedLoop loop(env, np, "loop");
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
    fc::SelfschedLoop loop(env, np, "loop");
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
  fc::Selfsched2Loop loop(env, np, "loop");
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
  fc::Selfsched2Loop loop(env, np, "loop");
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
  fc::SelfschedLoop loop(env, kNp, "loop");
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
  fc::SelfschedLoop loop(env, kNp, "loop");
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
  fc::Selfsched2Loop loop(env, kNp, "loop");
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
  fc::SelfschedLoop loop(env, 2, "loop");
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
  fc::SelfschedLoop loop(env, 2, "loop");
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
  fc::SelfschedLoop loop(env, kNp, "loop");
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

// --- affinity dispatch: home blocks first, then stealing ---------------------------
//
// On atomic-words machines each member claims from its own home block of
// trips first and steals from the front of the others' once it runs dry.
// The paper promises only that every index runs once on some process;
// these cases pin that promise on thread and on os-fork, whose words live
// in the MAP_SHARED arena. Results travel through arena variables, since
// an os-fork child's gtest failure would be invisible.

namespace {

constexpr int kAffinityNp = 4;
constexpr std::size_t kAffinityMaxTrips = 96;

using TripHits = std::array<std::int64_t, kAffinityMaxTrips>;

void hit(TripHits& hits, std::int64_t t) {
  std::atomic_ref<std::int64_t>(hits.at(static_cast<std::size_t>(t)))
      .fetch_add(1);
}

/// Counts the trips of `hits` that did not run exactly once, where trips
/// [0, trips) should have and the rest not at all.
int wrong_trips(const TripHits& hits, std::int64_t trips) {
  int wrong = 0;
  for (std::size_t t = 0; t < kAffinityMaxTrips; ++t) {
    const std::int64_t want = static_cast<std::int64_t>(t) < trips ? 1 : 0;
    if (hits[t] != want) ++wrong;
  }
  return wrong;
}

}  // namespace

class SelfschedAffinity : public ::testing::TestWithParam<std::string> {
 protected:
  force::ForceConfig config(int np) const {
    force::ForceConfig cfg;
    cfg.nproc = np;
    cfg.process_model = GetParam();
    return cfg;
  }
};

TEST_P(SelfschedAffinity, EveryShapeRunsEachTripOnce) {
  // Trip counts around the block sizes: none, fewer than the blocks, one
  // per block, and ragged blocks. Shapes: chunk 1, chunk 3, guided, 2-D
  // (three j values counting down) and a negative increment.
  constexpr int np = kAffinityNp;
  constexpr std::array<std::int64_t, 5> kTrips = {0, 1, np - 1, np,
                                                  4 * np + 3};
  constexpr std::size_t kShapes = 5;
  force::Force f(config(np));
  auto& hits =
      f.shared<std::array<TripHits, kShapes * kTrips.size()>>("aff_hits");
  f.run([&](fc::Ctx& ctx) {
    for (std::size_t k = 0; k < kTrips.size(); ++k) {
      const std::int64_t n = kTrips[k];
      const auto shape = [&](std::size_t s) -> TripHits& {
        return hits[s * kTrips.size() + k];
      };
      ctx.selfsched_do(FORCE_SITE, 1, n, 1,
                       [&](std::int64_t i) { hit(shape(0), i - 1); });
      ctx.selfsched_do(
          FORCE_SITE, 1, n, 1, [&](std::int64_t i) { hit(shape(1), i - 1); },
          3);
      ctx.guided_do(FORCE_SITE, 1, n, 1,
                    [&](std::int64_t i) { hit(shape(2), i - 1); });
      ctx.selfsched_do2(FORCE_SITE, 1, n, 1, 3, 1, -1,
                        [&](std::int64_t i, std::int64_t j) {
                          hit(shape(3), (i - 1) * 3 + (3 - j));
                        });
      // 2n, 2n-2, ..., 2: n trips.
      ctx.selfsched_do(FORCE_SITE, 2 * n, 1, -2, [&](std::int64_t i) {
        hit(shape(4), (2 * n - i) / 2);
      });
    }
  });
  for (std::size_t s = 0; s < kShapes; ++s) {
    for (std::size_t k = 0; k < kTrips.size(); ++k) {
      const std::int64_t trips = s == 3 ? 3 * kTrips[k] : kTrips[k];
      EXPECT_EQ(wrong_trips(hits[s * kTrips.size() + k], trips), 0)
          << "shape " << s << ", " << kTrips[k] << " trips";
    }
  }
}

TEST_P(SelfschedAffinity, LateMemberHasItsBlockRunByTheOthers) {
  // The last member enters only after the others have run every trip,
  // its whole home block included: with no entry barrier they must steal
  // it rather than wait for its owner.
  constexpr int np = kAffinityNp;
  constexpr std::int64_t kTrips = 4 * np + 3;
  force::Force f(config(np));
  auto& hits = f.shared<TripHits>("late_hits");
  auto& ran = f.shared<std::array<std::int64_t, np>>("late_ran");
  auto& waited_out = f.shared<std::int64_t>("late_waited_out");
  f.run([&](fc::Ctx& ctx) {
    const auto me = static_cast<std::size_t>(ctx.me0());
    if (ctx.me0() == np - 1) {
      // Bounded, so a member that waits for its owner fails the test
      // instead of hanging it.
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      for (;;) {
        std::int64_t done = 0;
        for (std::int64_t& r : ran) {
          done += std::atomic_ref<std::int64_t>(r).load();
        }
        if (done >= kTrips) break;
        if (std::chrono::steady_clock::now() > deadline) {
          waited_out = 1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    ctx.selfsched_do(FORCE_SITE, 0, kTrips - 1, 1, [&](std::int64_t t) {
      hit(hits, t);
      std::atomic_ref<std::int64_t>(ran[me]).fetch_add(1);
    });
  });
  EXPECT_EQ(waited_out, 0);
  EXPECT_EQ(ran[np - 1], 0);
  EXPECT_EQ(wrong_trips(hits, kTrips), 0);
}

TEST_P(SelfschedAffinity, TeamWiderThanTheBlocksStaysExactlyOnce) {
  // 20 members over 16 home blocks: members 16-19 share blocks 0-3.
  constexpr int np = 20;
  static_assert(np > static_cast<int>(force::machdep::kDispatchBlocks));
  constexpr std::array<std::int64_t, 5> kTrips = {1, 16, 19, 20, 4 * np + 3};
  force::Force f(config(np));
  auto& hits = f.shared<std::array<TripHits, 2 * kTrips.size()>>("wide_hits");
  f.run([&](fc::Ctx& ctx) {
    for (std::size_t k = 0; k < kTrips.size(); ++k) {
      ctx.selfsched_do(FORCE_SITE, 0, kTrips[k] - 1, 1,
                       [&](std::int64_t t) { hit(hits[k], t); });
      ctx.guided_do(FORCE_SITE, 0, kTrips[k] - 1, 1, [&](std::int64_t t) {
        hit(hits[kTrips.size() + k], t);
      });
    }
  });
  for (std::size_t k = 0; k < kTrips.size(); ++k) {
    EXPECT_EQ(wrong_trips(hits[k], kTrips[k]), 0) << kTrips[k] << " trips";
    EXPECT_EQ(wrong_trips(hits[kTrips.size() + k], kTrips[k]), 0)
        << kTrips[k] << " trips, guided";
  }
}

TEST_P(SelfschedAffinity, PooledReentryNeverLeaksABlockIntoTheNextEpisode) {
  // One site on a pooled team, re-entered 10 000 times over four forces
  // with a trip count that changes every episode: a block armed by one
  // episode that survived into the next would run a trip twice, or one
  // past the new count.
  constexpr int np = kAffinityNp;
  constexpr int kRuns = 4;
  constexpr int kEpisodes = 10000;
  constexpr std::int64_t kMaxTrips = 41;
  static_assert(kMaxTrips <= 64, "one bit per trip");
  force::ForceConfig cfg = config(np);
  cfg.team_pool = true;
  force::Force f(cfg);
  // Per episode: the trips run, one bit each, and how many runs there were.
  auto& masks = f.shared<std::array<std::uint64_t, kEpisodes>>("reent_masks");
  auto& counts = f.shared<std::array<std::int64_t, kEpisodes>>("reent_counts");
  auto& next_run = f.shared<std::int64_t>("reent_run");
  const auto trips_of = [](int e) { return (e * 7) % kMaxTrips; };
  for (int run = 0; run < kRuns; ++run) {
    next_run = run;
    f.run([&](fc::Ctx& ctx) {
      const int first = static_cast<int>(next_run) * (kEpisodes / kRuns);
      for (int e = first; e < first + kEpisodes / kRuns; ++e) {
        const auto slot = static_cast<std::size_t>(e);
        ctx.selfsched_do(FORCE_SITE, 0, trips_of(e) - 1, 1,
                         [&](std::int64_t t) {
                           std::atomic_ref<std::uint64_t>(masks[slot])
                               .fetch_or(std::uint64_t{1} << t);
                           std::atomic_ref<std::int64_t>(counts[slot])
                               .fetch_add(1);
                         });
      }
    });
  }
  int wrong = 0;
  for (int e = 0; e < kEpisodes; ++e) {
    const std::int64_t n = trips_of(e);
    const std::uint64_t all = (std::uint64_t{1} << n) - 1;
    const auto slot = static_cast<std::size_t>(e);
    if (counts[slot] != n || masks[slot] != all) ++wrong;
  }
  EXPECT_EQ(wrong, 0);
}

INSTANTIATE_TEST_SUITE_P(ThreadAndOsFork, SelfschedAffinity,
                         ::testing::Values("thread", "os-fork"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });
