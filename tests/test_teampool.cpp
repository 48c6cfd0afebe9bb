// Persistent team pools (machdep/teampool.*): the spawn tax paid once.
//
// Three layers under test:
//
//   * TeamPool - the thread-axis pool by itself: parked workers execute
//     sequential forces, multiplex wider forces N:M, and survive member
//     exceptions (ProcessTeam::run's rethrow contract).
//   * Force over a pool - sequential force entries on one pooled team
//     must behave exactly like fresh teams: shared state accumulates,
//     constructs re-arm per entry, the sentry stays report-free.
//   * ForkTeam with resident children - the same child pids serve every
//     entry, a SIGKILLed or throwing pool child surfaces exactly once as
//     ProcessDeathError, and the next force transparently re-forks.
//
// As in test_process_fork.cpp, child-side assertions go through the
// shared arena (a child's gtest failure would be invisible); the parent
// asserts after the join.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>
#include <unistd.h>

#include "core/force.hpp"
#include "core/sentry.hpp"
#include "machdep/backend.hpp"
#include "machdep/forkteam.hpp"
#include "machdep/process.hpp"
#include "machdep/teampool.hpp"
#include "machdep/words.hpp"
#include "util/check.hpp"

namespace core = force::core;
namespace md = force::machdep;

namespace {

constexpr int kNproc = 4;

force::ForceConfig pool_config() {
  force::ForceConfig cfg;
  cfg.nproc = kNproc;
  cfg.team_pool = true;
  return cfg;
}

force::ForceConfig fork_pool_config() {
  force::ForceConfig cfg;
  cfg.nproc = kNproc;
  cfg.process_model = "os-fork";
  cfg.team_pool = true;
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// --- TeamPool: the thread-axis pool by itself -------------------------------

TEST(TeamPoolUnit, SequentialForcesRunEveryMember) {
  md::TeamPool pool(kNproc);
  EXPECT_EQ(pool.workers(), kNproc);
  std::array<std::atomic<int>, kNproc> visits{};
  for (int run = 0; run < 5; ++run) {
    const auto stats = pool.run(kNproc, [&](int m) {
      visits[static_cast<std::size_t>(m)].fetch_add(1,
                                                    std::memory_order_relaxed);
    });
    EXPECT_EQ(stats.processes, kNproc);
  }
  for (int m = 0; m < kNproc; ++m) {
    EXPECT_EQ(visits[static_cast<std::size_t>(m)].load(), 5) << "member " << m;
  }
}

TEST(TeamPoolUnit, WiderForceIsMultiplexedOntoFewerWorkers) {
  md::TeamPool pool(2);  // NP = 2W
  std::array<std::atomic<int>, kNproc> visits{};
  const auto stats = pool.run(kNproc, [&](int m) {
    visits[static_cast<std::size_t>(m)].fetch_add(1,
                                                  std::memory_order_relaxed);
  });
  EXPECT_EQ(stats.processes, kNproc);
  for (int m = 0; m < kNproc; ++m) {
    EXPECT_EQ(visits[static_cast<std::size_t>(m)].load(), 1) << "member " << m;
  }
}

TEST(TeamPoolUnit, MemberExceptionIsRethrownAndThePoolSurvives) {
  md::TeamPool pool(kNproc);
  EXPECT_THROW(pool.run(kNproc,
                        [](int m) {
                          if (m == 1) {
                            throw std::runtime_error("deliberate member "
                                                     "failure");
                          }
                        }),
               std::runtime_error);
  // The contract of ProcessTeam::run carries over: after the rethrow the
  // team has quiesced and the pool serves the next force normally.
  std::atomic<int> ran{0};
  pool.run(kNproc,
           [&](int) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), kNproc);
}

// --- Force over a pooled thread team ----------------------------------------

namespace {

/// Askfor payload that counts its live instances.
struct CountedTask {
  static std::atomic<int> live;
  int depth = 0;
  explicit CountedTask(int d = 0) : depth(d) { live.fetch_add(1); }
  CountedTask(const CountedTask& o) : depth(o.depth) { live.fetch_add(1); }
  CountedTask& operator=(const CountedTask&) = default;
  ~CountedTask() { live.fetch_sub(1); }
};
std::atomic<int> CountedTask::live{0};

}  // namespace

TEST(PooledForce, AskforTaskStoreIsDroppedOnEveryReentry) {
  // A pooled team re-enters the same Askfor site run after run; the tasks
  // of earlier entries must not pile up in its store.
  constexpr int kDepth = 3;
  constexpr int kTasksPerEntry = (1 << (kDepth + 1)) - 1;  // binary tree
  force::Force f(pool_config());
  for (int run = 0; run < 50; ++run) {
    std::atomic<int> executed{0};
    f.run([&](core::Ctx& ctx) {
      auto& work = ctx.askfor<CountedTask>(FORCE_SITE);
      if (ctx.me() == 1) work.put(CountedTask(0));
      ctx.barrier();
      work.work([&](CountedTask& t, core::Askfor<CountedTask>& a) {
        executed.fetch_add(1, std::memory_order_relaxed);
        if (t.depth < kDepth) {
          a.put(CountedTask(t.depth + 1));
          a.put(CountedTask(t.depth + 1));
        }
      });
    });
    ASSERT_EQ(executed.load(), kTasksPerEntry) << "run " << run;
    ASSERT_EQ(CountedTask::live.load(), 0) << "run " << run;
  }
}

TEST(PooledForce, SequentialForcesAccumulateLikeFreshTeams) {
  force::Force f(pool_config());
  auto& counter = f.shared<std::int64_t>("counter");
  for (int round = 0; round < 5; ++round) {
    const auto stats = f.run([&](core::Ctx& ctx) {
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
    });
    EXPECT_EQ(stats.processes, kNproc);
  }
  EXPECT_EQ(counter, 5 * kNproc);
}

TEST(PooledForce, NmPoolDrivesMembersThroughBarriersAndCriticals) {
  force::ForceConfig cfg = pool_config();
  cfg.pool_workers = kNproc / 2;  // NP = 2W: members become continuations
  force::Force f(cfg);
  auto& counter = f.shared<std::int64_t>("counter");
  constexpr int kRounds = 3;
  for (int round = 0; round < kRounds; ++round) {
    f.run([&](core::Ctx& ctx) {
      ctx.barrier();
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
    });
  }
  EXPECT_EQ(counter, 2 * kRounds * kNproc);
}

TEST(PooledForce, NmStripedLockHandsTheWorkerToItsHolder) {
  // The Cray-2 has 32 physical locks; once an async_array has spent them,
  // the critical section's lock is striped. Members 2 and 4 share a
  // worker. Member 2 blocks inside the critical section until member 1
  // produces, and member 4 then waits on that same critical lock: its wait
  // must hand the worker back to member 2, or neither can ever finish.
  force::ForceConfig cfg = pool_config();
  cfg.machine = "cray2";
  cfg.pool_workers = 2;
  force::Force f(cfg);
  auto& got = f.shared<std::int64_t>("got");
  auto& entries = f.shared<std::int64_t>("entries");
  const core::Site inside = FORCE_SITE;
  f.run([&](core::Ctx& ctx) {
    auto& value = ctx.async_var<std::int64_t>(FORCE_SITE);
    auto& holding = ctx.async_var<std::int64_t>(FORCE_SITE);
    (void)ctx.async_array<std::int64_t>(FORCE_SITE, 40);
    if (ctx.me() == 1) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      value.produce(7);
    } else if (ctx.me() == 2) {
      ctx.critical(inside, [&] {
        ++entries;
        holding.produce(1);
        got = value.consume();
      });
    } else if (ctx.me() == 4) {
      (void)holding.consume();
      ctx.critical(inside, [&] { ++entries; });
    }
  });
  EXPECT_GT(f.env().machine().lock_stats().striped_locks, 0u);
  EXPECT_EQ(got, 7);
  EXPECT_EQ(entries, 2);
}

// 10 000 back-to-back selfsched episodes whose bounds change every episode
// (trips 0..e%32), four members on two workers, through the word gate
// (native) and both lock gates (native/locked, sequent): a member that
// raced into the next episode would claim against the wrong bounds.
class PooledGate
    : public ::testing::TestWithParam<std::pair<std::string, std::string>> {
};

TEST_P(PooledGate, NmSelfschedReentryRunsEveryTripOnce) {
  constexpr int kEpisodes = 10000;
  constexpr std::int64_t kMaxTrips = 32;
  force::ForceConfig cfg = pool_config();
  cfg.machine = GetParam().first;
  cfg.dispatch = GetParam().second;
  cfg.pool_workers = kNproc / 2;
  force::Force f(cfg);
  std::vector<std::atomic<int>> hits(kEpisodes * kMaxTrips);
  f.run([&](core::Ctx& ctx) {
    for (int e = 0; e < kEpisodes; ++e) {
      ctx.selfsched_do(FORCE_SITE, 0, e % kMaxTrips, 1, [&](std::int64_t t) {
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

INSTANTIATE_TEST_SUITE_P(
    WordAndLockGates, PooledGate,
    ::testing::Values(std::pair<std::string, std::string>{"native", "auto"},
                      std::pair<std::string, std::string>{"native", "locked"},
                      std::pair<std::string, std::string>{"sequent", "auto"}),
    [](const auto& info) {
      return info.param.first + "_" + info.param.second;
    });

TEST(PooledForce, ArenaGenerationIsStableAcrossPooledReentry) {
  // The cheap-re-entry contract behind Force::run's sentry walk skip: a
  // force that allocates nothing new must leave the arena generation
  // untouched, so re-entering the pool never re-walks the placements.
  force::Force f(pool_config());
  auto& counter = f.shared<std::int64_t>("counter");
  const auto program = [&](core::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { counter += 1; });
    ctx.barrier();
  };
  f.run(program);  // first entry may place construct state lazily
  const std::uint64_t gen = f.env().arena().generation();
  f.run(program);
  f.run(program);
  EXPECT_EQ(f.env().arena().generation(), gen)
      << "pooled re-entry must not allocate";
  EXPECT_EQ(counter, 3 * kNproc);
}

TEST(PooledForce, SentryStaysReportFreeAcrossPooledReentry) {
  // A 1:1 pool keeps every member on its own OS thread, so the sentry
  // remains fully observable; pooled re-entry (same worker threads, new
  // run generation) must not manufacture races between entries.
  force::ForceConfig cfg = pool_config();
  cfg.sentry = true;
  force::Force f(cfg);
  auto& counter = f.shared<std::int64_t>("counter");
  for (int round = 0; round < 3; ++round) {
    f.run([&](core::Ctx& ctx) {
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
      // Unlocked writes to disjoint slots after a barrier: ordered, clean.
      auto& slots = ctx.env().arena().get_or_create<
          std::array<std::int64_t, kNproc>>("slots");
      slots[static_cast<std::size_t>(ctx.me0())] = counter;
      ctx.barrier();
    });
  }
  auto* sn = f.env().sentry();
  ASSERT_NE(sn, nullptr);
  EXPECT_EQ(sn->total_reports(), 0u)
      << "pooled re-entry manufactured sentry reports";
  EXPECT_EQ(counter, 3 * kNproc);
}

// --- configuration policy ---------------------------------------------------

TEST(PoolConfig, NmWithSentryIsRejected) {
  force::ForceConfig cfg = pool_config();
  cfg.pool_workers = 2;
  cfg.sentry = true;  // two members share one OS thread: unobservable
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

TEST(PoolConfig, NmWithOsForkIsRejected) {
  force::ForceConfig cfg = fork_pool_config();
  cfg.pool_workers = 2;  // the fork pool keeps one resident child per member
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

// --- Force over a resident fork(2) pool -------------------------------------

TEST(PooledForkForce, ResidentChildrenServeEverySequentialForce) {
  force::Force f(fork_pool_config());
  auto& counter = f.shared<std::int64_t>("counter");
  auto& pids = f.shared<std::array<long, kNproc>>("pids");
  std::array<long, kNproc> first_pids{};
  for (int round = 0; round < 4; ++round) {
    f.run([&](core::Ctx& ctx) {
      pids[static_cast<std::size_t>(ctx.me0())] = static_cast<long>(getpid());
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
    });
    if (round == 0) {
      first_pids = pids;
    } else {
      // The whole point of the pool: the SAME resident children run every
      // force, no fork(2) per entry.
      EXPECT_EQ(pids, first_pids) << "round " << round << " re-forked";
    }
  }
  EXPECT_EQ(counter, 4 * kNproc);
  EXPECT_TRUE(f.env().fork_pool(kNproc).armed());
}

TEST(PooledForkForce, RetirementDoesNotReexecuteTheProgram) {
  // shutdown() wakes the parked children by bumping the arm generation (a
  // bare wake could be slept through). The children must read that new
  // generation as "retire", not as one more armed force: a spurious extra
  // run would duplicate the program's MAP_SHARED side effects at every
  // pool retirement (env destruction, fork_pool width change).
  force::Force f(fork_pool_config());
  auto& counter = f.shared<std::int64_t>("counter");
  const auto program = [&](core::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { counter += 1; });
    ctx.barrier();
  };
  f.run(program);
  f.run(program);
  EXPECT_EQ(counter, 2 * kNproc);
  // Synchronous: returns only after every resident child is reaped, so a
  // duplicated run would already be visible in the shared counter here.
  f.env().fork_pool(kNproc).shutdown();
  EXPECT_EQ(counter, 2 * kNproc)
      << "pool retirement re-executed the pooled program";
}

TEST(PooledForkForce, ADifferentProgramOnAnArmedPoolIsRejected) {
  // Resident children re-execute the closure the pool was armed with (the
  // fork-point stack is COW-frozen), so Force::run pins the program type.
  force::Force f(fork_pool_config());
  auto& ok = f.shared<std::int64_t>("ok");
  f.run([&](core::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { ok += 1; });
    ctx.barrier();
  });
  EXPECT_EQ(ok, kNproc);
  EXPECT_THROW(f.run([&](core::Ctx& ctx) {
                 (void)ok;
                 ctx.barrier();
                 ctx.barrier();
               }),
               force::util::CheckError);
}

// The PooledGate case on resident fork children: 10 000 back-to-back
// selfsched episodes whose bounds change every episode, through the gate
// word in the arena, twice on the same pool.
TEST(PooledForkForce, SelfschedReentryRunsEveryTripOnce) {
  constexpr int kEpisodes = 10000;
  constexpr std::int64_t kMaxTrips = 32;
  using Hits = std::array<std::int32_t, kEpisodes * kMaxTrips>;
  force::Force f(fork_pool_config());
  auto& hits = f.shared<Hits>("hits");
  const auto program = [&](core::Ctx& ctx) {
    for (int e = 0; e < kEpisodes; ++e) {
      ctx.selfsched_do(FORCE_SITE, 0, e % kMaxTrips, 1, [&](std::int64_t t) {
        std::atomic_ref<std::int32_t>(
            hits[static_cast<std::size_t>(e * kMaxTrips + t)])
            .fetch_add(1);
      });
    }
  };
  for (int round = 1; round <= 2; ++round) {
    f.run(program);
    int wrong = 0;
    for (int e = 0; e < kEpisodes; ++e) {
      for (std::int64_t t = 0; t < kMaxTrips; ++t) {
        const int want = t <= e % kMaxTrips ? round : 0;
        if (hits[static_cast<std::size_t>(e * kMaxTrips + t)] != want) {
          ++wrong;
        }
      }
    }
    EXPECT_EQ(wrong, 0) << "round " << round;
  }
}

TEST(PooledForkDeath, SigkilledPoolChildIsReportedOnceAndThePoolRecovers) {
  force::Force f(fork_pool_config());
  auto& kill_flag = f.shared<std::int64_t>("kill_flag");
  auto& ok = f.shared<std::int64_t>("ok");
  const auto t0 = std::chrono::steady_clock::now();
  // One program for every run (the fork-pool contract); the parent steers
  // the victim through the shared arena, which resident children see live.
  const auto program = [&](core::Ctx& ctx) {
    if (kill_flag != 0 && ctx.me() == 2) {
      raise(SIGKILL);  // dies before arriving at the barrier
    }
    ctx.barrier();
    ctx.critical(FORCE_SITE, [&] { ok += 1; });
    ctx.barrier();
  };

  kill_flag = 0;
  f.run(program);
  EXPECT_EQ(ok, kNproc);

  kill_flag = 1;
  try {
    f.run(program);
    FAIL() << "a SIGKILLed pool child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    // Reported once, with the victim's identity - the survivors' poison
    // collateral must not mask it.
    EXPECT_EQ(e.process(), 2);
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_GT(e.pid(), 0);
  }
  EXPECT_EQ(ok, kNproc) << "the poisoned run must not have half-completed";
  EXPECT_FALSE(f.env().fork_pool(kNproc).armed())
      << "a dead team must be retired";

  // The next force transparently re-forks a fresh resident team.
  kill_flag = 0;
  f.run(program);
  EXPECT_EQ(ok, 2 * kNproc);
  EXPECT_TRUE(f.env().fork_pool(kNproc).armed());
  EXPECT_LT(seconds_since(t0), 30.0) << "pooled robust join took too long";
}

TEST(PooledForkDeath, SigkilledPoolChildAtAReduceIsReportedAndThePoolRecovers) {
  // The victim dies while its siblings have contributed and wait at the
  // reduce barrier: death recovery must zero the barrier's arrival count,
  // or the next force's fold runs early. The reduction's slots need no
  // scrub - every member overwrites its own before the next fold.
  force::Force f(fork_pool_config());
  auto& kill_flag = f.shared<std::int64_t>("kill_flag");
  auto& total = f.shared<std::int64_t>("total");
  const std::int64_t oracle = kNproc * (kNproc + 1) / 2;
  const auto t0 = std::chrono::steady_clock::now();
  const auto program = [&](core::Ctx& ctx) {
    if (kill_flag != 0 && ctx.me() == 2) {
      raise(SIGKILL);  // dies before contributing
    }
    ctx.reduce_into<std::int64_t>(
        FORCE_SITE, ctx.me(), total,
        [](std::int64_t a, std::int64_t b) { return a + b; });
  };

  kill_flag = 0;
  f.run(program);
  EXPECT_EQ(total, oracle);

  kill_flag = 1;
  try {
    f.run(program);
    FAIL() << "a SIGKILLed pool child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 2);
    EXPECT_EQ(e.term_signal(), SIGKILL);
  }

  kill_flag = 0;
  total = 0;
  f.run(program);
  EXPECT_EQ(total, oracle);
  EXPECT_LT(seconds_since(t0), 30.0) << "pooled robust join took too long";
}

TEST(PooledForkDeath, SigkilledPoolChildInASelfschedBodyIsReportedAndRecovers) {
  // The victim dies inside the body, after arriving at the gate: its
  // arrival stays in the gate word, so without the death scrub the next
  // force's first arrival would wait for a departure that never comes.
  constexpr std::int64_t kTrips = 64;
  force::Force f(fork_pool_config());
  auto& kill_flag = f.shared<std::int64_t>("kill_flag");
  auto& victim_in = f.shared<std::int64_t>("victim_in");
  auto& hits = f.shared<std::array<std::int64_t, kTrips>>("hits");
  const auto t0 = std::chrono::steady_clock::now();
  const auto program = [&](core::Ctx& ctx) {
    ctx.selfsched_do(FORCE_SITE, 0, kTrips - 1, 1, [&](std::int64_t t) {
      if (kill_flag != 0 && ctx.me() == 2) {
        std::atomic_ref<std::int64_t>(victim_in).store(1);
        raise(SIGKILL);
      }
      if (kill_flag != 0) {
        // Hold this trip until the victim has claimed one, so it surely
        // dies inside the body (bounded: a failure, never a hang).
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (std::atomic_ref<std::int64_t>(victim_in).load() == 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      std::atomic_ref<std::int64_t>(hits[static_cast<std::size_t>(t)])
          .fetch_add(1);
    });
  };

  kill_flag = 1;
  try {
    f.run(program);
    FAIL() << "a SIGKILLed pool child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 2);
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_NE(e.site().find("selfsched '"), std::string::npos)
        << "victim site: " << e.site();
  }

  kill_flag = 0;
  hits = {};
  f.run(program);
  for (std::int64_t t = 0; t < kTrips; ++t) {
    EXPECT_EQ(hits[static_cast<std::size_t>(t)], 1) << "trip " << t;
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "pooled robust join took too long";
}

TEST(PooledForkDeath, SigkilledPoolChildHoldingABusyAsyncCellRecovers) {
  // The victim dies inside a Produce's payload window: the cell word stays
  // busy, so without the death scrub no later Produce or Consume could
  // ever seize it.
  force::Force f(fork_pool_config());
  auto& kill_flag = f.shared<std::int64_t>("kill_flag");
  auto& got = f.shared<std::int64_t>("got");
  const core::Site cell_site = FORCE_SITE;
  const std::string label = "async@" + cell_site.key();
  const auto t0 = std::chrono::steady_clock::now();
  const auto program = [&](core::Ctx& ctx) {
    auto& v = ctx.async_var<std::int64_t>(cell_site);
    if (kill_flag != 0) {
      if (ctx.me() == 2) {
        v.produce(7);
        (void)v.consume();
        // Seize the empty cell as Produce does, and die before publishing.
        auto* words = static_cast<md::AsyncWords<std::int64_t>*>(
            f.env().arena().resolve(md::kAsyncWords + label));
        if (md::cell_try_seize(words->cell, md::kCellEmpty)) raise(SIGKILL);
      }
      ctx.barrier();
      return;
    }
    // Non-blocking, so a cell left busy fails the test instead of hanging.
    if (ctx.me() == 1) got = v.try_produce(42) ? 1 : -1;
    ctx.barrier();
    if (ctx.me() == 2) {
      std::int64_t out = 0;
      if (got == 1) got = v.try_consume(&out) ? out : -2;
    }
  };

  kill_flag = 1;
  try {
    f.run(program);
    FAIL() << "a SIGKILLed pool child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 2);
    EXPECT_EQ(e.site(), label);
  }

  kill_flag = 0;
  got = 0;
  f.run(program);
  EXPECT_EQ(got, 42);
  EXPECT_LT(seconds_since(t0), 30.0) << "pooled robust join took too long";
}

// The ForkDeath twins (test_process_fork.cpp) on a resident team, which
// joins through the same code: a throwing pool child leaves with code 1
// and its what(), and the retired team's collateral exits do not mask the
// primary death.
TEST(PooledForkDeath, ChildExceptionCarriesMessageAndProcessNumber) {
  force::Force f(fork_pool_config());
  try {
    f.run([](core::Ctx& ctx) {
      if (ctx.me() == 1) {
        throw std::runtime_error("deliberate pooled child failure");
      }
      ctx.barrier();
    });
    FAIL() << "a throwing pool child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 1);
    EXPECT_EQ(e.term_signal(), 0);
    EXPECT_EQ(e.exit_code(), 1);
    EXPECT_NE(e.error_text().find("deliberate pooled child failure"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("deliberate pooled child failure"),
              std::string::npos);
  }
  EXPECT_FALSE(f.env().fork_pool(kNproc).armed())
      << "a dead team must be retired";
}

TEST(PooledForkDeath, CollateralPoisonExitsAreNotReportedAsPrimary) {
  force::Force f(fork_pool_config());
  try {
    f.run([](core::Ctx& ctx) {
      if (ctx.me() == 4) raise(SIGKILL);
      ctx.barrier();
    });
    FAIL() << "expected ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 4);
    EXPECT_EQ(e.term_signal(), SIGKILL);
  }
}
