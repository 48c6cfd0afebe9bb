// Tests for the Reduction construct: one barrier episode whose section folds
// the per-process slots in member order, under every barrier algorithm.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <tuple>

#include "core/force.hpp"
#include "reduce_moments.hpp"

namespace fc = force::core;

namespace {
std::function<std::int64_t(std::int64_t, std::int64_t)> plus_i64() {
  return [](std::int64_t a, std::int64_t b) { return a + b; };
}
}  // namespace

class ReduceTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  /// A force of the parameter's width whose team barriers - the reduce's
  /// included - run the parameter's algorithm.
  static fc::ForceConfig config() {
    fc::ForceConfig cfg;
    cfg.barrier_algorithm = std::get<0>(GetParam());
    cfg.nproc = std::get<1>(GetParam());
    return cfg;
  }
};

TEST_P(ReduceTest, SumOfProcessNumbers) {
  force::Force f(config());
  std::atomic<int> failures{0};
  f.run([&](fc::Ctx& ctx) {
    const std::int64_t total = ctx.reduce<std::int64_t>(
        FORCE_SITE, ctx.me(), plus_i64());
    if (total != static_cast<std::int64_t>(ctx.np()) * (ctx.np() + 1) / 2) {
      failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(ReduceTest, EveryProcessGetsTheResult) {
  const int np = std::get<1>(GetParam());
  force::Force f(config());
  std::vector<std::int64_t> results(static_cast<std::size_t>(np), -1);
  f.run([&](fc::Ctx& ctx) {
    results[static_cast<std::size_t>(ctx.me0())] =
        ctx.reduce<std::int64_t>(FORCE_SITE, 1, plus_i64());
  });
  for (int p = 0; p < np; ++p) {
    EXPECT_EQ(results[static_cast<std::size_t>(p)], np) << p;
  }
}

TEST_P(ReduceTest, ReusableAcrossEpisodesWithChangingValues) {
  force::Force f(config());
  std::atomic<int> failures{0};
  f.run([&](fc::Ctx& ctx) {
    for (std::int64_t round = 1; round <= 20; ++round) {
      const std::int64_t total = ctx.reduce<std::int64_t>(
          FORCE_SITE, round * ctx.me(), plus_i64());
      const std::int64_t want =
          round * static_cast<std::int64_t>(ctx.np()) * (ctx.np() + 1) / 2;
      if (total != want) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(ReduceTest, MaxReduction) {
  force::Force f(config());
  std::atomic<int> failures{0};
  f.run([&](fc::Ctx& ctx) {
    const std::int64_t biggest = ctx.reduce<std::int64_t>(
        FORCE_SITE, (ctx.me() * 7919) % 101,
        [](std::int64_t a, std::int64_t b) { return std::max(a, b); });
    std::int64_t want = 0;
    for (int p = 1; p <= ctx.np(); ++p) {
      want = std::max<std::int64_t>(want, (p * 7919) % 101);
    }
    if (biggest != want) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST_P(ReduceTest, DoublePayloads) {
  force::Force f(config());
  std::atomic<int> failures{0};
  f.run([&](fc::Ctx& ctx) {
    const double sum = ctx.reduce<double>(
        FORCE_SITE, 0.5 * ctx.me(),
        [](double a, double b) { return a + b; });
    const double want = 0.5 * ctx.np() * (ctx.np() + 1) / 2.0;
    if (std::fabs(sum - want) > 1e-12) failures.fetch_add(1);
  });
  EXPECT_EQ(failures.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    BarriersAndWidths, ReduceTest,
    ::testing::Combine(::testing::ValuesIn(fc::barrier_algorithm_names()),
                       ::testing::Values(1, 2, 3, 4, 7, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      std::string name = std::get<0>(info.param);
      std::replace(name.begin(), name.end(), '-', '_');
      return name + "_w" + std::to_string(std::get<1>(info.param));
    });

TEST(Reduce, WorksOnEveryMachineModel) {
  for (const auto& machine : force::machdep::machine_names()) {
    fc::ForceConfig cfg;
    cfg.nproc = 4;
    cfg.machine = machine;
    force::Force f(cfg);
    std::atomic<int> failures{0};
    f.run([&](fc::Ctx& ctx) {
      const auto v = ctx.reduce<std::int64_t>(FORCE_SITE, ctx.me(),
                                              plus_i64());
      if (v != 10) failures.fetch_add(1);
    });
    EXPECT_EQ(failures.load(), 0) << machine;
  }
}

TEST(Reduce, UsesNoLocksBeyondTheBarrier) {
  // The slots are plain stores and the fold runs in the barrier section,
  // so a lock-free barrier algorithm leaves the reduce with no lock at all.
  fc::ForceConfig cfg;
  cfg.nproc = 4;
  cfg.barrier_algorithm = "central-sense";  // lock-free barrier
  force::Force f(cfg);
  f.run([](fc::Ctx&) {});  // warm up the force
  const auto before = force::machdep::snapshot(f.env().machine().counters());
  f.run([&](fc::Ctx& ctx) {
    (void)ctx.reduce<std::int64_t>(FORCE_SITE, 1, plus_i64());
  });
  const auto delta =
      force::machdep::snapshot(f.env().machine().counters()) - before;
  EXPECT_EQ(delta.acquires, 0u);
}

TEST(Reduce, ReduceIntoWritesSharedTargetRaceFree) {
  force::Force f({.nproc = 4});
  auto& total = f.shared<std::int64_t>("total");
  std::atomic<int> failures{0};
  f.run([&](fc::Ctx& ctx) {
    for (std::int64_t round = 1; round <= 5; ++round) {
      ctx.reduce_into<std::int64_t>(FORCE_SITE, round, total, plus_i64());
      // Visible to every process as soon as the construct returns.
      if (total != round * ctx.np()) failures.fetch_add(1);
    }
  });
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(total, 5 * 4);
}

TEST(Reduce, InsideResolveComponents) {
  force::Force f({.nproc = 6});
  std::atomic<int> failures{0};
  f.run([&](fc::Ctx& ctx) {
    ctx.resolve(FORCE_SITE)
        .component("a", 1,
                   [&](fc::Ctx& sub) {
                     const auto v = sub.reduce<std::int64_t>(
                         FORCE_SITE, 1, plus_i64());
                     if (v != sub.np()) failures.fetch_add(1);
                   })
        .component("b", 1,
                   [&](fc::Ctx& sub) {
                     const auto v = sub.reduce<std::int64_t>(
                         FORCE_SITE, 2, plus_i64());
                     if (v != 2 * sub.np()) failures.fetch_add(1);
                   })
        .run();
  });
  EXPECT_EQ(failures.load(), 0);
}

TEST(Reduce, MultiWordPayloadMatchesTheOracle) {
  // The os-fork and cluster halves of this case live in
  // test_process_fork.cpp and test_cluster.cpp.
  force::Force f({.nproc = 4});
  auto& published = f.shared<reduce_moments::Published>("published");
  auto& agreed = f.shared<reduce_moments::Agreed>("agreed");
  reduce_moments::run_rounds(f, published, agreed);
  reduce_moments::expect_oracle(published, agreed, 4);
}
