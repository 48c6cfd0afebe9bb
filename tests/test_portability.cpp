// The portability experiment as a test (paper §1, §4; DESIGN.md E1):
// one SPMD program exercising every construct class must pass unchanged on
// all seven machine models at several force sizes.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <tuple>

#include "core/force.hpp"
#include "core/privatevar.hpp"

namespace fc = force::core;

namespace {

/// The machine-independent construct suite; returns the number of failed
/// invariants (0 = pass).
int construct_suite(force::Force& f) {
  int failures = 0;
  auto& selfsched_sum = f.shared<std::int64_t>("s_sum");
  auto& presched_sum = f.shared<std::int64_t>("p_sum");
  auto& pcase_hits = f.shared<std::int64_t>("pcase_hits");
  auto& askfor_sum = f.shared<std::int64_t>("a_sum");
  // Declared before the force starts, as a startup routine would: on the
  // link-time (Sequent) machine a first touch after link() is an error.
  (void)f.shared<std::int64_t>("r_sum");
  std::atomic<std::int64_t> relay_final{0};

  f.run([&](fc::Ctx& ctx) {
    // 1. selfsched DOALL + critical reduction
    std::int64_t local = 0;
    ctx.selfsched_do(FORCE_SITE, 1, 500, 1,
                     [&](std::int64_t i) { local += i; });
    ctx.critical(FORCE_SITE, [&] { selfsched_sum += local; });

    // 2. presched DOALL (negative stride)
    local = 0;
    ctx.presched_do(500, 1, -1, [&](std::int64_t i) { local += i; });
    ctx.critical(FORCE_SITE, [&] { presched_sum += local; });
    ctx.barrier();

    // 3. pcase: both blocks count under one critical site, since two
    // sites would be two locks and the blocks run on different processes.
    const auto hit = [&] { ctx.critical(FORCE_SITE, [&] { ++pcase_hits; }); };
    ctx.pcase(FORCE_SITE)
        .sect(hit)
        .sect(hit)
        .sect_if(false, [&] { pcase_hits += 100; })
        .run_selfsched();
    ctx.barrier();

    // 4. askfor with run-time work generation
    auto& monitor = ctx.askfor<std::int64_t>(FORCE_SITE);
    if (ctx.leader()) monitor.put(16);
    ctx.barrier();
    std::int64_t asum = 0;
    monitor.work([&](std::int64_t& v, fc::Askfor<std::int64_t>& self) {
      asum += v;
      if (v > 1) {
        self.put(v / 2);
        self.put(v / 2);
      }
    });
    ctx.critical(FORCE_SITE, [&] { askfor_sum += asum; });

    // 5. produce/consume relay
    auto& relay = ctx.async_var<std::int64_t>(FORCE_SITE);
    if (ctx.me() == 1) relay.produce(0);
    for (int hop = 0; hop < 3; ++hop) {
      relay.produce(relay.consume() + 1);
    }
    ctx.barrier([&] { relay_final = relay.consume(); });

    // 6. resolve into two components with nested loops
    auto& rsum = ctx.shared<std::int64_t>("r_sum");
    if (ctx.np() >= 2) {
      // One lock shared by BOTH components: a per-component critical()
      // would namespace to two different locks, and two different locks do
      // not exclude each other - the components run concurrently, so their
      // rsum updates would genuinely race (TSan catches this).
      auto& rsum_lock = ctx.named_lock("r_sum_lock");
      ctx.resolve(FORCE_SITE)
          .component("left", 1,
                     [&](fc::Ctx& sub) {
                       std::int64_t l = 0;
                       sub.selfsched_do(FORCE_SITE, 1, 50, 1,
                                        [&](std::int64_t i) { l += i; });
                       rsum_lock.acquire();
                       rsum += l;
                       rsum_lock.release();
                     })
          .component("right", 1,
                     [&](fc::Ctx& sub) {
                       std::int64_t l = 0;
                       sub.presched_do(1, 50, 1,
                                       [&](std::int64_t i) { l += i; });
                       rsum_lock.acquire();
                       rsum += l;
                       rsum_lock.release();
                     })
          .run();
    }
  });

  if (selfsched_sum != 125250) ++failures;
  if (presched_sum != 125250) ++failures;
  if (pcase_hits != 2) ++failures;
  // askfor: 16 splits into 2x8 -> ... total = 16 * (depth+1) = 16*5 ... the
  // exact sum: each level contributes 16, levels 16,8,4,2,1 -> 5*16 = 80.
  if (askfor_sum != 80) ++failures;
  if (relay_final.load() != 3 * f.nproc()) ++failures;
  if (f.nproc() >= 2 && f.shared<std::int64_t>("r_sum") != 2 * 1275)
    ++failures;
  return failures;
}

}  // namespace

class PortabilityTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(PortabilityTest, ConstructSuitePassesUnchanged) {
  const auto& [machine, np] = GetParam();
  fc::ForceConfig cfg;
  cfg.machine = machine;
  cfg.nproc = np;
  force::Force f(cfg);
  EXPECT_EQ(construct_suite(f), 0) << machine << " np=" << np;
}

INSTANTIATE_TEST_SUITE_P(
    AllMachines, PortabilityTest,
    ::testing::Combine(
        ::testing::Values("hep", "flex32", "encore", "sequent", "alliant",
                          "cray2", "native"),
        ::testing::Values(1, 2, 4, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      return std::get<0>(info.param) + "_np" +
             std::to_string(std::get<1>(info.param));
    });

TEST(Portability, ResultsAreIdenticalAcrossMachines) {
  // The same program computes the same answer everywhere - the essence of
  // "programs written in the language are portable".
  std::int64_t reference = -1;
  for (const auto& machine : force::machdep::machine_names()) {
    fc::ForceConfig cfg;
    cfg.machine = machine;
    cfg.nproc = 3;
    force::Force f(cfg);
    auto& sum = f.shared<std::int64_t>("sum");
    f.run([&](fc::Ctx& ctx) {
      std::int64_t local = 0;
      ctx.selfsched_do(FORCE_SITE, 1, 777, 3,
                       [&](std::int64_t i) { local += i * i; });
      ctx.critical(FORCE_SITE, [&] { sum += local; });
    });
    if (reference < 0) reference = sum;
    EXPECT_EQ(sum, reference) << machine;
  }
}

TEST(Portability, NprocIndependence) {
  // "independence of the number of processes executing a parallel
  // program": answers do not depend on np.
  std::int64_t reference = -1;
  for (int np : {1, 2, 3, 5, 8, 13}) {
    force::Force f({.nproc = np});
    auto& sum = f.shared<std::int64_t>("sum");
    f.run([&](fc::Ctx& ctx) {
      std::int64_t local = 0;
      ctx.guided_do(FORCE_SITE, 1, 1000, 1,
                    [&](std::int64_t i) { local += i; });
      ctx.critical(FORCE_SITE, [&] { sum += local; });
    });
    if (reference < 0) reference = sum;
    EXPECT_EQ(sum, reference) << "np=" << np;
  }
  EXPECT_EQ(reference, 500500);
}
