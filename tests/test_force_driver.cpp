// Tests for the Force driver, Ctx, shared/private variables and the
// integration of constructs through the public API.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>

#include "core/force.hpp"
#include "core/privatevar.hpp"
#include "util/check.hpp"

namespace fc = force::core;

namespace {

// Sets an environment variable for one test and restores the ambient
// value after, so a suite-wide FORCE_* run sees its own setting again.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

// Constructs a Force from `cfg` (which starts no thread or process) and
// returns the CheckError text, or "" when construction succeeded.
std::string construction_error(const force::ForceConfig& cfg) {
  try {
    force::Force f(cfg);
  } catch (const force::util::CheckError& e) {
    return e.what();
  }
  return "";
}

}  // namespace

// The FORCE_* overrides must be validated like explicit settings, when the
// Force is constructed; otherwise a bogus transport surfaces only inside
// the cluster spawn, and a worker count beyond int wraps silently.
TEST(ConfigOverrides, BogusClusterTransportIsRejectedAtConstruction) {
  ScopedEnv transport("FORCE_CLUSTER_TRANSPORT", "bogus");
  force::ForceConfig cfg;
  cfg.nproc = 2;
  cfg.process_model = "cluster";
  EXPECT_NE(construction_error(cfg).find("FORCE_CLUSTER_TRANSPORT"),
            std::string::npos);
}

TEST(ConfigOverrides, OutOfRangePoolWorkersIsRejectedAtConstruction) {
  ScopedEnv workers("FORCE_POOL_WORKERS", "1099511627776");  // 2^40
  force::ForceConfig cfg;
  cfg.nproc = 2;
  EXPECT_NE(construction_error(cfg).find("FORCE_POOL_WORKERS"),
            std::string::npos);
}

TEST(ForceDriver, RunsNprocProcessesWithFortranStyleIds) {
  force::Force f({.nproc = 5});
  std::mutex m;
  std::set<int> mes;
  f.run([&](fc::Ctx& ctx) {
    EXPECT_EQ(ctx.np(), 5);
    EXPECT_EQ(ctx.me(), ctx.me0() + 1);
    std::lock_guard<std::mutex> g(m);
    mes.insert(ctx.me());
  });
  EXPECT_EQ(mes, (std::set<int>{1, 2, 3, 4, 5}));
}

TEST(ForceDriver, LeaderIsExactlyProcessOne) {
  force::Force f({.nproc = 4});
  std::atomic<int> leaders{0};
  f.run([&](fc::Ctx& ctx) {
    if (ctx.leader()) {
      leaders.fetch_add(1);
      EXPECT_EQ(ctx.me(), 1);
    }
  });
  EXPECT_EQ(leaders.load(), 1);
}

TEST(ForceDriver, SharedVariablesAreShared) {
  force::Force f({.nproc = 4});
  f.run([&](fc::Ctx& ctx) {
    auto& x = ctx.shared<std::int64_t>("x");
    ctx.critical(FORCE_SITE, [&] { x += ctx.me(); });
    ctx.barrier();
    EXPECT_EQ(x, 1 + 2 + 3 + 4);
  });
}

TEST(ForceDriver, SharedSeenFromDriverAndProcesses) {
  force::Force f({.nproc = 2});
  auto& x = f.shared<double>("x");
  x = 2.5;
  f.run([&](fc::Ctx& ctx) {
    EXPECT_DOUBLE_EQ(ctx.shared<double>("x"), 2.5);
  });
}

TEST(ForceDriver, RngSubstreamsAreDeterministicAndDistinct) {
  force::Force f({.nproc = 3, .machine = "native"});
  std::mutex m;
  std::map<int, std::uint64_t> draws;
  f.run([&](fc::Ctx& ctx) {
    const auto v = ctx.rng().next();
    std::lock_guard<std::mutex> g(m);
    draws[ctx.me()] = v;
  });
  EXPECT_EQ(draws.size(), 3u);
  EXPECT_NE(draws[1], draws[2]);
  EXPECT_NE(draws[2], draws[3]);
  // Deterministic across an identical force.
  force::Force f2({.nproc = 3, .machine = "native"});
  f2.run([&](fc::Ctx& ctx) {
    EXPECT_EQ(ctx.rng().next(), draws[ctx.me()]) << ctx.me();
  });
}

TEST(ForceDriver, MultipleRunsReuseTheForce) {
  force::Force f({.nproc = 3});
  auto& acc = f.shared<std::int64_t>("acc");
  for (int round = 0; round < 4; ++round) {
    f.run([&](fc::Ctx& ctx) {
      ctx.critical(FORCE_SITE, [&] { acc += 1; });
    });
  }
  EXPECT_EQ(acc, 4 * 3);
  EXPECT_EQ(f.lifetime_stats().processes, 3);
}

TEST(ForceDriver, ProcessExceptionSurfacesAfterJoin) {
  force::Force f({.nproc = 3});
  EXPECT_THROW(f.run([&](fc::Ctx& ctx) {
    if (ctx.me() == 2) throw std::runtime_error("kaboom");
  }),
               std::runtime_error);
}

TEST(ForceDriver, NullProgramThrows) {
  force::Force f({.nproc = 1});
  EXPECT_THROW(f.run(nullptr), force::util::CheckError);
}

TEST(ForceDriver, BarrierSectionFromCtx) {
  force::Force f({.nproc = 6});
  std::atomic<int> sections{0};
  f.run([&](fc::Ctx& ctx) {
    for (int e = 0; e < 10; ++e) {
      ctx.barrier([&] { sections.fetch_add(1); });
    }
  });
  EXPECT_EQ(sections.load(), 10);
  EXPECT_EQ(f.env().stats().barrier_episodes.load(), 10u);
}

TEST(ForceDriver, SitesDistinguishConstructsByLine) {
  force::Force f({.nproc = 2});
  f.run([&](fc::Ctx& ctx) {
    auto& a = ctx.async_var<int>(FORCE_SITE);
    auto& b = ctx.async_var<int>(FORCE_SITE);
    EXPECT_NE(&a, &b);
    auto& a2 = ctx.async_var<int>(FORCE_SITE_TAGGED("a"));
    auto& a3 = ctx.async_var<int>(FORCE_SITE_TAGGED("b"));
    EXPECT_NE(&a2, &a3);
  });
}

TEST(ForceDriver, SiteReuseWithDifferentTypeIsDetected) {
  force::Force f({.nproc = 1});
  f.run([&](fc::Ctx& ctx) {
    const fc::Site site{"fixed.cpp", 1, ""};
    (void)ctx.async_var<int>(site);
    EXPECT_THROW((void)ctx.async_var<double>(site),
                 force::util::CheckError);
  });
}

TEST(ForceDriver, AsyncNamedIsSharedByName) {
  force::Force f({.nproc = 2});
  std::atomic<int> got{0};
  f.run([&](fc::Ctx& ctx) {
    auto& v = ctx.async_named<int>("HANDOFF");
    if (ctx.me() == 1) v.produce(41);
    if (ctx.me() == 2) got = v.consume();
  });
  EXPECT_EQ(got.load(), 41);
}

TEST(ForceDriver, BadConfigThrows) {
  EXPECT_THROW(force::Force({.nproc = 0}), force::util::CheckError);
  EXPECT_THROW(force::Force({.nproc = 2, .machine = "vax"}),
               force::util::CheckError);
  EXPECT_THROW(
      force::Force({.nproc = 2, .barrier_algorithm = "imaginary"}),
      force::util::CheckError);
}

TEST(ForceDriver, NamedLocksAreSharedByNameAndCrossThreadReleasable) {
  force::Force f({.nproc = 2});
  std::atomic<bool> order_ok{false};
  f.run([&](fc::Ctx& ctx) {
    auto& lock = ctx.named_lock("GUARD");
    if (ctx.me() == 1) {
      lock.acquire();          // hold it...
      ctx.barrier();
      // ...process 2 releases it (binary-semaphore semantics).
    } else {
      ctx.barrier();
      lock.release();
      order_ok = true;
    }
    ctx.barrier();
    // Must be acquirable again by anyone.
    if (ctx.leader()) {
      lock.acquire();
      lock.release();
    }
  });
  EXPECT_TRUE(order_ok.load());
}

// --- private variables across process models ------------------------------------

TEST(PrivateVars, ForkModelsInheritParentValue) {
  for (const char* machine : {"sequent", "encore", "flex32", "cray2",
                              "alliant"}) {
    force::Force f({.nproc = 3, .machine = machine});
    fc::Private<std::int64_t> seed(f.env());
    seed.parent() = 123;
    std::atomic<int> matches{0};
    f.run([&](fc::Ctx& ctx) {
      if (seed.get(ctx) == 123) matches.fetch_add(1);
      seed.get(ctx) = ctx.me();  // private writes don't interfere
    });
    EXPECT_EQ(matches.load(), 3) << machine;
    // Each process wrote its own copy.
    for (int p = 0; p < 3; ++p) {
      EXPECT_EQ(seed.for_process(p), p + 1) << machine;
    }
  }
}

TEST(PrivateVars, HepCreateStartsDefault) {
  force::Force f({.nproc = 3, .machine = "hep"});
  fc::Private<std::int64_t> seed(f.env());
  seed.parent() = 123;
  std::atomic<int> zeros{0};
  f.run([&](fc::Ctx& ctx) {
    if (seed.get(ctx) == 0) zeros.fetch_add(1);
  });
  EXPECT_EQ(zeros.load(), 3);
}

TEST(PrivateVars, AlliantMisplacedPrivateIsAccidentallyShared) {
  // The hazard the paper warns about: a "private" in the data region is
  // one shared buffer under the Alliant fork model.
  force::Force f({.nproc = 2, .machine = "alliant"});
  fc::MisplacedPrivate<std::int64_t> misplaced(f.env());
  f.run([&](fc::Ctx& ctx) {
    ctx.barrier([&] { misplaced.get(ctx) = 55; });
    // Every process sees the write - sharing where privacy was intended.
    EXPECT_EQ(misplaced.get(ctx), 55);
  });
  // Whereas on a full-fork machine the same code keeps copies private:
  force::Force f2({.nproc = 2, .machine = "sequent"});
  fc::MisplacedPrivate<std::int64_t> fine(f2.env());
  std::atomic<int> isolated{0};
  f2.run([&](fc::Ctx& ctx) {
    if (ctx.me() == 1) fine.get(ctx) = 55;
    ctx.barrier();
    if (ctx.me() == 2 && fine.get(ctx) == 0) isolated.fetch_add(1);
  });
  EXPECT_EQ(isolated.load(), 1);
}

// --- cross-construct integration -------------------------------------------------

TEST(Integration, ReductionPipeline) {
  // selfsched -> critical -> barrier section -> async handoff, together.
  force::Force f({.nproc = 4});
  auto& sum = f.shared<std::int64_t>("sum");
  std::atomic<std::int64_t> final_value{0};
  f.run([&](fc::Ctx& ctx) {
    std::int64_t local = 0;
    ctx.selfsched_do(FORCE_SITE, 1, 1000, 1,
                     [&](std::int64_t i) { local += i; });
    ctx.critical(FORCE_SITE, [&] { sum += local; });
    auto& handoff = ctx.async_var<std::int64_t>(FORCE_SITE);
    ctx.barrier([&] { handoff.produce(sum); });
    ctx.barrier([&] { final_value = handoff.consume(); });
  });
  EXPECT_EQ(final_value.load(), 500500);
}

TEST(Integration, BarrierAlgorithmsAreInterchangeable) {
  for (const auto& algorithm : fc::barrier_algorithm_names()) {
    fc::ForceConfig cfg;
    cfg.nproc = 4;
    cfg.barrier_algorithm = algorithm;
    force::Force f(cfg);
    auto& x = f.shared<std::int64_t>("x");
    f.run([&](fc::Ctx& ctx) {
      for (int e = 0; e < 5; ++e) {
        ctx.critical(FORCE_SITE, [&] { ++x; });
        ctx.barrier([&] {
          EXPECT_EQ(x % ctx.np(), 0) << algorithm;
        });
      }
    });
    EXPECT_EQ(x, 20) << algorithm;
  }
}
