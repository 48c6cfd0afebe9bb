// Cross-model conformance matrix (driven by tests/CMakeLists.txt).
//
// One binary, five canonical Force programs, each checked bit-identically
// against a sequential oracle:
//
//   * Saxpy            - selfscheduled DOALL over doubles;
//   * BarrierReduction - a Reduce into a shared array, iterated so the
//                        reduce's barrier reuse is exercised;
//   * ReduceFoldOrder  - 1000 Reduces of a float sum whose bits depend on
//                        fold order, under reshuffled arrival orders;
//   * AskforTreewalk   - dynamic work generation through the monitor;
//   * ProduceConsume   - an async-variable pipeline through every process.
//
// The configuration cell comes in on the command line:
//   --machine=<name> --dispatch=auto|locked --barrier=<algorithm> --fork
//   --cluster --pool --pool-nm
// and CMake registers one labeled ctest per cell: every machine model x
// both dispatch engines x all four barrier algorithms for the thread
// backends, plus every machine model under the os-fork backend and the
// cluster backend (separate address spaces over a socket transport). The
// same program bytes must produce the same answer everywhere - the
// paper's portability claim, executed.
//
// Cells without --barrier (pool, pool-nm, os-fork, cluster) run the
// machine's default barrier ("auto": central-sense on the atomic-RMW
// machines, paper-lock on the lock-only ones).
//
// --pool runs each program as several sequential forces on one persistent
// team pool (config.team_pool), and --pool-nm additionally folds the
// members onto kNproc/2 workers (N:M fiber scheduling, NP = 2W); every
// pooled re-entry must stay bit-identical to the fresh-team oracle.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "core/force.hpp"

namespace core = force::core;

namespace {

std::string g_machine = "native";
std::string g_dispatch = "auto";
std::string g_barrier = "auto";
bool g_fork = false;
bool g_cluster = false;
bool g_pool = false;
bool g_pool_nm = false;

constexpr int kNproc = 4;

force::ForceConfig cell_config() {
  force::ForceConfig cfg;
  cfg.nproc = kNproc;
  cfg.machine = g_machine;
  cfg.dispatch = g_dispatch;
  cfg.barrier_algorithm = g_barrier;
  if (g_fork) cfg.process_model = "os-fork";
  if (g_cluster) cfg.process_model = "cluster";
  if (g_pool || g_pool_nm) cfg.team_pool = true;
  if (g_pool_nm) cfg.pool_workers = kNproc / 2;  // NP = 2W
  return cfg;
}

// Pooled cells repeat each program so the team re-enters the parked pool;
// fresh-team cells run once (the repeat would only re-measure spawn).
int cell_runs() { return (g_pool || g_pool_nm) ? 4 : 1; }

}  // namespace

// --- Saxpy: selfscheduled DOALL --------------------------------------------

TEST(Conformance, Saxpy) {
  constexpr std::size_t kN = 4096;
  using Vec = std::array<double, kN>;

  Vec x{};
  Vec oracle{};
  const double a = 2.5;
  for (std::size_t i = 0; i < kN; ++i) {
    x[i] = 0.25 * static_cast<double>(i) - 17.0;
    oracle[i] = a * x[i] + 3.0;
  }

  force::Force f(cell_config());
  auto& xs = f.shared<Vec>("x");
  auto& ys = f.shared<Vec>("y");
  xs = x;
  for (int run = 0; run < cell_runs(); ++run) {
    for (std::size_t i = 0; i < kN; ++i) ys[i] = 3.0;
    f.run([&](core::Ctx& ctx) {
      ctx.selfsched_do(FORCE_SITE, 0, kN - 1, 1, [&](std::int64_t i) {
        const auto u = static_cast<std::size_t>(i);
        ys[u] = a * xs[u] + ys[u];
      });
      ctx.barrier();
    });
    EXPECT_EQ(std::memcmp(ys.data(), oracle.data(), sizeof(Vec)), 0)
        << "saxpy result is not bit-identical to the sequential oracle "
        << "(run " << run << ")";
  }
}

// --- BarrierReduction: critical + barrier section, iterated -----------------

TEST(Conformance, BarrierSectionReduction) {
  constexpr int kRounds = 5;
  constexpr std::int64_t kN = 1000;

  // Oracle: rounds of sum(1..kN) scaled by the round number.
  std::array<std::int64_t, kRounds> oracle{};
  for (int r = 0; r < kRounds; ++r) {
    std::int64_t s = 0;
    for (std::int64_t i = 1; i <= kN; ++i) s += i * (r + 1);
    oracle[static_cast<std::size_t>(r)] = s;
  }

  force::Force f(cell_config());
  auto& results = f.shared<std::array<std::int64_t, kRounds>>("results");
  for (int run = 0; run < cell_runs(); ++run) {
    results = {};
    f.run([&](core::Ctx& ctx) {
      for (int r = 0; r < kRounds; ++r) {
        std::int64_t local = 0;
        ctx.presched_do(1, kN, 1,
                        [&](std::int64_t i) { local += i * (r + 1); });
        ctx.reduce_into<std::int64_t>(
            FORCE_SITE, local, results[static_cast<std::size_t>(r)],
            [](std::int64_t p, std::int64_t q) { return p + q; });
      }
    });
    for (int r = 0; r < kRounds; ++r) {
      EXPECT_EQ(results[static_cast<std::size_t>(r)],
                oracle[static_cast<std::size_t>(r)])
          << "round " << r << " (run " << run << ")";
    }
  }
}

// --- ReduceFoldsInMemberOrder: a fold-order-sensitive float sum ------------

TEST(Conformance, ReduceFoldsInMemberOrder) {
  constexpr int kEpisodes = 1000;
  // Floating-point addition is not associative: summing these in another
  // order keeps or drops the 1.0s against the 1e16s, so only the fold
  // 0, 1, ..., NP-1 reproduces the sequential oracle's bits.
  static constexpr std::array<double, kNproc> kTerms = {1e16, 1.0, -1e16,
                                                        1.0};
  const auto term = [](int me0, int r) {
    return kTerms[static_cast<std::size_t>((me0 + r) % kNproc)];
  };
  const auto oracle = [&term](int r) {
    double acc = term(0, r);
    for (int p = 1; p < kNproc; ++p) acc += term(p, r);
    return acc;
  };

  force::Force f(cell_config());
  auto& results = f.shared<std::array<double, kEpisodes>>("results");
  auto& mismatches = f.shared<std::array<std::int64_t, kNproc>>("mismatches");
  for (int run = 0; run < cell_runs(); ++run) {
    results = {};
    mismatches = {};
    f.run([&](core::Ctx& ctx) {
      const int me0 = ctx.me0();
      std::int64_t bad = 0;
      for (int r = 0; r < kEpisodes; ++r) {
        // Member- and round-dependent busy work reshuffles the arrival
        // order: the member contributing 1e16 tends to arrive first.
        const int spins =
            16384 * ((me0 + r) % kNproc) + 512 * ((7 * r + 3 * me0) % 5);
        volatile std::int64_t sink = 0;
        for (int i = 0; i < spins; ++i) sink = sink + i;
        const double got = ctx.reduce_into<double>(
            FORCE_SITE, term(me0, r), results[static_cast<std::size_t>(r)],
            [](double a, double b) { return a + b; });
        const double want = oracle(r);
        if (std::memcmp(&got, &want, sizeof got) != 0) ++bad;
      }
      mismatches[static_cast<std::size_t>(me0)] = bad;
      ctx.barrier();
    });
    std::array<double, kEpisodes> want{};
    for (int r = 0; r < kEpisodes; ++r) {
      want[static_cast<std::size_t>(r)] = oracle(r);
    }
    EXPECT_EQ(std::memcmp(results.data(), want.data(), sizeof want), 0)
        << "published sums are not the member-order fold (run " << run
        << ")";
    for (int p = 0; p < kNproc; ++p) {
      EXPECT_EQ(mismatches[static_cast<std::size_t>(p)], 0)
          << "member " << p << " got another fold back (run " << run << ")";
    }
  }
}

// --- AskforTreewalk: dynamic work through the monitor -----------------------

TEST(Conformance, AskforTreewalk) {
  constexpr std::int64_t kLeafBound = 1 << 10;  // implicit binary tree, 2047 nodes

  std::int64_t oracle = 0;
  for (std::int64_t v = 1; v < 2 * kLeafBound; ++v) oracle += v * 7 - 3;

  force::Force f(cell_config());
  auto& total = f.shared<std::int64_t>("total");
  for (int run = 0; run < cell_runs(); ++run) {
    total = 0;
    f.run([&](core::Ctx& ctx) {
      auto& af = ctx.askfor<std::int64_t>(FORCE_SITE);
      if (ctx.leader()) af.put(1);
      af.work([&](std::int64_t& node, core::Askfor<std::int64_t>& a) {
        ctx.critical(FORCE_SITE, [&] { total += node * 7 - 3; });
        if (node < kLeafBound) {
          a.put(2 * node);
          a.put(2 * node + 1);
        }
      });
      ctx.barrier();
    });
    EXPECT_EQ(total, oracle) << "run " << run;
  }
}

// --- ProduceConsume: async-variable pipeline through every process ----------

TEST(Conformance, ProduceConsumePipeline) {
  constexpr std::int64_t kItems = 64;

  // Stage p (1-based) maps v -> 3*v + p; items flow 1 -> 2 -> ... -> NP.
  std::int64_t oracle = 0;
  for (std::int64_t i = 0; i < kItems; ++i) {
    std::int64_t v = i;
    for (int p = 1; p <= kNproc; ++p) v = 3 * v + p;
    oracle += v;
  }

  force::Force f(cell_config());
  auto& sink = f.shared<std::int64_t>("sink");
  for (int run = 0; run < cell_runs(); ++run) {
  sink = 0;
  f.run([&](core::Ctx& ctx) {
    // Cells between stages: stage p produces into cells[p-1].
    auto& cells = ctx.async_array<std::int64_t>(FORCE_SITE, kNproc);
    const int me = ctx.me();
    std::int64_t acc = 0;
    for (std::int64_t i = 0; i < kItems; ++i) {
      std::int64_t v =
          me == 1 ? i : cells[static_cast<std::size_t>(me - 2)].consume();
      v = 3 * v + me;
      if (me == kNproc) {
        acc += v;
      } else {
        cells[static_cast<std::size_t>(me - 1)].produce(v);
      }
    }
    if (me == kNproc) {
      ctx.critical(FORCE_SITE, [&] { sink = acc; });
    }
    ctx.barrier();
  });
  EXPECT_EQ(sink, oracle) << "run " << run;
  }
}

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--machine=", 0) == 0) {
      g_machine = arg.substr(10);
    } else if (arg.rfind("--dispatch=", 0) == 0) {
      g_dispatch = arg.substr(11);
    } else if (arg.rfind("--barrier=", 0) == 0) {
      g_barrier = arg.substr(10);
    } else if (arg == "--fork") {
      g_fork = true;
    } else if (arg == "--cluster") {
      g_cluster = true;
    } else if (arg == "--pool") {
      g_pool = true;
    } else if (arg == "--pool-nm") {
      g_pool_nm = true;
    }
  }
  return RUN_ALL_TESTS();
}
