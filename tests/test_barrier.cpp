// Tests for every barrier algorithm (paper §3.4, §4.2, [AJ87]):
// correctness, section semantics, reusability, and cross-algorithm sweeps.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "core/barrier.hpp"
#include "core/env.hpp"

namespace fc = force::core;

namespace {

fc::ForceConfig test_config(int np) {
  fc::ForceConfig cfg;
  cfg.nproc = np;
  cfg.machine = "native";
  return cfg;
}

/// Runs `episodes` barrier episodes on `width` real threads and checks the
/// fundamental barrier property: no thread enters episode e+1 before every
/// thread finished episode e.
void check_barrier_property(fc::BarrierAlgorithm& barrier, int width,
                            int episodes) {
  std::vector<std::atomic<int>> progress(static_cast<std::size_t>(width));
  for (auto& p : progress) p.store(0);
  std::atomic<bool> violated{false};
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < width; ++t) {
      team.emplace_back([&, t] {
        for (int e = 0; e < episodes; ++e) {
          progress[static_cast<std::size_t>(t)].store(e + 1);
          barrier.arrive(t);
          // After the barrier, everyone must have reached episode e+1.
          for (int other = 0; other < width; ++other) {
            if (progress[static_cast<std::size_t>(other)].load() < e + 1) {
              violated = true;
            }
          }
        }
      });
    }
  }
  EXPECT_FALSE(violated.load());
}

}  // namespace

class BarrierTest
    : public ::testing::TestWithParam<std::tuple<std::string, int>> {
 protected:
  BarrierTest() : env_(test_config(std::get<1>(GetParam()))) {}
  std::unique_ptr<fc::BarrierAlgorithm> make() {
    return fc::make_barrier_algorithm(std::get<0>(GetParam()), env_,
                                      std::get<1>(GetParam()));
  }
  int width() const { return std::get<1>(GetParam()); }
  fc::ForceEnvironment env_;
};

TEST_P(BarrierTest, SynchronizesRepeatedEpisodes) {
  auto barrier = make();
  check_barrier_property(*barrier, width(), 25);
}

TEST_P(BarrierTest, SectionRunsExactlyOncePerEpisode) {
  auto barrier = make();
  constexpr int kEpisodes = 20;
  std::atomic<int> section_runs{0};
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < width(); ++t) {
      team.emplace_back([&, t] {
        for (int e = 0; e < kEpisodes; ++e) {
          barrier->arrive(t, [&] { section_runs.fetch_add(1); });
        }
      });
    }
  }
  EXPECT_EQ(section_runs.load(), kEpisodes);
}

// Regression: arriving with no section - the two-argument overload handed a
// default-constructed (empty) std::function, or the one-argument overload -
// must never throw bad_function_call on any algorithm. Every algorithm now
// routes through BarrierAlgorithm::run_section()/has_section(), which treat
// an empty function as "no section" instead of invoking it.
TEST_P(BarrierTest, EmptySectionNeverThrows) {
  auto barrier = make();
  constexpr int kEpisodes = 10;
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < width(); ++t) {
      team.emplace_back([&, t] {
        for (int e = 0; e < kEpisodes; ++e) {
          switch (e % 3) {
            case 0:
              barrier->arrive(t);  // one-argument overload
              break;
            case 1:
              // Explicitly empty function object - the historical crash:
              // proc 0 invoked it and threw std::bad_function_call.
              barrier->arrive(t, std::function<void()>{});
              break;
            default:
              barrier->arrive(t, fc::BarrierAlgorithm::no_section());
              break;
          }
        }
      });
    }
  }
  // Reaching here without a bad_function_call (which would abort the team
  // thread and hang the others) is the assertion; run one sectioned episode
  // to show the barrier is still healthy afterwards.
  std::atomic<int> runs{0};
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < width(); ++t) {
      team.emplace_back(
          [&, t] { barrier->arrive(t, [&] { runs.fetch_add(1); }); });
    }
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST_P(BarrierTest, SectionIsMutuallyExcludedFromUserCode) {
  // While the section runs, no process may be past the barrier: the
  // section increments then decrements a flag around a delay; any process
  // observing the flag set after arrive() returned is a violation.
  auto barrier = make();
  std::atomic<int> in_section{0};
  std::atomic<bool> violated{false};
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < width(); ++t) {
      team.emplace_back([&, t] {
        for (int e = 0; e < 10; ++e) {
          barrier->arrive(t, [&] {
            in_section.store(1);
            std::this_thread::sleep_for(std::chrono::microseconds(200));
            in_section.store(0);
          });
          if (in_section.load() != 0) violated = true;
        }
      });
    }
  }
  EXPECT_FALSE(violated.load());
}

TEST_P(BarrierTest, SectionSeesAllPriorWrites) {
  // The classic reduction pattern: every process writes its slot before
  // the barrier; the section must observe every slot.
  auto barrier = make();
  std::vector<std::atomic<int>> slots(static_cast<std::size_t>(width()));
  for (auto& s : slots) s.store(0);
  std::atomic<int> observed_sum{0};
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < width(); ++t) {
      team.emplace_back([&, t] {
        slots[static_cast<std::size_t>(t)].store(t + 1);
        barrier->arrive(t, [&] {
          int sum = 0;
          for (auto& s : slots) sum += s.load();
          observed_sum.store(sum);
        });
      });
    }
  }
  EXPECT_EQ(observed_sum.load(), width() * (width() + 1) / 2);
}

TEST_P(BarrierTest, WidthOneIsImmediate) {
  fc::ForceEnvironment env(test_config(1));
  auto barrier =
      fc::make_barrier_algorithm(std::get<0>(GetParam()), env, 1);
  int runs = 0;
  for (int e = 0; e < 100; ++e) {
    barrier->arrive(0, [&] { ++runs; });
  }
  EXPECT_EQ(runs, 100);
}

TEST_P(BarrierTest, RejectsBadProcessIds) {
  auto barrier = make();
  EXPECT_THROW(barrier->arrive(-1), force::util::CheckError);
  EXPECT_THROW(barrier->arrive(width()), force::util::CheckError);
}

TEST_P(BarrierTest, NameMatches) {
  EXPECT_EQ(make()->name(), std::get<0>(GetParam()));
  EXPECT_EQ(make()->width(), width());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndWidths, BarrierTest,
    ::testing::Combine(::testing::ValuesIn(fc::barrier_algorithm_names()),
                       ::testing::Values(1, 2, 3, 4, 7, 8)),
    [](const ::testing::TestParamInfo<std::tuple<std::string, int>>& info) {
      std::string name = std::get<0>(info.param) + "_w" +
                         std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(BarrierFactory, UnknownNameThrows) {
  fc::ForceEnvironment env(test_config(2));
  EXPECT_THROW(fc::make_barrier_algorithm("bogus", env, 2),
               force::util::CheckError);
}

// The process-shared (os-fork) barrier must obey the same empty-section
// contract as the thread algorithms. Futex waits are not process-private,
// so plain threads over the MAP_SHARED arena exercise the real wait path.
TEST(ProcessSharedBarrier, EmptySectionNeverThrows) {
  constexpr int kWidth = 4;
  fc::ForceConfig cfg = test_config(kWidth);
  cfg.process_model = "os-fork";
  fc::ForceEnvironment env(cfg);
  auto barrier_ptr =
      env.make_team_barrier(kWidth, "%test/empty-section");
  fc::BarrierAlgorithm& barrier = *barrier_ptr;
  std::atomic<int> runs{0};
  {
    std::vector<std::jthread> team;
    for (int t = 0; t < kWidth; ++t) {
      team.emplace_back([&, t] {
        barrier.arrive(t);
        barrier.arrive(t, std::function<void()>{});
        barrier.arrive(t, fc::BarrierAlgorithm::no_section());
        barrier.arrive(t, [&] { runs.fetch_add(1); });
      });
    }
  }
  EXPECT_EQ(runs.load(), 1);
}

TEST(PaperLockBarrier, UsesOnlyGenericLocks) {
  // The lock-only barrier exercises the machine's generic lock layer: its
  // traffic must show up in the machine counters (on every machine).
  for (const char* machine : {"hep", "cray2", "encore"}) {
    fc::ForceConfig cfg = test_config(3);
    cfg.machine = machine;
    fc::ForceEnvironment env(cfg);
    const auto before = force::machdep::snapshot(env.machine().counters());
    fc::PaperLockBarrier barrier(env, 3);
    std::vector<std::jthread> team;
    for (int t = 0; t < 3; ++t) {
      team.emplace_back([&, t] {
        for (int e = 0; e < 5; ++e) barrier.arrive(t);
      });
    }
    team.clear();
    const auto delta =
        force::machdep::snapshot(env.machine().counters()) - before;
    EXPECT_GT(delta.acquires, 0u) << machine;
  }
}
