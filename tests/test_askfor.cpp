// Tests for the Askfor monitor (paper §3.3, [LO83]).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/askfor.hpp"
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

void on_team(int np, const std::function<void(int)>& fn) {
  std::vector<std::jthread> team;
  for (int t = 0; t < np; ++t) team.emplace_back([&fn, t] { fn(t); });
}
}  // namespace

TEST(AskforCore, DrainsSeededWork) {
  fc::ForceEnvironment env(test_config(1));
  fc::AskforCore core(env);
  for (std::size_t t = 0; t < 5; ++t) core.put(t);
  std::size_t token = 0;
  std::set<std::size_t> got;
  while (core.ask(&token) == fc::AskforCore::Outcome::kWork) {
    got.insert(token);
    core.complete();
  }
  EXPECT_EQ(got.size(), 5u);
  EXPECT_TRUE(core.ended());
  EXPECT_EQ(core.granted(), 5u);
}

TEST(AskforCore, DrainIsProvisionalProbendIsSticky) {
  for (const char* dispatch : {"auto", "locked"}) {
    fc::ForceEnvironment env(test_config(1, "native", dispatch));
    fc::AskforCore core(env);
    std::size_t token = 0;
    // An empty monitor drains immediately...
    EXPECT_EQ(core.ask(&token), fc::AskforCore::Outcome::kDone);
    // ...but a drain is provisional: a seed put behind it re-opens the
    // monitor instead of vanishing (on a hot pooled team the first
    // asker's drained latch can genuinely beat the leader's seed).
    core.put(99);
    ASSERT_EQ(core.ask(&token), fc::AskforCore::Outcome::kWork) << dispatch;
    EXPECT_EQ(token, 99u);
    core.complete();
    // probend() is final for the episode: later puts drop, as ever.
    core.probend();
    core.put(7);
    EXPECT_EQ(core.ask(&token), fc::AskforCore::Outcome::kDone) << dispatch;
  }
}

TEST(AskforCore, CompleteWithoutGrantThrows) {
  fc::ForceEnvironment env(test_config(1));
  fc::AskforCore core(env);
  EXPECT_THROW(core.complete(), force::util::CheckError);
}

TEST(AskforCore, WaitsWhileAWorkerMightProduce) {
  // One worker holds a task; a second asker must wait (not get kDone)
  // until the worker either puts more work or completes.
  fc::ForceEnvironment env(test_config(2));
  fc::AskforCore core(env);
  core.put(1);
  std::size_t token = 0;
  ASSERT_EQ(core.ask(&token), fc::AskforCore::Outcome::kWork);

  std::atomic<bool> second_returned{false};
  std::atomic<int> second_outcome{-1};
  std::jthread asker([&] {
    std::size_t t2 = 0;
    const auto outcome = core.ask(&t2);
    second_outcome = static_cast<int>(outcome);
    second_returned = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(second_returned.load());  // still waiting: we might put()
  core.put(2);                           // we do produce more work
  asker.join();
  EXPECT_EQ(second_outcome.load(),
            static_cast<int>(fc::AskforCore::Outcome::kWork));
  core.complete();   // our task
  core.complete();   // the asker's task (granted, never completed by it)
}

TEST(Askfor, EveryTaskExecutedExactlyOnce) {
  const int np = 4;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<int> monitor(env);
  for (int i = 0; i < 100; ++i) monitor.put(i);
  std::mutex m;
  std::multiset<int> executed;
  on_team(np, [&](int) {
    monitor.work([&](int& task, fc::Askfor<int>&) {
      std::lock_guard<std::mutex> g(m);
      executed.insert(task);
    });
  });
  EXPECT_EQ(executed.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(executed.count(i), 1u) << i;
}

TEST(Askfor, RuntimeGeneratedWorkIsExecuted) {
  // A binary task tree generated at run time: the paper's "request during
  // run time that a new concurrent instance is executed".
  const int np = 4;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<std::pair<int, int>> monitor(env);  // (depth, id)
  monitor.put({0, 1});
  std::atomic<int> leaves{0};
  std::atomic<int> total{0};
  constexpr int kDepth = 6;
  on_team(np, [&](int) {
    monitor.work([&](std::pair<int, int>& task,
                     fc::Askfor<std::pair<int, int>>& self) {
      total.fetch_add(1);
      if (task.first < kDepth) {
        self.put({task.first + 1, task.second * 2});
        self.put({task.first + 1, task.second * 2 + 1});
      } else {
        leaves.fetch_add(1);
      }
    });
  });
  EXPECT_EQ(leaves.load(), 1 << kDepth);
  EXPECT_EQ(total.load(), (1 << (kDepth + 1)) - 1);  // full binary tree
}

TEST(Askfor, WorkReturnsPerProcessCounts) {
  const int np = 3;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<int> monitor(env);
  for (int i = 0; i < 30; ++i) monitor.put(i);
  std::atomic<std::size_t> sum{0};
  on_team(np, [&](int) {
    sum.fetch_add(monitor.work([&](int&, fc::Askfor<int>&) {}));
  });
  EXPECT_EQ(sum.load(), 30u);
}

TEST(Askfor, ProbendStopsTheComputationEarly) {
  // A "search": the first worker to find the needle aborts everyone.
  const int np = 4;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<int> monitor(env);
  for (int i = 0; i < 10000; ++i) monitor.put(i);
  std::atomic<int> executed{0};
  on_team(np, [&](int) {
    monitor.work([&](int& task, fc::Askfor<int>& self) {
      executed.fetch_add(1);
      if (task == 17) self.probend();
    });
  });
  EXPECT_TRUE(monitor.ended());
  EXPECT_LT(executed.load(), 10000);  // the abort actually cut work short
}

TEST(Askfor, ThrowingBodyCompletesItsGrant) {
  const int np = 2;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<int> monitor(env);
  for (int i = 0; i < 10; ++i) monitor.put(i);
  std::atomic<int> throws{0};
  std::atomic<int> executed{0};
  on_team(np, [&](int) {
    for (;;) {
      try {
        monitor.work([&](int& task, fc::Askfor<int>&) {
          executed.fetch_add(1);
          if (task == 5) throw std::runtime_error("bad task");
        });
        break;  // drained
      } catch (const std::runtime_error&) {
        throws.fetch_add(1);  // resume working after the bad task
      }
    }
  });
  EXPECT_EQ(throws.load(), 1);
  EXPECT_EQ(executed.load(), 10);
  EXPECT_TRUE(monitor.ended());
}

// --- steal-heavy: one seeder, many thieves ---------------------------------------

class AskforStealTest : public ::testing::TestWithParam<std::string> {};

TEST_P(AskforStealTest, OneSeederManyThievesExactlyOnce) {
  // The worst case for work stealing: a single root task seeds the whole
  // frontier into ONE worker's deque, so the other seven workers can only
  // make progress by stealing, and every task recursively put()s so the
  // deques keep refilling. Every generated (depth, id) must execute
  // exactly once, on both dispatch engines.
  const int np = 8;
  fc::ForceEnvironment env(test_config(np, "native", GetParam()));
  using Task = std::pair<int, std::uint32_t>;  // (depth, heap id)
  fc::Askfor<Task> monitor(env);
  constexpr int kDepth = 9;
  std::mutex m;
  std::multiset<Task> executed;
  monitor.put({0, 1});  // the root; whichever worker grants it seeds
  on_team(np, [&](int) {
    monitor.work([&](Task& task, fc::Askfor<Task>& self) {
      if (task.first == 0) {
        // The seeder: eight subtree roots, all into the seeder's deque.
        for (std::uint32_t r = 2; r <= 9; ++r) self.put({1, r});
      } else if (task.first < kDepth) {
        self.put({task.first + 1, task.second * 2});
        self.put({task.first + 1, task.second * 2 + 1});
      }
      std::lock_guard<std::mutex> g(m);
      executed.insert(task);
    });
  });
  // The root plus eight binary subtrees spanning depths 1..kDepth, each
  // with 2^kDepth - 1 nodes. Heap ids are unique per depth level, so
  // (depth, id) identifies a task globally.
  const std::size_t expected = 8u * ((1u << kDepth) - 1u) + 1u;
  ASSERT_EQ(executed.size(), expected);
  for (const auto& task : executed) {
    EXPECT_EQ(executed.count(task), 1u)
        << task.first << ":" << task.second;
  }
  EXPECT_EQ(monitor.granted(), expected);
}

INSTANTIATE_TEST_SUITE_P(BothEngines, AskforStealTest,
                         ::testing::Values("auto", "locked"),
                         [](const auto& info) { return info.param; });

TEST(Askfor, WorksOnEveryMachineModel) {
  for (const auto& machine : force::machdep::machine_names()) {
    const int np = 3;
    fc::ForceEnvironment env(test_config(np, machine));
    fc::Askfor<int> monitor(env);
    for (int i = 1; i <= 40; ++i) monitor.put(i);
    std::atomic<std::int64_t> sum{0};
    on_team(np, [&](int) {
      monitor.work([&](int& t, fc::Askfor<int>&) { sum.fetch_add(t); });
    });
    EXPECT_EQ(sum.load(), 820) << machine;
  }
}

// --- termination credits (hardware-RMW engine) ------------------------------------

namespace {

/// splitmix64 finalizer: shapes the random trees and checks wide records.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// A small random tree over heap ids (children 2id, 2id+1): each node
/// below `depth` has 0, 1 or 2 children, chosen by the salted hash.
struct RandomTree {
  std::uint64_t salt;
  int depth;
  [[nodiscard]] int children(std::uint64_t id) const {
    if (static_cast<int>(std::bit_width(id)) > depth) return 0;
    return static_cast<int>(mix(id ^ salt) % 3);
  }
  /// Nodes and the sum of their ids, walked sequentially.
  [[nodiscard]] std::pair<std::size_t, std::uint64_t> oracle() const {
    std::pair<std::size_t, std::uint64_t> r{0, 0};
    std::vector<std::uint64_t> stack{1};
    while (!stack.empty()) {
      const std::uint64_t id = stack.back();
      stack.pop_back();
      r.first += 1;
      r.second += id;
      for (int c = 0; c < children(id); ++c) stack.push_back(2 * id + c);
    }
    return r;
  }
};

force::ForceConfig pooled_config(int np) {
  force::ForceConfig cfg;
  cfg.nproc = np;
  cfg.team_pool = true;
  return cfg;
}

}  // namespace

TEST(AskforCredit, WideRecordsArriveWholeAcrossSteals) {
  // A three-word trivially copyable task rides by value through the
  // deques' atomic slot words: every steal must hand over a whole record
  // (its check word matches its id), and each record exactly once.
  struct Wide {
    std::uint64_t depth;
    std::uint64_t id;
    std::uint64_t check;
  };
  static_assert(std::is_trivially_copyable_v<Wide> && sizeof(Wide) == 24);
  const int np = 8;
  constexpr std::uint64_t kDepth = 10;
  fc::ForceEnvironment env(test_config(np));
  fc::Askfor<Wide> monitor(env);
  std::mutex m;
  std::multiset<std::uint64_t> ids;
  std::atomic<int> torn{0};
  monitor.put({0, 1, mix(1)});
  on_team(np, [&](int) {
    monitor.work([&](Wide& task, fc::Askfor<Wide>& self) {
      if (task.check != mix(task.id)) ++torn;
      if (task.depth < kDepth) {
        for (std::uint64_t c = 0; c < 2; ++c) {
          const std::uint64_t child = 2 * task.id + c;
          self.put({task.depth + 1, child, mix(child)});
        }
      }
      std::lock_guard<std::mutex> g(m);
      ids.insert(task.id);
    });
  });
  EXPECT_EQ(torn.load(), 0);
  const std::size_t nodes = (std::size_t{1} << (kDepth + 1)) - 1;
  ASSERT_EQ(ids.size(), nodes);
  for (std::uint64_t id = 1; id <= nodes; ++id) {
    ASSERT_EQ(ids.count(id), 1u) << id;
  }
  EXPECT_EQ(monitor.granted(), nodes);
}

TEST(AskforCredit, PooledReentryRunsEveryTaskOnceAndCountsEveryGrant) {
  // A pooled np=4 team re-enters one Askfor site 10 000 times, each entry
  // with a fresh small random tree: every entry re-arms the monitor, and
  // its credits must neither leak into the next entry (a lost task or a
  // hang) nor let a node run twice.
  force::Force f(pooled_config(4));
  std::mt19937_64 rng(20260418);
  fc::Askfor<std::uint64_t>* site = nullptr;
  std::size_t expected_grants = 0;
  for (int entry = 0; entry < 10000; ++entry) {
    const RandomTree tree{rng(), 1 + entry % 5};
    const auto [nodes, id_sum] = tree.oracle();
    std::atomic<std::size_t> ran{0};
    std::atomic<std::uint64_t> ran_sum{0};
    f.run([&](fc::Ctx& ctx) {
      auto& af = ctx.askfor<std::uint64_t>(FORCE_SITE);
      if (ctx.me() == 1) {
        site = &af;
        af.put(1);
      }
      ctx.barrier();
      af.work([&](std::uint64_t& id, fc::Askfor<std::uint64_t>& self) {
        ran.fetch_add(1, std::memory_order_relaxed);
        ran_sum.fetch_add(id, std::memory_order_relaxed);
        for (int c = 0; c < tree.children(id); ++c) self.put(2 * id + c);
      });
    });
    expected_grants += nodes;
    ASSERT_EQ(ran.load(), nodes) << "entry " << entry;
    ASSERT_EQ(ran_sum.load(), id_sum) << "entry " << entry;
    ASSERT_EQ(site->granted(), expected_grants) << "entry " << entry;
  }
}

TEST(AskforCredit, RegisteredWorkersWaitWhileAMemberHoldsAnOwnDequeTask) {
  // WaitsWhileAWorkerMightProduce with worker slots: the holder runs a
  // task it popped from its own deque, covered only by the credit it
  // kept, and puts a child 20 ms later. Its registered siblings see no
  // record anywhere in the meantime, yet must not declare the
  // computation done.
  fc::ForceEnvironment env(test_config(3));
  fc::AskforCore core(env);
  ASSERT_TRUE(core.lock_free());
  core.put(1);
  std::atomic<bool> holding{false};
  std::atomic<bool> child_put{false};
  std::atomic<int> early_done{0};
  std::atomic<int> executed{0};
  {
    std::jthread holder([&] {
      fc::AskforCore::WorkerSlot slot(core);
      std::size_t task = 0;
      EXPECT_EQ(core.ask(&task), fc::AskforCore::Outcome::kWork);
      EXPECT_EQ(task, 1u);
      core.put(2);  // into the holder's own deque
      core.complete();
      EXPECT_EQ(core.ask(&task), fc::AskforCore::Outcome::kWork);
      EXPECT_EQ(task, 2u);  // its own deque, newest first
      holding = true;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      child_put = true;
      core.put(3);
      core.complete();
      executed += 2;
      while (core.ask(&task) == fc::AskforCore::Outcome::kWork) {
        ++executed;
        core.complete();
      }
    });
    std::vector<std::jthread> siblings;
    for (int s = 0; s < 2; ++s) {
      siblings.emplace_back([&] {
        while (!holding.load()) std::this_thread::yield();
        fc::AskforCore::WorkerSlot slot(core);
        std::size_t task = 0;
        while (core.ask(&task) == fc::AskforCore::Outcome::kWork) {
          ++executed;
          core.complete();
        }
        if (!child_put.load()) ++early_done;
      });
    }
  }
  EXPECT_EQ(early_done.load(), 0);
  EXPECT_EQ(executed.load(), 3);
  EXPECT_EQ(core.granted(), 3u);
  EXPECT_TRUE(core.ended());
}

TEST(AskforCredit, ReleasedSlotHandsItsLeftoverRecordsOn) {
  // A worker leaves its loop with records still in its own deque, as a
  // throwing body does. Its slot must pass them on before returning the
  // credit that covered them: a worker that arrives afterwards (and may
  // even inherit the same slot) runs both instead of latching "drained".
  fc::ForceEnvironment env(test_config(2));
  fc::AskforCore core(env);
  core.put(1);
  std::jthread([&] {
    fc::AskforCore::WorkerSlot slot(core);
    std::size_t task = 0;
    ASSERT_EQ(core.ask(&task), fc::AskforCore::Outcome::kWork);
    core.put(2);
    core.put(3);
  }).join();
  std::set<std::size_t> got;
  std::jthread([&] {
    fc::AskforCore::WorkerSlot slot(core);
    std::size_t task = 0;
    while (core.ask(&task) == fc::AskforCore::Outcome::kWork) {
      got.insert(task);
      core.complete();
    }
  }).join();
  EXPECT_EQ(got, (std::set<std::size_t>{2, 3}));
  EXPECT_EQ(core.granted(), 3u);
}

TEST(AskforCredit, ThrowLeavingOwnDequeRecordsThenTheNextEntryRunsItsTree) {
  // The body holding the root throws after filling its own deque with the
  // root's subtrees. The error surfaces from run(); the siblings still run
  // the handed-off subtrees in that entry, and the next entry of the same
  // pooled Force runs its whole tree exactly once.
  constexpr int kDepth = 8;
  constexpr int kNodes = (1 << (kDepth + 1)) - 1;  // full binary tree
  force::Force f(pooled_config(4));
  for (int entry = 0; entry < 2; ++entry) {
    const bool throwing = entry == 0;
    std::mutex m;
    std::multiset<std::uint64_t> ran;
    auto program = [&](fc::Ctx& ctx) {
      auto& af = ctx.askfor<std::uint64_t>(FORCE_SITE);
      if (ctx.me() == 1) af.put(1);
      ctx.barrier();
      af.work([&](std::uint64_t& id, fc::Askfor<std::uint64_t>& self) {
        {
          std::lock_guard<std::mutex> g(m);
          ran.insert(id);
        }
        if (static_cast<int>(std::bit_width(id)) > kDepth) return;
        self.put(2 * id);
        self.put(2 * id + 1);
        if (throwing && id == 1) throw std::runtime_error("bad root");
      });
    };
    if (throwing) {
      EXPECT_THROW(f.run(program), std::runtime_error);
    } else {
      f.run(program);
    }
    ASSERT_EQ(ran.size(), static_cast<std::size_t>(kNodes)) << entry;
    for (std::uint64_t id = 1; id <= kNodes; ++id) {
      ASSERT_EQ(ran.count(id), 1u) << "entry " << entry << " id " << id;
    }
  }
}

// --- one engine on thread and os-fork ----------------------------------------

namespace {

/// Eight binary subtrees seeded by one root task, each heap-numbered
/// 1..kLaneIds-1 (nine levels).
constexpr std::uint32_t kLanes = 8;
constexpr std::uint32_t kLaneIds = 512;

struct LaneTask {
  std::uint32_t lane;  ///< kLanes marks the seeding root
  std::uint32_t id;
};

/// Runs per task, in the arena so os-fork members count into the parent's.
using LaneHits = std::array<std::atomic<std::uint32_t>, kLanes * kLaneIds + 1>;

/// The per-entry tree and its tallies, in the arena: a resident os-fork
/// pool re-runs the closure it was forked with, so it reads its inputs
/// from here rather than from the parent's stack.
struct TreeEntry {
  std::uint64_t salt;
  int depth;
  std::atomic<std::uint64_t> ran;
  std::atomic<std::uint64_t> ran_sum;
};

class AskforBackend : public ::testing::TestWithParam<std::string> {
 protected:
  force::ForceConfig config(int np, bool pool = false) const {
    force::ForceConfig cfg;
    cfg.nproc = np;
    cfg.process_model = GetParam();
    cfg.team_pool = pool;
    return cfg;
  }
};

/// Runs one random tree per entry through `af` on `f` and checks every
/// node ran once; returns the nodes of all entries.
std::size_t run_random_trees(force::Force& f, fc::Askfor<std::uint64_t>& af,
                             int entries, std::uint64_t seed) {
  auto& entry = f.shared<TreeEntry>("askfor_tree_entry");
  std::mt19937_64 rng(seed);
  std::size_t total = 0;
  for (int e = 0; e < entries; ++e) {
    const RandomTree tree{rng(), 1 + e % 10};
    const auto [nodes, id_sum] = tree.oracle();
    entry.salt = tree.salt;
    entry.depth = tree.depth;
    entry.ran = 0;
    entry.ran_sum = 0;
    f.run([&](fc::Ctx& ctx) {
      const RandomTree mine{entry.salt, entry.depth};
      if (ctx.me() == 1) af.put(1);
      ctx.barrier();
      af.work([&](std::uint64_t& id, fc::Askfor<std::uint64_t>& self) {
        entry.ran.fetch_add(1, std::memory_order_relaxed);
        entry.ran_sum.fetch_add(id, std::memory_order_relaxed);
        for (int c = 0; c < mine.children(id); ++c) self.put(2 * id + c);
      });
    });
    EXPECT_EQ(entry.ran.load(), nodes) << "entry " << e;
    EXPECT_EQ(entry.ran_sum.load(), id_sum) << "entry " << e;
    total += nodes;
  }
  return total;
}

}  // namespace

TEST_P(AskforBackend, OneSeederManyThievesRunEveryTaskOnce) {
  // The root puts all eight subtree roots into its own deque, so the
  // other members start only by stealing, and every task puts two more.
  force::Force f(config(4));
  auto& hits = f.shared<LaneHits>("askfor_lane_hits");
  fc::Askfor<LaneTask> af(f.env(), "askfor-steal-heavy");
  f.run([&](fc::Ctx& ctx) {
    if (ctx.leader()) af.put({kLanes, 0});
    ctx.barrier();
    af.work([&](LaneTask& t, fc::Askfor<LaneTask>& self) {
      if (t.lane == kLanes) {
        for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
          self.put({lane, 1});
        }
      } else if (2 * t.id < kLaneIds) {
        self.put({t.lane, 2 * t.id});
        self.put({t.lane, 2 * t.id + 1});
      }
      hits[t.lane * kLaneIds + t.id].fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(hits[kLanes * kLaneIds].load(), 1u) << "root";
  for (std::uint32_t lane = 0; lane < kLanes; ++lane) {
    for (std::uint32_t id = 1; id < kLaneIds; ++id) {
      ASSERT_EQ(hits[lane * kLaneIds + id].load(), 1u)
          << "lane " << lane << " id " << id;
    }
  }
  EXPECT_EQ(af.granted(), kLanes * (kLaneIds - 1) + 1);
}

TEST_P(AskforBackend, RandomTreesRunEveryNodeOnce) {
  force::Force f(config(4));
  fc::Askfor<std::uint64_t> af(f.env(), "askfor-trees");
  const std::size_t nodes = run_random_trees(f, af, 30, 20261018);
  EXPECT_EQ(af.granted(), nodes);
}

TEST_P(AskforBackend, PooledReentryRunsEveryTaskOnceAndCountsEveryGrant) {
  // One site re-entered by a pooled team: each entry re-arms the monitor,
  // and the grant tally the parent reads spans every entry.
  force::Force f(config(4, true));
  fc::Askfor<std::uint64_t> af(f.env(), "askfor-pooled-trees");
  const std::size_t nodes = run_random_trees(f, af, 300, 20261019);
  EXPECT_EQ(af.granted(), nodes);
}

TEST_P(AskforBackend, ProbendStopsEveryMember) {
  constexpr int kTasks = 2000;
  force::Force f(config(4));
  auto& executed = f.shared<std::atomic<int>>("askfor_probend_executed");
  fc::Askfor<int> af(f.env(), "askfor-probend");
  f.run([&](fc::Ctx& ctx) {
    if (ctx.leader()) {
      for (int i = 0; i < kTasks; ++i) af.put(i);
    }
    ctx.barrier();
    af.work([&](int& task, fc::Askfor<int>& self) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (task == 17) self.probend();
    });
  });
  EXPECT_TRUE(af.ended());
  EXPECT_GE(executed.load(), 18);
  EXPECT_LT(executed.load(), kTasks);
}

TEST_P(AskforBackend, GrantedTaskPutsFiveThousandChildren) {
  // More children than one member's deque holds: the rest queue centrally
  // (a bounded ring under os-fork), and each runs once. The siblings join
  // only once every child is queued, so nothing drains the queue early.
  constexpr std::uint32_t kChildren = 5000;
  force::Force f(config(4));
  auto& hits =
      f.shared<std::array<std::atomic<std::uint32_t>, kChildren + 1>>(
          "askfor_fanout_hits");
  auto& queued = f.shared<std::atomic<bool>>("askfor_fanout_queued");
  fc::Askfor<std::uint32_t> af(f.env(), "askfor-fanout");
  f.run([&](fc::Ctx& ctx) {
    if (ctx.leader()) {
      af.put(0);
    } else {
      while (!queued.load()) std::this_thread::yield();
    }
    af.work([&](std::uint32_t& task, fc::Askfor<std::uint32_t>& self) {
      if (task == 0) {
        for (std::uint32_t c = 1; c <= kChildren; ++c) self.put(c);
        queued = true;
      }
      hits[task].fetch_add(1, std::memory_order_relaxed);
    });
  });
  for (std::uint32_t t = 0; t <= kChildren; ++t) {
    ASSERT_EQ(hits[t].load(), 1u) << "task " << t;
  }
  EXPECT_EQ(af.granted(), kChildren + 1);
}

INSTANTIATE_TEST_SUITE_P(ThreadAndOsFork, AskforBackend,
                         ::testing::Values("thread", "os-fork"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });
