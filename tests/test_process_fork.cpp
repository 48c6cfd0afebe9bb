// The os-fork process backend: real fork(2) children over a MAP_SHARED
// arena with futex-based process-shared synchronization, and - the part
// that earns its keep - robust join: a child that dies on a signal or
// exits nonzero is detected, reported with its process number and
// last-known construct site, and never wedges the survivors.
//
// Assertions about in-team state are made through the shared arena: a
// child's gtest failure would be invisible (children leave with _Exit),
// so children write results into shared variables and the parent asserts
// after the join.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <string>
#include <thread>

#include "core/force.hpp"
#include "machdep/process.hpp"
#include "reduce_moments.hpp"
#include "util/check.hpp"

namespace core = force::core;
namespace md = force::machdep;

namespace {

constexpr int kNproc = 4;

force::ForceConfig fork_config() {
  force::ForceConfig cfg;
  cfg.nproc = kNproc;
  cfg.process_model = "os-fork";
  return cfg;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

TEST(ForkBackend, ModelNameAndTeamKind) {
  EXPECT_STREQ(md::process_model_name(md::ProcessModelKind::kOsFork),
               "os-fork");
  force::Force f(fork_config());
  EXPECT_EQ(f.env().process_model(), md::ProcessModel::kOsFork);
  EXPECT_STREQ(f.env().backend().name(), "os-fork");
  EXPECT_TRUE(f.env().arena().process_shared());
  EXPECT_EQ(f.env().arena().backing(), md::ArenaBacking::kSharedMapping);
}

// The core tentpole claim: a write made by one real process (own address
// space) is visible to its siblings through the MAP_SHARED arena, and to
// the parent after the join.
TEST(ForkBackend, SharedArenaVisibleAcrossProcesses) {
  force::Force f(fork_config());
  auto& slots = f.shared<std::array<std::int64_t, kNproc>>("slots");
  auto& cross = f.shared<std::array<std::int64_t, kNproc>>("cross");
  f.run([&](core::Ctx& ctx) {
    const auto me = static_cast<std::size_t>(ctx.me0());
    slots[me] = 100 + ctx.me();
    ctx.barrier();
    // Read a *sibling's* write: proves the pages really are shared, not
    // copy-on-write ghosts.
    cross[me] = slots[(me + 1) % kNproc];
  });
  for (int p = 0; p < kNproc; ++p) {
    EXPECT_EQ(slots[static_cast<std::size_t>(p)], 100 + p + 1);
    EXPECT_EQ(cross[static_cast<std::size_t>(p)], 100 + ((p + 1) % kNproc) + 1);
  }
}

// Children really are separate processes: a write to an ordinary (non-
// arena) global must NOT be visible to siblings or to the parent.
TEST(ForkBackend, PrivateMemoryIsNotShared) {
  static int plain_global = 0;
  force::Force f(fork_config());
  auto& observed = f.shared<std::array<int, kNproc>>("observed");
  f.run([&](core::Ctx& ctx) {
    ctx.barrier();
    const int before = plain_global;
    plain_global = 1000 + ctx.me();  // private to this child
    ctx.barrier();
    observed[static_cast<std::size_t>(ctx.me0())] = before + plain_global;
  });
  EXPECT_EQ(plain_global, 0) << "a child's write leaked into the parent";
  for (int p = 0; p < kNproc; ++p) {
    // Each child saw 0 before its own write, then its own value only.
    EXPECT_EQ(observed[static_cast<std::size_t>(p)], 1000 + p + 1);
  }
}

TEST(ForkBackend, SpawnStatsCountProcesses) {
  force::Force f(fork_config());
  const auto stats = f.run([](core::Ctx&) {});
  EXPECT_EQ(stats.processes, kNproc);
  EXPECT_GT(stats.create_ns, 0);
  EXPECT_GE(stats.join_ns, 0);
}

TEST(ForkBackend, RepeatedRunsReuseTheArenaState) {
  force::Force f(fork_config());
  auto& counter = f.shared<std::int64_t>("counter");
  for (int round = 0; round < 3; ++round) {
    f.run([&](core::Ctx& ctx) {
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
      ctx.barrier();
    });
  }
  EXPECT_EQ(counter, 3 * kNproc);
}

// os-fork runs the paper's selfsched gate, as native threads do: there is
// no entry barrier. Member 1 enters only after member 0 has run every
// trip; an entry barrier would park member 0 until member 1's deadline ran
// out, so the case fails instead of hanging.
TEST(ForkSelfsched, NoEntryBarrier) {
  constexpr std::int64_t kTrips = 100;
  force::ForceConfig cfg = fork_config();
  cfg.nproc = 2;
  force::Force f(cfg);
  auto& ran = f.shared<std::array<std::int64_t, 2>>("ran");
  auto& waited_out = f.shared<std::int64_t>("waited_out");
  f.run([&](core::Ctx& ctx) {
    if (ctx.me0() == 1) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (std::atomic_ref<std::int64_t>(ran[0]).load() < kTrips) {
        if (std::chrono::steady_clock::now() > deadline) {
          waited_out = 1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    }
    ctx.selfsched_do(FORCE_SITE, 1, kTrips, 1, [&](std::int64_t) {
      std::atomic_ref<std::int64_t>(ran[static_cast<std::size_t>(ctx.me0())])
          .fetch_add(1);
    });
  });
  EXPECT_EQ(waited_out, 0);
  EXPECT_EQ(ran[0], kTrips);
  EXPECT_EQ(ran[1], 0);
}

// Reduce writes per-process slots in an arena blob and folds them in a
// keyed barrier's section; a multi-word payload must come back
// bit-identical across the forked address spaces.
TEST(ForkBackend, MultiWordReduceMatchesTheOracle) {
  force::Force f(fork_config());
  auto& published = f.shared<reduce_moments::Published>("published");
  auto& agreed = f.shared<reduce_moments::Agreed>("agreed");
  reduce_moments::run_rounds(f, published, agreed);
  reduce_moments::expect_oracle(published, agreed, kNproc);
}

// --- robust join: death tests ----------------------------------------------

// A child SIGKILLed while its siblings sit in a barrier. The parent must
// detect the death, poison the team so the survivors are released, and
// report the victim's process number and last construct site - all well
// inside the 60 s ctest timeout.
TEST(ForkDeath, SigkillMidBarrierIsReportedAndDoesNotHang) {
  force::Force f(fork_config());
  const auto t0 = std::chrono::steady_clock::now();
  try {
    f.run([](core::Ctx& ctx) {
      if (ctx.me() == 2) {
        raise(SIGKILL);  // dies before arriving
      }
      ctx.barrier();  // siblings park here forever - until poisoned
    });
    FAIL() << "a SIGKILLed child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 2);
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_EQ(e.exit_code(), -1);
    EXPECT_GT(e.pid(), 0);
    EXPECT_NE(std::string(e.what()).find("killed by signal"),
              std::string::npos);
    // Survivors were parked in the global barrier when the team died.
    EXPECT_NE(std::string(e.what()).find("construct site"), std::string::npos);
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "robust join took too long";
}

// A child SIGKILLed mid-askfor, while it still owes a complete(): the
// monitor's working count can never drain, so without poison the other
// workers would wait forever.
TEST(ForkDeath, SigkillMidAskforIsReportedAndDoesNotHang) {
  force::Force f(fork_config());
  const auto t0 = std::chrono::steady_clock::now();
  try {
    f.run([](core::Ctx& ctx) {
      auto& af = ctx.askfor<std::int64_t>(FORCE_SITE);
      if (ctx.leader()) {
        for (int i = 0; i < 64; ++i) af.put(i);
      }
      ctx.barrier();
      af.work([&](std::int64_t&, core::Askfor<std::int64_t>&) {
        if (ctx.me() == 3) {
          raise(SIGKILL);  // dies holding a granted, uncompleted task
        }
        // Keep the queue alive long enough that process 3's first ask is
        // certain to be granted a task (64 tasks, ~10 ms each elsewhere).
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      });
    });
    FAIL() << "a SIGKILLed worker must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 3);
    EXPECT_EQ(e.term_signal(), SIGKILL);
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "robust join took too long";
}

// A child SIGKILLed in an Askfor body right after putting two children
// into its own deque: its credit never comes back, so the survivors idle
// until the team poison releases them, well inside the 5 s grace after
// which the parent would SIGKILL them. The victim's site is the Askfor,
// and the death scrub must leave the same site able to run its whole tree
// again, every task once.
TEST(ForkDeath, SigkillHoldingAnAskforCreditIsReportedAndTheSiteRunsAgain) {
  constexpr std::uint64_t kNodes = 255;  // heap ids 1..255
  force::Force f(fork_config());
  auto& kill_flag = f.shared<std::int64_t>("askfor_kill_flag");
  auto& hits = f.shared<std::array<std::int64_t, kNodes + 1>>("askfor_hits");
  const auto program = [&](core::Ctx& ctx) {
    auto& af = ctx.askfor<std::uint64_t>(FORCE_SITE);
    if (ctx.leader()) af.put(1);
    ctx.barrier();
    af.work([&](std::uint64_t& id, core::Askfor<std::uint64_t>& self) {
      if (2 * id < kNodes) {
        self.put(2 * id);
        self.put(2 * id + 1);
      }
      if (kill_flag != 0 && id == 1) raise(SIGKILL);
      std::atomic_ref<std::int64_t>(hits[id]).fetch_add(1);
    });
  };

  kill_flag = 1;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    f.run(program);
    FAIL() << "a SIGKILLed child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_NE(e.site().find("askfor"), std::string::npos)
        << "victim site: " << e.site();
  }
  EXPECT_LT(seconds_since(t0), 4.0) << "survivors missed the team poison";

  kill_flag = 0;
  hits = {};
  f.run(program);
  for (std::uint64_t id = 1; id <= kNodes; ++id) {
    EXPECT_EQ(hits[id], 1) << "task " << id;
  }
}

// The death scrub itself, read from the parent, which maps the same arena:
// a victim SIGKILLed holding its Askfor slot and credit leaves `taken` and
// `credit` set in the site's words, and the next entry's generation re-arm
// does not clear them (a slot left taken only makes one survivor run
// slotless), so only the scrub gives the per-member deques back.
TEST(ForkDeath, DeathScrubClearsEveryAskforSlotAndCredit) {
  force::Force f(fork_config());
  try {
    f.run([](core::Ctx& ctx) {
      auto& af = ctx.askfor<std::uint64_t>(FORCE_SITE);
      if (ctx.leader()) af.put(1);
      ctx.barrier();
      af.work([&](std::uint64_t& id, core::Askfor<std::uint64_t>& self) {
        if (id < 64) {
          self.put(2 * id);
          self.put(2 * id + 1);
        }
        if (id == 1) raise(SIGKILL);  // holds its slot, credit and children
      });
    });
    FAIL() << "a SIGKILLed child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.term_signal(), SIGKILL);
  }
  int sites = 0;
  f.env().arena().for_each_allocation(
      [&](const std::string& name, void* addr, std::size_t) {
        if (name.rfind(md::kAskforWords, 0) != 0) return;
        ++sites;
        auto* w = static_cast<md::AskforWords*>(addr);
        EXPECT_EQ(w->inflight.load(), 0u) << name;
        ASSERT_EQ(w->nslots, static_cast<std::uint32_t>(kNproc)) << name;
        for (std::uint32_t i = 0; i < w->nslots; ++i) {
          EXPECT_FALSE(w->slot(i).taken.load()) << name << " slot " << i;
          EXPECT_FALSE(w->slot(i).credit) << name << " slot " << i;
        }
      });
  EXPECT_EQ(sites, 1);
}

// A child SIGKILLed in a selfsched body while its home block still holds
// unrun trips. The survivors take those trips over, then depart past an
// exit gate the victim never leaves. The death must be reported with the
// victim's process number and site, and the death scrub (gate, dispatch
// word and home blocks) must leave the same force able to run the loop
// again, every trip once.
TEST(ForkDeath, SigkillMidSelfschedIsReportedAndDoesNotHang) {
  constexpr std::int64_t kTrips = 64;  // home blocks of 16
  force::Force f(fork_config());
  auto& kill_flag = f.shared<std::int64_t>("kill_flag");
  auto& victim_in = f.shared<std::int64_t>("victim_in");
  auto& hits = f.shared<std::array<std::int64_t, kTrips>>("hits");
  const auto t0 = std::chrono::steady_clock::now();
  const auto program = [&](core::Ctx& ctx) {
    ctx.selfsched_do(FORCE_SITE, 0, kTrips - 1, 1, [&](std::int64_t t) {
      if (kill_flag != 0 && ctx.me() == 3) {
        // The front of process 3's home block, [32, 48): the rest of the
        // block is still unrun.
        std::atomic_ref<std::int64_t>(victim_in).store(t);
        raise(SIGKILL);
      }
      if (kill_flag != 0) {
        // Hold this trip until the victim has claimed one, so nobody can
        // steal its block first (bounded: a failure, never a hang).
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(5);
        while (std::atomic_ref<std::int64_t>(victim_in).load() < 0 &&
               std::chrono::steady_clock::now() < deadline) {
          std::this_thread::sleep_for(std::chrono::microseconds(100));
        }
      }
      std::atomic_ref<std::int64_t>(hits[static_cast<std::size_t>(t)])
          .fetch_add(1);
    });
  };

  kill_flag = 1;
  victim_in = -1;
  try {
    f.run(program);
    FAIL() << "a SIGKILLed child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 3);
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_NE(e.site().find("selfsched '"), std::string::npos)
        << "victim site: " << e.site();
  }
  EXPECT_EQ(victim_in, 2 * kTrips / kNproc) << "the victim's first claim";

  kill_flag = 0;
  hits = {};
  f.run(program);
  for (std::int64_t t = 0; t < kTrips; ++t) {
    EXPECT_EQ(hits[static_cast<std::size_t>(t)], 1) << "trip " << t;
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "robust join took too long";
}

// Nonzero exit: a child throwing an ordinary exception leaves with code 1
// and its what() preserved in the team control block.
TEST(ForkDeath, ChildExceptionCarriesMessageAndProcessNumber) {
  force::Force f(fork_config());
  try {
    f.run([](core::Ctx& ctx) {
      if (ctx.me() == 1) {
        throw std::runtime_error("deliberate child failure");
      }
      ctx.barrier();
    });
    FAIL() << "a throwing child must surface as ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 1);
    EXPECT_EQ(e.term_signal(), 0);
    EXPECT_EQ(e.exit_code(), 1);
    EXPECT_NE(e.error_text().find("deliberate child failure"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("deliberate child failure"),
              std::string::npos);
  }
}

// Only the primary death is reported: the survivors' poison-collateral
// exits (code 103) must not mask or replace the original victim.
TEST(ForkDeath, CollateralPoisonExitsAreNotReportedAsPrimary) {
  force::Force f(fork_config());
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

// A death does not wedge the *parent*: after discarding the dirty driver
// (arena synchronization state may be mid-protocol when a team dies), a
// fresh Force in the same parent process runs cleanly - the poison word
// of the dead team must not leak into the next.
TEST(ForkDeath, AFreshDriverRunsCleanlyAfterADeath) {
  {
    force::Force dying(fork_config());
    EXPECT_THROW(dying.run([](core::Ctx& ctx) {
                   if (ctx.me() == 2) raise(SIGKILL);
                   ctx.barrier();
                 }),
                 md::ProcessDeathError);
  }
  force::Force f(fork_config());
  auto& ok = f.shared<std::int64_t>("ok");
  f.run([&](core::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { ok += 1; });
    ctx.barrier();
  });
  EXPECT_EQ(ok, kNproc);
}

TEST(ForkBackend, PcaseAndResolveRunAcrossProcesses) {
  // A selfscheduled Pcase keys its dispatch words by its site, and a
  // Resolve keys its component and join barriers by its site, so every
  // process meets the same words in the arena. Counts are per member.
  force::Force f(fork_config());
  using Row = std::array<std::int64_t, 3>;
  auto& blocks = f.shared<std::array<Row, kNproc>>("pcase_blocks");
  auto& parts = f.shared<std::array<std::int64_t, kNproc>>("resolve_parts");
  blocks = {};
  parts = {};
  f.run([&](core::Ctx& ctx) {
    const auto me = static_cast<std::size_t>(ctx.me0());
    Row& mine = blocks[me];
    ctx.pcase(FORCE_SITE)
        .sect([&] { ++mine[0]; })
        .sect_if(false, [&] { ++mine[1]; })
        .sect([&] { ++mine[2]; })
        .run_selfsched();
    const auto part = [&](core::Ctx& sub) {
      std::int64_t local = 0;
      sub.selfsched_do(FORCE_SITE, 1, 100, 1,
                       [&](std::int64_t i) { local += i; });
      sub.barrier();
      parts[me] = sub.reduce<std::int64_t>(
          FORCE_SITE, local, [](std::int64_t a, std::int64_t b) {
            return a + b;
          });
    };
    ctx.resolve(FORCE_SITE)
        .component("left", 1, part)
        .component("right", 1, part)
        .run();
  });
  std::array<std::int64_t, 3> per_block{};
  for (const Row& row : blocks) {
    for (std::size_t b = 0; b < row.size(); ++b) per_block[b] += row[b];
  }
  EXPECT_EQ(per_block, (std::array<std::int64_t, 3>{1, 0, 1}));
  // Every member of each component gets its own component's sum.
  for (std::int64_t p : parts) EXPECT_EQ(p, 5050);
}

// --- configuration policy ---------------------------------------------------

TEST(ForkConfig, ExplicitSentryIsRejected) {
  force::ForceConfig cfg = fork_config();
  cfg.sentry = true;
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

TEST(ForkConfig, ExplicitTraceIsRejected) {
  force::ForceConfig cfg = fork_config();
  cfg.trace = true;
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}


// --- no process left behind -----------------------------------------------
//
// Every forked team is reaped before its run (or its pooled Force) ends: a
// respawned member that parked instead of exiting, or a straggler the join
// forgot, would outlive the driver.

namespace {

/// True when this process has no child left, running or zombie.
bool no_children_left() {
  errno = 0;
  return ::waitpid(-1, nullptr, WNOHANG) == -1 && errno == ECHILD;
}

}  // namespace

TEST(NoProcessLeftBehind, AfterARespawnedOsForkRun) {
  force::Force f(fork_config());
  f.run([](core::Ctx& ctx) { ctx.barrier(); });
  EXPECT_TRUE(no_children_left());
}

TEST(NoProcessLeftBehind, AfterARespawnedOsForkRunInWhichAMemberDied) {
  force::Force f(fork_config());
  EXPECT_THROW(f.run([](core::Ctx& ctx) {
                 if (ctx.me() == 2) raise(SIGKILL);
                 ctx.barrier();
               }),
               md::ProcessDeathError);
  EXPECT_TRUE(no_children_left());
}

TEST(NoProcessLeftBehind, AfterAPooledOsForkForceIsDestroyed) {
  {
    force::ForceConfig cfg = fork_config();
    cfg.team_pool = true;
    force::Force f(cfg);
    const auto program = [](core::Ctx& ctx) { ctx.barrier(); };
    f.run(program);
    f.run(program);
    EXPECT_FALSE(no_children_left()) << "the resident team should be parked";
  }
  EXPECT_TRUE(no_children_left());
}

TEST(NoProcessLeftBehind, AfterAClusterRun) {
  force::ForceConfig cfg = fork_config();
  cfg.process_model = "cluster";
  force::Force f(cfg);
  f.run([](core::Ctx& ctx) { ctx.barrier(); });
  EXPECT_TRUE(no_children_left());
}
