// Tests for the Force sentry (core/sentry.hpp): seeded-bug negatives that
// every machine model must flag, and positive (clean) programs that must
// produce zero findings even under schedule fuzzing.
//
// The negative tests are deterministic by construction, not by schedule:
// the race check is Eraser-style (unordered + disjoint locksets), so it
// fires on every interleaving; the lock-order check is a graph property of
// the acquisition history; the stall check only needs one Produce to block
// past the (tiny) threshold.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <set>

#include "core/force.hpp"
#include "machdep/machine.hpp"
#include "preproc/lint.hpp"

namespace fc = force::core;

namespace {

std::vector<std::string> all_machines() { return force::machdep::machine_names(); }

fc::ForceConfig sentry_config(int np, const std::string& machine,
                              std::uint64_t fuzz_seed) {
  fc::ForceConfig cfg;
  cfg.nproc = np;
  cfg.machine = machine;
  cfg.sentry = true;
  cfg.schedule_fuzz = fuzz_seed;
  return cfg;
}

// Pins an environment variable for one test and restores the ambient value
// after, so the knob tests behave the same under a bare run and under
// `test_sentry --sentry` / `--schedule-fuzz=<seed>` (which export these).
class EnvVarGuard {
 public:
  EnvVarGuard(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~EnvVarGuard() {
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

}  // namespace

// ---------------------------------------------------------------------------
// Seeded bugs: the sentry must flag these on every machine model.
// ---------------------------------------------------------------------------

TEST(SentrySeededBugs, UnlockedSharedWriteInDoallIsARace) {
  for (const std::string& machine : all_machines()) {
    SCOPED_TRACE(machine);
    fc::Force f(sentry_config(4, machine, 7));
    f.shared<std::atomic<long>>("race_counter");  // link-time machines
    f.run([&](fc::Ctx& ctx) {
      // The classic seeded bug: every process updates a shared counter in
      // a DOALL with no lock and no barrier between the updates. The
      // payload op is atomic so the program itself has no undefined
      // behaviour (and stays TSan-clean) - but the *synchronization* is
      // absent, which is exactly what the lockset detector checks.
      auto& counter = ctx.shared<std::atomic<long>>("race_counter");
      ctx.presched_do(1, 8, 1, [&](std::int64_t) {
        counter.fetch_add(1, std::memory_order_relaxed);
        ctx.note_write(FORCE_SITE, &counter);
      });
    });
    auto* sn = f.env().sentry();
    ASSERT_NE(sn, nullptr);
    EXPECT_GE(sn->report_count(fc::Sentry::ReportKind::kRace), 1u)
        << "seeded race not flagged on " << machine;
  }
}

TEST(SentrySeededBugs, LockOrderInversionIsFlaggedWithoutADeadlock) {
  for (const std::string& machine : all_machines()) {
    SCOPED_TRACE(machine);
    fc::Force f(sentry_config(2, machine, 11));
    f.run([&](fc::Ctx& ctx) {
      auto& a = ctx.named_lock("order_a");
      auto& b = ctx.named_lock("order_b");
      // Phase 1: everyone acquires a -> b. Phase 2: b -> a. The barrier
      // between the phases means the deadlock can never actually strike -
      // the sentry must still flag the cycle in the acquisition-order
      // graph, because a schedule interleaving the two chains would hang.
      a.acquire();
      b.acquire();
      b.release();
      a.release();
      ctx.barrier();
      b.acquire();
      a.acquire();
      a.release();
      b.release();
    });
    auto* sn = f.env().sentry();
    ASSERT_NE(sn, nullptr);
    EXPECT_GE(sn->report_count(fc::Sentry::ReportKind::kLockOrder), 1u)
        << "lock-order inversion not flagged on " << machine;
    EXPECT_EQ(sn->report_count(fc::Sentry::ReportKind::kDeadlock), 0u);
  }
}

TEST(SentrySeededBugs, ProduceWithNoConsumeStalls) {
  for (const std::string& machine : all_machines()) {
    SCOPED_TRACE(machine);
    fc::ForceConfig cfg = sentry_config(2, machine, 13);
    cfg.sentry_stall_ms = 50;
    fc::Force f(cfg);
    auto* sn = f.env().sentry();
    ASSERT_NE(sn, nullptr);
    f.run([&](fc::Ctx& ctx) {
      auto& ch = ctx.async_var<long>(FORCE_SITE);
      if (ctx.me() == 1) {
        ch.produce(1);
        ch.produce(2);  // blocks: the variable is full and nobody consumes
      } else {
        // Wait for the watchdog to flag the blocked Produce, then rescue
        // process 1 so the run can end.
        while (sn->report_count(fc::Sentry::ReportKind::kStall) == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        EXPECT_EQ(ch.consume(), 1);
        EXPECT_EQ(ch.consume(), 2);
      }
    });
    EXPECT_GE(sn->report_count(fc::Sentry::ReportKind::kStall), 1u)
        << "blocked Produce not flagged on " << machine;
  }
}

TEST(SentrySeededBugs, AskforTerminationWaitStalls) {
  // One task that outlives the stall threshold: its sibling idles in the
  // Askfor termination wait the whole time, and the watchdog must name
  // that wait - once.
  for (const std::string machine : {"native", "encore"}) {
    SCOPED_TRACE(machine);
    fc::ForceConfig cfg = sentry_config(2, machine, 0);
    cfg.sentry_stall_ms = 100;
    fc::Force f(cfg);
    f.run([&](fc::Ctx& ctx) {
      auto& monitor = ctx.askfor<int>(FORCE_SITE);
      if (ctx.leader()) monitor.put(1);
      ctx.barrier();
      monitor.work([](int&, fc::Askfor<int>&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(600));
      });
    });
    auto* sn = f.env().sentry();
    ASSERT_NE(sn, nullptr);
    EXPECT_EQ(sn->report_count(fc::Sentry::ReportKind::kStall), 1u);
    std::size_t named = 0;
    for (const fc::Sentry::Report& r : sn->reports()) {
      if (r.kind == fc::Sentry::ReportKind::kStall &&
          r.what.find("Askfor termination wait") != std::string::npos) {
        ++named;
      }
    }
    EXPECT_EQ(named, 1u) << "the idle sibling's wait is not registered on "
                         << machine;
  }
}

// ---------------------------------------------------------------------------
// Clean programs: zero findings, even with the fuzzer widening schedules.
// ---------------------------------------------------------------------------

TEST(SentryClean, LockedSharedUpdatesAreNotARace) {
  for (const std::string& machine : all_machines()) {
    SCOPED_TRACE(machine);
    fc::Force f(sentry_config(4, machine, 21));
    f.shared<long>("locked_counter");  // link-time machines
    f.run([&](fc::Ctx& ctx) {
      auto& counter = ctx.shared<long>("locked_counter");
      ctx.presched_do(1, 8, 1, [&](std::int64_t) {
        ctx.critical(FORCE_SITE, [&] {
          ++counter;
          ctx.note_write(FORCE_SITE, &counter);
        });
      });
    });
    auto* sn = f.env().sentry();
    ASSERT_NE(sn, nullptr);
    EXPECT_EQ(sn->total_reports(), 0u)
        << "false positive on " << machine << ": "
        << (sn->reports().empty() ? std::string()
                                  : sn->reports().front().what);
  }
}

TEST(SentryClean, BarrierEpisodesOrderUnlockedPhases) {
  for (const std::string& machine : all_machines()) {
    SCOPED_TRACE(machine);
    fc::Force f(sentry_config(4, machine, 23));
    f.shared<long>("phase_value");  // link-time machines
    f.run([&](fc::Ctx& ctx) {
      auto& value = ctx.shared<long>("phase_value");
      // Single-writer phases separated by barriers: no locks anywhere,
      // ordered purely by barrier episodes - the Force's bread and butter.
      if (ctx.leader()) {
        value = 41;
        ctx.note_write(FORCE_SITE, &value);
      }
      ctx.barrier();
      long seen = value;
      ctx.note_read(FORCE_SITE, &value);
      EXPECT_EQ(seen, 41);
      ctx.barrier([&] {
        // Barrier-section write: ordered before every process's exit from
        // the barrier.
        value = 42;
        ctx.note_write(FORCE_SITE, &value);
      });
      ctx.note_read(FORCE_SITE, &value);
      EXPECT_EQ(value, 42);
    });
    auto* sn = f.env().sentry();
    ASSERT_NE(sn, nullptr);
    EXPECT_EQ(sn->total_reports(), 0u)
        << "false positive on " << machine << ": "
        << (sn->reports().empty() ? std::string()
                                  : sn->reports().front().what);
  }
}

TEST(SentryClean, ReduceEpisodesOrderUnlockedPhases) {
  // A Reduce is a barrier episode: a write before it is ordered before
  // every read after it, like ctx.barrier() in the test above.
  for (const std::string machine : {"native", "encore"}) {
    SCOPED_TRACE(machine);
    fc::Force f(sentry_config(4, machine, 37));
    f.shared<long>("reduce_phase_value");  // link-time machines
    f.run([&](fc::Ctx& ctx) {
      auto& value = ctx.shared<long>("reduce_phase_value");
      if (ctx.leader()) {
        value = 41;
        ctx.note_write(FORCE_SITE, &value);
      }
      const long sum = ctx.reduce<long>(FORCE_SITE, ctx.me(),
                                        [](long a, long b) { return a + b; });
      EXPECT_EQ(sum, 10);
      if (!ctx.leader()) {
        ctx.note_read(FORCE_SITE, &value);
        EXPECT_EQ(value, 41);
      }
    });
    auto* sn = f.env().sentry();
    ASSERT_NE(sn, nullptr);
    EXPECT_EQ(sn->total_reports(), 0u)
        << "false positive on " << machine << ": "
        << (sn->reports().empty() ? std::string()
                                  : sn->reports().front().what);
  }
}

TEST(SentryClean, MixedConstructProgramHasZeroFindings) {
  for (const std::string& machine : all_machines()) {
    SCOPED_TRACE(machine);
    fc::Force f(sentry_config(4, machine, 29));
    f.shared<long>("mixed_sum");  // link-time machines
    f.shared<std::atomic<int>>("mixed_done");
    f.run([&](fc::Ctx& ctx) {
      const int np = ctx.np();
      // Selfscheduled DOALL feeding a critical-guarded accumulator.
      auto& sum = ctx.shared<long>("mixed_sum");
      ctx.selfsched_do(FORCE_SITE, 1, 16, 1, [&](std::int64_t i) {
        ctx.critical(FORCE_SITE, [&] {
          sum += i;
          ctx.note_write(FORCE_SITE, &sum);
        });
      });
      ctx.barrier();
      EXPECT_EQ(sum, 136);
      // An async ring: each process produces one token, consumes its
      // neighbour's (produce/consume edges order the payload accesses).
      auto& ring = ctx.async_array<long>(FORCE_SITE, static_cast<std::size_t>(np));
      ring[static_cast<std::size_t>(ctx.me0())].produce(10 + ctx.me());
      const std::size_t next = static_cast<std::size_t>((ctx.me0() + 1) % np);
      const long got = ring[next].consume();
      EXPECT_EQ(got, 10 + static_cast<long>(next) + 1);
      ctx.barrier();
      // Askfor: the leader seeds np tasks, everyone works them dry.
      auto& monitor = ctx.askfor<int>(FORCE_SITE);
      if (ctx.leader()) {
        for (int t = 0; t < np; ++t) monitor.put(t);
      }
      ctx.barrier();
      std::atomic<int>& done = ctx.shared<std::atomic<int>>("mixed_done");
      monitor.work([&](int&, fc::Askfor<int>&) {
        done.fetch_add(1, std::memory_order_relaxed);
      });
      ctx.barrier();
      EXPECT_EQ(done.load(std::memory_order_relaxed), np);
    });
    auto* sn = f.env().sentry();
    ASSERT_NE(sn, nullptr);
    EXPECT_EQ(sn->total_reports(), 0u)
        << "false positive on " << machine << ": "
        << (sn->reports().empty() ? std::string()
                                  : sn->reports().front().what);
  }
}

// ---------------------------------------------------------------------------
// Knobs and report plumbing.
// ---------------------------------------------------------------------------

TEST(SentryKnobs, EnvironmentVariablesEnableTheSentry) {
  EnvVarGuard sentry("FORCE_SENTRY", "1");
  EnvVarGuard fuzz("FORCE_SCHEDULE_FUZZ", nullptr);
  fc::ForceConfig cfg;
  cfg.nproc = 2;
  fc::Force f(cfg);
  ASSERT_NE(f.env().sentry(), nullptr);
  EXPECT_FALSE(f.env().sentry()->fuzzing());
}

TEST(SentryKnobs, FuzzSeedImpliesSentry) {
  EnvVarGuard sentry("FORCE_SENTRY", nullptr);
  EnvVarGuard fuzz("FORCE_SCHEDULE_FUZZ", "99");
  fc::ForceConfig cfg;
  cfg.nproc = 2;
  fc::Force f(cfg);
  ASSERT_NE(f.env().sentry(), nullptr);
  EXPECT_TRUE(f.env().sentry()->fuzzing());
}

TEST(SentryKnobs, OffByDefaultAndReportKindNames) {
  EnvVarGuard sentry("FORCE_SENTRY", nullptr);
  EnvVarGuard fuzz("FORCE_SCHEDULE_FUZZ", nullptr);
  fc::ForceConfig cfg;
  cfg.nproc = 2;
  fc::Force f(cfg);
  EXPECT_EQ(f.env().sentry(), nullptr);
  EXPECT_STREQ(fc::Sentry::report_kind_name(fc::Sentry::ReportKind::kRace),
               "race");
  EXPECT_STREQ(
      fc::Sentry::report_kind_name(fc::Sentry::ReportKind::kLockOrder),
      "lock-order");
  EXPECT_STREQ(
      fc::Sentry::report_kind_name(fc::Sentry::ReportKind::kDeadlock),
      "deadlock");
  EXPECT_STREQ(fc::Sentry::report_kind_name(fc::Sentry::ReportKind::kStall),
               "stall");
}

// ---------------------------------------------------------------------------
// Static/dynamic agreement: forcelint's lock-order graph (rule R4) must
// find the same inversion cycle on the Force-dialect version of the
// program that the runtime sentry flags while executing it.
// ---------------------------------------------------------------------------

TEST(SentryCrossCheck, StaticLockGraphMatchesRuntimeInversionReport) {
  // The Force-dialect twin of LockOrderInversionIsFlaggedWithoutADeadlock:
  // a -> b in phase one, b -> a in phase two, a barrier between.
  const std::string source =
      "Force INVERT\n"
      "Shared integer X\n"
      "End declarations\n"
      "Lock order_a\n"
      "Lock order_b\n"
      "  X = 1;\n"
      "Unlock order_b\n"
      "Unlock order_a\n"
      "Barrier\n"
      "End barrier\n"
      "Lock order_b\n"
      "Lock order_a\n"
      "  X = 2;\n"
      "Unlock order_a\n"
      "Unlock order_b\n"
      "Join\n";
  force::preproc::DiagSink diags;
  const force::preproc::LintResult res =
      force::preproc::run_forcelint(source, {}, diags);
  const auto cycles = res.lock_graph.cycles();
  ASSERT_EQ(cycles.size(), 1u);
  const std::set<std::string> static_cycle(cycles[0].begin(),
                                           cycles[0].end());

  // Run the same acquisition pattern for real and collect the lock names
  // the sentry's inversion report mentions (labels read "lock '<name>'").
  fc::Force f(sentry_config(2, "native", 11));
  f.run([&](fc::Ctx& ctx) {
    auto& a = ctx.named_lock("order_a");
    auto& b = ctx.named_lock("order_b");
    a.acquire();
    b.acquire();
    b.release();
    a.release();
    ctx.barrier();
    b.acquire();
    a.acquire();
    a.release();
    b.release();
  });
  auto* sn = f.env().sentry();
  ASSERT_NE(sn, nullptr);
  ASSERT_GE(sn->report_count(fc::Sentry::ReportKind::kLockOrder), 1u);
  std::set<std::string> runtime_cycle;
  for (const auto& r : sn->reports()) {
    if (r.kind != fc::Sentry::ReportKind::kLockOrder) continue;
    const std::string& what = r.what;
    std::size_t pos = 0;
    while ((pos = what.find("lock '", pos)) != std::string::npos) {
      pos += 6;
      const std::size_t end = what.find('\'', pos);
      if (end == std::string::npos) break;
      runtime_cycle.insert(what.substr(pos, end - pos));
      pos = end + 1;
    }
  }
  EXPECT_EQ(static_cycle, runtime_cycle)
      << "forcelint and the runtime sentry disagree on the inversion cycle";
}

TEST(SentryKnobs, RaceReportNamesTheTrackedVariable) {
  fc::Force f(sentry_config(2, "native", 31));
  f.run([&](fc::Ctx& ctx) {
    auto& x = ctx.shared<std::atomic<long>>("named_for_report");
    x.fetch_add(1, std::memory_order_relaxed);
    ctx.note_write(FORCE_SITE, &x);
  });
  auto* sn = f.env().sentry();
  ASSERT_NE(sn, nullptr);
  ASSERT_GE(sn->report_count(fc::Sentry::ReportKind::kRace), 1u);
  bool named = false;
  for (const auto& r : sn->reports()) {
    if (r.what.find("named_for_report") != std::string::npos) named = true;
  }
  EXPECT_TRUE(named) << "race report does not carry the variable name";
}
