// Tests for the execution tracer and its runtime integration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/force.hpp"
#include "util/trace.hpp"

namespace fu = force::util;
namespace fc = force::core;

// --- TraceRing ----------------------------------------------------------------

TEST(TraceRing, RecordsInOrder) {
  fu::TraceRing ring(8);
  for (int i = 0; i < 5; ++i) {
    fu::TraceEvent e;
    e.begin_ns = i;
    e.end_ns = i;
    ring.record(e);
  }
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(events[static_cast<std::size_t>(i)].begin_ns, i);
  EXPECT_EQ(ring.recorded(), 5u);
}

TEST(TraceRing, WrapsKeepingTheNewest) {
  fu::TraceRing ring(4);
  for (int i = 0; i < 10; ++i) {
    fu::TraceEvent e;
    e.begin_ns = i;
    ring.record(e);
  }
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events.front().begin_ns, 6);
  EXPECT_EQ(events.back().begin_ns, 9);
  EXPECT_EQ(ring.recorded(), 10u);
}

TEST(TraceRing, ZeroCapacityThrows) {
  EXPECT_THROW(fu::TraceRing ring(0), fu::CheckError);
}

// Overflow by more than two wraps: the survivors must be exactly the last
// `capacity` events, still in record order - "most recent events win".
TEST(TraceRing, OverflowKeepsTheLastCapacityEventsInOrder) {
  fu::TraceRing ring(8);
  for (int i = 0; i < 20; ++i) {
    fu::TraceEvent e;
    e.begin_ns = i;
    e.arg = i;
    ring.record(e);
  }
  const auto events = ring.drain();
  ASSERT_EQ(events.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(events[static_cast<std::size_t>(i)].begin_ns, 12 + i);
    EXPECT_EQ(events[static_cast<std::size_t>(i)].arg, 12 + i);
  }
  EXPECT_EQ(ring.recorded(), 20u);
}

// An overflowed ring must still export sane Chrome JSON: one event entry
// per survivor, newest args present, evicted args absent, braces balanced.
TEST(Tracer, OverflowedRingRoundTripsThroughChromeJson) {
  fu::Tracer tracer(1, /*events_per_process=*/8);
  for (int i = 0; i < 20; ++i) {
    tracer.record(0, fu::TraceKind::kLoopDispatch, 100 + i, 100 + i, i);
  }
  const auto events = tracer.all_events();
  ASSERT_EQ(events.size(), 8u);

  const std::string json = tracer.to_chrome_json();
  for (int survivor = 12; survivor < 20; ++survivor) {
    EXPECT_NE(json.find("\"args\":{\"arg\":" + std::to_string(survivor) + "}"),
              std::string::npos)
        << "survivor " << survivor << " missing from the export";
  }
  for (int evicted = 0; evicted < 12; ++evicted) {
    EXPECT_EQ(json.find("\"args\":{\"arg\":" + std::to_string(evicted) + "}"),
              std::string::npos)
        << "evicted event " << evicted << " leaked into the export";
  }
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

// --- Tracer --------------------------------------------------------------------

TEST(Tracer, SpanRecordsADuration) {
  fu::Tracer tracer(2);
  {
    fu::Tracer::Span span(&tracer, 1, fu::TraceKind::kCritical, 42);
    fu::spin_for_ns(100'000);
  }
  const auto events = tracer.all_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].proc, 1);
  EXPECT_EQ(events[0].kind, fu::TraceKind::kCritical);
  EXPECT_EQ(events[0].arg, 42);
  EXPECT_GT(events[0].end_ns - events[0].begin_ns, 50'000);
}

TEST(Tracer, InstantHasZeroDuration) {
  fu::Tracer tracer(1);
  tracer.instant(0, fu::TraceKind::kLoopDispatch, 7);
  const auto events = tracer.all_events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].begin_ns, events[0].end_ns);
}

TEST(Tracer, EventsAreSortedByBeginTime) {
  fu::Tracer tracer(2);
  tracer.record(1, fu::TraceKind::kPhase, 300, 400);
  tracer.record(0, fu::TraceKind::kPhase, 100, 200);
  const auto events = tracer.all_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_LT(events[0].begin_ns, events[1].begin_ns);
}

TEST(Tracer, RejectsBadProcessIds) {
  fu::Tracer tracer(2);
  EXPECT_THROW(tracer.record(2, fu::TraceKind::kPhase, 0, 0),
               fu::CheckError);
  EXPECT_THROW(tracer.record(-1, fu::TraceKind::kPhase, 0, 0),
               fu::CheckError);
}

TEST(Tracer, ChromeJsonIsWellFormed) {
  fu::Tracer tracer(2);
  tracer.record(0, fu::TraceKind::kBarrier, 1000, 2000, 5);
  tracer.instant(1, fu::TraceKind::kProduce, 9);
  const std::string json = tracer.to_chrome_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"barrier\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":1"), std::string::npos);   // proc 0 -> tid 1
  EXPECT_NE(json.find("\"tid\":2"), std::string::npos);
  // Braces balance (cheap well-formedness proxy).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Tracer, WritesJsonFile) {
  fu::Tracer tracer(1);
  tracer.instant(0, fu::TraceKind::kConsume);
  const std::string path = ::testing::TempDir() + "/force_trace_test.json";
  ASSERT_TRUE(tracer.write_chrome_json(path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_NE(ss.str().find("consume"), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceKindNames, AllNamed) {
  for (auto k : {fu::TraceKind::kBarrier, fu::TraceKind::kSection,
                 fu::TraceKind::kCritical, fu::TraceKind::kLoopDispatch,
                 fu::TraceKind::kLoopRun, fu::TraceKind::kProduce,
                 fu::TraceKind::kConsume, fu::TraceKind::kAskforGrant,
                 fu::TraceKind::kPhase}) {
    EXPECT_STRNE(fu::trace_kind_name(k), "unknown");
  }
}

// --- runtime integration ---------------------------------------------------------

TEST(TraceIntegration, DisabledByDefault) {
  force::Force f({.nproc = 2});
  EXPECT_EQ(f.env().tracer(), nullptr);
  f.run([](fc::Ctx& ctx) { ctx.barrier(); });  // must not crash
}

TEST(TraceIntegration, RecordsBarriersCriticalsAndLoops) {
  fc::ForceConfig cfg;
  cfg.nproc = 3;
  cfg.trace = true;
  force::Force f(cfg);
  f.run([](fc::Ctx& ctx) {
    ctx.selfsched_do(FORCE_SITE, 1, 10, 1, [](std::int64_t) {});
    ctx.critical(FORCE_SITE, [] {});
    ctx.barrier([] {});
  });
  auto* tracer = f.env().tracer();
  ASSERT_NE(tracer, nullptr);
  const auto events = tracer->all_events();
  auto count = [&](fu::TraceKind k) {
    return std::count_if(events.begin(), events.end(),
                         [k](const fu::TraceEvent& e) { return e.kind == k; });
  };
  EXPECT_EQ(count(fu::TraceKind::kBarrier), 3);   // one per process
  EXPECT_EQ(count(fu::TraceKind::kSection), 1);   // exactly one executor
  EXPECT_EQ(count(fu::TraceKind::kCritical), 3);
  EXPECT_EQ(count(fu::TraceKind::kLoopRun), 3);
  // Dispatches: 10 in-range + 3 exhausted grabs.
  EXPECT_EQ(count(fu::TraceKind::kLoopDispatch), 13);
}

TEST(TraceIntegration, DispatchArgsCoverTheIndexSpace) {
  fc::ForceConfig cfg;
  cfg.nproc = 2;
  cfg.trace = true;
  force::Force f(cfg);
  f.run([](fc::Ctx& ctx) {
    ctx.selfsched_do(FORCE_SITE, 1, 6, 1, [](std::int64_t) {});
  });
  std::vector<std::int64_t> dispatched;
  for (const auto& e : f.env().tracer()->all_events()) {
    if (e.kind == fu::TraceKind::kLoopDispatch && e.arg >= 1 && e.arg <= 6) {
      dispatched.push_back(e.arg);
    }
  }
  std::sort(dispatched.begin(), dispatched.end());
  EXPECT_EQ(dispatched, (std::vector<std::int64_t>{1, 2, 3, 4, 5, 6}));
}

TEST(TraceIntegration, ExportsARunnableTimeline) {
  fc::ForceConfig cfg;
  cfg.nproc = 2;
  cfg.trace = true;
  force::Force f(cfg);
  f.run([](fc::Ctx& ctx) {
    for (int e = 0; e < 3; ++e) ctx.barrier();
  });
  const std::string json = f.env().tracer()->to_chrome_json();
  EXPECT_NE(json.find("\"name\":\"barrier\""), std::string::npos);
  EXPECT_GE(f.env().tracer()->total_recorded(), 6u);
}

namespace {

/// Events of `kind` in member `proc`'s ring.
long ring_count(const std::vector<fu::TraceEvent>& events, int proc,
                fu::TraceKind kind) {
  return std::count_if(events.begin(), events.end(),
                       [&](const fu::TraceEvent& e) {
                         return e.proc == proc && e.kind == kind;
                       });
}

}  // namespace

// Every ring has one writer, the member it is named after: a traced
// construct records under the member's driver index, not the rank it holds
// inside a Resolve component.
TEST(TraceIntegration, ResolveComponentsRecordUnderTheirOwnMember) {
  constexpr int kBarriers = 5;
  fc::ForceConfig cfg;
  cfg.nproc = 4;
  cfg.trace = true;
  force::Force f(cfg);
  f.run([](fc::Ctx& ctx) {
    const auto component = [](fc::Ctx& sub) {
      for (int e = 0; e < kBarriers; ++e) sub.barrier();
      sub.critical(FORCE_SITE, [] {});
      sub.selfsched_do(FORCE_SITE, 1, 8, 1, [](std::int64_t) {});
    };
    ctx.resolve(FORCE_SITE)
        .component("left", 1, component)
        .component("right", 1, component)
        .run();
  });
  const auto events = f.env().tracer()->all_events();
  for (int proc = 0; proc < cfg.nproc; ++proc) {
    SCOPED_TRACE(proc);
    // The component's barriers plus the Unify join.
    EXPECT_EQ(ring_count(events, proc, fu::TraceKind::kBarrier), kBarriers + 1);
    EXPECT_EQ(ring_count(events, proc, fu::TraceKind::kCritical), 1);
    EXPECT_EQ(ring_count(events, proc, fu::TraceKind::kLoopRun), 1);
  }
}

// N:M pooled members share worker threads; each must still record into
// the ring of its own driver index.
TEST(TraceIntegration, NmMembersRecordIntoTheirOwnRings) {
  constexpr int kBarriers = 50;
  fc::ForceConfig cfg;
  cfg.nproc = 4;
  cfg.pool_workers = 2;
  cfg.trace = true;
  force::Force f(cfg);
  f.run([](fc::Ctx& ctx) {
    for (int e = 0; e < kBarriers; ++e) ctx.barrier();
    ctx.critical(FORCE_SITE, [] {});
    ctx.selfsched_do(FORCE_SITE, 1, 8, 1, [](std::int64_t) {});
  });
  const auto events = f.env().tracer()->all_events();
  for (int proc = 0; proc < cfg.nproc; ++proc) {
    SCOPED_TRACE(proc);
    EXPECT_EQ(ring_count(events, proc, fu::TraceKind::kBarrier), kBarriers);
    EXPECT_EQ(ring_count(events, proc, fu::TraceKind::kCritical), 1);
    EXPECT_EQ(ring_count(events, proc, fu::TraceKind::kLoopRun), 1);
  }
}
