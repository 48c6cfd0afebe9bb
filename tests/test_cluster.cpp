// Cluster backend fault-injection wall (ISSUE 9 satellite).
//
// The cluster process model runs force members as separate processes with
// no shared mapping at all: every construct is a coordinator RPC over a
// socket, and the arena is kept coherent by a write-through software DSM.
// These tests prove the death machinery end to end:
//
//   * a peer SIGKILLed mid-barrier or mid-askfor surfaces as a
//     ProcessDeathError with peer provenance (process number, pid, signal)
//     well inside the 30 s acceptance bound, and the surviving peers are
//     released by team poison rather than hanging in their parked RPCs;
//   * a fresh force constructed after such a death runs to completion;
//   * a torn connection (peer closes its socket but keeps running) is
//     diagnosed distinctly and the wedged peer is reclaimed;
//   * the narrowing rules the static lint (R7, target cluster) promises
//     are enforced at runtime with matching diagnostics: Pcase, Resolve,
//     non-trivially-copyable askfor payloads, Isfull, the sentry, tracing
//     and team pools are all rejected with cluster-specific messages.
//   * the coordinator's traffic tally shows each construct RPC as one
//     request frame carrying its own release records, a clean flush as
//     no record at all, and no record sent back to its writer;
//   * a reply wait spins for the team-fit window and then blocks: peers
//     whose window ran out while one member computed are released by its
//     late arrival, and a team small enough to spin still ends a death or
//     a torn link in ProcessDeathError;
//   * selfscheduled loops, whose episodes the coordinator opens on the
//     first claim with no entry barrier, run every trip exactly once,
//     leave a late member's home block to the others, re-enter without a
//     barrier between episodes and turn divergent bounds into a death
//     that names the loop.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/force.hpp"
#include "machdep/cluster.hpp"
#include "machdep/process.hpp"
#include "machdep/wait.hpp"
#include "reduce_moments.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"

namespace fc = force::core;
namespace md = force::machdep;

namespace {

force::ForceConfig cluster_config(int nproc) {
  force::ForceConfig cfg;
  cfg.nproc = nproc;
  cfg.process_model = "cluster";
  return cfg;
}

/// Seconds elapsed running `body`; the death tests assert the reaper's
/// grace machinery resolves well inside the 30 s acceptance bound.
template <typename Body>
double timed_seconds(Body&& body) {
  const auto t0 = std::chrono::steady_clock::now();
  body();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

// --- SIGKILL fault injection -------------------------------------------------

TEST(ClusterDeath, SigkillMidBarrierSurfacesWithProvenance) {
  force::Force f(cluster_config(4));
  const double secs = timed_seconds([&] {
    try {
      f.run([](fc::Ctx& ctx) {
        // Three peers park inside the barrier RPC; the fourth dies without
        // arriving. The coordinator must reap it, poison the team, and
        // release the parked survivors.
        if (ctx.me() == 4) raise(SIGKILL);
        ctx.barrier();
      });
      FAIL() << "expected ProcessDeathError";
    } catch (const md::ProcessDeathError& e) {
      EXPECT_EQ(e.process(), 4);
      EXPECT_GT(e.pid(), 0);
      EXPECT_EQ(e.term_signal(), SIGKILL);
      EXPECT_EQ(e.exit_code(), -1);
      EXPECT_NE(std::string(e.what()).find("killed by signal"),
                std::string::npos);
      EXPECT_NE(std::string(e.what()).find("surviving processes released"),
                std::string::npos);
    }
  });
  EXPECT_LT(secs, 30.0);
}

TEST(ClusterDeath, SigkillMidAskforReleasesParkedSurvivors) {
  force::Force f(cluster_config(4));
  const double secs = timed_seconds([&] {
    try {
      f.run([](fc::Ctx& ctx) {
        auto& af = ctx.askfor<std::int64_t>(FORCE_SITE);
        // One token, granted to whichever peer asks first; the task never
        // completes (its holder dies), so the other peers stay parked in
        // ask() at the coordinator until the poison releases them.
        if (ctx.leader()) af.put(1);
        af.work([](std::int64_t&, fc::Askfor<std::int64_t>&) {
          raise(SIGKILL);
        });
        ctx.barrier();
      });
      FAIL() << "expected ProcessDeathError";
    } catch (const md::ProcessDeathError& e) {
      EXPECT_EQ(e.term_signal(), SIGKILL);
      EXPECT_NE(e.site().find("askfor"), std::string::npos)
          << "victim site: " << e.site();
    }
  });
  EXPECT_LT(secs, 30.0);
}

TEST(ClusterDeath, SigkillAfterProduceAndInSelfschedBodyNameTheConstruct) {
  // The coordinator reads a peer's site from its last request, so a death
  // right after an async Produce names the variable, and one inside a
  // selfsched body names the loop whose trip it claimed.
  force::Force f(cluster_config(3));
  try {
    f.run([](fc::Ctx& ctx) {
      auto& v = ctx.async_var<std::int64_t>(FORCE_SITE);
      if (ctx.me() == 2) {
        v.produce(7);
        raise(SIGKILL);
      }
      ctx.barrier();
    });
    FAIL() << "expected ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.process(), 2);
    EXPECT_NE(e.site().find("async"), std::string::npos)
        << "victim site: " << e.site();
  }
  force::Force g(cluster_config(3));
  try {
    g.run([](fc::Ctx& ctx) {
      // Exactly one member claims trip 1.
      ctx.selfsched_do(FORCE_SITE, 1, 30, 1, [](std::int64_t i) {
        if (i == 1) raise(SIGKILL);
      });
      ctx.barrier();
    });
    FAIL() << "expected ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.term_signal(), SIGKILL);
    EXPECT_NE(e.site().find("selfsched"), std::string::npos)
        << "victim site: " << e.site();
  }
}

TEST(ClusterDeath, SigkillInSelfschedBodyReleasesClaimsParkedForTheNextEpisode) {
  // The survivors re-enter the loop at once; their arrivals for the next
  // episode wait on the coordinator for the victim's departure, which
  // never comes, until the poison releases them.
  force::Force f(cluster_config(3));
  const double secs = timed_seconds([&] {
    try {
      f.run([](fc::Ctx& ctx) {
        for (int e = 0; e < 2; ++e) {
          // Exactly one member claims trip 1 of the first episode.
          ctx.selfsched_do(FORCE_SITE, 1, 30, 1, [e](std::int64_t i) {
            if (e == 0 && i == 1) raise(SIGKILL);
          });
        }
      });
      FAIL() << "expected ProcessDeathError";
    } catch (const md::ProcessDeathError& e) {
      EXPECT_EQ(e.term_signal(), SIGKILL);
      EXPECT_NE(e.site().find("selfsched"), std::string::npos)
          << "victim site: " << e.site();
    }
  });
  EXPECT_LT(secs, 30.0);
}

TEST(ClusterDeath, FreshForceSucceedsAfterPeerDeath) {
  {
    force::Force f(cluster_config(3));
    EXPECT_THROW(f.run([](fc::Ctx& ctx) {
      if (ctx.me() == 2) raise(SIGKILL);
      ctx.barrier();
    }),
                 md::ProcessDeathError);
  }
  // The dead team left no residue the next team could trip on: all its
  // state was coordinator-side and died with the run.
  force::Force f(cluster_config(3));
  auto& total = f.shared<std::int64_t>("total");
  total = 0;
  f.run([&](fc::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { total += ctx.me(); });
    ctx.barrier();
  });
  EXPECT_EQ(total, 6);
}

TEST(ClusterDeath, TornConnectionIsDiagnosedAndPeerReclaimed) {
  force::Force f(cluster_config(4));
  const double secs = timed_seconds([&] {
    try {
      f.run([](fc::Ctx& ctx) {
        if (ctx.me() == 2) {
          // Half-close: the peer process stays alive and busy, but its
          // socket is gone. The coordinator must classify this as a torn
          // connection and SIGKILL the wedged peer rather than wait for
          // an exit that will never come.
          md::cluster::sever_connection_for_test();
          for (;;) pause();
        }
        ctx.barrier();
      });
      FAIL() << "expected ProcessDeathError";
    } catch (const md::ProcessDeathError& e) {
      EXPECT_EQ(e.process(), 2);
      EXPECT_EQ(e.term_signal(), SIGKILL);
      EXPECT_NE(e.error_text().find("torn"), std::string::npos)
          << "error text: " << e.error_text();
    }
  });
  EXPECT_LT(secs, 30.0);
}

TEST(ClusterDeath, PeerExceptionCarriesConstructSiteProvenance) {
  force::Force f(cluster_config(2));
  try {
    f.run([](fc::Ctx& ctx) {
      ctx.critical(FORCE_SITE, [&ctx] {
        if (ctx.me() == 1) throw std::runtime_error("boom in critical");
      });
      ctx.barrier();
    });
    FAIL() << "expected ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_EQ(e.exit_code(), 1);
    EXPECT_NE(e.error_text().find("boom in critical"), std::string::npos);
    // The victim noted the critical's lock site before dying.
    EXPECT_NE(e.site(), "startup");
  }
}

TEST(ClusterDeath, SpinningSurvivorsStillEndInProcessDeathError) {
  // Two members and the coordinator fit any host with three CPUs, so here
  // the survivor's reply wait and the coordinator's poll spin before they
  // block (on fewer CPUs the window is 0 and this repeats the cases
  // above): a death or a torn link must still surface as the victim's
  // ProcessDeathError, the survivor released by poison.
  const double secs = timed_seconds([] {
    force::Force f(cluster_config(2));
    try {
      f.run([](fc::Ctx& ctx) {
        if (ctx.me() == 2) raise(SIGKILL);
        ctx.barrier();
      });
      ADD_FAILURE() << "expected ProcessDeathError (barrier)";
    } catch (const md::ProcessDeathError& e) {
      EXPECT_EQ(e.process(), 2);
      EXPECT_EQ(e.term_signal(), SIGKILL);
    }
    force::Force g(cluster_config(2));
    try {
      g.run([](fc::Ctx& ctx) {
        auto& af = ctx.askfor<std::int64_t>(FORCE_SITE);
        if (ctx.leader()) af.put(1);
        af.work([](std::int64_t&, fc::Askfor<std::int64_t>&) {
          raise(SIGKILL);
        });
        ctx.barrier();
      });
      ADD_FAILURE() << "expected ProcessDeathError (askfor)";
    } catch (const md::ProcessDeathError& e) {
      EXPECT_EQ(e.term_signal(), SIGKILL);
      EXPECT_NE(e.site().find("askfor"), std::string::npos)
          << "victim site: " << e.site();
    }
    force::Force h(cluster_config(2));
    try {
      h.run([](fc::Ctx& ctx) {
        if (ctx.me() == 2) {
          md::cluster::sever_connection_for_test();
          for (;;) pause();
        }
        ctx.barrier();
      });
      ADD_FAILURE() << "expected ProcessDeathError (torn)";
    } catch (const md::ProcessDeathError& e) {
      EXPECT_EQ(e.process(), 2);
      EXPECT_EQ(e.term_signal(), SIGKILL);
      EXPECT_NE(e.error_text().find("torn"), std::string::npos)
          << "error text: " << e.error_text();
    }
  });
  EXPECT_LT(secs, 30.0);
}

// --- spin, then block --------------------------------------------------------

TEST(ClusterWait, PeersBlockedPastTheWindowAreReleasedByTheLateArrival) {
  // Each round one member computes for many spin windows before the
  // barrier, so the other peers' reply waits and the coordinator's poll
  // run out of window and block. The late arrival's write must still
  // reach every peer, and the wait changes no traffic: one request per
  // barrier.
  constexpr int kNproc = 3;
  constexpr int kRounds = 4;
  const std::int64_t compute_ns =
      std::max<std::int64_t>(40 * md::Waiter::kTeamWindowNs, 2'000'000);
  force::Force f(cluster_config(kNproc));
  auto& late = f.shared<std::array<std::int64_t, kRounds>>("late");
  auto& seen =
      f.shared<std::array<std::int64_t, kNproc * kRounds>>("seen");
  late = {};
  seen = {};
  f.run([&](fc::Ctx& ctx) {
    for (int round = 0; round < kRounds; ++round) {
      const auto r = static_cast<std::size_t>(round);
      if (ctx.me() == 1 + round % kNproc) {
        const std::int64_t until = force::util::now_ns() + compute_ns;
        while (force::util::now_ns() < until) {
        }
        late[r] = 100 + round;
      }
      ctx.barrier();
      seen[static_cast<std::size_t>(ctx.me() - 1) * kRounds + r] = late[r];
    }
    ctx.barrier();
  });
  for (int p = 0; p < kNproc; ++p) {
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(seen[static_cast<std::size_t>(p * kRounds + round)],
                100 + round)
          << "peer " << p + 1 << ", round " << round;
    }
  }
  const md::cluster::Traffic t = md::cluster::last_run_traffic();
  // Per peer: hello, one arrival per round, the closing barrier, join.
  EXPECT_EQ(t.requests_in,
            static_cast<std::uint64_t>(kNproc * (kRounds + 3)));
  EXPECT_EQ(t.replies_out, t.requests_in);
}

// --- runtime narrowing rules (static lint R7 cross-check, dynamic side) ------
//
// Each rejection below is the runtime half of a static R7 verdict: the lint
// with --process-model=cluster flags the same constructs at translate time
// (test_preproc_lint.cpp holds the static half).

namespace {

// Pcase blocks are counted per member, so no lock orders the counts.
using PcaseCounts = std::array<std::array<std::int64_t, 5>, 3>;

std::int64_t pcase_count(const PcaseCounts& rows, std::size_t block) {
  std::int64_t n = 0;
  for (const auto& row : rows) n += row[block];
  return n;
}

}  // namespace

TEST(ClusterPcase, PreschedBlocksRunOnceEach) {
  force::Force f(cluster_config(3));
  auto& rows = f.shared<PcaseCounts>("presched_rows");
  rows = {};
  f.run([&](fc::Ctx& ctx) {
    auto& mine = rows[static_cast<std::size_t>(ctx.me0())];
    ctx.pcase(FORCE_SITE)
        .sect([&] { ++mine[0]; })
        .sect([&] { ++mine[1]; })
        .sect_if(false, [&] { ++mine[2]; })
        .sect([&] { ++mine[3]; })
        .sect([&] { ++mine[4]; })
        .run_presched();
  });
  for (std::size_t b = 0; b < 5; ++b) {
    EXPECT_EQ(pcase_count(rows, b), b == 2 ? 0 : 1) << "block " << b;
  }
}

TEST(ClusterPcase, BackToBackSelfschedSitesRunEachBlockOnce) {
  // Each Pcase site keys its own coordinator site: two sites reached back
  // to back with different block counts are two loops, not one loop
  // reached with divergent bounds.
  constexpr int kEpisodes = 3;
  force::Force f(cluster_config(3));
  auto& first = f.shared<PcaseCounts>("first_rows");
  auto& second = f.shared<PcaseCounts>("second_rows");
  first = {};
  second = {};
  f.run([&](fc::Ctx& ctx) {
    const auto me = static_cast<std::size_t>(ctx.me0());
    auto& a = first[me];
    auto& b = second[me];
    for (int e = 0; e < kEpisodes; ++e) {
      ctx.pcase(FORCE_SITE)
          .sect([&] { ++a[0]; })
          .sect([&] { ++a[1]; })
          .sect([&] { ++a[2]; })
          .sect([&] { ++a[3]; })
          .sect([&] { ++a[4]; })
          .run_selfsched();
      ctx.pcase(FORCE_SITE)
          .sect([&] { ++b[0]; })
          .sect_if(false, [&] { ++b[1]; })
          .run_selfsched();
    }
  });
  for (std::size_t blk = 0; blk < 5; ++blk) {
    EXPECT_EQ(pcase_count(first, blk), kEpisodes) << "first site, block " << blk;
    EXPECT_EQ(pcase_count(second, blk), blk == 0 ? kEpisodes : 0)
        << "second site, block " << blk;
  }
}

TEST(ClusterRejects, ResolveWithClusterDiagnostic) {
  force::Force f(cluster_config(2));
  try {
    f.run([](fc::Ctx& ctx) {
      ctx.resolve(FORCE_SITE)
          .component("only", 1, [](fc::Ctx&) {})
          .run();
    });
    FAIL() << "expected ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_NE(e.error_text().find("Resolve"), std::string::npos);
    EXPECT_NE(e.error_text().find("cluster"), std::string::npos);
    EXPECT_NE(e.error_text().find(
                  md::capability_row(md::Capability::kResolve).reason),
              std::string::npos)
        << e.error_text();
  }
}

TEST(ClusterRejects, NonTriviallyCopyableAskforPayload) {
  force::Force f(cluster_config(2));
  try {
    f.run([](fc::Ctx& ctx) {
      auto& af = ctx.askfor<std::string>(FORCE_SITE);
      (void)af;
    });
    FAIL() << "expected ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_NE(e.error_text().find("trivially copyable"), std::string::npos);
  }
}

TEST(ClusterRejects, IsfullWithClusterDiagnostic) {
  force::Force f(cluster_config(2));
  try {
    f.run([](fc::Ctx& ctx) {
      auto& cells = ctx.async_array<std::int64_t>(FORCE_SITE, 1);
      (void)cells[0].is_full();
    });
    FAIL() << "expected ProcessDeathError";
  } catch (const md::ProcessDeathError& e) {
    EXPECT_NE(e.error_text().find("Isfull"), std::string::npos);
    EXPECT_NE(e.error_text().find("cluster"), std::string::npos);
  }
}

TEST(ClusterRejects, SentryAtConfigTime) {
  force::ForceConfig cfg = cluster_config(2);
  cfg.sentry = true;
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

TEST(ClusterRejects, TraceAtConfigTime) {
  force::ForceConfig cfg = cluster_config(2);
  cfg.trace = true;
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

TEST(ClusterRejects, TeamPoolAtConfigTime) {
  force::ForceConfig cfg = cluster_config(2);
  cfg.team_pool = true;
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

TEST(ClusterRejects, UnknownTransportAtConfigTime) {
  force::ForceConfig cfg = cluster_config(2);
  cfg.cluster_transport = "carrier-pigeon";
  EXPECT_THROW(force::Force f(cfg), force::util::CheckError);
}

// --- transports --------------------------------------------------------------

TEST(ClusterTransport, LoopbackTcpRunsTheSameProgram) {
  force::ForceConfig cfg = cluster_config(4);
  cfg.cluster_transport = "tcp";
  force::Force f(cfg);
  auto& total = f.shared<std::int64_t>("total");
  total = 0;
  f.run([&](fc::Ctx& ctx) {
    ctx.critical(FORCE_SITE, [&] { total += ctx.me() * ctx.me(); });
    ctx.barrier();
  });
  EXPECT_EQ(total, 1 + 4 + 9 + 16);
}

// --- Reduce over the coordinator ---------------------------------------------

TEST(ClusterReduce, MultiWordReduceMatchesTheOracle) {
  // Each member's slot rides its barrier-arrive flush; the champion of the
  // coordinator barrier folds the slots in its section, and the DSM
  // carries the result back on the release.
  force::Force f(cluster_config(4));
  auto& published = f.shared<reduce_moments::Published>("published");
  auto& agreed = f.shared<reduce_moments::Agreed>("agreed");
  reduce_moments::run_rounds(f, published, agreed);
  reduce_moments::expect_oracle(published, agreed, 4);
}

// --- DSM coherence edges -----------------------------------------------------

TEST(ClusterDsm, BarrierSectionWritesReachEveryPeer) {
  // The champion's section writes must ride the release slice to all
  // peers, and a later per-peer write must ride its flush back: a
  // round-trip through both DSM directions.
  force::Force f(cluster_config(4));
  auto& seed = f.shared<std::int64_t>("seed");
  auto& echo = f.shared<std::array<std::int64_t, 4>>("echo");
  seed = 0;
  echo = {};
  f.run([&](fc::Ctx& ctx) {
    ctx.barrier([&] { seed = 41; });
    // Every peer observed the section write after release.
    const std::int64_t mine = seed + 1;
    echo[static_cast<std::size_t>(ctx.me() - 1)] = mine * ctx.me();
    ctx.barrier();
  });
  for (int p = 1; p <= 4; ++p) {
    EXPECT_EQ(echo[static_cast<std::size_t>(p - 1)], 42 * p) << "peer " << p;
  }
}

TEST(ClusterDsm, LockHandoffCarriesLatestWrites) {
  // Chained critical sections: each process increments a shared counter it
  // can only see correctly if the lock grant applied the previous holder's
  // flush. Iterated enough that interleavings vary.
  force::Force f(cluster_config(4));
  auto& counter = f.shared<std::int64_t>("counter");
  counter = 0;
  f.run([&](fc::Ctx& ctx) {
    for (int i = 0; i < 25; ++i) {
      ctx.critical(FORCE_SITE, [&] { counter += 1; });
    }
    ctx.barrier();
  });
  EXPECT_EQ(counter, 100);
  // Each critical is two request frames, acquire and release, and each
  // release carries the one record of its increment.
  const md::cluster::Traffic t = md::cluster::last_run_traffic();
  EXPECT_EQ(t.requests_in, 4u * (2u * 25u + 3u));
  EXPECT_EQ(t.records_in, 100u);
}

// --- coordinator traffic -----------------------------------------------------
//
// The coordinator runs in the parent, so its tally of one run is read back
// here: a construct RPC must be one request frame, with its release records
// inside it, and a clean flush must ship no record at all.

TEST(ClusterTraffic, PlainBarriersAreOneRequestFrameEachAndShipNoRecords) {
  constexpr int kNproc = 3;
  constexpr int kBarriers = 10;
  force::Force f(cluster_config(kNproc));
  f.run([](fc::Ctx& ctx) {
    for (int i = 0; i < kBarriers; ++i) ctx.barrier();
  });
  const md::cluster::Traffic t = md::cluster::last_run_traffic();
  // Per peer: hello, one arrival per barrier, join.
  EXPECT_EQ(t.requests_in,
            static_cast<std::uint64_t>(kNproc * (kBarriers + 2)));
  // Per peer: hello ack, one release per barrier, join ack.
  EXPECT_EQ(t.replies_out,
            static_cast<std::uint64_t>(kNproc * (kBarriers + 2)));
  EXPECT_EQ(t.records_in, 0u);
  EXPECT_EQ(t.record_bytes_in, 0u);
  EXPECT_EQ(t.record_bytes_out, 0u);
  // The coordinator reads each peer's site from its requests: no notes.
  EXPECT_EQ(t.notes_in, 0u);
}

TEST(ClusterTraffic, OneEightByteWriteIsOneEightByteRecord) {
  constexpr int kNproc = 3;
  force::Force f(cluster_config(kNproc));
  auto& word = f.shared<std::int64_t>("word");
  word = 0;
  f.run([&](fc::Ctx& ctx) {
    // Every byte changes, so the diff finds one 8-byte run.
    if (ctx.me() == 1) word = 0x0102030405060708;
    ctx.barrier();
    if (word != 0x0102030405060708) {
      throw std::runtime_error("the barrier release lost the write");
    }
  });
  EXPECT_EQ(word, 0x0102030405060708);
  const md::cluster::Traffic t = md::cluster::last_run_traffic();
  EXPECT_EQ(t.records_in, 1u);
  EXPECT_EQ(t.record_bytes_in, 8u);
  // The release carries it to the two other peers; its own record does
  // not come back to the writer.
  EXPECT_EQ(t.record_bytes_out, static_cast<std::uint64_t>(8 * (kNproc - 1)));
  EXPECT_EQ(t.requests_in, static_cast<std::uint64_t>(kNproc * 3));
}

TEST(ClusterTraffic, EveryPeersOwnWordReachesOnlyTheOthers) {
  // Every peer flushes one 8-byte record at the same barrier, so all but
  // the first arriver are behind the log when they flush: none of them
  // may be sent its own record back.
  constexpr int kNproc = 4;
  force::Force f(cluster_config(kNproc));
  auto& words = f.shared<std::array<std::uint64_t, kNproc>>("words");
  words = {};
  const auto word_of = [](int me) {
    return 0x0102030405060708ull * static_cast<std::uint64_t>(me);
  };
  f.run([&](fc::Ctx& ctx) {
    words[static_cast<std::size_t>(ctx.me() - 1)] = word_of(ctx.me());
    ctx.barrier();
    for (int p = 1; p <= kNproc; ++p) {
      if (words[static_cast<std::size_t>(p - 1)] != word_of(p)) {
        throw std::runtime_error("the barrier release lost a peer's word");
      }
    }
  });
  const md::cluster::Traffic t = md::cluster::last_run_traffic();
  EXPECT_EQ(t.records_in, static_cast<std::uint64_t>(kNproc));
  EXPECT_EQ(t.record_bytes_in, static_cast<std::uint64_t>(8 * kNproc));
  EXPECT_EQ(t.record_bytes_out,
            static_cast<std::uint64_t>(8 * kNproc * (kNproc - 1)));
}

TEST(ClusterTraffic, AskforPutAskAndCompleteAreOneFrameEach) {
  constexpr int kNproc = 3;
  constexpr int kTasks = 12;
  force::Force f(cluster_config(kNproc));
  f.run([](fc::Ctx& ctx) {
    auto& af = ctx.askfor<std::int64_t>(FORCE_SITE);
    if (ctx.leader()) {
      for (int t = 0; t < kTasks; ++t) af.put(t);
    }
    af.work([](std::int64_t&, fc::Askfor<std::int64_t>&) {});
    ctx.barrier();
  });
  const md::cluster::Traffic t = md::cluster::last_run_traffic();
  // Hello, barrier and join per peer; one frame per put and per complete;
  // one ask per granted task plus each peer's last, empty-handed ask.
  EXPECT_EQ(t.requests_in, static_cast<std::uint64_t>(kNproc * 3 + kTasks +
                                                      kTasks +
                                                      (kTasks + kNproc)));
  EXPECT_EQ(t.records_in, 0u);
}

TEST(ClusterTraffic, SelfschedEpisodeSendsNoEntryRequest) {
  // Entry sends nothing: the first claim of an episode opens it on the
  // coordinator. A plain claim takes half of what is left of the one block
  // it claims from, so each 16-trip home block meets exactly
  // floor(log2 16) + 1 = 5 claims, whoever makes them and whatever the
  // timing, and each member departs with one empty claim.
  constexpr int kNproc = 3;
  constexpr int kEpisodes = 10;
  constexpr std::int64_t kTrips = 48;
  constexpr int kBlockClaims = 5;
  force::Force f(cluster_config(kNproc));
  auto& rows =
      f.shared<std::array<std::array<std::int32_t, kTrips>, kNproc>>("rows");
  rows = {};
  f.run([&](fc::Ctx& ctx) {
    // The body dirties this member's row before every claim but its
    // first, so a claim that flushed would carry records.
    auto& mine = rows[static_cast<std::size_t>(ctx.me0())];
    for (int e = 0; e < kEpisodes; ++e) {
      ctx.selfsched_do(FORCE_SITE, 0, kTrips - 1, 1, [&](std::int64_t t) {
        mine[static_cast<std::size_t>(t)] += 1;
      });
      ctx.barrier();
    }
  });
  for (std::size_t t = 0; t < kTrips; ++t) {
    std::int32_t runs = 0;
    for (const auto& row : rows) runs += row[t];
    EXPECT_EQ(runs, kEpisodes) << "trip " << t;
  }
  const md::cluster::Traffic t = md::cluster::last_run_traffic();
  // Per peer: hello, join and one arrival per barrier; the rest are claims.
  EXPECT_EQ(t.requests_in,
            static_cast<std::uint64_t>(kNproc * (kEpisodes + 2)) +
                t.claims_in);
  EXPECT_EQ(t.claims_in,
            static_cast<std::uint64_t>(kNproc * (kBlockClaims + 1) *
                                       kEpisodes));
  EXPECT_EQ(t.claim_records_in, 0u);
  EXPECT_GT(t.records_in, 0u);
}

// --- selfscheduled loops on the coordinator ----------------------------------
//
// Peers share no memory while they run, so each member counts the trips it
// ran in a row of slots of its own; the rows reach the parent through the
// DSM, and the test sums them there.

namespace {

constexpr int kSelfschedNp = 3;
constexpr std::size_t kMaxTrips = 64;

using TripCounts = std::array<std::int32_t, kMaxTrips>;

/// Counts the trips that did not run exactly once over all members' rows,
/// where trips [0, trips) should have run and the rest not at all.
template <typename Rows, typename Pick>
int wrong_trips(const Rows& rows, const Pick& pick, std::int64_t trips) {
  TripCounts runs{};
  for (const auto& row : rows) {
    const TripCounts& mine = pick(row);
    for (std::size_t t = 0; t < kMaxTrips; ++t) runs[t] += mine[t];
  }
  int wrong = 0;
  for (std::size_t t = 0; t < kMaxTrips; ++t) {
    const std::int32_t want = static_cast<std::int64_t>(t) < trips ? 1 : 0;
    if (runs[t] != want) ++wrong;
  }
  return wrong;
}

}  // namespace

TEST(ClusterSelfsched, EveryShapeRunsEachTripOnce) {
  // SelfschedAffinity.EveryShapeRunsEachTripOnce on the coordinator: trip
  // counts none, one, fewer than the blocks, one per block and ragged;
  // shapes chunk 1, chunk 3, guided, 2-D (three j values counting down)
  // and a negative increment.
  constexpr int np = kSelfschedNp;
  constexpr std::array<std::int64_t, 5> kTrips = {0, 1, np - 1, np,
                                                  4 * np + 3};
  constexpr std::size_t kShapes = 5;
  constexpr std::size_t kCases = kShapes * kTrips.size();
  using Row = std::array<TripCounts, kCases>;
  force::Force f(cluster_config(np));
  auto& rows = f.shared<std::array<Row, np>>("shape_rows");
  rows = {};
  f.run([&](fc::Ctx& ctx) {
    Row& mine = rows[static_cast<std::size_t>(ctx.me0())];
    for (std::size_t k = 0; k < kTrips.size(); ++k) {
      const std::int64_t n = kTrips[k];
      const auto hit = [&](std::size_t s, std::int64_t t) {
        mine[s * kTrips.size() + k].at(static_cast<std::size_t>(t)) += 1;
      };
      ctx.selfsched_do(FORCE_SITE, 1, n, 1,
                       [&](std::int64_t i) { hit(0, i - 1); });
      ctx.selfsched_do(
          FORCE_SITE, 1, n, 1, [&](std::int64_t i) { hit(1, i - 1); }, 3);
      ctx.guided_do(FORCE_SITE, 1, n, 1,
                    [&](std::int64_t i) { hit(2, i - 1); });
      ctx.selfsched_do2(FORCE_SITE, 1, n, 1, 3, 1, -1,
                        [&](std::int64_t i, std::int64_t j) {
                          hit(3, (i - 1) * 3 + (3 - j));
                        });
      // 2n, 2n-2, ..., 2: n trips.
      ctx.selfsched_do(FORCE_SITE, 2 * n, 1, -2, [&](std::int64_t i) {
        hit(4, (2 * n - i) / 2);
      });
    }
  });
  for (std::size_t s = 0; s < kShapes; ++s) {
    for (std::size_t k = 0; k < kTrips.size(); ++k) {
      const std::int64_t trips = s == 3 ? 3 * kTrips[k] : kTrips[k];
      const std::size_t c = s * kTrips.size() + k;
      EXPECT_EQ(wrong_trips(rows, [c](const Row& r) { return r[c]; }, trips),
                0)
          << "shape " << s << ", " << kTrips[k] << " trips";
    }
  }
}

TEST(ClusterSelfsched, LatePeerRunsNothingAndTheOthersRunItsBlock) {
  // The last member enters only after the others have left the loop, its
  // whole home block run: with no entry barrier they must run it rather
  // than wait for its owner, whose one claim finds the work gone. It
  // sleeps about 200 ms, then polls under a lock until the others have
  // left, bounded so a loop that waits for the owner fails instead of
  // hanging.
  constexpr int np = kSelfschedNp;
  constexpr std::int64_t kTrips = 4 * np + 3;
  force::Force f(cluster_config(np));
  auto& rows = f.shared<std::array<TripCounts, np>>("late_rows");
  auto& left = f.shared<std::int64_t>("late_left");
  auto& waited_out = f.shared<std::int64_t>("late_waited_out");
  rows = {};
  left = 0;
  waited_out = 0;
  f.run([&](fc::Ctx& ctx) {
    TripCounts& mine = rows[static_cast<std::size_t>(ctx.me0())];
    const bool late = ctx.me0() == np - 1;
    const auto under_lock = [&ctx](const std::function<void()>& body) {
      ctx.critical(FORCE_SITE, body);
    };
    if (late) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      std::int64_t seen = 0;
      while (seen < np - 1 && waited_out == 0) {
        under_lock([&] { seen = left; });
        if (std::chrono::steady_clock::now() > deadline) waited_out = 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    ctx.selfsched_do(FORCE_SITE, 0, kTrips - 1, 1, [&](std::int64_t t) {
      mine[static_cast<std::size_t>(t)] += 1;
    });
    if (!late) under_lock([&] { left += 1; });
  });
  EXPECT_EQ(waited_out, 0);
  EXPECT_EQ(wrong_trips(rows, [](const TripCounts& r) { return r; }, kTrips),
            0);
  std::int32_t late_ran = 0;
  for (std::int32_t runs : rows[np - 1]) late_ran += runs;
  EXPECT_EQ(late_ran, 0);
}

TEST(ClusterSelfsched, AnOwnerHeldInItsFirstTripLeavesHalfItsBlockToOthers) {
  // Member 0 enters first, and its first trip does not end until the
  // others have left the loop, as one trip far costlier than the rest
  // would: the others must run every trip member 0 was not granted. Its
  // first claim took half of its 16-trip home block, so it runs 8 trips
  // and the others the other 8; a grant of the whole home block would
  // leave them nothing to take there and member 0 all 16. Both waits poll
  // under a lock, bounded so a loop that waits for member 0 fails instead
  // of hanging.
  constexpr int np = kSelfschedNp;
  constexpr std::int64_t kTrips = 16 * np;
  force::Force f(cluster_config(np));
  auto& rows = f.shared<std::array<TripCounts, np>>("held_rows");
  auto& entered = f.shared<std::int64_t>("held_entered");
  auto& left = f.shared<std::int64_t>("held_left");
  auto& waited_out = f.shared<std::int64_t>("held_waited_out");
  rows = {};
  entered = 0;
  left = 0;
  waited_out = 0;
  f.run([&](fc::Ctx& ctx) {
    TripCounts& mine = rows[static_cast<std::size_t>(ctx.me0())];
    const auto under_lock = [&ctx](const std::function<void()>& body) {
      ctx.critical(FORCE_SITE, body);
    };
    const auto await = [&](const std::int64_t& shared, std::int64_t want) {
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      std::int64_t seen = 0;
      while (seen < want && waited_out == 0) {
        under_lock([&] { seen = shared; });
        if (std::chrono::steady_clock::now() > deadline) waited_out = 1;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    };
    const bool owner = ctx.me0() == 0;
    if (!owner) await(entered, 1);
    bool held = false;
    ctx.selfsched_do(FORCE_SITE, 0, kTrips - 1, 1, [&](std::int64_t t) {
      mine[static_cast<std::size_t>(t)] += 1;
      if (!owner || held) return;
      held = true;
      under_lock([&] { entered = 1; });
      await(left, np - 1);
    });
    if (!owner) under_lock([&] { left += 1; });
  });
  EXPECT_EQ(waited_out, 0);
  EXPECT_EQ(wrong_trips(rows, [](const TripCounts& r) { return r; }, kTrips),
            0);
  std::int32_t owner_ran = 0;
  for (std::int32_t runs : rows[0]) owner_ran += runs;
  EXPECT_EQ(owner_ran, 8);
}

TEST(ClusterSelfsched, BackToBackReentriesRunEveryTripOnce) {
  // One site re-entered 50 times with no barrier between episodes: a
  // member's next arrival waits on the coordinator until every member has
  // departed the episode before, and is then the opener or a joiner.
  constexpr int np = kSelfschedNp;
  constexpr int kEpisodes = 50;
  const auto trips_of = [](int e) {
    return static_cast<std::int64_t>((e * 7) % 23);
  };
  using Row = std::array<TripCounts, kEpisodes>;
  force::Force f(cluster_config(np));
  auto& rows = f.shared<std::array<Row, np>>("reentry_rows");
  rows = {};
  f.run([&](fc::Ctx& ctx) {
    Row& mine = rows[static_cast<std::size_t>(ctx.me0())];
    for (int e = 0; e < kEpisodes; ++e) {
      auto& slots = mine[static_cast<std::size_t>(e)];
      ctx.selfsched_do(FORCE_SITE, 0, trips_of(e) - 1, 1, [&](std::int64_t t) {
        slots.at(static_cast<std::size_t>(t)) += 1;
      });
    }
  });
  for (int e = 0; e < kEpisodes; ++e) {
    const auto episode = static_cast<std::size_t>(e);
    EXPECT_EQ(wrong_trips(rows, [episode](const Row& r) { return r[episode]; },
                          trips_of(e)),
              0)
        << "episode " << e;
  }
}

TEST(ClusterSelfsched, AMemberWhoseBodyThrewStillDeparts) {
  // A body that throws ends its member's claim loop without the empty
  // claim that is the departure, so leave() departs instead: without it
  // the next episode, which waits for every departure, could never open.
  constexpr int np = kSelfschedNp;
  constexpr std::int64_t kTrips = 4 * np + 3;
  force::Force f(cluster_config(np));
  auto& rows = f.shared<std::array<TripCounts, np>>("threw_rows");
  rows = {};
  const double secs = timed_seconds([&] {
    f.run([&](fc::Ctx& ctx) {
      TripCounts& mine = rows[static_cast<std::size_t>(ctx.me0())];
      for (int e = 0; e < 2; ++e) {
        try {
          ctx.selfsched_do(FORCE_SITE, 0, kTrips - 1, 1, [&](std::int64_t t) {
            if (e == 0 && ctx.me0() == 0) throw std::runtime_error("body");
            if (e == 1) mine[static_cast<std::size_t>(t)] += 1;
          });
        } catch (const std::runtime_error&) {
        }
      }
    });
  });
  EXPECT_EQ(wrong_trips(rows, [](const TripCounts& r) { return r; }, kTrips),
            0);
  EXPECT_LT(secs, 5.0);
}

TEST(ClusterSelfsched, DivergentBoundsDieNamingTheLoopInsteadOfHanging) {
  force::Force f(cluster_config(kSelfschedNp));
  const double secs = timed_seconds([&] {
    try {
      f.run([](fc::Ctx& ctx) {
        const std::int64_t last = ctx.me() == 2 ? 40 : 30;
        ctx.selfsched_do(FORCE_SITE, 1, last, 1, [](std::int64_t) {});
        ctx.barrier();
      });
      FAIL() << "expected ProcessDeathError";
    } catch (const md::ProcessDeathError& e) {
      EXPECT_NE(e.site().find("selfsched"), std::string::npos)
          << "victim site: " << e.site();
      EXPECT_NE(e.error_text().find("divergent loop bounds"),
                std::string::npos)
          << "error text: " << e.error_text();
    }
  });
  EXPECT_LT(secs, 5.0);
}
