#include "core/doall.hpp"

#include "core/env.hpp"
#include "util/check.hpp"

namespace force::core {

std::int64_t loop_trip_count(std::int64_t start, std::int64_t last,
                             std::int64_t incr) {
  FORCE_CHECK(incr != 0, "DO loop increment must be nonzero");
  if (incr > 0) {
    if (start > last) return 0;
    return (last - start) / incr + 1;
  }
  if (start < last) return 0;
  return (start - last) / (-incr) + 1;
}

void presched_do(int me0, int np, std::int64_t start, std::int64_t last,
                 std::int64_t incr,
                 const std::function<void(std::int64_t)>& body) {
  FORCE_CHECK(np > 0 && me0 >= 0 && me0 < np, "bad presched process id");
  const std::int64_t trips = loop_trip_count(start, last, incr);
  // Cyclic deal: process me0 takes trips me0, me0+np, me0+2np, ...
  for (std::int64_t t = me0; t < trips; t += np) {
    body(start + t * incr);
  }
}

void presched_do2(int me0, int np, std::int64_t i_start, std::int64_t i_last,
                  std::int64_t i_incr, std::int64_t j_start,
                  std::int64_t j_last, std::int64_t j_incr,
                  const std::function<void(std::int64_t, std::int64_t)>& body) {
  FORCE_CHECK(np > 0 && me0 >= 0 && me0 < np, "bad presched process id");
  const std::int64_t i_trips = loop_trip_count(i_start, i_last, i_incr);
  const std::int64_t j_trips = loop_trip_count(j_start, j_last, j_incr);
  const std::int64_t total = i_trips * j_trips;
  for (std::int64_t t = me0; t < total; t += np) {
    const std::int64_t i_idx = t / j_trips;
    const std::int64_t j_idx = t % j_trips;
    body(i_start + i_idx * i_incr, j_start + j_idx * j_incr);
  }
}

// ---------------------------------------------------------------------------
// SelfschedLoop - the paper's macro expansion, object-ified.
//
//   entry:  the EpisodeGate: the first arriver fixes the bounds and arms
//           the dispatch counter; nobody waits for the rest of the team.
//   body:   claim trips from the DispatchCounter - one fetch-add on the
//           member's home block (then on the others') on hardware-RMW
//           machines, one generic-lock pass (the paper's lock(LOOP);
//           K = K_shared; K_shared = K + INCR; unlock(LOOP)) on lock-only
//           machines. If the claim is nonempty, execute and repeat;
//           otherwise fall through.
//   exit:   the EpisodeGate again: a departure waits for every arrival,
//           and the last one out re-opens the loop. There is deliberately
//           NO exit barrier: a process leaves as soon as it draws an
//           exhausted claim.
//
// That is machdep::GateDoallSite, on thread and os-fork alike; only its
// words move into the arena under os-fork. The cluster backend hands out
// its own site, whose gate and home blocks live on the coordinator: the
// first claim of an episode opens it, with no entry request. Either
// comes from ForceEnvironment::make_doall_site, which wraps it in the
// observer layer's decorator when the sentry or the tracer is on.
// ---------------------------------------------------------------------------

SelfschedLoop::SelfschedLoop(ForceEnvironment& env, int width,
                             const std::string& key)
    : env_(env),
      width_(width),
      site_(env.make_doall_site(width, key)) {}

void SelfschedLoop::run(int me0, std::int64_t start, std::int64_t last,
                        std::int64_t incr,
                        const std::function<void(std::int64_t)>& body,
                        std::int64_t chunk) {
  FORCE_CHECK(chunk >= 1, "chunk must be >= 1");
  run_episode(me0, start, last, incr, body, chunk);
}

void SelfschedLoop::run_guided(int me0, std::int64_t start, std::int64_t last,
                               std::int64_t incr,
                               const std::function<void(std::int64_t)>& body) {
  run_episode(me0, start, last, incr, body, kGuided);
}

machdep::DispatchClaim SelfschedLoop::claim(int me0, std::int64_t chunk,
                                             std::int64_t trips) {
  if (chunk == kGuided) {
    // Guided selfscheduling: claim a fraction of the remaining trips so
    // early claims are big (low dispatch overhead) and late claims small
    // (good load balance at the tail). On the lock-free engine this is a
    // CAS loop on the remaining trips of the member's home block.
    return site_->claim_fraction(me0, trips, 2 * width_);
  }
  return site_->claim(me0, chunk, trips);
}

void SelfschedLoop::run_episode(int me0, std::int64_t start, std::int64_t last,
                                std::int64_t incr,
                                const std::function<void(std::int64_t)>& body,
                                std::int64_t chunk) {
  FORCE_CHECK(me0 >= 0 && me0 < width_, "bad selfsched process id");
  const machdep::DoallBounds bounds =
      site_->enter(start, last, incr, loop_trip_count(start, last, incr));
  // Departure must be reported even if the body throws, or the loop could
  // never be re-entered by the remaining processes.
  struct Departure {
    machdep::DoallSite& site;
    ~Departure() { site.leave(); }
  } departure{*site_};
  // SPMD discipline: every process must reach this site with the same
  // bounds. A divergent call would silently corrupt the distribution on a
  // real Force; here it is detected - but the arrival is already counted,
  // and the caller still departs, or the compliant processes would be
  // wedged in the exit protocol forever.
  FORCE_CHECK(last == bounds.last && incr == bounds.incr,
              "selfsched DO reached with divergent loop bounds");
  // Stats are tallied per process and flushed once per episode: two shared
  // fetch-adds per *claim* would serialize the processes on the stats
  // cache lines and swamp the lock-free dispatch itself. Flushed from the
  // departure guard so a throwing body still reports its progress.
  struct EpisodeStats {
    RuntimeStats& stats;
    std::uint64_t dispatches = 0;
    std::uint64_t iterations = 0;
    ~EpisodeStats() {
      stats.doall_dispatches.fetch_add(dispatches, std::memory_order_relaxed);
      stats.doall_iterations.fetch_add(iterations, std::memory_order_relaxed);
    }
  } tally{env_.stats()};
  // Bounds are episode-stable (SPMD-checked above), so the hot loop works
  // from the call arguments; the trip count was fixed by the first arriver.
  const std::int64_t trips = bounds.trips;
  for (;;) {
    const machdep::DispatchClaim c = claim(me0, chunk, trips);
    ++tally.dispatches;
    if (c.count == 0) break;
    for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
      body(start + t * incr);
      ++tally.iterations;
    }
  }
}

Selfsched2Loop::Selfsched2Loop(ForceEnvironment& env, int width,
                               const std::string& key)
    : flat_(env, width, key) {}

void Selfsched2Loop::run(
    int me0, std::int64_t i_start, std::int64_t i_last, std::int64_t i_incr,
    std::int64_t j_start, std::int64_t j_last, std::int64_t j_incr,
    const std::function<void(std::int64_t, std::int64_t)>& body,
    std::int64_t chunk) {
  const std::int64_t i_trips = loop_trip_count(i_start, i_last, i_incr);
  const std::int64_t j_trips = loop_trip_count(j_start, j_last, j_incr);
  const std::int64_t total = i_trips * j_trips;
  // Dispatch over the flattened pair space; the body unflattens.
  flat_.run(
      me0, 0, total - 1, 1,
      [&](std::int64_t t) {
        const std::int64_t i_idx = t / j_trips;
        const std::int64_t j_idx = t % j_trips;
        body(i_start + i_idx * i_incr, j_start + j_idx * j_incr);
      },
      chunk);
}

}  // namespace force::core
