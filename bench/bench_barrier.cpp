// E2 - Barrier algorithm comparison (paper §4.2 Barrier, citing [AJ87]
// "Comparing Barrier Algorithms").
//
// Claim: the Force's barrier is built from generic locks plus the parallel
// environment's counters; [AJ87] compares such lock barriers with
// counter/sense and log-depth algorithms.
//
// Reproduction: wall time per episode for each algorithm over a force-size
// sweep, plus the lock traffic of the lock-only barrier and its simulated
// cost per machine. Shapes to observe: the lock barrier's traffic grows
// linearly with NP and is serialized; tree/dissemination costs grow
// logarithmically (visible in their signal counts).
#include <bit>

#include "bench_common.hpp"
#include "core/barrier.hpp"
#include "core/force.hpp"
#include "util/cli.hpp"

namespace {

using force::bench::ns_cell;
namespace fc = force::core;

double episodes_per_second(fc::BarrierAlgorithm& barrier, int np,
                           int episodes) {
  const double wall = force::bench::time_ns([&] {
    force::bench::on_team(np, [&](int me) {
      for (int e = 0; e < episodes; ++e) barrier.arrive(me);
    });
  });
  return episodes / (wall * 1e-9);
}

}  // namespace

int main(int argc, char** argv) {
  force::util::CliParser cli;
  cli.option("nprocs", "1,2,4,8", "force sizes")
      .option("episodes", "2000", "barrier episodes per measurement");
  if (!cli.parse(argc, argv)) return 0;
  const auto nprocs = force::util::parse_int_list(cli.get("nprocs"));
  const auto episodes = static_cast<int>(cli.get_int("episodes"));

  force::bench::print_header(
      "E2  Barrier algorithms",
      "Wall time per episode per algorithm (host measurement; NP threads "
      "timeshare the container CPU), plus deterministic lock-op counts.");

  force::util::Table wall_table(
      {"algorithm", "np", "episodes/s", "ns/episode"});
  for (const auto& algorithm : fc::barrier_algorithm_names()) {
    for (int np : nprocs) {
      fc::ForceConfig cfg;
      cfg.nproc = np;
      fc::ForceEnvironment env(cfg);
      auto barrier = fc::make_barrier_algorithm(algorithm, env, np);
      const double eps = episodes_per_second(*barrier, np, episodes);
      wall_table.add_row({algorithm,
                          force::util::Table::num(static_cast<std::int64_t>(np)),
                          force::util::Table::num(eps),
                          force::util::Table::num(1e9 / eps)});
    }
  }
  std::fputs(wall_table.render().c_str(), stdout);

  // Deterministic part: lock operations per episode of the lock-only
  // barrier, and the simulated cost on each machine. Acquires per episode
  // are exactly 4 + 2 per process (entry mutex + turnstiles), growing
  // linearly with NP - the O(P) serialization [AJ87] charges to
  // lock/counter barriers.
  std::printf("\nLock-only (paper) barrier, deterministic traffic:\n\n");
  force::util::Table lock_table({"np", "acquires/episode", "sim ns/episode "
                                 "(hep)", "(encore)", "(cray2)"});
  for (int np : nprocs) {
    fc::ForceConfig cfg;
    cfg.nproc = np;
    cfg.machine = "native";
    fc::ForceEnvironment env(cfg);
    fc::PaperLockBarrier barrier(env, np);
    const auto before = force::machdep::snapshot(env.machine().counters());
    constexpr int kEpisodes = 64;
    force::bench::on_team(np, [&](int me) {
      for (int e = 0; e < kEpisodes; ++e) barrier.arrive(me);
    });
    auto delta =
        force::machdep::snapshot(env.machine().counters()) - before;
    // Normalize to one episode; spin counts are scheduling noise, so the
    // simulated time uses only the deterministic acquire/release traffic.
    force::machdep::LockCountersSnapshot per;
    per.acquires = delta.acquires / kEpisodes;
    per.releases = delta.releases / kEpisodes;
    auto sim = [&](const char* machine) {
      return force::machdep::CostModel(
                 force::machdep::machine_spec(machine).costs)
          .lock_time_ns(per);
    };
    lock_table.add_row(
        {force::util::Table::num(static_cast<std::int64_t>(np)),
         force::util::Table::num(static_cast<std::int64_t>(per.acquires)),
         ns_cell(sim("hep")), ns_cell(sim("encore")), ns_cell(sim("cray2"))});
  }
  std::fputs(lock_table.render().c_str(), stdout);

  // Log-depth algorithms: signals per episode (exact, analytic check).
  std::printf("\nSignal counts per episode (deterministic):\n\n");
  force::util::Table sig({"np", "paper-lock acquires", "tree waits",
                          "dissemination signals"});
  for (int np : nprocs) {
    const int rounds =
        np > 1 ? std::bit_width(static_cast<unsigned>(np - 1)) : 0;
    sig.add_row({force::util::Table::num(static_cast<std::int64_t>(np)),
                 force::util::Table::num(
                     static_cast<std::int64_t>(4 + 2 * np)),
                 force::util::Table::num(static_cast<std::int64_t>(
                     np > 1 ? np - 1 : 0)),  // tree: one wait per child edge
                 force::util::Table::num(
                     static_cast<std::int64_t>(np * rounds))});
  }
  std::fputs(sig.render().c_str(), stdout);

  // E2b ablation: the Force's hand-written reduction idiom (critical-section
  // accumulate + barrier-section publish) vs ctx.reduce, which carries the
  // partials as a payload of one barrier episode and folds them in member
  // order inside the section.
  std::printf("\nE2b  Reduction ablation (allreduce of one int64, %d "
              "episodes, central-sense barrier):\n\n",
              episodes / 4);
  force::util::Table red({"reduction", "np", "lock acquires/episode",
                          "ns/episode"});
  for (int np : nprocs) {
    for (const bool idiom : {true, false}) {
      fc::ForceConfig cfg;
      cfg.nproc = np;
      cfg.barrier_algorithm = "central-sense";  // isolate the idiom's locks
      force::Force f(cfg);
      f.run([](force::Ctx&) {});  // create construct state lazily below
      const int eps = episodes / 4;
      std::int64_t acc = 0;
      std::int64_t result = 0;
      const auto before =
          force::machdep::snapshot(f.env().machine().counters());
      const double wall = force::bench::time_ns([&] {
        f.run([&](force::Ctx& ctx) {
          for (int e = 0; e < eps; ++e) {
            if (idiom) {
              ctx.critical(FORCE_SITE, [&] { acc += ctx.me(); });
              ctx.barrier([&] {
                result = acc;
                acc = 0;
              });
            } else {
              (void)ctx.reduce<std::int64_t>(
                  FORCE_SITE, ctx.me(),
                  [](std::int64_t a, std::int64_t b) { return a + b; });
            }
          }
        });
      });
      const auto delta =
          force::machdep::snapshot(f.env().machine().counters()) - before;
      red.add_row(
          {idiom ? "critical+barrier idiom" : "ctx.reduce",
           force::util::Table::num(static_cast<std::int64_t>(np)),
           force::util::Table::num(static_cast<double>(delta.acquires) /
                                   eps),
           force::util::Table::num(wall / eps)});
    }
  }
  std::fputs(red.render().c_str(), stdout);

  std::printf(
      "\nE2 verdict: lock barrier cost grows linearly with NP (serialized "
      "lock passes); dissemination does NP*ceil(log2 NP) parallel signals - "
      "the [AJ87] shape. E2b: the hand-written critical+barrier reduction "
      "pays NP serialized lock passes per episode, ctx.reduce zero.\n");
  return 0;
}
