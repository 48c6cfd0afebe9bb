// E5 - Produce/Consume: HEP hardware full/empty vs two-lock software
// scheme (paper §4.1.3, §4.2).
//
// Claim: "with the exception of the HEP computer which provided a hardware
// full/empty state for every memory cell, all other machines require the
// use of two locks for implementation of the full/empty state."
//
// Reproduction: producer/consumer ping-pong and a pipeline chain on the
// hep model (tagged cells) vs software-scheme machines (locks E and F),
// reporting throughput, lock traffic (zero on hep), and the simulated
// per-op cost on every machine. Plus google-benchmark micro timings for
// one cell transfer in each scheme.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/async.hpp"
#include "machdep/hepcell.hpp"
#include "util/cli.hpp"

namespace {

namespace fc = force::core;
using force::bench::ns_cell;

fc::ForceConfig config_for(const std::string& machine) {
  fc::ForceConfig cfg;
  cfg.nproc = 2;
  cfg.machine = machine;
  return cfg;
}

void BM_HepCellPingPong(benchmark::State& state) {
  force::machdep::HepCell cell;
  std::uint64_t v = 0;
  for (auto _ : state) {
    cell.produce(v);
    benchmark::DoNotOptimize(v = cell.consume());
  }
}

void BM_TwoLockPingPong(benchmark::State& state) {
  fc::ForceEnvironment env(config_for("encore"));
  fc::Async<std::uint64_t> cell(env);
  std::uint64_t v = 0;
  for (auto _ : state) {
    cell.produce(v);
    benchmark::DoNotOptimize(v = cell.consume());
  }
}

}  // namespace

BENCHMARK(BM_HepCellPingPong)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_TwoLockPingPong)->Unit(benchmark::kNanosecond);

int main(int argc, char** argv) {
  force::util::CliParser cli;
  cli.option("ops", "20000", "transfers per measurement")
      .option("stages", "4", "pipeline stages");
  if (!cli.parse(argc, argv)) return 0;
  const auto ops = cli.get_int("ops");
  const int stages = static_cast<int>(cli.get_int("stages"));

  force::bench::print_header(
      "E5  Produce/Consume",
      "One cell transfer: HEP tagged memory needs zero locks; every other "
      "machine pays two lock passes (E and F) per produce+consume pair.");

  force::util::Table table({"machine", "impl", "transfers/s", "lock "
                            "acquires/op", "sim ns/op"});
  for (const auto& machine : force::bench::all_machines()) {
    force::Force f(config_for(machine));
    auto& done = f.shared<std::int64_t>("done");
    const auto before =
        force::machdep::snapshot(f.env().machine().counters());
    const double wall = force::bench::time_ns([&] {
      f.run([&](force::Ctx& ctx) {
        auto& cell = ctx.async_var<std::int64_t>(FORCE_SITE);
        if (ctx.me() == 1) {
          for (std::int64_t i = 0; i < ops; ++i) cell.produce(i);
        } else if (ctx.me() == 2) {
          std::int64_t acc = 0;
          for (std::int64_t i = 0; i < ops; ++i) acc += cell.consume();
          ctx.critical(FORCE_SITE, [&] { done = acc; });
        }
      });
    });
    (void)done;
    const auto delta =
        force::machdep::snapshot(f.env().machine().counters()) - before;
    // Each transfer is one produce + one consume.
    force::machdep::LockCountersSnapshot per;
    per.acquires = delta.acquires / static_cast<std::uint64_t>(ops);
    per.releases = delta.releases / static_cast<std::uint64_t>(ops);
    const auto& spec = f.env().machine().spec();
    const auto model = f.env().machine().cost_model();
    table.add_row(
        {machine, spec.hardware_full_empty ? "tagged-cell" : "two-lock",
         force::util::Table::num(ops / (wall * 1e-9)),
         force::util::Table::num(static_cast<std::int64_t>(per.acquires)),
         ns_cell(model.produce_consume_time_ns(2))});
  }
  std::fputs(table.render().c_str(), stdout);

  // Pipeline: data flows through `stages` cells; the force supplies one
  // process per stage plus a source.
  std::printf("\nPipeline of %d stages, %lld items:\n\n", stages,
              static_cast<long long>(ops / 10));
  force::util::Table pipe({"machine", "items/s", "produces"});
  for (const std::string machine : {"hep", "encore", "cray2", "native"}) {
    fc::ForceConfig cfg;
    cfg.nproc = stages + 1;
    cfg.machine = machine;
    force::Force f(cfg);
    const std::int64_t items = ops / 10;
    const double wall = force::bench::time_ns([&] {
      f.run([&](force::Ctx& ctx) {
        auto& cells = ctx.async_array<std::int64_t>(
            FORCE_SITE, static_cast<std::size_t>(stages));
        const int me0 = ctx.me0();
        if (me0 == 0) {  // source
          for (std::int64_t i = 1; i <= items; ++i) cells[0].produce(i);
          cells[0].produce(-1);
        } else {  // stage me0-1: consume from cell me0-1, pass to me0
          const auto in = static_cast<std::size_t>(me0 - 1);
          for (;;) {
            const std::int64_t v = cells[in].consume();
            if (me0 < stages) {
              cells[in + 1].produce(v);
            }
            if (v < 0) break;
          }
        }
      });
    });
    pipe.add_row({machine, force::util::Table::num(items / (wall * 1e-9)),
                  force::util::Table::num(static_cast<std::int64_t>(
                      f.env().stats().produces.load()))});
  }
  std::fputs(pipe.render().c_str(), stdout);
  std::printf(
      "\nE5 verdict: the hep row does 0 lock acquires per op (hardware "
      "full/empty); every other machine does 1 acquire per produce and per "
      "consume - the two-lock scheme, with cost set by its lock "
      "mechanism.\n\n");

  ::benchmark::Initialize(&argc, argv);
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
