// E5 - Produce/Consume: HEP hardware full/empty vs two-lock software
// scheme (paper §4.1.3, §4.2).
//
// Claim: "with the exception of the HEP computer which provided a hardware
// full/empty state for every memory cell, all other machines require the
// use of two locks for implementation of the full/empty state."
//
// Reproduction: producer/consumer ping-pong and a pipeline chain on every
// machine model, reporting throughput, lock traffic and the simulated
// per-op cost. The hep model runs the tagged cell and native runs the same
// full/empty cell word by atomic RMW (no lock traffic on either); every
// other machine, and native under dispatch="locked" (the paper's
// expansion, measured in the same run), pays the E/F lock pair. Plus
// google-benchmark micro timings for one cell transfer in each scheme.
//
// --json PATH writes the ping-pong rows as BENCH_async.json; transfers/s
// is the median of kRepeats runs, since one ping-pong run swings widely
// with where the scheduler puts the two members.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"
#include "core/async.hpp"
#include "machdep/hepcell.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"

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

/// One ping-pong row: `ops` transfers from member 1 to member 2 per run.
struct PingPong {
  std::string machine;
  // "cell" (the full/empty cell word) or "locked" (the E/F pair); native
  // is measured both ways, the second under dispatch="locked".
  std::string engine;
  std::uint64_t transfers = 0;
  double acquires_per_op = 0;
  double transfers_per_sec = 0;  // median over kRepeats runs
  double sim_ns_per_op = 0;
};

constexpr int kRepeats = 5;

PingPong measure_ping_pong(const std::string& machine,
                           const std::string& dispatch, std::int64_t ops) {
  fc::ForceConfig cfg = config_for(machine);
  cfg.dispatch = dispatch;
  force::Force f(cfg);
  bool cell_word = false;
  force::util::SampleSet rates;
  const auto before = force::machdep::snapshot(f.env().machine().counters());
  for (int r = 0; r < kRepeats; ++r) {
    const double wall = force::bench::time_ns([&] {
      f.run([&](force::Ctx& ctx) {
        auto& cell = ctx.async_var<std::int64_t>(FORCE_SITE);
        if (ctx.me() == 1) {
          cell_word = cell.uses_hardware_path();
          for (std::int64_t i = 0; i < ops; ++i) cell.produce(i);
        } else if (ctx.me() == 2) {
          std::int64_t acc = 0;
          for (std::int64_t i = 0; i < ops; ++i) acc += cell.consume();
          benchmark::DoNotOptimize(acc);
        }
      });
    });
    rates.add(static_cast<double>(ops) / (wall * 1e-9));
  }
  const auto delta =
      force::machdep::snapshot(f.env().machine().counters()) - before;
  PingPong p;
  p.machine = machine;
  p.engine = cell_word ? "cell" : "locked";
  p.transfers = static_cast<std::uint64_t>(ops) * kRepeats;
  // Each transfer is one produce + one consume.
  p.acquires_per_op =
      static_cast<double>(delta.acquires) / static_cast<double>(p.transfers);
  p.transfers_per_sec = rates.median();
  p.sim_ns_per_op = f.env().machine().cost_model().produce_consume_time_ns(2);
  return p;
}

}  // namespace

BENCHMARK(BM_HepCellPingPong)->Unit(benchmark::kNanosecond);
BENCHMARK(BM_TwoLockPingPong)->Unit(benchmark::kNanosecond);

int main(int argc, char** argv) {
  // google-benchmark strips its own --benchmark_* flags first, so the
  // option parser below only sees this bench's options.
  ::benchmark::Initialize(&argc, argv);
  force::util::CliParser cli;
  cli.option("ops", "20000", "transfers per measurement")
      .option("stages", "4", "pipeline stages")
      .option("json", "BENCH_async.json",
              "ping-pong transfer record (empty disables)");
  if (!cli.parse(argc, argv)) return 0;
  const auto ops = cli.get_int("ops");
  const int stages = static_cast<int>(cli.get_int("stages"));

  force::bench::print_header(
      "E5  Produce/Consume",
      "One cell transfer: the HEP's tagged memory and native's atomic-RMW "
      "cell word need zero locks; every other machine pays two lock passes "
      "(E and F) per produce+consume pair.");

  std::vector<PingPong> rows;
  for (const auto& machine : force::bench::all_machines()) {
    rows.push_back(measure_ping_pong(machine, "auto", ops));
  }
  rows.push_back(measure_ping_pong("native", "locked", ops));
  force::util::Table table({"machine", "engine", "transfers/s",
                            "lock acquires/op", "sim ns/op"});
  for (const PingPong& p : rows) {
    table.add_row({p.machine, p.engine,
                   force::util::Table::num(p.transfers_per_sec),
                   force::util::Table::num(p.acquires_per_op),
                   ns_cell(p.sim_ns_per_op)});
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
      "\nE5 verdict: the hep row (hardware full/empty) and the native row "
      "(the full/empty cell word by atomic RMW) do 0 lock acquires per op; "
      "every other machine, and native under dispatch=locked, does 1 "
      "acquire per produce and per consume - the two-lock scheme, with cost "
      "set by its lock mechanism.\n\n");

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    namespace fb = force::bench;
    std::vector<std::vector<std::string>> json_rows;
    for (const PingPong& p : rows) {
      json_rows.push_back(
          {fb::json_field("machine", fb::json_str(p.machine)),
           fb::json_field("engine", fb::json_str(p.engine)),
           fb::json_field("transfers", fb::json_num(p.transfers)),
           fb::json_field("lock_acquires_per_op",
                          fb::json_num(p.acquires_per_op)),
           fb::json_field("transfers_per_sec",
                          fb::json_num(p.transfers_per_sec))});
    }
    std::vector<std::string> meta = fb::host_meta_fields();
    meta.push_back(fb::json_field("np", fb::json_num(std::uint64_t{2})));
    meta.push_back(
        fb::json_field("repeats", fb::json_num(std::uint64_t{kRepeats})));
    const std::string json =
        fb::render_bench_json("async_ping_pong", meta, json_rows);
    if (fb::write_text_file(json_path, json)) {
      std::printf("Recorded ping-pong transfers in %s\n\n",
                  json_path.c_str());
    } else {
      std::printf("WARNING: could not write %s\n\n", json_path.c_str());
    }
  }

  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
