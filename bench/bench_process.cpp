// E7 - Process creation cost (paper §4.1.1).
//
// Claim: "the standard UNIX fork/join process control model ... has a
// large process creation and context switching cost. This prevents fine
// grained parallelism, unless the parallelism is enclosed inside the
// program structure"; the HEP creates processes with a subroutine call,
// and the Alliant copies only the stack.
//
// Reproduction:
//   * measured: bytes actually copied at spawn per model as the private
//     segment grows (the real fork-cost driver), plus host wall time;
//   * simulated: per-machine creation cost, and the work-grain crossover:
//     how much computation a force must do before creating it pays off -
//     tiny on the HEP, enormous on the fork machines.
//   * measured: the cluster transport's round trip, the layer under every
//     cluster construct: ns per empty construct RPC (a plain barrier) at
//     np=1 and np=3, with the spin window the team-fit rule gave the team.
//   * measured: ns per empty cluster force (fork, connect, exit and reap
//     every member) at np=3 and np=8, with the parent's maxrss: fork and
//     exit both cost more the more pages the parent holds resident.
#include <algorithm>
#include <cstdlib>

#include <sys/resource.h>

#include "bench_common.hpp"
#include "machdep/process.hpp"
#include "machdep/wait.hpp"
#include "util/cli.hpp"

namespace {
using force::bench::ns_cell;
namespace md = force::machdep;
}  // namespace

int main(int argc, char** argv) {
  force::util::CliParser cli;
  cli.option("np", "8", "force size");
  cli.option("json", "BENCH_process.json",
             "write spawn-cost records here ('' to skip)");
  cli.option("invocations", "30",
             "repeated force entries per team-lifetime mode");
  cli.option("spawn-json", "BENCH_spawn.json",
             "write repeated-entry records here ('' to skip); gate the "
             "record against the committed baseline with "
             "tools/bench_gate.py");
  if (!cli.parse(argc, argv)) return 0;
  const int np = static_cast<int>(cli.get_int("np"));

  force::bench::print_header(
      "E7  Process creation",
      "Creation cost per model: what spawn must copy, and the simulated "
      "cost per machine; then the grain a program needs before a fork "
      "pays off.");

  // --- Cluster force entry ---------------------------------------------
  //
  // One empty force of a cluster team with the default arena and private
  // space: spawn, connect, join and reap every member. Each cell is the
  // median of kEntryForces forces after a warm-up one. Measured first, so
  // the parent's maxrss is this section's own and not the spawn sections'
  // below. Recorded, not gated.
  constexpr int kEntryForces = 41;
  struct ClusterEntryRecord {
    int np;
    double ns_per_force;
    long parent_maxrss_kib;
  };
  std::vector<ClusterEntryRecord> cluster_entries;
  for (const int team : {3, 8}) {
    force::ForceConfig cfg;
    cfg.nproc = team;
    cfg.process_model = "cluster";
    force::Force f(cfg);
    const auto empty = [](force::Ctx&) {};
    f.run(empty);  // warm: startup linkage and the private-space copies
    std::vector<double> runs;
    for (int i = 0; i < kEntryForces; ++i) {
      runs.push_back(force::bench::time_ns([&] { f.run(empty); }));
    }
    std::sort(runs.begin(), runs.end());
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    cluster_entries.push_back({team, runs[runs.size() / 2], usage.ru_maxrss});
  }
  std::printf("Empty cluster force (median of %d):\n\n", kEntryForces);
  force::util::Table entry_tab({"np", "ns/force", "parent maxrss KiB"});
  for (const auto& e : cluster_entries) {
    entry_tab.add_row(
        {force::util::Table::num(static_cast<std::int64_t>(e.np)),
         ns_cell(e.ns_per_force),
         force::util::Table::num(
             static_cast<std::int64_t>(e.parent_maxrss_kib))});
  }
  std::fputs(entry_tab.render().c_str(), stdout);
  std::printf("\n");

  // The thread-emulated models plus the real things: os-fork spawns actual
  // fork(2) children, so its wall time is the genuine UNIX process-control
  // cost the paper complains about, measured on this host; cluster adds a
  // socket connection per member on top of the fork (bare spawn, no DSM
  // arena installed - the transport handshake is what is being priced).
  struct SpawnRecord {
    const char* model;
    std::size_t kib;
    std::uint64_t bytes_copied;
    double wall_ns;
  };
  std::vector<SpawnRecord> records;

  std::printf("Measured spawn behaviour (np=%d):\n\n", np);
  force::util::Table meas({"model", "private KiB/proc", "bytes copied",
                           "wall create+join"});
  // One create+join of an np team with `kib` KiB of private space.
  const auto spawn = [np](md::ProcessModelKind kind, std::size_t kib) {
    md::PrivateSpace space(kib * 1024 / 2, kib * 1024 / 2);
    md::ProcessTeam team(kind);
    return team.run(np, &space, [](int) {});
  };
  const auto wall_of = [](const md::SpawnStats& stats) {
    return static_cast<double>(stats.create_ns + stats.join_ns);
  };
  // Untimed: the first spawn of the process pays one-time start-up costs
  // (first thread creation, first touch of the allocator's arenas) that
  // would otherwise land on the first timed row, hep-create at 64 KiB.
  (void)spawn(md::ProcessModelKind::kHepCreate, 64);
  for (auto kind : {md::ProcessModelKind::kHepCreate,
                    md::ProcessModelKind::kForkSharedData,
                    md::ProcessModelKind::kForkJoinCopy,
                    md::ProcessModelKind::kOsFork,
                    md::ProcessModelKind::kCluster}) {
    for (std::size_t kib : {64, 1024}) {
      const auto stats = spawn(kind, kib);
      const double wall = wall_of(stats);
      records.push_back({md::process_model_name(kind), kib,
                         static_cast<std::uint64_t>(stats.bytes_copied),
                         wall});
      meas.add_row(
          {md::process_model_name(kind),
           force::util::Table::num(static_cast<std::int64_t>(kib)),
           force::util::Table::num(
               static_cast<std::int64_t>(stats.bytes_copied)),
           ns_cell(wall)});
    }
  }
  std::fputs(meas.render().c_str(), stdout);

  // Thread-emulated vs real fork: how much more a genuine process team
  // costs to stand up than the HEP's "subroutine call" creation.
  double hep_wall = 0.0;
  double osfork_wall = 0.0;
  for (const auto& r : records) {
    if (r.kib != 64) continue;
    if (std::string(r.model) == "hep-create") hep_wall = r.wall_ns;
    if (std::string(r.model) == "os-fork") osfork_wall = r.wall_ns;
  }
  if (hep_wall > 0.0 && osfork_wall > 0.0) {
    std::printf(
        "\nReal fork(2) spawn is %.1fx the thread-emulated hep-create "
        "spawn at 64 KiB private space.\n",
        osfork_wall / hep_wall);
  }
  // A single spawn of either kind swings by half or more from run to run,
  // so the cluster/os-fork ratio is the median of interleaved pairs.
  constexpr int kSpawnPairs = 9;
  std::vector<double> pair_ratios;
  for (int i = 0; i < kSpawnPairs; ++i) {
    const double fork_ns = wall_of(spawn(md::ProcessModelKind::kOsFork, 64));
    const double cluster_ns =
        wall_of(spawn(md::ProcessModelKind::kCluster, 64));
    if (fork_ns > 0.0) pair_ratios.push_back(cluster_ns / fork_ns);
  }
  double cluster_spawn_ratio = 0.0;
  if (!pair_ratios.empty()) {
    const auto mid = pair_ratios.begin() +
                     static_cast<std::ptrdiff_t>(pair_ratios.size() / 2);
    std::nth_element(pair_ratios.begin(), mid, pair_ratios.end());
    cluster_spawn_ratio = *mid;
    std::printf(
        "Cluster spawn (fork + one socket handshake per member) is %.1fx "
        "the plain os-fork spawn at 64 KiB private space (median of %d "
        "interleaved pairs).\n",
        cluster_spawn_ratio, kSpawnPairs);
  }

  std::printf("\nSimulated creation cost (np=%d, 1 MiB private/proc):\n\n",
              np);
  force::util::Table sim({"machine", "model", "sim creation", "equivalent "
                          "flops @1ns"});
  for (const auto& machine : force::bench::all_machines()) {
    const auto& spec = md::machine_spec(machine);
    // Bytes copied under the machine's model:
    const std::size_t per_proc = 1u << 20;
    std::size_t copied = 0;
    switch (spec.process_model) {
      case md::ProcessModelKind::kForkJoinCopy:
        copied = static_cast<std::size_t>(np) * per_proc;
        break;
      case md::ProcessModelKind::kForkSharedData:
        copied = static_cast<std::size_t>(np) * per_proc / 4;  // stack only
        break;
      case md::ProcessModelKind::kHepCreate:
        copied = 0;
        break;
      case md::ProcessModelKind::kOsFork:
      case md::ProcessModelKind::kCluster:
        copied = 0;  // copy-on-write: nothing is copied eagerly at spawn
        break;
    }
    const auto model = md::CostModel(spec.costs);
    const double create = model.creation_time_ns(np, copied);
    sim.add_row({machine, md::process_model_name(spec.process_model),
                 ns_cell(create), force::util::Table::num(create)});
  }
  std::fputs(sim.render().c_str(), stdout);

  // Grain crossover: creating the force pays off once parallel work saved
  // exceeds the creation cost. work(np) = W/np + create(np); serial = W.
  // Crossover W* where parallel beats serial: W*(1 - 1/np) = create.
  std::printf(
      "\nWork needed before creating a force of %d beats serial "
      "execution:\n\n",
      np);
  force::util::Table grain({"machine", "sim create", "break-even work",
                            "at 1us/iter that is"});
  for (const auto& machine : force::bench::all_machines()) {
    const auto& spec = md::machine_spec(machine);
    std::size_t copied = spec.process_model == md::ProcessModelKind::kForkJoinCopy
                             ? static_cast<std::size_t>(np) << 20
                         : spec.process_model ==
                                 md::ProcessModelKind::kForkSharedData
                             ? static_cast<std::size_t>(np) << 18
                             : 0;
    const auto model = md::CostModel(spec.costs);
    const double create = model.creation_time_ns(np, copied);
    const double breakeven = create / (1.0 - 1.0 / np);
    // Convert simulated ns back to nominal iterations of 1us work.
    const double iters = breakeven / model.work_time_ns(1000.0);
    grain.add_row({machine, ns_cell(create), ns_cell(breakeven),
                   force::util::Table::num(iters) + " iters"});
  }
  std::fputs(grain.render().c_str(), stdout);
  std::printf(
      "\nE7 verdict: the fork machines need orders of magnitude more work "
      "to amortize creation than the HEP - why the Force encloses the "
      "whole program in one force instead of forking per parallel "
      "region.\n");

  // --- Repeated force entry: the team-lifetime axis --------------------
  //
  // A Force program normally pays the spawn tax once (one force around
  // the whole program), but driver-per-step embeddings re-enter the force
  // repeatedly. ForceConfig::team_pool keeps the team resident between
  // entries; this section measures the per-entry cost of each mode. Every
  // entry runs one global barrier so all members demonstrably
  // participate.
  const int invocations =
      std::max(1, static_cast<int>(cli.get_int("invocations")));
  const auto trivial = [](force::Ctx& ctx) { ctx.barrier(); };
  const auto entry_ns = [&](force::ForceConfig cfg) {
    cfg.nproc = np;
    // 64 KiB private space per process: the paper's fork-cost driver.
    cfg.private_data_bytes = 32u << 10;
    cfg.private_stack_bytes = 32u << 10;
    force::Force f(cfg);
    f.run(trivial);  // warm: startup linkage + (pooled) the one spawn
    return force::bench::time_ns([&] {
             for (int i = 0; i < invocations; ++i) f.run(trivial);
           }) /
           invocations;
  };

  struct EntryRecord {
    std::string model;
    std::string mode;
    double ns_per_invocation;
  };
  std::vector<EntryRecord> entries;
  const auto measure_entry = [&](const char* model, const char* mode,
                                 force::ForceConfig cfg) {
    entries.push_back({model, mode, entry_ns(std::move(cfg))});
  };

  std::printf("\nRepeated force entry (np=%d, %d invocations, 64 KiB "
              "private space):\n\n",
              np, invocations);
  {
    force::ForceConfig cfg;
    measure_entry("thread", "respawn", cfg);
    cfg.team_pool = true;
    measure_entry("thread", "pooled", cfg);
    cfg.pool_workers = std::max(1, np / 2);  // N:M, NP = 2W
    measure_entry("thread-nm", "pooled", cfg);
  }
  {
    force::ForceConfig cfg;
    cfg.process_model = "os-fork";
    measure_entry("os-fork", "respawn", cfg);
    cfg.team_pool = true;
    measure_entry("os-fork", "pooled", cfg);
  }
  {
    // No pooled mode: the cluster backend rejects team_pool (each entry
    // forks a fresh socket-connected team), so this row prices exactly
    // the per-entry tax a driver-per-step embedding would pay.
    force::ForceConfig cfg;
    cfg.process_model = "cluster";
    measure_entry("cluster", "respawn", cfg);
  }

  force::util::Table pool_tab({"model", "team lifetime", "ns/invocation"});
  const auto entry_of = [&](const std::string& model,
                            const std::string& mode) {
    for (const auto& e : entries) {
      if (e.model == model && e.mode == mode) return e.ns_per_invocation;
    }
    return 0.0;
  };
  for (const auto& e : entries) {
    pool_tab.add_row({e.model, e.mode, ns_cell(e.ns_per_invocation)});
  }
  std::fputs(pool_tab.render().c_str(), stdout);

  const double thread_speedup =
      entry_of("thread", "respawn") / entry_of("thread", "pooled");
  const double thread_nm_speedup =
      entry_of("thread", "respawn") / entry_of("thread-nm", "pooled");
  const double os_fork_speedup =
      entry_of("os-fork", "respawn") / entry_of("os-fork", "pooled");
  const double cluster_entry_ratio =
      entry_of("cluster", "respawn") / entry_of("os-fork", "respawn");
  std::printf(
      "\nPooled re-entry speedup over cold spawn: thread %.1fx, "
      "thread N:M %.1fx, os-fork %.1fx; cluster re-entry costs %.1fx "
      "the os-fork respawn.\n",
      thread_speedup, thread_nm_speedup, os_fork_speedup,
      cluster_entry_ratio);

  // The pooled re-entry regression gate lives in tools/bench_gate.py
  // (the one gate mechanism for every BENCH_*.json): the *_pooled_speedup
  // ratios recorded here are host-relative - pooled and respawn are
  // measured back to back on the same host - so the gate's 1.5x floor is
  // immune to absolute CI-host noise.
  const std::string spawn_json_path = cli.get("spawn-json");
  if (!spawn_json_path.empty()) {
    namespace fb = force::bench;
    std::vector<std::string> meta = {
        fb::json_field("np", fb::json_num(std::uint64_t(np))),
        fb::json_field("invocations", fb::json_num(std::uint64_t(invocations)))};
    for (auto& h : fb::host_meta_fields()) meta.push_back(std::move(h));
    meta.push_back(fb::json_field("thread_pooled_speedup",
                                  fb::json_num(thread_speedup)));
    meta.push_back(fb::json_field("thread_nm_pooled_speedup",
                                  fb::json_num(thread_nm_speedup)));
    meta.push_back(fb::json_field("os_fork_pooled_speedup",
                                  fb::json_num(os_fork_speedup)));
    meta.push_back(fb::json_field("cluster_entry_over_os_fork",
                                  fb::json_num(cluster_entry_ratio)));
    std::vector<std::vector<std::string>> rows;
    for (const auto& e : entries) {
      rows.push_back(
          {fb::json_field("model", fb::json_str(e.model)),
           fb::json_field("mode", fb::json_str(e.mode)),
           fb::json_field("np", fb::json_num(std::uint64_t(np))),
           fb::json_field("ns_per_invocation",
                          fb::json_num(e.ns_per_invocation))});
    }
    const std::string json = fb::render_bench_json("force_entry", meta, rows);
    if (fb::write_text_file(spawn_json_path, json)) {
      std::printf("Wrote %s\n", spawn_json_path.c_str());
    }
  }

  // --- Cluster transport round trip ------------------------------------
  //
  // One empty construct RPC: a plain barrier of a cluster team, timed in
  // member 1 over kRpcs barriers after a warm-up, so neither spawn nor
  // join is in it. At np=1 a barrier is one request and its reply; at
  // np=3 the reply also waits for the last of three arrivals. Each cell is
  // the median of kRpcRuns forces. Recorded, not gated.
  constexpr int kRpcWarmup = 200;
  constexpr int kRpcs = 2000;
  constexpr int kRpcRuns = 5;
  struct RpcRecord {
    int np;
    std::int64_t window_ns;
    double ns_per_rpc;
  };
  std::vector<RpcRecord> rpcs;
  const auto rpc_ns = [](int team) {
    force::ForceConfig cfg;
    cfg.nproc = team;
    cfg.process_model = "cluster";
    force::Force f(cfg);
    auto& per_rpc = f.shared<double>("per_rpc");
    per_rpc = 0.0;
    f.run([&per_rpc](force::Ctx& ctx) {
      for (int i = 0; i < kRpcWarmup; ++i) ctx.barrier();
      const std::int64_t t0 = force::util::now_ns();
      for (int i = 0; i < kRpcs; ++i) ctx.barrier();
      if (ctx.me() == 1) {
        per_rpc = static_cast<double>(force::util::now_ns() - t0) / kRpcs;
      }
      ctx.barrier();  // ships member 1's figure back
    });
    return per_rpc;
  };
  for (const int team : {1, 3}) {
    std::vector<double> runs;
    for (int i = 0; i < kRpcRuns; ++i) runs.push_back(rpc_ns(team));
    std::sort(runs.begin(), runs.end());
    rpcs.push_back({team, md::Waiter::team_window_ns(team + 1),
                    runs[runs.size() / 2]});
  }
  std::printf("\nCluster transport round trip (a plain barrier, median of "
              "%d runs of %d):\n\n",
              kRpcRuns, kRpcs);
  force::util::Table rpc_tab({"np", "spin window", "ns/RPC"});
  for (const auto& r : rpcs) {
    rpc_tab.add_row({force::util::Table::num(static_cast<std::int64_t>(r.np)),
                     ns_cell(static_cast<double>(r.window_ns)),
                     ns_cell(r.ns_per_rpc)});
  }
  std::fputs(rpc_tab.render().c_str(), stdout);

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    namespace fb = force::bench;
    std::vector<std::string> meta = {
        fb::json_field("np", fb::json_num(std::uint64_t(np)))};
    if (hep_wall > 0.0 && osfork_wall > 0.0) {
      meta.push_back(fb::json_field("os_fork_over_hep_create",
                                    fb::json_num(osfork_wall / hep_wall)));
    }
    if (cluster_spawn_ratio > 0.0) {
      // Host-relative (both sides measured in interleaved pairs on this
      // runner): gate with tools/bench_gate.py --metric
      // cluster_spawn_over_os_fork:lower so a transport-setup regression
      // goes red without absolute CI-host noise tripping it.
      meta.push_back(fb::json_field("cluster_spawn_over_os_fork",
                                    fb::json_num(cluster_spawn_ratio)));
    }
    std::vector<std::vector<std::string>> rows;
    for (const auto& r : records) {
      rows.push_back(
          {fb::json_field("model", fb::json_str(r.model)),
           fb::json_field("private_kib", fb::json_num(std::uint64_t(r.kib))),
           fb::json_field("bytes_copied", fb::json_num(r.bytes_copied)),
           fb::json_field("wall_ns", fb::json_num(r.wall_ns))});
    }
    for (const auto& r : rpcs) {
      rows.push_back(
          {fb::json_field("model", fb::json_str("cluster-rpc")),
           fb::json_field("construct", fb::json_str("barrier")),
           fb::json_field("np", fb::json_num(std::uint64_t(r.np))),
           fb::json_field("window_ns",
                          fb::json_num(std::uint64_t(r.window_ns))),
           fb::json_field("ns_per_rpc", fb::json_num(r.ns_per_rpc))});
    }
    for (const auto& e : cluster_entries) {
      rows.push_back(
          {fb::json_field("model", fb::json_str("cluster-entry")),
           fb::json_field("np", fb::json_num(std::uint64_t(e.np))),
           fb::json_field("ns_per_force", fb::json_num(e.ns_per_force)),
           fb::json_field("parent_maxrss_kib",
                          fb::json_num(std::uint64_t(e.parent_maxrss_kib)))});
    }
    const std::string json = fb::render_bench_json("process_spawn", meta, rows);
    if (fb::write_text_file(json_path, json)) {
      std::printf("\nWrote %s\n", json_path.c_str());
    }
  }
  return 0;
}
