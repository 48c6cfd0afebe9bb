// E8 - Askfor vs DOALL on irregular work (paper §3.3).
//
// Claim: "the most general concept ... provides a means of work
// distribution in cases where the degree of concurrency is not known at
// compile time" - DOALL needs the iteration space up front; Askfor lets
// running tasks create new ones.
//
// Reproduction: an irregular binary task tree (depth chosen per node by a
// seeded RNG). Askfor executes it directly. The DOALL emulation must
// first materialize the whole frontier level by level (one selfsched loop
// + barrier per level) - the extra machinery the paper's remark predicts.
// Reported: tasks executed, dispatch operations, barrier episodes, work
// imbalance and wall time.
#include <atomic>
#include <mutex>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using force::bench::ns_cell;

struct Task {
  std::uint64_t id;
  int depth;
};

/// Deterministic irregular fan-out: how many children a task spawns.
int children_of(std::uint64_t id, int depth, int max_depth) {
  if (depth >= max_depth) return 0;
  force::util::SplitMix64 h(id * 2654435761u + static_cast<unsigned>(depth));
  const auto r = h.next() % 100;
  if (r < 35) return 0;  // leaf early: irregularity
  if (r < 85) return 2;
  return 3;
}

struct Outcome {
  std::uint64_t tasks = 0;
  double wall_ns = 0;
  std::uint64_t dispatches = 0;
  std::uint64_t barriers = 0;
  double imbalance = 0;
};

Outcome run_askfor(int np, int max_depth) {
  force::Force f({.nproc = np});
  std::atomic<std::uint64_t> executed{0};
  std::vector<double> per_proc(static_cast<std::size_t>(np), 0.0);
  Outcome out;
  out.wall_ns = force::bench::time_ns([&] {
    f.run([&](force::Ctx& ctx) {
      auto& monitor = ctx.askfor<Task>(FORCE_SITE);
      if (ctx.leader()) monitor.put({1, 0});
      ctx.barrier();
      monitor.work([&](Task& t, force::core::Askfor<Task>& self) {
        executed.fetch_add(1, std::memory_order_relaxed);
        per_proc[static_cast<std::size_t>(ctx.me0())] += 1.0;
        const int kids = children_of(t.id, t.depth, max_depth);
        for (int c = 0; c < kids; ++c) {
          self.put({t.id * 4 + static_cast<std::uint64_t>(c), t.depth + 1});
        }
      });
    });
  });
  out.tasks = executed.load();
  out.dispatches = f.env().stats().askfor_grants.load();
  out.barriers = f.env().stats().barrier_episodes.load();
  out.imbalance = force::util::load_imbalance(per_proc);
  return out;
}

Outcome run_doall_emulation(int np, int max_depth) {
  // Level-synchronous emulation: DOALL over the current frontier, collect
  // children into the next frontier under a critical section, barrier,
  // repeat. This is what a language without run-time work creation must do.
  force::Force f({.nproc = np});
  std::atomic<std::uint64_t> executed{0};
  std::vector<double> per_proc(static_cast<std::size_t>(np), 0.0);
  auto& frontier = f.shared<std::vector<Task>*>("frontier");
  auto& next = f.shared<std::vector<Task>*>("next");
  std::vector<Task> buf_a{{1, 0}};
  std::vector<Task> buf_b;
  frontier = &buf_a;
  next = &buf_b;
  std::mutex next_mutex;
  Outcome out;
  out.wall_ns = force::bench::time_ns([&] {
    f.run([&](force::Ctx& ctx) {
      while (!frontier->empty()) {
        ctx.selfsched_do(
            FORCE_SITE, 0,
            static_cast<std::int64_t>(frontier->size()) - 1, 1,
            [&](std::int64_t i) {
              const Task t = (*frontier)[static_cast<std::size_t>(i)];
              executed.fetch_add(1, std::memory_order_relaxed);
              per_proc[static_cast<std::size_t>(ctx.me0())] += 1.0;
              const int kids = children_of(t.id, t.depth, max_depth);
              std::lock_guard<std::mutex> g(next_mutex);
              for (int c = 0; c < kids; ++c) {
                next->push_back({t.id * 4 + static_cast<std::uint64_t>(c),
                                 t.depth + 1});
              }
            });
        ctx.barrier([&] {
          std::swap(frontier, next);
          next->clear();
        });
      }
    });
  });
  out.tasks = executed.load();
  out.dispatches = f.env().stats().doall_dispatches.load();
  out.barriers = f.env().stats().barrier_episodes.load();
  out.imbalance = force::util::load_imbalance(per_proc);
  return out;
}

/// One grant-throughput measurement: a regular binary task tree with an
/// empty body, expanded by work-stealing workers, so wall time is pure
/// monitor traffic. `dispatch_mode` is the ForceConfig knob ("auto" or
/// "locked").
struct GrantThroughput {
  std::string machine;
  std::string engine;  // "atomic" (work stealing) or "locked" (monitor)
  std::uint64_t grants = 0;
  std::uint64_t expected = 0;  // np complete binary trees of `depth` levels
  double wall_ns = 0;
  double per_sec = 0;
};

GrantThroughput measure_grants(const std::string& machine,
                               const std::string& dispatch_mode, int np,
                               int depth) {
  force::core::ForceConfig cfg;
  cfg.nproc = np;
  cfg.machine = machine;
  cfg.dispatch = dispatch_mode;
  force::core::ForceEnvironment env(cfg);
  // Trivially copyable, so a task rides by value through the deques (a
  // std::pair is not, and would be boxed on the heap per put).
  struct TreeTask {
    int depth;
    int lane;
  };
  force::core::Askfor<TreeTask> monitor(env);
  // One root per process, seeded centrally; all expansion happens inside
  // worker bodies, i.e. on the per-worker deques when the fast path is on.
  for (int r = 0; r < np; ++r) monitor.put({1, r});
  GrantThroughput g;
  g.machine = machine;
  g.engine = env.atomic_words() ? "atomic" : "locked";
  g.wall_ns = force::bench::time_ns([&] {
    force::bench::on_team(np, [&](int) {
      monitor.work([&](TreeTask& t, force::core::Askfor<TreeTask>& self) {
        if (t.depth < depth) {
          self.put({t.depth + 1, t.lane});
          self.put({t.depth + 1, t.lane});
        }
      });
    });
  });
  g.grants = monitor.granted();
  // np complete binary trees, `depth` levels each: np * (2^depth - 1) tasks,
  // every one granted exactly once.
  g.expected = static_cast<std::uint64_t>(np) *
               ((std::uint64_t{1} << depth) - 1);
  g.per_sec = static_cast<double>(g.grants) / (g.wall_ns * 1e-9);
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  force::util::CliParser cli;
  cli.option("nprocs", "2,4,8", "force sizes")
      .option("depth", "12", "max task-tree depth")
      .option("json", "BENCH_askfor.json",
              "grant-throughput record (empty disables)")
      .flag("quick", "CI smoke mode: np=2, shallow trees");
  if (!cli.parse(argc, argv)) return 0;
  const bool quick = cli.get_flag("quick");
  const auto nprocs = quick ? std::vector<int>{2}
                            : force::util::parse_int_list(cli.get("nprocs"));
  const int depth = quick ? 8 : static_cast<int>(cli.get_int("depth"));

  force::bench::print_header(
      "E8  Askfor vs DOALL emulation on an irregular task tree",
      "Askfor consumes run-time-generated work directly; a DOALL-only "
      "program needs a level-synchronous frontier with a barrier per "
      "level.");

  force::util::Table table({"np", "scheme", "tasks", "dispatches",
                            "barriers", "imbalance", "wall"});
  for (int np : nprocs) {
    const Outcome a = run_askfor(np, depth);
    const Outcome d = run_doall_emulation(np, depth);
    if (a.tasks != d.tasks) {
      std::printf("MISMATCH: askfor %llu vs doall %llu tasks\n",
                  static_cast<unsigned long long>(a.tasks),
                  static_cast<unsigned long long>(d.tasks));
      return 1;
    }
    auto row = [&](const char* scheme, const Outcome& o) {
      table.add_row({force::util::Table::num(static_cast<std::int64_t>(np)),
                     scheme,
                     force::util::Table::num(static_cast<std::int64_t>(o.tasks)),
                     force::util::Table::num(
                         static_cast<std::int64_t>(o.dispatches)),
                     force::util::Table::num(
                         static_cast<std::int64_t>(o.barriers)),
                     force::util::Table::num(o.imbalance),
                     ns_cell(o.wall_ns)});
    };
    row("askfor", a);
    row("doall-frontier", d);
  }
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nE8 verdict: identical task counts, but the DOALL emulation needs "
      "one barrier per tree level while Askfor needs none - run-time work "
      "creation removes the level synchronization entirely.\n");

  // --- grant throughput: work stealing vs the single monitor --------------
  //
  // Empty-body binary task trees, expanded inside worker bodies: on the
  // fast path the expansion lives on the per-worker Chase-Lev deques and
  // the monitor lock stays cold; "locked" pins the seed's single-monitor
  // engine. Lock-only machines have only the monitor engine.
  const int np_grants = nprocs.empty() ? 8 : nprocs.back();
  std::printf(
      "\nGrant throughput (empty tasks, binary tree, np=%d; rate is "
      "grants/sec):\n\n",
      np_grants);
  std::vector<GrantThroughput> rates;
  const int atomic_depth = quick ? 8 : 13;
  const int locked_depth = quick ? 6 : 9;
  for (const auto& m : force::bench::all_machines()) {
    const bool rmw = force::machdep::machine_spec(m).hardware_atomic_rmw;
    // Deeper trees for the (much faster) stealing engine so both engines
    // get measurable wall times; the reported rate stays comparable.
    rates.push_back(measure_grants(m, "auto", np_grants,
                                   rmw ? atomic_depth : locked_depth));
    if (rmw) {
      rates.push_back(measure_grants(m, "locked", np_grants, locked_depth));
    }
  }
  force::util::Table gr({"machine", "engine", "grants", "grants/s"});
  double native_atomic = 0, native_locked = 0;
  bool grants_ok = true;
  for (const auto& r : rates) {
    gr.add_row({r.machine, r.engine,
                force::util::Table::num(static_cast<std::int64_t>(r.grants)),
                force::util::Table::num(r.per_sec)});
    // Correctness gate: a grant lost or duplicated by the monitor or the
    // work-stealing deques is a dispatch regression.
    if (r.grants != r.expected) {
      std::printf("MISMATCH: %s/%s granted %llu of %llu tasks\n",
                  r.machine.c_str(), r.engine.c_str(),
                  static_cast<unsigned long long>(r.grants),
                  static_cast<unsigned long long>(r.expected));
      grants_ok = false;
    }
    if (r.machine == "native") {
      (r.engine == "atomic" ? native_atomic : native_locked) = r.per_sec;
    }
  }
  std::fputs(gr.render().c_str(), stdout);
  const double speedup =
      native_locked > 0 ? native_atomic / native_locked : 0;
  std::printf(
      "\nnative@%d: work-stealing fast path = %.2fx the single-monitor "
      "grant rate.\n",
      np_grants, speedup);

  const std::string json_path = cli.get("json");
  if (!json_path.empty()) {
    namespace fb = force::bench;
    std::vector<std::vector<std::string>> rows;
    for (const auto& r : rates) {
      rows.push_back(
          {fb::json_field("machine", fb::json_str(r.machine)),
           fb::json_field("engine", fb::json_str(r.engine)),
           fb::json_field("grants", fb::json_num(r.grants)),
           fb::json_field("wall_ns", fb::json_num(r.wall_ns)),
           fb::json_field("grants_per_sec", fb::json_num(r.per_sec))});
    }
    std::vector<std::string> meta = fb::host_meta_fields();
    meta.push_back(fb::json_field("np", fb::json_num(std::uint64_t(np_grants))));
    meta.push_back(
        fb::json_field("native_atomic_over_locked", fb::json_num(speedup)));
    const std::string json = fb::render_bench_json("askfor_grants", meta, rows);
    if (fb::write_text_file(json_path, json)) {
      std::printf("Recorded grant throughput in %s\n", json_path.c_str());
    } else {
      std::printf("WARNING: could not write %s\n", json_path.c_str());
    }
  }
  return grants_ok ? 0 : 1;
}
