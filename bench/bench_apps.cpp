// E12 - Production-shaped application workloads with regression gates.
//
// The conformance programs are microbenchmarks; the ROADMAP's production
// claims need workloads shaped like real traffic. Three application
// kernels ported to the Force:
//
//   * cmfd     - a CMFD-style 2D mesh sweep (modeled on OpenMOC's
//                coarse-mesh finite-difference acceleration): nested mesh
//                loops computing per-surface currents, a max-residual
//                Reduce, and an outer power-iteration convergence loop
//                with barrier-section eigenvalue folds. Stresses DOALL +
//                Reduce + barrier at scale.
//   * tree     - an HVM-style irregular tree reduction: an implicit tree
//                whose shape is only discovered by hashing node ids, so
//                the work distribution is decided entirely by Askfor
//                stealing. Stresses dynamic work generation.
//   * pipeline - a streaming workload over Produce/Consume async cells:
//                items flow through every process with a bounded ring of
//                cells per stage link. Stresses async-variable coupling.
//
// Every workload is verified against a sequential oracle BEFORE it is
// timed - a wrong answer is a bench failure (exit 1), not a fast run.
// Results are bit-identical by construction: per-cell/per-node values are
// computed by the same inlined helpers in both paths, reductions are
// either exact (max, wrapping integer sums) or serialized in index order
// inside a barrier section, and every shared write has a single
// deterministic writer. See docs/VALIDATION.md (workload suite).
//
// Each workload runs under three team configurations - native threads
// respawned per force, a persistent thread pool, and real fork(2)
// children (os-fork) - and emits one row per (workload, model, mode) into
// BENCH_apps.json. The gated metric is rel_throughput: parallel
// throughput relative to the sequential oracle measured back to back on
// the same host, so the CI gate (tools/bench_gate.py) is host-relative
// and does not trip on absolute machine speed.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "bench_common.hpp"
#include "util/cli.hpp"

namespace {

namespace fb = force::bench;
using force::bench::ns_cell;

// --- shared arithmetic helpers (identical in oracle and parallel paths) ---

/// splitmix64: the hash that drives tree shape, node work, and stream
/// payloads. Wrapping arithmetic only, so every sum below is exact.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- workload 1: CMFD-style mesh sweep ------------------------------------

/// Fixed row stride: supports interior meshes up to kCmfdMax-2 square.
constexpr int kCmfdMax = 50;

/// All shared state of one CMFD solve, as a single trivially-copyable
/// blob so the os-fork backend can place it in the MAP_SHARED arena.
/// Cell (i,j) lives at [i*kCmfdMax + j]; the boundary ring (i or j equal
/// to 0 or nx+1) stays zero (zero-flux boundary).
struct CmfdState {
  std::array<double, kCmfdMax * kCmfdMax> flux;
  std::array<double, kCmfdMax * kCmfdMax> next;
  /// East-face net currents: surfx[i*kCmfdMax+j] is the current across
  /// the surface between cell (i,j) and (i,j+1). Single writer: row i's
  /// sweep owner.
  std::array<double, kCmfdMax * kCmfdMax> surfx;
  /// North-face net currents: surfy[i*kCmfdMax+j] between (i,j) and
  /// (i+1,j). Row i writes its own faces; row 1 also writes the i=0
  /// boundary faces.
  std::array<double, kCmfdMax * kCmfdMax> surfy;
  double keff;
  double fiss_old;
  double resid;
  double leakage;
  std::int64_t iters;
  std::int64_t done;
};

/// Two-region checkerboard cross sections (fuel / moderator).
inline double cmfd_nu_sig_f(int i, int j) {
  return ((i + j) & 1) ? 0.70 : 0.30;
}
inline double cmfd_sig_r(int i, int j) {
  return ((i + j) & 1) ? 0.54 : 0.48;
}
constexpr double kCmfdD = 1.0;  // diffusion coefficient / surface D-hat

inline void cmfd_init(CmfdState& s, int n) {
  s.flux.fill(0.0);
  s.next.fill(0.0);
  s.surfx.fill(0.0);
  s.surfy.fill(0.0);
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) s.flux[i * kCmfdMax + j] = 1.0;
  }
  s.keff = 1.0;
  s.fiss_old = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      s.fiss_old += cmfd_nu_sig_f(i, j) * s.flux[i * kCmfdMax + j];
    }
  }
  s.resid = 0.0;
  s.leakage = 0.0;
  s.iters = 0;
  s.done = 0;
}

/// One row of the diffusion sweep: new flux from the four neighbour
/// currents plus the fission source scaled by the current eigenvalue,
/// and the row's surface currents. Returns the row's max flux change.
/// Reads flux (stable during the sweep), writes next/surfx/surfy entries
/// owned by this row only - deterministic regardless of which process
/// claims the row.
inline double cmfd_sweep_row(CmfdState& s, int n, int i) {
  double rowmax = 0.0;
  const int base = i * kCmfdMax;
  for (int j = 1; j <= n; ++j) {
    const double nbr = s.flux[base - kCmfdMax + j] +
                       s.flux[base + kCmfdMax + j] + s.flux[base + j - 1] +
                       s.flux[base + j + 1];
    const double src = cmfd_nu_sig_f(i, j) * s.flux[base + j] / s.keff;
    const double updated = (src + kCmfdD * nbr) / (4.0 * kCmfdD + cmfd_sig_r(i, j));
    s.next[base + j] = updated;
    const double d = std::fabs(updated - s.flux[base + j]);
    if (d > rowmax) rowmax = d;
  }
  // Surface currents from the pre-sweep flux: east faces j=0..n (face j
  // sits between cell j and j+1), north faces for this row, and - for
  // row 1 only - the south boundary faces at i=0.
  for (int j = 0; j <= n; ++j) {
    s.surfx[base + j] = -kCmfdD * (s.flux[base + j + 1] - s.flux[base + j]);
  }
  for (int j = 1; j <= n; ++j) {
    s.surfy[base + j] = -kCmfdD * (s.flux[base + kCmfdMax + j] - s.flux[base + j]);
    if (i == 1) s.surfy[j] = -kCmfdD * (s.flux[kCmfdMax + j] - s.flux[j]);
  }
  return rowmax;
}

/// The eigenvalue fold, executed by exactly one process per iteration
/// (the barrier section / the oracle): new fission source and boundary
/// leakage summed in index order (deterministic), k-eff power update,
/// convergence test. s.resid must already hold the global max residual.
inline void cmfd_fold(CmfdState& s, int n, double tol) {
  double fiss_new = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      fiss_new += cmfd_nu_sig_f(i, j) * s.next[i * kCmfdMax + j];
    }
  }
  double leak = 0.0;
  for (int i = 1; i <= n; ++i) {
    leak += s.surfx[i * kCmfdMax + n] - s.surfx[i * kCmfdMax];
  }
  for (int j = 1; j <= n; ++j) {
    leak += s.surfy[n * kCmfdMax + j] - s.surfy[j];
  }
  s.leakage = leak;
  s.keff = s.keff * fiss_new / s.fiss_old;
  s.fiss_old = fiss_new;
  s.iters += 1;
  if (s.resid < tol) s.done = 1;
}

inline void cmfd_copy_row(CmfdState& s, int n, int i) {
  for (int j = 1; j <= n; ++j) {
    s.flux[i * kCmfdMax + j] = s.next[i * kCmfdMax + j];
  }
}

/// Sequential oracle: the same helpers, serially.
inline void cmfd_oracle(CmfdState& s, int n, double tol, int max_iters) {
  cmfd_init(s, n);
  while (s.done == 0 && s.iters < max_iters) {
    double resid = 0.0;
    for (int i = 1; i <= n; ++i) resid = std::max(resid, cmfd_sweep_row(s, n, i));
    s.resid = resid;
    cmfd_fold(s, n, tol);
    for (int i = 1; i <= n; ++i) cmfd_copy_row(s, n, i);
  }
}

/// The parallel solve body, run by every process of the force.
inline void cmfd_parallel(force::Ctx& ctx, CmfdState& s, int n, double tol,
                          int max_iters) {
  while (true) {
    double localmax = 0.0;
    ctx.selfsched_do(FORCE_SITE, 1, n, 1, [&](std::int64_t i) {
      localmax = std::max(localmax, cmfd_sweep_row(s, n, static_cast<int>(i)));
    });
    // Exact (max is order-independent), and doubles as the sweep join:
    // every process has finished its rows once the reduction returns.
    ctx.reduce_into<double>(FORCE_SITE, localmax, s.resid,
                            [](double a, double b) { return std::max(a, b); });
    ctx.barrier([&] { cmfd_fold(s, n, tol); });
    ctx.presched_do(1, n, 1,
                    [&](std::int64_t i) { cmfd_copy_row(s, n, static_cast<int>(i)); });
    ctx.barrier();
    if (s.done != 0 || s.iters >= max_iters) break;
  }
}

// --- workload 2: HVM-style irregular tree reduction -----------------------

/// Implicit-tree node ids: the root is 1, children of id are 2*id and
/// 2*id+1, so depth(id) = bit_width(id)-1. The tree is full binary down
/// to full_depth, then decays into hash-decided chains (irregular tails
/// whose shape no static schedule can predict - the Askfor monitor's
/// stealing has to discover them).
inline int tree_depth(std::uint64_t id) {
  int d = -1;
  while (id != 0) {
    id >>= 1;
    ++d;
  }
  return d;
}

inline int tree_children(std::uint64_t id, int full_depth, int max_depth) {
  const int d = tree_depth(id);
  if (d < full_depth) return 2;
  if (d < max_depth && (mix64(id) & 1ull) != 0) return 1;
  return 0;
}

/// Per-node work: `rounds` dependent hash applications (pointer-chasing
/// style - each round's input is the previous round's output).
inline std::uint64_t tree_node_value(std::uint64_t id, int rounds) {
  std::uint64_t h = id;
  for (int r = 0; r < rounds; ++r) h = mix64(h);
  return h;
}

struct TreeShared {
  std::uint64_t sum;
  std::int64_t nodes;
};

struct TreeResult {
  std::uint64_t sum = 0;
  std::int64_t nodes = 0;
};

inline TreeResult tree_oracle(int full_depth, int max_depth, int rounds) {
  TreeResult r;
  std::vector<std::uint64_t> stack{1};
  while (!stack.empty()) {
    const std::uint64_t id = stack.back();
    stack.pop_back();
    r.sum += tree_node_value(id, rounds);
    r.nodes += 1;
    const int kids = tree_children(id, full_depth, max_depth);
    if (kids >= 1) stack.push_back(2 * id);
    if (kids == 2) stack.push_back(2 * id + 1);
  }
  return r;
}

inline void tree_parallel(force::Ctx& ctx, TreeShared& s, int full_depth,
                          int max_depth, int rounds) {
  auto& af = ctx.askfor<std::uint64_t>(FORCE_SITE);
  if (ctx.leader()) {
    s.sum = 0;
    s.nodes = 0;
    af.put(1);
  }
  ctx.barrier();
  std::uint64_t local_sum = 0;
  std::int64_t local_nodes = 0;
  af.work([&](std::uint64_t& id, force::core::Askfor<std::uint64_t>& a) {
    local_sum += tree_node_value(id, rounds);
    local_nodes += 1;
    const int kids = tree_children(id, full_depth, max_depth);
    if (kids >= 1) a.put(2 * id);
    if (kids == 2) a.put(2 * id + 1);
  });
  // Wrapping integer sums: exact under any combine order.
  ctx.reduce_into<std::uint64_t>(
      FORCE_SITE, local_sum, s.sum,
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
  ctx.reduce_into<std::int64_t>(
      FORCE_SITE, local_nodes, s.nodes,
      [](std::int64_t a, std::int64_t b) { return a + b; });
  ctx.barrier();
}

// --- workload 3: streaming pipeline over async cells ----------------------

/// Stage transform: hash-mix the value with the stage number.
inline std::uint64_t pipe_stage(std::uint64_t v, int stage) {
  return mix64(v ^ (static_cast<std::uint64_t>(stage) << 32));
}

/// Ring depth per stage link: producers may run this many items ahead
/// before a full cell blocks them (the bounded-buffer pushback that makes
/// this a pipeline rather than a batch job).
constexpr std::int64_t kPipeRing = 4;

struct PipeShared {
  std::uint64_t sink;
  std::int64_t delivered;
};

inline std::uint64_t pipe_oracle(std::int64_t items, int stages) {
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < items; ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(i);
    for (int p = 1; p <= stages; ++p) v = pipe_stage(v, p);
    acc += v;
  }
  return acc;
}

inline void pipe_parallel(force::Ctx& ctx, PipeShared& s, std::int64_t items) {
  const int np = ctx.np();
  const int me = ctx.me();
  // Link L (0-based, between stage L+1 and L+2) owns cells
  // [L*kPipeRing, (L+1)*kPipeRing); item i travels in slot i % kPipeRing.
  auto& cells = ctx.async_array<std::uint64_t>(
      FORCE_SITE, static_cast<std::size_t>(np - 1) * kPipeRing);
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < items; ++i) {
    std::uint64_t v;
    if (me == 1) {
      v = static_cast<std::uint64_t>(i);
    } else {
      v = cells[static_cast<std::size_t>((me - 2) * kPipeRing + i % kPipeRing)]
              .consume();
    }
    v = pipe_stage(v, me);
    if (me == np) {
      acc += v;
    } else {
      cells[static_cast<std::size_t>((me - 1) * kPipeRing + i % kPipeRing)]
          .produce(v);
    }
  }
  if (me == np) {
    ctx.critical(FORCE_SITE, [&] {
      s.sink = acc;
      s.delivered = items;
    });
  }
  ctx.barrier();
}

// --- harness --------------------------------------------------------------

struct ConfigSpec {
  const char* model;  ///< "thread" or "os-fork"
  const char* mode;   ///< "respawn" or "pooled"
  force::ForceConfig cfg;
};

std::vector<ConfigSpec> team_configs(int np) {
  std::vector<ConfigSpec> specs;
  {
    force::ForceConfig cfg;
    cfg.nproc = np;
    specs.push_back({"thread", "respawn", cfg});
  }
  {
    force::ForceConfig cfg;
    cfg.nproc = np;
    cfg.team_pool = true;
    specs.push_back({"thread", "pooled", cfg});
  }
  {
    force::ForceConfig cfg;
    cfg.nproc = np;
    cfg.process_model = "os-fork";
    specs.push_back({"os-fork", "respawn", cfg});
  }
  return specs;
}

struct AppRow {
  std::string workload;
  std::string model;
  std::string mode;
  std::int64_t items;
  std::int64_t iterations;
  double wall_ns;       // best-of-reps, one repetition
  double rel_throughput;  // vs the sequential oracle on this host
};

bool g_verify_failed = false;

void report_mismatch(const std::string& workload, const std::string& where,
                     const std::string& detail) {
  std::fprintf(stderr,
               "VERIFICATION FAILED: %s under %s disagrees with the "
               "sequential oracle (%s) - refusing to time a wrong answer\n",
               workload.c_str(), where.c_str(), detail.c_str());
  g_verify_failed = true;
}

}  // namespace

/// Best-of-`reps` wall time for one repetition of `fn`. On a shared host
/// scheduler preemption only ever adds time, so the minimum is the stable
/// estimator - and both sides of the rel_throughput ratio use it, keeping
/// the gated metric comparable run to run.
double best_of(int reps, const std::function<void()>& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const double t = fb::time_ns(fn);
    if (r == 0 || t < best) best = t;
  }
  return best;
}

int main(int argc, char** argv) {
  force::util::CliParser cli;
  cli.option("np", "4", "force size (pipeline depth equals np)")
      .option("reps", "0", "timed repetitions per configuration (0 = auto)")
      .option("json", "BENCH_apps.json",
              "write per-workload records here ('' to skip)")
      .flag("quick", "CI smoke mode: small meshes/trees/streams");
  if (!cli.parse(argc, argv)) return 0;
  const int np = std::max(2, static_cast<int>(cli.get_int("np")));
  const bool quick = cli.get_flag("quick");
  const int reps = cli.get_int("reps") > 0
                       ? static_cast<int>(cli.get_int("reps"))
                       : (quick ? 5 : 7);

  // Workload sizes. The tree's frontier stays well under the capacity of
  // the os-fork Askfor central queue (4096 tasks beyond the members'
  // deques): the widest level is 2^(full_depth-1) plus the hash-decided
  // tails.
  const int cmfd_n = quick ? 24 : 48;
  const double cmfd_tol = 1e-4;
  const int cmfd_cap = quick ? 400 : 600;
  const int tree_full_depth = quick ? 9 : 11;
  const int tree_max_depth = tree_full_depth + 6;
  const int tree_rounds = quick ? 16 : 48;
  const std::int64_t pipe_items = quick ? 2000 : 20000;

  fb::print_header(
      "E12  Production-shaped application workloads",
      "CMFD mesh sweep (DOALL+Reduce+barrier), irregular tree reduction "
      "(Askfor stealing), streaming pipeline (Produce/Consume) - each "
      "verified bit-identically against a sequential oracle before timing, "
      "under native, pooled and os-fork teams.");

  std::vector<AppRow> rows;

  // --- cmfd ---------------------------------------------------------------
  {
    auto oracle = std::make_unique<CmfdState>();
    cmfd_oracle(*oracle, cmfd_n, cmfd_tol, cmfd_cap);
    auto scratch = std::make_unique<CmfdState>();
    const double oracle_ns = best_of(reps, [&] {
      cmfd_oracle(*scratch, cmfd_n, cmfd_tol, cmfd_cap);
      // Consume the result so the solve cannot be optimized away (and the
      // oracle itself must be run-to-run stable).
      if (std::memcmp(&scratch->keff, &oracle->keff, sizeof(double)) != 0) {
        std::abort();
      }
    });
    const std::int64_t cells =
        static_cast<std::int64_t>(cmfd_n) * cmfd_n * oracle->iters;
    std::printf("cmfd: %dx%d mesh, %lld iterations to converge, k-eff %.6f, "
                "leakage %.4f (oracle %s/solve)\n",
                cmfd_n, cmfd_n, static_cast<long long>(oracle->iters),
                oracle->keff, oracle->leakage, ns_cell(oracle_ns).c_str());

    for (const auto& spec : team_configs(np)) {
      force::Force f(spec.cfg);
      auto& s = f.shared<CmfdState>("cmfd_state");
      const auto solve = [&](force::Ctx& ctx) {
        cmfd_parallel(ctx, s, cmfd_n, cmfd_tol, cmfd_cap);
      };
      // Verify before timing: one full solve, compared bit-identically.
      cmfd_init(s, cmfd_n);
      f.run(solve);
      if (std::memcmp(s.flux.data(), oracle->flux.data(),
                      sizeof oracle->flux) != 0 ||
          s.iters != oracle->iters ||
          std::memcmp(&s.keff, &oracle->keff, sizeof(double)) != 0 ||
          std::memcmp(&s.leakage, &oracle->leakage, sizeof(double)) != 0) {
        report_mismatch("cmfd", std::string(spec.model) + "/" + spec.mode,
                        "flux/iters/keff/leakage");
        continue;
      }
      double best = 0.0;
      for (int r = 0; r < reps; ++r) {
        cmfd_init(s, cmfd_n);  // reset outside the timed region
        const double t = fb::time_ns([&] { f.run(solve); });
        if (r == 0 || t < best) best = t;
      }
      if (s.iters != oracle->iters) {
        report_mismatch("cmfd", std::string(spec.model) + "/" + spec.mode,
                        "post-timing iteration count drifted");
        continue;
      }
      rows.push_back({"cmfd", spec.model, spec.mode, cells, oracle->iters,
                      best, oracle_ns / best});
    }
  }

  // --- tree ---------------------------------------------------------------
  {
    const TreeResult oracle =
        tree_oracle(tree_full_depth, tree_max_depth, tree_rounds);
    const double oracle_ns = best_of(reps, [&] {
      const TreeResult check =
          tree_oracle(tree_full_depth, tree_max_depth, tree_rounds);
      if (check.sum != oracle.sum) std::abort();  // oracle must be stable
    });
    std::printf("tree: %lld nodes (full to depth %d, hash tails to %d), "
                "oracle %s/walk\n",
                static_cast<long long>(oracle.nodes), tree_full_depth,
                tree_max_depth, ns_cell(oracle_ns).c_str());

    for (const auto& spec : team_configs(np)) {
      force::Force f(spec.cfg);
      auto& s = f.shared<TreeShared>("tree_totals");
      const auto walk = [&](force::Ctx& ctx) {
        tree_parallel(ctx, s, tree_full_depth, tree_max_depth, tree_rounds);
      };
      f.run(walk);
      if (s.sum != oracle.sum || s.nodes != oracle.nodes) {
        report_mismatch("tree", std::string(spec.model) + "/" + spec.mode,
                        "sum/node-count");
        continue;
      }
      const double best = best_of(reps, [&] { f.run(walk); });
      if (s.sum != oracle.sum || s.nodes != oracle.nodes) {
        report_mismatch("tree", std::string(spec.model) + "/" + spec.mode,
                        "post-timing sum drifted");
        continue;
      }
      rows.push_back({"tree", spec.model, spec.mode, oracle.nodes, 1, best,
                      oracle_ns / best});
    }
  }

  // --- pipeline -----------------------------------------------------------
  {
    const std::uint64_t oracle = pipe_oracle(pipe_items, np);
    const double oracle_ns = best_of(reps, [&] {
      if (pipe_oracle(pipe_items, np) != oracle) std::abort();
    });
    std::printf("pipeline: %lld items through %d stages (ring depth %lld), "
                "oracle %s/stream\n",
                static_cast<long long>(pipe_items), np,
                static_cast<long long>(kPipeRing), ns_cell(oracle_ns).c_str());

    for (const auto& spec : team_configs(np)) {
      force::Force f(spec.cfg);
      auto& s = f.shared<PipeShared>("pipe_sink");
      const auto stream = [&](force::Ctx& ctx) {
        pipe_parallel(ctx, s, pipe_items);
      };
      s.sink = 0;
      s.delivered = 0;
      f.run(stream);
      if (s.sink != oracle || s.delivered != pipe_items) {
        report_mismatch("pipeline", std::string(spec.model) + "/" + spec.mode,
                        "sink checksum/delivery count");
        continue;
      }
      double best = 0.0;
      for (int r = 0; r < reps; ++r) {
        s.sink = 0;  // reset outside the timed region
        s.delivered = 0;
        const double t = fb::time_ns([&] { f.run(stream); });
        if (r == 0 || t < best) best = t;
      }
      if (s.sink != oracle) {
        report_mismatch("pipeline", std::string(spec.model) + "/" + spec.mode,
                        "post-timing checksum drifted");
        continue;
      }
      rows.push_back({"pipeline", spec.model, spec.mode, pipe_items, 1, best,
                      oracle_ns / best});
    }
  }

  force::util::Table table({"workload", "model", "team lifetime", "items",
                            "iters", "best wall", "items/sec",
                            "rel throughput"});
  for (const auto& r : rows) {
    table.add_row(
        {r.workload, r.model, r.mode, force::util::Table::num(r.items),
         force::util::Table::num(r.iterations), ns_cell(r.wall_ns),
         force::util::Table::num(static_cast<double>(r.items) * 1e9 /
                                 r.wall_ns),
         force::util::Table::num(r.rel_throughput)});
  }
  std::printf("\nPer-configuration results (np=%d, %d reps, %s mode):\n\n",
              np, reps, quick ? "quick" : "full");
  std::fputs(table.render().c_str(), stdout);
  std::printf(
      "\nE12 verdict: rel_throughput is parallel throughput over the "
      "sequential oracle on this host - the host-relative number the CI "
      "gate watches. Absolute items/sec rows are the trajectory record.\n");

  const std::string json_path = cli.get("json");
  if (!json_path.empty() && !rows.empty()) {
    std::vector<std::string> meta;
    meta.push_back(fb::json_field("np", fb::json_num(std::uint64_t(np))));
    meta.push_back(
        fb::json_field("reps", fb::json_num(std::uint64_t(reps))));
    meta.push_back(fb::json_field("quick", fb::json_num(std::uint64_t(
                                               quick ? 1 : 0))));
    for (auto& h : fb::host_meta_fields()) meta.push_back(std::move(h));
    std::vector<std::vector<std::string>> json_rows;
    for (const auto& r : rows) {
      json_rows.push_back(
          {fb::json_field("workload", fb::json_str(r.workload)),
           fb::json_field("model", fb::json_str(r.model)),
           fb::json_field("mode", fb::json_str(r.mode)),
           fb::json_field("np", fb::json_num(std::uint64_t(np))),
           fb::json_field("items", fb::json_num(std::uint64_t(r.items))),
           fb::json_field("iterations",
                          fb::json_num(std::uint64_t(r.iterations))),
           fb::json_field("wall_ns", fb::json_num(r.wall_ns)),
           fb::json_field("items_per_sec",
                          fb::json_num(static_cast<double>(r.items) * 1e9 /
                                       r.wall_ns)),
           fb::json_field("ns_per_item",
                          fb::json_num(r.wall_ns /
                                       static_cast<double>(r.items))),
           fb::json_field("rel_throughput",
                          fb::json_num_sig(r.rel_throughput))});
    }
    const std::string json = fb::render_bench_json("apps", meta, json_rows);
    if (fb::write_text_file(json_path, json)) {
      std::printf("Wrote %s\n", json_path.c_str());
    }
  }

  if (g_verify_failed) return 1;
  if (rows.size() != 9) {
    std::fprintf(stderr,
                 "ERROR: expected 9 (workload x configuration) rows, got "
                 "%zu\n",
                 rows.size());
    return 1;
  }
  return 0;
}
