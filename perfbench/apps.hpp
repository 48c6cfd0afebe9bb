// The benchmark's application kernels and their sequential oracles.
//
// Ported from bench/bench_apps.cpp, keeping its arithmetic so the oracles
// stay bit-identical to the parallel solves: per-cell and per-node values
// come from the same inlined helpers on both paths, reductions are exact
// (max, wrapping integer sums) or serialized in index order inside a
// barrier section, and every shared write has a single deterministic
// writer. Three changes from the E12 originals:
//   * every input is salted by the workload seed: a seeded CMFD region map
//     replaces the fixed checkerboard, the tree hash and the pipeline
//     payloads are salted;
//   * CMFD runs a fixed number of iterations (no convergence exit), so
//     every solve does the same work and the barrier count is analytic;
//   * a pipeline stage runs `rounds` hash applications (about one handoff
//     of work) instead of one.
// Parallel kernels call constructs only through a Probe (probe.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "probe.hpp"

namespace perfbench {

/// splitmix64: drives the region map, tree shape, node work and payloads.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

// --- CMFD power iteration ---------------------------------------------------

/// Fixed row stride: interior meshes up to kCmfdMax-2 square.
constexpr int kCmfdMax = 50;

/// Shared state of one CMFD solve, trivially copyable so it can live in the
/// arena of every backend. Cell (i,j) is [i*kCmfdMax + j]; the boundary
/// ring stays zero.
struct CmfdState {
  std::array<double, kCmfdMax * kCmfdMax> flux;
  std::array<double, kCmfdMax * kCmfdMax> next;
  std::array<double, kCmfdMax * kCmfdMax> surfx;  ///< east-face currents
  std::array<double, kCmfdMax * kCmfdMax> surfy;  ///< north-face currents
  double keff;
  double fiss_old;
  double resid;
  double leakage;
  std::int64_t iters;
};

/// Read-only CMFD input: mesh size, iteration count and a seeded
/// two-region map (fuel / moderator).
struct CmfdInput {
  int n = 0;
  int iters = 0;
  std::array<std::uint8_t, kCmfdMax * kCmfdMax> region{};

  CmfdInput(int n_, int iters_, std::uint64_t seed) : n(n_), iters(iters_) {
    for (int c = 0; c < kCmfdMax * kCmfdMax; ++c) {
      region[static_cast<std::size_t>(c)] =
          static_cast<std::uint8_t>(mix64(seed ^ static_cast<std::uint64_t>(c)) & 1u);
    }
  }
  [[nodiscard]] double nu_sig_f(int i, int j) const {
    return region[static_cast<std::size_t>(i * kCmfdMax + j)] ? 0.70 : 0.30;
  }
  [[nodiscard]] double sig_r(int i, int j) const {
    return region[static_cast<std::size_t>(i * kCmfdMax + j)] ? 0.54 : 0.48;
  }
};

constexpr double kCmfdD = 1.0;  // diffusion coefficient / surface D-hat

inline void cmfd_init(CmfdState& s, const CmfdInput& in) {
  s.flux.fill(0.0);
  s.next.fill(0.0);
  s.surfx.fill(0.0);
  s.surfy.fill(0.0);
  for (int i = 1; i <= in.n; ++i) {
    for (int j = 1; j <= in.n; ++j) s.flux[i * kCmfdMax + j] = 1.0;
  }
  s.keff = 1.0;
  s.fiss_old = 0.0;
  for (int i = 1; i <= in.n; ++i) {
    for (int j = 1; j <= in.n; ++j) {
      s.fiss_old += in.nu_sig_f(i, j) * s.flux[i * kCmfdMax + j];
    }
  }
  s.resid = 0.0;
  s.leakage = 0.0;
  s.iters = 0;
}

/// One row of the diffusion sweep; writes only entries row i owns and
/// returns the row's max flux change.
inline double cmfd_sweep_row(CmfdState& s, const CmfdInput& in, int i) {
  const int n = in.n;
  double rowmax = 0.0;
  const int base = i * kCmfdMax;
  for (int j = 1; j <= n; ++j) {
    const double nbr = s.flux[base - kCmfdMax + j] +
                       s.flux[base + kCmfdMax + j] + s.flux[base + j - 1] +
                       s.flux[base + j + 1];
    const double src = in.nu_sig_f(i, j) * s.flux[base + j] / s.keff;
    const double updated = (src + kCmfdD * nbr) / (4.0 * kCmfdD + in.sig_r(i, j));
    s.next[base + j] = updated;
    const double d = std::fabs(updated - s.flux[base + j]);
    if (d > rowmax) rowmax = d;
  }
  for (int j = 0; j <= n; ++j) {
    s.surfx[base + j] = -kCmfdD * (s.flux[base + j + 1] - s.flux[base + j]);
  }
  for (int j = 1; j <= n; ++j) {
    s.surfy[base + j] = -kCmfdD * (s.flux[base + kCmfdMax + j] - s.flux[base + j]);
    if (i == 1) s.surfy[j] = -kCmfdD * (s.flux[kCmfdMax + j] - s.flux[j]);
  }
  return rowmax;
}

/// The eigenvalue fold, run by one process per iteration (barrier section
/// or oracle): sums in index order, so it is deterministic.
inline void cmfd_fold(CmfdState& s, const CmfdInput& in) {
  const int n = in.n;
  double fiss_new = 0.0;
  for (int i = 1; i <= n; ++i) {
    for (int j = 1; j <= n; ++j) {
      fiss_new += in.nu_sig_f(i, j) * s.next[i * kCmfdMax + j];
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
}

inline void cmfd_copy_row(CmfdState& s, const CmfdInput& in, int i) {
  for (int j = 1; j <= in.n; ++j) {
    s.flux[i * kCmfdMax + j] = s.next[i * kCmfdMax + j];
  }
}

inline void cmfd_oracle(CmfdState& s, const CmfdInput& in) {
  cmfd_init(s, in);
  while (s.iters < in.iters) {
    double resid = 0.0;
    for (int i = 1; i <= in.n; ++i) resid = std::max(resid, cmfd_sweep_row(s, in, i));
    s.resid = resid;
    cmfd_fold(s, in);
    for (int i = 1; i <= in.n; ++i) cmfd_copy_row(s, in, i);
  }
}

/// Per iteration: selfsched row sweep, max reduce_into, barrier-section
/// fold, presched copy, barrier.
inline void cmfd_parallel(Probe& p, CmfdState& s, const CmfdInput& in) {
  while (true) {
    double localmax = 0.0;
    p.selfsched_do(FORCE_SITE, 1, in.n, [&](std::int64_t i) {
      localmax = std::max(localmax, cmfd_sweep_row(s, in, static_cast<int>(i)));
    });
    p.reduce_into<double>(FORCE_SITE, localmax, s.resid,
                          [](double a, double b) { return std::max(a, b); });
    p.barrier([&] { cmfd_fold(s, in); });
    p.presched_do(1, in.n, [&](std::int64_t i) {
      cmfd_copy_row(s, in, static_cast<int>(i));
    });
    p.barrier();
    if (s.iters >= in.iters) break;
  }
}

// --- Askfor irregular tree --------------------------------------------------

/// Implicit tree: root 1, children 2*id and 2*id+1. Full binary down to
/// full_depth, then hash-decided single-child tails down to max_depth.
struct TreeInput {
  int full_depth = 0;
  int max_depth = 0;
  int rounds = 0;
  std::uint64_t salt = 0;

  [[nodiscard]] int children(std::uint64_t id) const {
    const int d = std::bit_width(id) - 1;
    if (d < full_depth) return 2;
    if (d < max_depth && (mix64(id ^ salt) & 1ull) != 0) return 1;
    return 0;
  }
  /// `rounds` dependent hash applications per node.
  [[nodiscard]] std::uint64_t value(std::uint64_t id) const {
    std::uint64_t h = id ^ salt;
    for (int r = 0; r < rounds; ++r) h = mix64(h);
    return h;
  }
};

struct TreeShared {
  std::uint64_t sum;
  std::int64_t nodes;
};

inline TreeShared tree_oracle(const TreeInput& in) {
  TreeShared r{0, 0};
  std::vector<std::uint64_t> stack{1};
  while (!stack.empty()) {
    const std::uint64_t id = stack.back();
    stack.pop_back();
    r.sum += in.value(id);
    r.nodes += 1;
    const int kids = in.children(id);
    if (kids >= 1) stack.push_back(2 * id);
    if (kids == 2) stack.push_back(2 * id + 1);
  }
  return r;
}

/// Leader seeds the root, everyone works; two wrapping-sum reduces and a
/// closing barrier.
inline void tree_parallel(Probe& p, TreeShared& s, const TreeInput& in) {
  auto& af = p.askfor<std::uint64_t>(FORCE_SITE);
  if (p.leader()) {
    s.sum = 0;
    s.nodes = 0;
    p.put<std::uint64_t>(af, 1);
  }
  p.barrier();
  std::uint64_t local_sum = 0;
  std::int64_t local_nodes = 0;
  p.work(af, [&](std::uint64_t& id) {
    local_sum += in.value(id);
    local_nodes += 1;
    const int kids = in.children(id);
    if (kids >= 1) p.put<std::uint64_t>(af, 2 * id);
    if (kids == 2) p.put<std::uint64_t>(af, 2 * id + 1);
  });
  p.reduce_into<std::uint64_t>(FORCE_SITE, local_sum, s.sum,
                               [](std::uint64_t a, std::uint64_t b) { return a + b; });
  p.reduce_into<std::int64_t>(FORCE_SITE, local_nodes, s.nodes,
                              [](std::int64_t a, std::int64_t b) { return a + b; });
  p.barrier();
}

// --- Produce/Consume pipeline -----------------------------------------------

/// Ring depth per stage link: a producer may run this many items ahead.
constexpr std::int64_t kPipeRing = 4;

struct PipeInput {
  std::int64_t items = 0;
  int rounds = 0;
  std::uint64_t salt = 0;

  [[nodiscard]] std::uint64_t payload(std::int64_t i) const {
    return mix64(static_cast<std::uint64_t>(i) ^ salt);
  }
  /// Stage transform: `rounds` hash applications keyed by the stage.
  [[nodiscard]] std::uint64_t stage(std::uint64_t v, int stage) const {
    std::uint64_t h = v ^ (static_cast<std::uint64_t>(stage) << 32);
    for (int r = 0; r < rounds; ++r) h = mix64(h);
    return h;
  }
};

struct PipeShared {
  std::uint64_t sink;
  std::int64_t delivered;
};

inline std::uint64_t pipe_oracle(const PipeInput& in, int stages) {
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < in.items; ++i) {
    std::uint64_t v = in.payload(i);
    for (int st = 1; st <= stages; ++st) v = in.stage(v, st);
    acc += v;
  }
  return acc;
}

/// Member k is stage k; link L (between stages L+1 and L+2) owns cells
/// [L*kPipeRing, (L+1)*kPipeRing) and item i travels in slot i % kPipeRing.
inline void pipe_parallel(Probe& p, PipeShared& s, const PipeInput& in) {
  const int np = p.np();
  const int me = p.me();
  auto& cells = p.async_array<std::uint64_t>(
      FORCE_SITE, static_cast<std::size_t>(np - 1) * kPipeRing);
  std::uint64_t acc = 0;
  for (std::int64_t i = 0; i < in.items; ++i) {
    const std::uint64_t v =
        me == 1 ? in.payload(i)
                : p.consume(cells[static_cast<std::size_t>(
                      (me - 2) * kPipeRing + i % kPipeRing)]);
    const std::uint64_t out = p.stage([&] { return in.stage(v, me); });
    if (me == np) {
      acc += out;
    } else {
      p.produce(cells[static_cast<std::size_t>((me - 1) * kPipeRing +
                                               i % kPipeRing)],
                out);
    }
  }
  if (me == np) {
    p.critical(FORCE_SITE, [&] {
      s.sink = acc;
      s.delivered = in.items;
    });
  }
  p.barrier();
}

}  // namespace perfbench
