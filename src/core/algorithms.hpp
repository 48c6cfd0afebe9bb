// Parallel algorithm skeletons built purely from Force constructs.
//
// The paper positions the Force as the language its authors used to write
// numerical algorithms; this header is the reproduction's "first things a
// user builds on top": block-parallel prefix scan, odd-even block sort and
// histogramming, written SPMD against Ctx only - no threads, no atomics,
// no machine names - so they run unchanged on every machine model, like
// any other Force program.
//
// All functions are collective: every process of the team must call with
// the same arguments (SPMD discipline), and all return after an implied
// barrier with the full result visible to every process.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <functional>
#include <vector>

#include "core/force.hpp"

namespace force::core {

/// Inclusive prefix scan of `data` in place under `combine` (associative).
/// Blocked three-phase algorithm: per-block sequential scan (prescheduled),
/// block-offset scan by the barrier-section executor, offset application.
template <typename T>
void parallel_inclusive_scan(Ctx& ctx, const Site& site, std::vector<T>& data,
                             const std::function<T(T, T)>& combine) {
  const auto n = static_cast<std::int64_t>(data.size());
  if (n == 0) {
    ctx.barrier();
    return;
  }
  const int np = ctx.np();
  const std::int64_t block = (n + np - 1) / np;

  // Shared scratch: one slot per block for the block totals. This is
  // construct state (like the preprocessor-generated loop variables), so
  // it lives in the site table, not the arena - which also keeps it legal
  // on the link-time (sequent) machine, where run-time arena allocation
  // of new names is an error by design.
  auto& block_totals = ctx.state<std::vector<T>>(
      site, "%scan",
      [np] { return std::make_unique<std::vector<T>>(np); });
  FORCE_CHECK(static_cast<int>(block_totals.size()) == np,
              "scan site reused from a team of a different width");

  // Phase 1: sequential scan inside each block (block b on process b).
  ctx.presched_do(0, np - 1, 1, [&](std::int64_t b) {
    const std::int64_t lo = b * block;
    const std::int64_t hi = std::min<std::int64_t>(n, lo + block);
    for (std::int64_t i = lo + 1; i < hi; ++i) {
      data[static_cast<std::size_t>(i)] =
          combine(data[static_cast<std::size_t>(i - 1)],
                  data[static_cast<std::size_t>(i)]);
    }
    if (lo < hi) {
      block_totals[static_cast<std::size_t>(b)] =
          data[static_cast<std::size_t>(hi - 1)];
    }
  });

  // Phase 2: exclusive scan of the block totals, by the single barrier-
  // section executor (np values: cheap, and faithful to the Force idiom of
  // doing small sequential work in a barrier section).
  ctx.barrier([&] {
    T running = block_totals[0];
    for (int b = 1; b < np; ++b) {
      const T mine = block_totals[static_cast<std::size_t>(b)];
      block_totals[static_cast<std::size_t>(b)] = running;
      running = combine(running, mine);
    }
  });

  // Phase 3: add the preceding blocks' total to every later block.
  ctx.presched_do(1, np - 1, 1, [&](std::int64_t b) {
    const std::int64_t lo = b * block;
    const std::int64_t hi = std::min<std::int64_t>(n, lo + block);
    const T offset = block_totals[static_cast<std::size_t>(b)];
    for (std::int64_t i = lo; i < hi; ++i) {
      data[static_cast<std::size_t>(i)] =
          combine(offset, data[static_cast<std::size_t>(i)]);
    }
  });
  ctx.barrier();
}

/// Sorts `data` ascending by odd-even block transposition: each process
/// sorts its block, then NP merge-split phases alternate over even/odd
/// block pairs with a barrier between phases - the classic SPMD sort for
/// barrier machines.
template <typename T>
void parallel_sort(Ctx& ctx, const Site& site, std::vector<T>& data) {
  (void)site;
  const auto n = static_cast<std::int64_t>(data.size());
  const int np = ctx.np();
  const std::int64_t block = (n + np - 1) / np;
  auto lo_of = [&](int b) {
    return std::min<std::int64_t>(n, static_cast<std::int64_t>(b) * block);
  };
  auto hi_of = [&](int b) { return std::min<std::int64_t>(n, lo_of(b) + block); };

  // Phase 0: each block locally sorted.
  ctx.presched_do(0, np - 1, 1, [&](std::int64_t b) {
    std::sort(data.begin() + lo_of(static_cast<int>(b)),
              data.begin() + hi_of(static_cast<int>(b)));
  });
  ctx.barrier();

  // NP alternating phases; in phase p, block pair (b, b+1) with b of the
  // right parity is merged by one process (the pair's owner).
  for (int phase = 0; phase < np; ++phase) {
    const int parity = phase % 2;
    ctx.presched_do(0, np - 1, 1, [&](std::int64_t b) {
      if (b % 2 != parity || b + 1 >= np) return;
      const auto lo = data.begin() + lo_of(static_cast<int>(b));
      const auto mid = data.begin() + hi_of(static_cast<int>(b));
      const auto hi = data.begin() + hi_of(static_cast<int>(b) + 1);
      std::inplace_merge(lo, mid, hi);
    });
    ctx.barrier();
  }
}

/// Histogram of `data` into `bins` buckets over [lo, hi); out-of-range
/// samples clamp to the edge buckets. Private per-process histograms are
/// merged under a critical section (the Force reduction idiom for vector
/// payloads). Returns the full histogram to every process.
template <typename T>
std::vector<std::int64_t> parallel_histogram(Ctx& ctx, const Site& site,
                                             const std::vector<T>& data,
                                             std::size_t bins, T lo, T hi) {
  FORCE_CHECK(bins > 0 && hi > lo, "bad histogram shape");
  auto& shared_hist = ctx.state<std::vector<std::int64_t>>(
      site, "%hist",
      [bins] { return std::make_unique<std::vector<std::int64_t>>(bins); });
  FORCE_CHECK(shared_hist.size() == bins,
              "histogram site reused with a different bin count");
  ctx.barrier([&] { std::fill(shared_hist.begin(), shared_hist.end(), 0); });

  std::vector<std::int64_t> local(bins, 0);
  ctx.selfsched_do(
      site, 0, static_cast<std::int64_t>(data.size()) - 1, 1,
      [&](std::int64_t i) {
        const double frac =
            static_cast<double>(data[static_cast<std::size_t>(i)] - lo) /
            static_cast<double>(hi - lo);
        auto idx = static_cast<std::ptrdiff_t>(
            frac * static_cast<double>(bins));
        idx = std::clamp<std::ptrdiff_t>(
            idx, 0, static_cast<std::ptrdiff_t>(bins) - 1);
        ++local[static_cast<std::size_t>(idx)];
      },
      /*chunk=*/64);
  ctx.critical(site, [&] {
    for (std::size_t b = 0; b < bins; ++b) shared_hist[b] += local[b];
  });
  ctx.barrier();
  return shared_hist;
}

/// Index of a maximal element (ties broken toward the lowest index),
/// computed with a member-order reduction over (value, index) pairs.
template <typename T>
std::int64_t parallel_argmax(Ctx& ctx, const Site& site,
                             const std::vector<T>& data) {
  FORCE_CHECK(!data.empty(), "argmax of an empty vector");
  struct Best {
    T value{};
    std::int64_t index = -1;
  };
  Best local;
  ctx.presched_do(0, static_cast<std::int64_t>(data.size()) - 1, 1,
                  [&](std::int64_t i) {
    const T& v = data[static_cast<std::size_t>(i)];
    if (local.index < 0 || v > local.value ||
        (v == local.value && i < local.index)) {
      local = {v, i};
    }
  });
  // Processes with an empty share contribute a sentinel that always loses.
  const Best reduced = ctx.reduce<Best>(
      site, local, [](Best a, Best b) {
        if (a.index < 0) return b;
        if (b.index < 0) return a;
        if (a.value != b.value) return a.value > b.value ? a : b;
        return a.index < b.index ? a : b;
      });
  return reduced.index;
}

}  // namespace force::core
