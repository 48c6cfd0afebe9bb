// A multi-word reduction shared by the reduce tests of every backend
// (thread, os-fork, cluster): the same program must return the same
// oracle everywhere. The payload is trivially copyable and every value is
// exact in binary, so any combine order yields the same bits.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>

#include "core/force.hpp"

namespace reduce_moments {

struct Moments {
  double sum = 0;
  double max = 0;
  std::int64_t n = 0;
  bool operator==(const Moments&) const = default;
};

inline Moments combine(Moments a, Moments b) {
  return {a.sum + b.sum, std::max(a.max, b.max), a.n + b.n};
}

/// Member `me`'s (1-based) contribution in round `r`.
inline Moments contribution(int me, int r) {
  return {0.5 * me * (r + 1), 0.25 * me + r, me};
}

inline Moments oracle(int np, int r) {
  Moments m = contribution(1, r);
  for (int me = 2; me <= np; ++me) m = combine(m, contribution(me, r));
  return m;
}

constexpr int kRounds = 4;
constexpr int kMaxNp = 8;

using Published = std::array<Moments, kRounds>;
using Agreed = std::array<std::int64_t, kMaxNp>;

/// Runs kRounds reduce_into episodes at one site. The barrier section
/// writes round r into `published[r]`; each member stores how many of the
/// values it got back matched the oracle into its slot of `agreed`. Both
/// must live in the Force's shared arena on separate-process backends.
inline void run_rounds(force::Force& f, Published& published,
                       Agreed& agreed) {
  published = {};
  agreed = {};
  f.run([&](force::core::Ctx& ctx) {
    std::int64_t ok = 0;
    for (int r = 0; r < kRounds; ++r) {
      const Moments got = ctx.reduce_into<Moments>(
          FORCE_SITE, contribution(ctx.me(), r),
          published[static_cast<std::size_t>(r)], combine);
      if (got == oracle(ctx.np(), r)) ++ok;
    }
    agreed[static_cast<std::size_t>(ctx.me0())] = ok;
    ctx.barrier();
  });
}

inline void expect_oracle(const Published& published, const Agreed& agreed,
                          int np) {
  for (int r = 0; r < kRounds; ++r) {
    const Moments want = oracle(np, r);
    const Moments& got = published[static_cast<std::size_t>(r)];
    EXPECT_EQ(got.sum, want.sum) << "round " << r;
    EXPECT_EQ(got.max, want.max) << "round " << r;
    EXPECT_EQ(got.n, want.n) << "round " << r;
  }
  for (int p = 0; p < np; ++p) {
    EXPECT_EQ(agreed[static_cast<std::size_t>(p)], kRounds) << "member " << p;
  }
}

}  // namespace reduce_moments
