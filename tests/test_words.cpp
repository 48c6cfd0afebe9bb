// The address-free words (machdep/words.hpp), each shape run under both
// scopes: kPrivate with four threads, kShared with four fork()ed children.
// Either way the words live in one MAP_SHARED zero_pages mapping, so the
// two scopes differ only in who the members are and how they sleep and wake.
//
//   * word lock: mutual exclusion on a plain counter, with a blocking
//     (window 0) and a spinning waiter side by side;
//   * episode barrier: 1000 episodes, each section run exactly once while
//     every member is inside;
//   * episode gate: 1000 episodes, each opened exactly once, re-entered
//     only after all have left and left only after all have arrived;
//   * cell: producers and consumers hand off every value exactly once, and
//     a Void waits out a busy window;
//   * dispatch: claims tile [0, limit) exactly once, and the counter stays
//     clamped at the limit however often exhausted members re-probe.
//
// A forked child cannot report through gtest, so every body counts its
// failures into the shared `errors` word and the parent checks it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <new>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "machdep/pages.hpp"
#include "machdep/words.hpp"

namespace force::machdep {
// Names the parameter in test output.
void PrintTo(WordScope scope, std::ostream* os) {
  *os << (scope == WordScope::kPrivate ? "kPrivate" : "kShared");
}
}  // namespace force::machdep

namespace md = force::machdep;

namespace {

constexpr int kMembers = 4;

/// One T placed in a fresh MAP_SHARED mapping, visible to forked children.
template <typename T>
class Placed {
 public:
  Placed()
      : map_(md::zero_pages(sizeof(T), md::PageSharing::kShared)),
        p_(::new (map_.get()) T()) {}
  T* operator->() { return p_; }
  T& operator*() { return *p_; }

 private:
  md::ZeroPages map_;
  T* p_;
};

/// Runs body(m) for every member m: threads for kPrivate, forked children
/// for kShared. Children leave with _Exit; an escaped exception is a
/// non-zero status.
void run_members(md::WordScope scope, const std::function<void(int)>& body) {
  if (scope == md::WordScope::kPrivate) {
    std::vector<std::jthread> team;
    for (int m = 0; m < kMembers; ++m) team.emplace_back(body, m);
    return;
  }
  std::fflush(nullptr);
  std::vector<pid_t> pids;
  for (int m = 0; m < kMembers; ++m) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      int code = 0;
      try {
        body(m);
      } catch (...) {
        code = 1;
      }
      std::_Exit(code);
    }
    pids.push_back(pid);
  }
  for (const pid_t pid : pids) {
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
        << "member process status " << status;
  }
}

class Words : public ::testing::TestWithParam<md::WordScope> {
 protected:
  md::WordScope scope() const { return GetParam(); }
};

// --- word lock ---------------------------------------------------------------

struct LockState {
  std::atomic<std::uint32_t> lock{0};
  std::uint64_t counter = 0;  // guarded by lock
  std::atomic<std::uint32_t> inside{0};
  std::atomic<std::uint32_t> errors{0};
};

TEST_P(Words, LockExcludesAcrossMembers) {
  constexpr int kRounds = 5000;
  Placed<LockState> s;
  const md::WordScope sc = scope();
  run_members(sc, [&s, sc](int m) {
    for (int i = 0; i < kRounds; ++i) {
      if (!md::word_lock_try(s->lock)) {
        // The caller picks the window: even members block at once, odd
        // ones spin 64 probes first.
        md::Waiter w(m % 2 == 0 ? 0 : 64);
        md::word_lock_wait(s->lock, w, sc);
      }
      if (s->inside.fetch_add(1, std::memory_order_relaxed) != 0) {
        s->errors.fetch_add(1, std::memory_order_relaxed);
      }
      const std::uint64_t c = s->counter;
      if (i % 64 == 0) md::Waiter::relax(32);  // widen the race window
      s->counter = c + 1;
      s->inside.fetch_sub(1, std::memory_order_relaxed);
      md::word_lock_release(s->lock, sc);
    }
  });
  EXPECT_EQ(s->errors.load(), 0u);
  EXPECT_EQ(s->counter, static_cast<std::uint64_t>(kMembers) * kRounds);
  EXPECT_EQ(s->lock.load(), 0u);
}

// --- episode barrier ---------------------------------------------------------

struct BarrierState {
  md::EpisodeBarrier barrier;
  int arrived[kMembers] = {};  // episode each member last entered
  int sections = 0;            // written by the champion only
  std::atomic<std::uint32_t> errors{0};
};

TEST_P(Words, EpisodeBarrierRunsEachSectionOnceWithEveryMemberInside) {
  constexpr int kEpisodes = 1000;
  Placed<BarrierState> s;
  const md::WordScope sc = scope();
  run_members(sc, [&s, sc](int m) {
    for (int e = 0; e < kEpisodes; ++e) {
      s->arrived[m] = e;
      md::episode_arrive(
          s->barrier, kMembers,
          [&s, e] {
            for (int k = 0; k < kMembers; ++k) {
              if (s->arrived[k] != e) {
                s->errors.fetch_add(1, std::memory_order_relaxed);
              }
            }
            ++s->sections;
          },
          sc);
      // Nobody leaves episode e before its section has run.
      if (s->sections != e + 1) {
        s->errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(s->errors.load(), 0u);
  EXPECT_EQ(s->sections, kEpisodes);
  EXPECT_EQ(s->barrier.episode.load(), static_cast<std::uint32_t>(kEpisodes));
  EXPECT_EQ(s->barrier.count.load(), 0u);
}

// --- episode gate ------------------------------------------------------------

struct GateState {
  std::atomic<std::uint32_t> gate{0};
  int opened = -1;  // episode the opener published; written by it only
  int opens = 0;
  // Counted just before each gate_enter and gate_leave call, so a count
  // the word has taken is already in these.
  std::atomic<std::uint32_t> arriving{0};
  std::atomic<std::uint32_t> departing{0};
  std::atomic<std::uint32_t> errors{0};
};

TEST_P(Words, EpisodeGateOpensOnceAndFencesEveryEpisode) {
  constexpr std::uint32_t kEpisodes = 1000;
  Placed<GateState> s;
  const md::WordScope sc = scope();
  run_members(sc, [&s, sc](int) {
    const auto fail = [&s] {
      s->errors.fetch_add(1, std::memory_order_relaxed);
    };
    for (std::uint32_t e = 0; e < kEpisodes; ++e) {
      s->arriving.fetch_add(1);
      md::gate_enter(
          s->gate, kMembers,
          [&s, &fail, e] {
            // Re-entry only after every member of episode e-1 has left.
            if (s->departing.load() != e * kMembers) fail();
            s->opened = static_cast<int>(e);
            ++s->opens;
          },
          sc);
      // Every arriver sees what the opener published.
      if (s->opened != static_cast<int>(e)) fail();
      s->departing.fetch_add(1);
      md::gate_leave(s->gate, kMembers, sc);
      // No departure before every member has arrived.
      if (s->arriving.load() < (e + 1) * kMembers) fail();
    }
  });
  EXPECT_EQ(s->errors.load(), 0u);
  EXPECT_EQ(s->opens, static_cast<int>(kEpisodes));
  EXPECT_EQ(s->gate.load(), 0u);
}

// --- full/empty cell ---------------------------------------------------------

constexpr int kValuesPerProducer = 2000;
constexpr int kProducers = kMembers / 2;
constexpr int kValues = kProducers * kValuesPerProducer;

struct CellState {
  std::atomic<std::uint32_t> cell{md::kCellEmpty};
  std::uint64_t payload = 0;  // moved only inside a busy window
  std::atomic<std::uint32_t> seen[kValues] = {};
  std::atomic<std::uint32_t> errors{0};
};

TEST_P(Words, CellHandsEveryValueFromProducersToConsumersOnce) {
  Placed<CellState> s;
  const md::WordScope sc = scope();
  run_members(sc, [&s, sc](int m) {
    // Even members produce, odd members consume, all on one cell.
    const int rank = m / 2;
    for (int i = 0; i < kValuesPerProducer; ++i) {
      if (m % 2 == 0) {
        md::cell_seize(s->cell, md::kCellEmpty, sc);
        s->payload =
            static_cast<std::uint64_t>(rank * kValuesPerProducer + i);
        md::cell_publish(s->cell, md::kCellFull, sc);
      } else {
        md::cell_seize(s->cell, md::kCellFull, sc);
        const std::uint64_t v = s->payload;
        md::cell_publish(s->cell, md::kCellEmpty, sc);
        if (v >= static_cast<std::uint64_t>(kValues)) {
          s->errors.fetch_add(1, std::memory_order_relaxed);
        } else {
          s->seen[v].fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  });
  EXPECT_EQ(s->errors.load(), 0u);
  int once = 0;
  for (const auto& n : s->seen) once += n.load() == 1 ? 1 : 0;
  EXPECT_EQ(once, kValues);
  EXPECT_FALSE(md::cell_is_full(s->cell));
}

struct VoidState {
  std::atomic<std::uint32_t> cell{md::kCellFull};
  std::atomic<std::uint32_t> in_window{0};
  std::atomic<std::uint32_t> published{0};
  std::atomic<std::uint32_t> errors{0};
};

TEST_P(Words, VoidWaitsOutABusyWindow) {
  Placed<VoidState> s;
  const md::WordScope sc = scope();
  run_members(sc, [&s, sc](int m) {
    if (m == 0) {
      // Holds the window open long enough for the Void to arrive inside.
      if (!md::cell_try_seize(s->cell, md::kCellFull)) {
        s->errors.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      s->in_window.store(1, std::memory_order_release);
      md::Waiter::wake(s->in_window, sc, md::Wake::kAll);
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      s->published.store(1, std::memory_order_relaxed);
      md::cell_publish(s->cell, md::kCellFull, sc);
    } else if (m == 1) {
      md::Waiter().await(
          s->in_window, [](std::uint32_t v) { return v != 0; }, sc);
      md::cell_make_empty(s->cell, sc);
      // The Void may only land after the window closed.
      if (s->published.load(std::memory_order_relaxed) != 1) {
        s->errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(s->errors.load(), 0u);
  EXPECT_EQ(s->cell.load(), md::kCellEmpty);
}

// --- dispatch counter --------------------------------------------------------

constexpr std::int64_t kTrips = 10007;

struct DispatchState {
  std::atomic<std::int64_t> counter{0};
  std::atomic<std::int64_t> guided{0};
  std::atomic<std::uint32_t> hits[kTrips] = {};
  std::atomic<std::uint32_t> guided_hits[kTrips] = {};
  std::atomic<std::uint32_t> errors{0};
};

TEST_P(Words, DispatchTilesTheTripsOnceAndClampsAtTheLimit) {
  Placed<DispatchState> s;
  run_members(scope(), [&s](int m) {
    const std::int64_t want = 1 + 2 * m;  // 1, 3, 5, 7: ragged tiles
    for (;;) {
      const md::DispatchClaim c = md::dispatch_claim(s->counter, want, kTrips);
      if (c.count == 0) break;
      for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
        s->hits[t].fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Exhausted members keep probing; the counter must not run away.
    for (int i = 0; i < 100; ++i) {
      if (md::dispatch_claim(s->counter, want, kTrips).count != 0) {
        s->errors.fetch_add(1, std::memory_order_relaxed);
      }
    }
    for (;;) {
      const md::DispatchClaim c =
          md::dispatch_claim_fraction(s->guided, kTrips, 2 * kMembers);
      if (c.count == 0) break;
      for (std::int64_t t = c.begin; t < c.begin + c.count; ++t) {
        s->guided_hits[t].fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  EXPECT_EQ(s->errors.load(), 0u);
  std::int64_t once = 0;
  std::int64_t guided_once = 0;
  for (std::int64_t t = 0; t < kTrips; ++t) {
    once += s->hits[t].load() == 1 ? 1 : 0;
    guided_once += s->guided_hits[t].load() == 1 ? 1 : 0;
  }
  EXPECT_EQ(once, kTrips);
  EXPECT_EQ(guided_once, kTrips);
  EXPECT_EQ(s->counter.load(), kTrips);
  EXPECT_EQ(s->guided.load(), kTrips);
}

INSTANTIATE_TEST_SUITE_P(
    Scopes, Words,
    ::testing::Values(md::WordScope::kPrivate, md::WordScope::kShared),
    [](const ::testing::TestParamInfo<md::WordScope>& info) {
      return std::string(info.param == md::WordScope::kPrivate ? "Private"
                                                               : "Shared");
    });

}  // namespace
