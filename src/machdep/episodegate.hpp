// The entry/exit gate behind every in-process selfscheduled DO (paper §4.2).
//
// The paper expands the loop's episode protocol from two locks and a
// counter, the shape every 1989 machine can build:
//
//   entry:  lock(BARWIN); the first arriver (ZZNBAR == 0) sets up the
//           loop; ZZNBAR += 1; the last arriver unlocks BARWOT, every
//           other one unlocks BARWIN.
//   exit:   lock(BARWOT); ZZNBAR -= 1; the last one out unlocks BARWIN,
//           every other one unlocks BARWOT.
//
// A machine with atomic RMW keeps the same protocol in one word
// (machdep/words.hpp: arrivals, departures and a ready bit). Either way the
// first arriver opens the episode, later arrivers may claim without
// waiting for anyone else (there is no entry barrier), no member leaves
// before all have arrived, and re-entry waits until all have left.
// EpisodeGate is both expansions behind enter/leave; the expansion is
// fixed at construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "machdep/locks.hpp"
#include "machdep/words.hpp"

namespace force::machdep {

class EpisodeGate {
 public:
  /// The word gate for a team of `width`: one gate word, no locks.
  explicit EpisodeGate(int width);
  /// The lock gate over BARWIN (entry) and BARWOT (exit, acquired here so
  /// exits start blocked).
  EpisodeGate(int width, std::unique_ptr<BasicLock> barwin,
              std::unique_ptr<BasicLock> barwot);

  EpisodeGate(const EpisodeGate&) = delete;
  EpisodeGate& operator=(const EpisodeGate&) = delete;

  /// Arrives for this episode. The first arriver runs `open()` before any
  /// other arriver returns; later arrivers wait for nothing else.
  template <typename Open>
  void enter(const Open& open) {
    if (lock_free()) {
      gate_enter(word_, width_, open, WordScope::kPrivate);
      return;
    }
    barwin_->acquire();
    if (zznbar_ == 0) open();
    ++zznbar_;
    if (zznbar_ == width_) {
      barwot_->release();
    } else {
      barwin_->release();
    }
  }

  /// Departs this episode; blocks until every member has arrived.
  void leave();

  /// True for the one-word expansion.
  [[nodiscard]] bool lock_free() const { return barwin_ == nullptr; }

 private:
  std::uint32_t width_;
  alignas(64) std::atomic<std::uint32_t> word_{0};  // word expansion
  std::unique_ptr<BasicLock> barwin_;  // lock expansion (null for the word)
  std::unique_ptr<BasicLock> barwot_;
  std::uint32_t zznbar_ = 0;  // arrival counter, guarded by the gates
};

}  // namespace force::machdep
