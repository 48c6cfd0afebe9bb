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
// fixed at construction. GateDoallSite is the in-process selfscheduled DO
// site built on it, for the thread and os-fork backends alike: its words
// are placed by the caller - in a block of its own on thread, in the
// MAP_SHARED arena (shared scope) under os-fork, which always runs the
// word gate. The opener publishes the bounds and arms the
// DispatchCounter inside open(): with the word gate that is one home
// block of trips per member, which the ready bit publishes before any
// member claims, and which no member re-arms before every member of the
// previous episode has left.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "machdep/backend.hpp"
#include "machdep/locks.hpp"
#include "machdep/words.hpp"

namespace force::machdep {

class EpisodeGate {
 public:
  /// The word gate for a team of `width` over the caller's `word`, waited
  /// on in `scope`; no locks.
  EpisodeGate(int width, std::atomic<std::uint32_t>& word, WordScope scope);
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
      gate_enter(*word_, width_, open, scope_);
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
  std::atomic<std::uint32_t>* word_ = nullptr;  // word expansion
  WordScope scope_ = WordScope::kPrivate;
  std::unique_ptr<BasicLock> barwin_;  // lock expansion (null for the word)
  std::unique_ptr<BasicLock> barwot_;
  std::uint32_t zznbar_ = 0;  // arrival counter, guarded by the gates
};

/// The in-process selfscheduled DO site: the gate and the dispatch counter
/// over `words`, plus the bounds the episode's opener publishes there.
/// `label` names the site in os-fork death reports.
class GateDoallSite final : public DoallSite {
 public:
  GateDoallSite(PlacedWords<DoallWords> words,
                std::unique_ptr<EpisodeGate> gate,
                std::unique_ptr<DispatchCounter> dispatch, std::string label);

  DoallBounds enter(std::int64_t start, std::int64_t last, std::int64_t incr,
                    std::int64_t trips) override;
  DispatchClaim claim(int me0, std::int64_t want,
                      std::int64_t limit) override {
    return dispatch_->claim(me0, want, limit);
  }
  DispatchClaim claim_fraction(int me0, std::int64_t limit,
                               std::int64_t divisor) override {
    return dispatch_->claim_fraction(me0, limit, divisor);
  }
  void leave() override { gate_->leave(); }

 private:
  PlacedWords<DoallWords> words_;
  std::unique_ptr<EpisodeGate> gate_;
  /// The asynchronous loop index - home blocks, or the paper's shared
  /// index - counted in *trips claimed* (0-based) rather than raw index
  /// values so claims clamp at the trip count and can never overflow, and
  /// so chunked/guided/2D all share one engine.
  std::unique_ptr<DispatchCounter> dispatch_;
  std::string label_;
};

}  // namespace force::machdep
