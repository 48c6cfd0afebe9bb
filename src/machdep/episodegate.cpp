#include "machdep/episodegate.hpp"

#include "util/check.hpp"

namespace force::machdep {

EpisodeGate::EpisodeGate(int width, std::atomic<std::uint32_t>& word,
                         WordScope scope)
    : width_(static_cast<std::uint32_t>(width)), word_(&word), scope_(scope) {
  FORCE_CHECK(width > 0 && width_ <= kGateMaxWidth,
              "episode gate width out of range");
}

EpisodeGate::EpisodeGate(int width, std::unique_ptr<BasicLock> barwin,
                         std::unique_ptr<BasicLock> barwot)
    : width_(static_cast<std::uint32_t>(width)),
      barwin_(std::move(barwin)),
      barwot_(std::move(barwot)) {
  FORCE_CHECK(width > 0, "episode gate width out of range");
  barwot_->acquire();  // exits blocked until all have entered the episode
}

void EpisodeGate::leave() {
  if (lock_free()) {
    gate_leave(*word_, width_, scope_);
    return;
  }
  barwot_->acquire();
  --zznbar_;
  if (zznbar_ == 0) {
    barwin_->release();
  } else {
    barwot_->release();
  }
}

GateDoallSite::GateDoallSite(PlacedWords<DoallWords> words,
                             std::unique_ptr<EpisodeGate> gate,
                             std::unique_ptr<DispatchCounter> dispatch,
                             std::string label)
    : words_(std::move(words)),
      gate_(std::move(gate)),
      dispatch_(std::move(dispatch)),
      label_(std::move(label)) {}

DoallBounds GateDoallSite::enter(std::int64_t start, std::int64_t last,
                                 std::int64_t incr, std::int64_t trips) {
  Waiter::note_site(label_.c_str(), words_.scope());
  gate_->enter([&] {
    words_->bounds = {start, last, incr, trips};
    // Single writer while the gate is open only to it; the gate publishes.
    dispatch_->reset(trips);
  });
  // Stable until every member has departed, which is after this read.
  return words_->bounds;
}

}  // namespace force::machdep
