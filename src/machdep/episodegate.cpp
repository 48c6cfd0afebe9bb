#include "machdep/episodegate.hpp"

#include "util/check.hpp"

namespace force::machdep {

EpisodeGate::EpisodeGate(int width) : width_(static_cast<std::uint32_t>(width)) {
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
    gate_leave(word_, width_, WordScope::kPrivate);
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

}  // namespace force::machdep
