#include "core/barrier.hpp"

#include <algorithm>
#include <bit>

#include "core/env.hpp"
#include "machdep/words.hpp"
#include "util/check.hpp"

namespace force::core {

const std::function<void()>& BarrierAlgorithm::no_section() {
  static const std::function<void()> kEmpty;
  return kEmpty;
}

// ---------------------------------------------------------------------------
// PaperLockBarrier: the reusable two-turnstile barrier built exclusively
// from generic Force locks (binary semaphores) - the construction available
// on every 1989 machine. The barrier section runs in the last arriver,
// which holds the entry mutex, so all other processes are provably parked
// before turnstile 1.
// ---------------------------------------------------------------------------

PaperLockBarrier::PaperLockBarrier(ForceEnvironment& env, int width)
    : width_(width),
      mutex_(env.new_lock(LockRole::kMutex, "barrier.mutex")),
      turnstile1_(env.new_lock(LockRole::kSemaphore, "barrier.turnstile1")),
      turnstile2_(env.new_lock(LockRole::kSemaphore, "barrier.turnstile2")) {
  FORCE_CHECK(width_ > 0, "barrier width must be positive");
  turnstile1_->acquire();  // phase-1 gate starts closed
}

void PaperLockBarrier::arrive(int proc0, const std::function<void()>& section) {
  FORCE_CHECK(proc0 >= 0 && proc0 < width_, "barrier process id out of range");
  // Phase 1: count arrivals; the last arriver re-arms the phase-2 gate,
  // runs the barrier section and opens the phase-1 gate.
  mutex_->acquire();
  ++count_;
  if (count_ == width_) {
    turnstile2_->acquire();
    run_section(section);
    turnstile1_->release();
  }
  mutex_->release();
  turnstile1_->acquire();  // pass the gate...
  turnstile1_->release();  // ...and hand the baton to the next process

  // Phase 2: count departures; the last process out re-arms the phase-1
  // gate and opens phase 2, making the barrier safely reusable.
  mutex_->acquire();
  --count_;
  if (count_ == 0) {
    turnstile1_->acquire();
    turnstile2_->release();
  }
  mutex_->release();
  turnstile2_->acquire();
  turnstile2_->release();
}

// ---------------------------------------------------------------------------
// CentralSenseBarrier
// ---------------------------------------------------------------------------

CentralSenseBarrier::CentralSenseBarrier(
    int width, machdep::PlacedWords<machdep::EpisodeBarrier> words,
    std::string site)
    : width_(width), words_(std::move(words)), site_(std::move(site)) {
  FORCE_CHECK(width_ > 0, "barrier width must be positive");
}

void CentralSenseBarrier::arrive(int proc0,
                                 const std::function<void()>& section) {
  FORCE_CHECK(proc0 >= 0 && proc0 < width_, "barrier process id out of range");
  machdep::Waiter::note_site(site_.c_str(), words_.scope());
  machdep::episode_arrive(
      *words_, static_cast<std::uint32_t>(width_),
      [&section] { run_section(section); }, words_.scope());
}

// ---------------------------------------------------------------------------
// TreeBarrier: pairwise combining by rank. In round r, ranks that are
// multiples of 2^(r+1) collect the arrival of rank + 2^r; other ranks
// publish their arrival stamp and drop to the release wait. Rank 0 ends up
// the champion, runs the section, and publishes the release stamp.
// ---------------------------------------------------------------------------

TreeBarrier::TreeBarrier(int width) : width_(width), slots_(width) {
  FORCE_CHECK(width_ > 0, "barrier width must be positive");
}

void TreeBarrier::arrive(int proc0, const std::function<void()>& section) {
  FORCE_CHECK(proc0 >= 0 && proc0 < width_, "barrier process id out of range");
  Slot& me = slots_[static_cast<std::size_t>(proc0)];
  const std::uint64_t ep = ++me.episode;

  for (int r = 0; (1 << r) < width_; ++r) {
    const int span = 1 << (r + 1);
    if (proc0 % span == 0) {
      const int child = proc0 + (1 << r);
      if (child < width_) {
        machdep::Waiter().await(
            slots_[static_cast<std::size_t>(child)].arrival,
            [ep](std::uint64_t v) { return v >= ep; });
      }
    } else {
      // Subtree fully combined (rounds 0..r-1 won); report and stop.
      me.arrival.store(ep, std::memory_order_release);
      machdep::Waiter::wake(me.arrival, machdep::WordScope::kPrivate,
                            machdep::Wake::kAll);
      break;
    }
  }

  if (proc0 == 0) {
    run_section(section);
    release_.store(ep, std::memory_order_release);
    machdep::Waiter::wake(release_, machdep::WordScope::kPrivate,
                          machdep::Wake::kAll);
  } else {
    machdep::Waiter().await(release_,
                            [ep](std::uint64_t v) { return v >= ep; });
  }
}

// ---------------------------------------------------------------------------
// DisseminationBarrier
// ---------------------------------------------------------------------------

DisseminationBarrier::DisseminationBarrier(int width)
    : width_(width),
      rounds_(width > 1 ? std::bit_width(static_cast<unsigned>(width - 1))
                        : 0),
      flags_(static_cast<std::size_t>(width) *
             static_cast<std::size_t>(rounds_ == 0 ? 1 : rounds_)),
      episode_(static_cast<std::size_t>(width)) {
  FORCE_CHECK(width_ > 0, "barrier width must be positive");
}

void DisseminationBarrier::arrive(int proc0,
                                  const std::function<void()>& section) {
  FORCE_CHECK(proc0 >= 0 && proc0 < width_, "barrier process id out of range");
  const std::uint64_t ep = ++episode_[static_cast<std::size_t>(proc0)].value;
  const auto stride = static_cast<std::size_t>(rounds_ == 0 ? 1 : rounds_);

  for (int r = 0; r < rounds_; ++r) {
    const int dest = (proc0 + (1 << r)) % width_;
    Flag& out = flags_[static_cast<std::size_t>(dest) * stride +
                       static_cast<std::size_t>(r)];
    out.stamp.store(ep, std::memory_order_release);
    machdep::Waiter::wake(out.stamp, machdep::WordScope::kPrivate,
                          machdep::Wake::kAll);
    Flag& in = flags_[static_cast<std::size_t>(proc0) * stride +
                      static_cast<std::size_t>(r)];
    machdep::Waiter().await(in.stamp,
                            [ep](std::uint64_t v) { return v >= ep; });
  }

  if (has_section(section)) {
    // No natural champion: rank 0 runs the section behind one extra flag.
    if (proc0 == 0) {
      section();
      section_done_.store(ep, std::memory_order_release);
      machdep::Waiter::wake(section_done_, machdep::WordScope::kPrivate,
                            machdep::Wake::kAll);
    } else {
      machdep::Waiter().await(section_done_,
                              [ep](std::uint64_t v) { return v >= ep; });
    }
  }
}

// ---------------------------------------------------------------------------
// EngineBarrier
// ---------------------------------------------------------------------------

EngineBarrier::EngineBarrier(int width,
                             std::unique_ptr<machdep::BarrierEngine> engine)
    : width_(width), engine_(std::move(engine)) {
  FORCE_CHECK(width_ > 0, "barrier width must be positive");
  FORCE_CHECK(engine_ != nullptr, "EngineBarrier needs a barrier engine");
}

void EngineBarrier::arrive(int proc0, const std::function<void()>& section) {
  FORCE_CHECK(proc0 >= 0 && proc0 < width_, "barrier process id out of range");
  engine_->arrive(proc0, has_section(section) ? &section : nullptr);
}

// ---------------------------------------------------------------------------
// Factory
// ---------------------------------------------------------------------------

std::vector<std::string> barrier_algorithm_names() {
  return {"paper-lock", "central-sense", "tree", "dissemination"};
}

bool parse_barrier_kind(const std::string& name, BarrierKind* out) {
  if (name == "auto") {
    *out = BarrierKind::kAuto;
    return true;
  }
  const std::vector<std::string> names = barrier_algorithm_names();
  const auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return false;
  // The algorithms follow kAuto in barrier_algorithm_names() order.
  *out = static_cast<BarrierKind>(1 + (it - names.begin()));
  return true;
}

std::unique_ptr<BarrierAlgorithm> make_barrier_algorithm(BarrierKind kind,
                                                         ForceEnvironment& env,
                                                         int width) {
  switch (kind) {
    case BarrierKind::kPaperLock:
      return std::make_unique<PaperLockBarrier>(env, width);
    case BarrierKind::kCentralSense:
      return std::make_unique<CentralSenseBarrier>(width);
    case BarrierKind::kTree:
      return std::make_unique<TreeBarrier>(width);
    case BarrierKind::kDissemination:
      return std::make_unique<DisseminationBarrier>(width);
    case BarrierKind::kAuto:
      break;
  }
  FORCE_CHECK(false, "'auto' names no barrier algorithm by itself");
}

std::unique_ptr<BarrierAlgorithm> make_barrier_algorithm(
    const std::string& name, ForceEnvironment& env, int width) {
  BarrierKind kind = BarrierKind::kAuto;
  FORCE_CHECK(parse_barrier_kind(name, &kind) && kind != BarrierKind::kAuto,
              "unknown barrier algorithm: " + name);
  return make_barrier_algorithm(kind, env, width);
}

}  // namespace force::core
