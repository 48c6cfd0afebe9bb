#include "machdep/hepcell.hpp"

#include "machdep/wait.hpp"

namespace force::machdep {

namespace {
std::atomic<std::uint64_t> g_hep_waits{0};
}  // namespace

HepCell::HepCell(std::uint64_t initial_value)
    : state_(kFull), value_(initial_value) {}

void HepCell::await_and_seize(State from) {
  Waiter w;
  for (;;) {
    std::uint32_t expected = from;
    if (state_.compare_exchange_weak(expected, kBusy,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return;
    }
    if (expected != from) {
      // Not in the desired state: wait until it is, then race for it.
      g_hep_waits.fetch_add(1, std::memory_order_relaxed);
      w.await(state_, [from](std::uint32_t v) { return v == from; });
    }
    // CAS failure with expected == from is spurious; just retry.
  }
}

void HepCell::produce(std::uint64_t value) {
  await_and_seize(kEmpty);
  value_ = value;
  publish_full();
}

std::uint64_t HepCell::consume() {
  await_and_seize(kFull);
  const std::uint64_t v = value_;
  publish_empty();
  return v;
}

std::uint64_t HepCell::copy() const {
  auto* self = const_cast<HepCell*>(this);
  self->await_and_seize(kFull);
  const std::uint64_t v = value_;
  self->publish_full();
  return v;
}

void HepCell::seize_stable() {
  Waiter w;
  for (;;) {
    std::uint32_t expected = w.await(
        state_, [](std::uint32_t v) { return v != kBusy; });
    if (state_.compare_exchange_weak(expected, kBusy,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return;
    }
  }
}

void HepCell::make_empty() {
  // Void must succeed from any state; win the busy protocol from either
  // stable state, then declare empty.
  seize_stable();
  publish_empty();
}

void HepCell::make_full(std::uint64_t value) {
  seize_stable();
  value_ = value;
  publish_full();
}

bool HepCell::try_produce(std::uint64_t value) {
  if (!try_seize_empty()) return false;
  value_ = value;
  publish_full();
  return true;
}

bool HepCell::try_consume(std::uint64_t* out) {
  if (!try_seize_full()) return false;
  *out = value_;
  publish_empty();
  return true;
}

void HepCell::publish_full() {
  state_.store(kFull, std::memory_order_release);
  state_.notify_all();
}

void HepCell::publish_empty() {
  state_.store(kEmpty, std::memory_order_release);
  state_.notify_all();
}

bool HepCell::try_seize_empty() {
  std::uint32_t expected = kEmpty;
  return state_.compare_exchange_strong(expected, kBusy,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

bool HepCell::try_seize_full() {
  std::uint32_t expected = kFull;
  return state_.compare_exchange_strong(expected, kBusy,
                                        std::memory_order_acquire,
                                        std::memory_order_relaxed);
}

bool HepCell::is_full() const {
  return state_.load(std::memory_order_acquire) == kFull;
}

std::uint64_t HepCell::total_waits() {
  return g_hep_waits.load(std::memory_order_relaxed);
}

void HepCell::reset_wait_counter() {
  g_hep_waits.store(0, std::memory_order_relaxed);
}

}  // namespace force::machdep
