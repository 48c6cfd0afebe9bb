#include "machdep/hepcell.hpp"

namespace force::machdep {

namespace {
std::atomic<std::uint64_t> g_hep_waits{0};
}  // namespace

HepCell::HepCell(std::uint64_t initial_value)
    : state_(kCellFull), value_(initial_value) {}

void HepCell::seize(std::uint32_t from) {
  const std::uint32_t waits = cell_seize(state_, from, WordScope::kPrivate);
  if (waits != 0) g_hep_waits.fetch_add(waits, std::memory_order_relaxed);
}

void HepCell::produce(std::uint64_t value) {
  seize_empty();
  value_ = value;
  publish_full();
}

std::uint64_t HepCell::consume() {
  seize_full();
  const std::uint64_t v = value_;
  publish_empty();
  return v;
}

std::uint64_t HepCell::copy() const {
  auto* self = const_cast<HepCell*>(this);
  self->seize_full();
  const std::uint64_t v = value_;
  self->publish_full();
  return v;
}

void HepCell::make_empty() { cell_make_empty(state_, WordScope::kPrivate); }

void HepCell::make_full(std::uint64_t value) {
  cell_seize_stable(state_, WordScope::kPrivate);
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

bool HepCell::is_full() const { return cell_is_full(state_); }

std::uint64_t HepCell::total_waits() {
  return g_hep_waits.load(std::memory_order_relaxed);
}

void HepCell::reset_wait_counter() {
  g_hep_waits.store(0, std::memory_order_relaxed);
}

}  // namespace force::machdep
