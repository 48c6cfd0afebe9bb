// Bounded Chase-Lev work-stealing deque of records (machine-dependent layer).
//
// This is the second lock-free structure gated on
// MachineSpec::hardware_atomic_rmw (the first is DispatchCounter): a
// single-owner double-ended queue where the owner pushes and pops at the
// bottom (LIFO, cache-warm) and any number of thieves steal from the top
// (FIFO, oldest task first). The Askfor monitor uses one per worker as its
// dispatch fast path and keeps the tasks themselves in it: a slot holds a
// whole trivially copyable record, not an index into shared storage. The
// deque is all atomic words, so it works the same placed in the os-fork
// arena. Lock-only machines never reach this file.
//
// Each slot is a row of relaxed std::atomic words, so a record is copied
// word by word: a thief reads the slot into a private copy before its CAS
// and hands the copy out only once the CAS won, so a thief that loses has
// read no memory that raced a non-atomic write (and TSan sees none).
//
// The memory ordering follows Le, Pop, Cohen & Zappa Nardelli, "Correct
// and Efficient Work-Stealing for Weak Memory Models" (PPoPP 2013). The
// deque is deliberately *bounded*: a full push returns false and the
// caller routes the record to the monitor's central queue instead - no
// allocation, no buffer growth race, and a natural backpressure valve.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace force::machdep {

template <typename R>
class StealDeque {
  static_assert(std::is_trivially_copyable_v<R>,
                "StealDeque records are copied word by word");

 public:
  /// Capacity must be a power of two (index masking).
  static constexpr std::size_t kCapacity = 1024;

  /// Owner only. False when full (caller falls back to the central queue).
  bool push(const R& record) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    if (b - t >= static_cast<std::int64_t>(kCapacity)) return false;
    Words w{};
    std::memcpy(w.data(), &record, sizeof(R));
    for (std::size_t k = 0; k < kWords; ++k) {
      buffer_[index(b)][k].store(w[k], std::memory_order_relaxed);
    }
    // The record's stores must be visible before the new bottom is (a
    // release store too: TSan does not model the fence).
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_release);
    return true;
  }

  /// Owner only: LIFO pop into `*out` (raw storage is fine). False when
  /// empty.
  bool pop(R* out) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    bottom_.store(b, std::memory_order_relaxed);
    // The bottom decrement must be ordered before the top read, or an
    // owner and a thief could both take the last element.
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
    if (t <= b) {
      const Words w = read(b);
      bool won = true;
      if (t == b) {
        // Last element: race the thieves for it via top.
        won = top_.compare_exchange_strong(t, t + 1,
                                           std::memory_order_seq_cst,
                                           std::memory_order_relaxed);
        bottom_.store(b + 1, std::memory_order_relaxed);
      }
      if (won) std::memcpy(static_cast<void*>(out), w.data(), sizeof(R));
      return won;
    }
    bottom_.store(b + 1, std::memory_order_relaxed);
    return false;
  }

  /// Any thread: FIFO steal into `*out`. False when empty or when the CAS
  /// lost a race (callers treat both as "try elsewhere").
  bool steal(R* out) {
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
    if (t >= b) return false;
    const Words w = read(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return false;
    }
    std::memcpy(static_cast<void*>(out), w.data(), sizeof(R));
    return true;
  }

  /// Empties the deque without reading it, also from a torn state (an
  /// owner killed mid-pop). Only while no owner or thief is inside.
  void reset() {
    top_.store(0, std::memory_order_relaxed);
    bottom_.store(0, std::memory_order_relaxed);
  }

  /// Racy size hint (idle scans and diagnostics only).
  [[nodiscard]] std::int64_t size_hint() const {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_relaxed);
    return b > t ? b - t : 0;
  }

 private:
  static constexpr std::size_t kWords =
      (sizeof(R) + sizeof(std::uint64_t) - 1) / sizeof(std::uint64_t);
  using Words = std::array<std::uint64_t, kWords>;
  using Slot = std::array<std::atomic<std::uint64_t>, kWords>;

  static std::size_t index(std::int64_t i) {
    return static_cast<std::size_t>(i) & (kCapacity - 1);
  }

  Words read(std::int64_t i) const {
    Words w;
    for (std::size_t k = 0; k < kWords; ++k) {
      w[k] = buffer_[index(i)][k].load(std::memory_order_relaxed);
    }
    return w;
  }

  // top and bottom on their own cache lines: thieves hammer top, the
  // owner hammers bottom.
  alignas(64) std::atomic<std::int64_t> top_{0};
  alignas(64) std::atomic<std::int64_t> bottom_{0};
  alignas(64) Slot buffer_[kCapacity]{};
};

}  // namespace force::machdep
