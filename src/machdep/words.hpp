// One address-free atomic word per synchronization shape (paper §4.1.3:
// every construct is built once over a small machine-dependent level).
//
// Each shape below exists exactly once, as functions over words the caller
// places - in its own object on the thread backend, in the MAP_SHARED
// arena on the os-fork backend - plus the WordScope that says which. The
// words are plain std::atomic integers, so the same code is fork-safe; the
// scope only picks how machdep::Waiter sleeps and wakes on them.
//
//   * the word lock: 0 free, 1 held, 2 held with waiters (SystemLock,
//     CombinedLock, shm::ShmLock, the arena and askfor monitors);
//   * the episode barrier: {count, episode}, the width-th arriver runs
//     the section and bumps the episode (CentralSenseBarrier, also the
//     os-fork keyed barrier);
//   * the episode gate: arrivals, departures and a ready bit in one word,
//     the selfsched entry/exit protocol without an entry barrier
//     (EpisodeGate's word implementation);
//   * the full/empty cell word: empty/full/busy, where busy is the window
//     in which the owner of a seize moves the payload (HepCell,
//     FullEmptyGate's HEP expansion, every os-fork async variable);
//   * the clamped dispatch counter and the home blocks built from it
//     (DispatchCounter's lock-free engine): one claim word per member,
//     stolen from with the same RMW once the member's own runs dry.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>

#include "machdep/wait.hpp"
#include "util/check.hpp"

namespace force::machdep {

// --- word lock -------------------------------------------------------------

/// Takes a free lock word without waiting; true on success.
inline bool word_lock_try(std::atomic<std::uint32_t>& word) {
  std::uint32_t free = 0;
  return word.compare_exchange_strong(free, 1, std::memory_order_acquire,
                                      std::memory_order_relaxed);
}

/// The contended acquire, after a failed word_lock_try: advertises a
/// waiter (2) and waits until the word leaves 2. Acquiring through the
/// exchange leaves the word at 2, so the eventual release always wakes -
/// one spurious wake per contention burst, never a lost one. The caller's
/// Waiter sets the spin window and collects the spin/sleep counts.
inline void word_lock_wait(std::atomic<std::uint32_t>& word, Waiter& w,
                           WordScope scope) {
  while (word.exchange(2, std::memory_order_acquire) != 0) {
    w.await(word, [](std::uint32_t v) { return v != 2; }, scope);
  }
}

/// Takes a lock word, spending the host's default spin window first.
inline void word_lock_acquire(std::atomic<std::uint32_t>& word,
                              WordScope scope) {
  if (word_lock_try(word)) return;
  Waiter w;
  word_lock_wait(word, w, scope);
}

/// Frees a lock word; wakes one waiter when one was advertised. Any
/// thread or process may release (the binary-semaphore contract). The
/// exchange is seq_cst so it cannot pass the private wake's check for
/// sleepers.
inline void word_lock_release(std::atomic<std::uint32_t>& word,
                              WordScope scope) {
  if (word.exchange(0, std::memory_order_seq_cst) == 2) {
    Waiter::wake(word, scope, Wake::kOne);
  }
}

// --- episode barrier -------------------------------------------------------

/// The two words of a central barrier. The episode word is the sense, so
/// no per-member state is needed and any process that maps the words can
/// arrive.
struct alignas(64) EpisodeBarrier {
  std::atomic<std::uint32_t> count{0};
  std::atomic<std::uint32_t> episode{0};
};

/// One arrival of `width`. The width-th arriver is the champion: it runs
/// `section()` while every other arriver waits on the episode word, resets
/// the count, then publishes episode+1 and wakes them all.
template <typename Section>
void episode_arrive(EpisodeBarrier& b, std::uint32_t width,
                    const Section& section, WordScope scope) {
  const std::uint32_t ep = b.episode.load(std::memory_order_acquire);
  if (b.count.fetch_add(1, std::memory_order_acq_rel) + 1 == width) {
    // A process re-arriving for the next episode first acquire-loads
    // episode != ep, which orders its fetch_add after this reset.
    section();
    b.count.store(0, std::memory_order_relaxed);
    b.episode.store(ep + 1, std::memory_order_seq_cst);
    Waiter::wake(b.episode, scope, Wake::kAll);
    return;
  }
  Waiter().await(b.episode, [ep](std::uint32_t v) { return v != ep; },
                 scope);
}

// --- episode gate ----------------------------------------------------------

/// The selfsched entry/exit gate in one word: arrivals in bits 0-14,
/// departures in bits 15-29 and the ready bit 30. It keeps the shape of
/// the paper's BARWIN/BARWOT/ZZNBAR expansion: the first arriver opens the
/// episode and later arrivers wait only for that, no member departs before
/// all have arrived, and re-entry waits until all have departed, when the
/// last departure clears the word.
inline constexpr std::uint32_t kGateArrival = 1;
inline constexpr std::uint32_t kGateDeparture = 1u << 15;
inline constexpr std::uint32_t kGateReady = 1u << 30;
inline constexpr std::uint32_t kGateMaxWidth = kGateDeparture - 1;

inline std::uint32_t gate_arrivals(std::uint32_t v) {
  return v & kGateMaxWidth;
}
inline std::uint32_t gate_departures(std::uint32_t v) {
  return (v / kGateDeparture) & kGateMaxWidth;
}

/// One arrival of `width`. The first arriver runs `open()` (publish the
/// episode's state) and sets the ready bit; a later arriver returns as soon
/// as the bit is set, without waiting for the rest of the team. An arrival
/// while all `width` of the previous episode are still inside waits for
/// the last of them to depart.
template <typename Open>
void gate_enter(std::atomic<std::uint32_t>& gate, std::uint32_t width,
                const Open& open, WordScope scope) {
  Waiter w;
  std::uint32_t v = gate.load(std::memory_order_relaxed);
  for (;;) {
    if (gate_arrivals(v) == width) {
      v = w.await(
          gate, [width](std::uint32_t x) { return gate_arrivals(x) != width; },
          scope);
    }
    // Success acquires the previous episode's clearing store, so open()
    // runs after every departure from it.
    if (gate.compare_exchange_weak(v, v + kGateArrival,
                                   std::memory_order_acq_rel,
                                   std::memory_order_relaxed)) {
      break;
    }
  }
  v += kGateArrival;
  bool changed = gate_arrivals(v) == width;  // departures may now start
  if (gate_arrivals(v) == 1) {
    open();
    gate.fetch_or(kGateReady, std::memory_order_seq_cst);
    changed = true;
  } else if ((v & kGateReady) == 0) {
    w.await(gate, [](std::uint32_t x) { return (x & kGateReady) != 0; },
            scope);
  }
  if (changed) Waiter::wake(gate, scope, Wake::kAll);
}

/// One departure of `width`: waits until every member has arrived, then
/// counts itself out. The last departure clears the word, which re-opens
/// the gate for the next episode.
inline void gate_leave(std::atomic<std::uint32_t>& gate, std::uint32_t width,
                       WordScope scope) {
  // Stable once true: the word cannot clear before this departure counts.
  Waiter().await(
      gate, [width](std::uint32_t x) { return gate_arrivals(x) == width; },
      scope);
  const std::uint32_t v =
      gate.fetch_add(kGateDeparture, std::memory_order_acq_rel) +
      kGateDeparture;
  if (gate_departures(v) == width) {
    gate.store(0, std::memory_order_seq_cst);
    Waiter::wake(gate, scope, Wake::kAll);
  }
}

// --- full/empty cell word --------------------------------------------------

/// Cell word states. Busy reserves the payload for the one seizer, making
/// the value transfer atomic with the state change.
inline constexpr std::uint32_t kCellEmpty = 0;
inline constexpr std::uint32_t kCellFull = 1;
inline constexpr std::uint32_t kCellBusy = 2;

/// Opens the payload window when the cell holds `from`; true on success.
inline bool cell_try_seize(std::atomic<std::uint32_t>& cell,
                           std::uint32_t from) {
  return cell.compare_exchange_strong(from, kCellBusy,
                                      std::memory_order_acquire,
                                      std::memory_order_relaxed);
}

/// Blocks until the cell holds `from`, then opens the window. Returns how
/// often it found the cell in another state and had to wait.
inline std::uint32_t cell_seize(std::atomic<std::uint32_t>& cell,
                                std::uint32_t from, WordScope scope) {
  Waiter w;
  std::uint32_t waits = 0;
  while (!cell_try_seize(cell, from)) {
    ++waits;
    w.await(cell, [from](std::uint32_t v) { return v == from; }, scope);
  }
  return waits;
}

/// Closes the window, leaving the cell `to` (full or empty).
inline void cell_publish(std::atomic<std::uint32_t>& cell, std::uint32_t to,
                         WordScope scope) {
  cell.store(to, std::memory_order_seq_cst);
  Waiter::wake(cell, scope, Wake::kAll);
}

/// Waits out any busy window, then opens one from whichever stable state
/// the cell holds; returns that state.
inline std::uint32_t cell_seize_stable(std::atomic<std::uint32_t>& cell,
                                       WordScope scope) {
  Waiter w;
  for (;;) {
    std::uint32_t s =
        w.await(cell, [](std::uint32_t v) { return v != kCellBusy; }, scope);
    if (cell.compare_exchange_strong(s, kCellBusy, std::memory_order_acquire,
                                     std::memory_order_relaxed)) {
      return s;
    }
  }
}

/// Forces the cell empty from any state (Force Void). A Void overlapping
/// an in-flight access waits out its busy window, as on the HEP.
inline void cell_make_empty(std::atomic<std::uint32_t>& cell,
                            WordScope scope) {
  cell_seize_stable(cell, scope);
  cell_publish(cell, kCellEmpty, scope);
}

/// True when the cell is full at this instant (Isfull).
inline bool cell_is_full(const std::atomic<std::uint32_t>& cell) {
  return cell.load(std::memory_order_acquire) == kCellFull;
}

// --- dispatch counter ------------------------------------------------------

/// One dispatch grant: trips [begin, begin+count) of the current episode.
/// count == 0 means the work is exhausted (the claim still counts as a
/// dispatch, matching the paper's one-exhausted-grab-per-process shape).
struct DispatchClaim {
  std::int64_t begin = 0;
  std::int64_t count = 0;
};

/// Claims up to `want` trips below `limit` with one fetch-add. Exactly-once
/// follows from the RMW total order: successive returns tile [reset, ...)
/// contiguously. A claim that reaches past `limit` pulls the runaway value
/// back to `limit`, so unbounded re-probing cannot overflow the counter and
/// the counter ends the episode at `limit`; every trip below `limit` has
/// been granted by then. A result at or past `limit` claims nothing.
inline DispatchClaim dispatch_claim(std::atomic<std::int64_t>& counter,
                                    std::int64_t want, std::int64_t limit) {
  FORCE_CHECK(want >= 1, "dispatch claim must want at least one trip");
  const std::int64_t t = counter.fetch_add(want, std::memory_order_acq_rel);
  if (t > limit - want) {
    std::int64_t cur = counter.load(std::memory_order_relaxed);
    while (cur > limit &&
           !counter.compare_exchange_weak(cur, limit,
                                          std::memory_order_acq_rel,
                                          std::memory_order_relaxed)) {
    }
    if (t >= limit) return {t, 0};
  }
  return {t, std::min(want, limit - t)};
}

/// Guided claim: max(1, remaining / divisor) trips, remaining = limit -
/// current. A CAS loop, since the claim size depends on the value replaced.
inline DispatchClaim dispatch_claim_fraction(
    std::atomic<std::int64_t>& counter, std::int64_t limit,
    std::int64_t divisor) {
  FORCE_CHECK(divisor >= 1, "dispatch divisor must be at least one");
  std::int64_t t = counter.load(std::memory_order_relaxed);
  for (;;) {
    if (t >= limit) return {t, 0};
    const std::int64_t want = std::max<std::int64_t>(1, (limit - t) / divisor);
    if (counter.compare_exchange_weak(t, t + want, std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return {t, want};
    }
  }
}

// --- home-block dispatch ---------------------------------------------------

/// Home blocks per dispatch site. A wider team shares them: member me0's
/// home is block me0 % kDispatchBlocks, still exactly-once because every
/// block is claimed by RMW.
inline constexpr std::uint32_t kDispatchBlocks = 16;

/// One home block: its claim word and its end, on a line of their own, so
/// a claim at home touches no other member's line.
struct alignas(64) DispatchBlock {
  std::atomic<std::int64_t> next{0};
  std::int64_t end = 0;
};

/// The dispatch words of one selfsched site: the shared loop index of the
/// lock engine and the home blocks of the word engine.
struct DispatchWords {
  alignas(64) std::atomic<std::int64_t> shared{0};
  DispatchBlock blocks[kDispatchBlocks];
};

/// Arms the first `n` blocks as contiguous slices of trips [0, trips) in
/// member order, their sizes differing by at most one. Single writer: the
/// caller publishes the blocks (the episode gate's ready bit).
inline void dispatch_arm(DispatchBlock* blocks, std::uint32_t n,
                         std::int64_t trips) {
  // From q and r, not trips * s / n, which can overflow.
  const std::int64_t q = trips / n;
  const std::int64_t r = trips % n;
  std::int64_t begin = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    blocks[s].next.store(begin, std::memory_order_relaxed);
    begin += q + (s < r ? 1 : 0);
    blocks[s].end = begin;
  }
}

/// One claim for the member whose home is block `home` of `n`: `claim`
/// (dispatch_claim or dispatch_claim_fraction on a block's word, up to
/// the block's end) on the home block first, then on the others in member
/// order from home + 1. Thieves take the front of a block with the same
/// RMW as its owner. A count of 0 means one full scan found every block
/// empty: the work is exhausted.
template <typename Claim>
DispatchClaim dispatch_claim_home(DispatchBlock* blocks, std::uint32_t n,
                                  std::uint32_t home, const Claim& claim) {
  std::uint32_t s = home;
  for (std::uint32_t i = 0; i < n; ++i) {
    DispatchBlock& b = blocks[s];
    // A block stays empty for the rest of the episode, so a plain look
    // passes it by without an RMW on its owner's line.
    if (b.next.load(std::memory_order_relaxed) < b.end) {
      const DispatchClaim c = claim(b.next, b.end);
      if (c.count > 0) return c;
    }
    s = s + 1 == n ? 0 : s + 1;
  }
  return {blocks[n - 1].end, 0};
}

}  // namespace force::machdep
