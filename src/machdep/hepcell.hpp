// Emulation of the Denelcor HEP's tagged memory.
//
// On the HEP every memory cell carried a hardware full/empty access-state
// bit; a read-and-set-empty or write-and-set-full retried in hardware until
// the state allowed it. The paper (§4.1.3, §4.2) leans on this: on the HEP
// an asynchronous variable needs no extra locks, while every other machine
// builds full/empty out of two locks.
//
// We emulate one tagged 64-bit cell as the shared full/empty cell word
// (machdep/words.hpp: empty/full/busy, private scope) next to the value.
// The transient busy state makes the value transfer atomic with the state
// transition, exactly as the hardware made them a single memory operation.
#pragma once

#include <atomic>
#include <cstdint>

#include "machdep/words.hpp"

namespace force::machdep {

/// One HEP tagged memory cell holding a 64-bit word.
class HepCell {
 public:
  /// Cells start empty, like Force async variables after Void.
  HepCell() = default;
  explicit HepCell(std::uint64_t initial_value);  // starts full

  HepCell(const HepCell&) = delete;
  HepCell& operator=(const HepCell&) = delete;

  /// Write-when-empty, leave full. Blocks while the cell is full.
  void produce(std::uint64_t value);
  /// Read-when-full, leave empty. Blocks while the cell is empty.
  std::uint64_t consume();
  /// Read-when-full, leave full (the Force `Copy` access).
  std::uint64_t copy() const;
  /// Force the state to empty regardless of the current state (Force Void).
  void make_empty();
  /// Force the state to full with the given value (used to init locks).
  void make_full(std::uint64_t value);

  /// Non-blocking variants; return false if the state forbids the access.
  bool try_produce(std::uint64_t value);
  bool try_consume(std::uint64_t* out);

  /// True if the cell is full at this instant (Force's state test).
  [[nodiscard]] bool is_full() const;

  // --- low-level protocol --------------------------------------------------
  // The Force runtime stores payloads wider than one word next to the cell;
  // these expose the busy-window protocol so such a payload can be moved
  // exactly while the hardware would have held the cell reserved.
  // Every seize_* must be paired with a publish_*.

  /// Blocks until the cell is empty, leaving it reserved (busy).
  void seize_empty() { seize(kCellEmpty); }
  /// Blocks until the cell is full, leaving it reserved (busy).
  void seize_full() { seize(kCellFull); }
  /// Ends a reservation, declaring the cell full.
  void publish_full() { cell_publish(state_, kCellFull, WordScope::kPrivate); }
  /// Ends a reservation, declaring the cell empty.
  void publish_empty() {
    cell_publish(state_, kCellEmpty, WordScope::kPrivate);
  }
  /// Non-blocking seize; true on success (cell now busy).
  bool try_seize_empty() { return cell_try_seize(state_, kCellEmpty); }
  bool try_seize_full() { return cell_try_seize(state_, kCellFull); }

  /// Total number of blocking waits across all cells (process-wide); a
  /// cheap proxy for how often the hardware retry queue would have engaged.
  static std::uint64_t total_waits();
  static void reset_wait_counter();

 private:
  // Seizes from `from`, counting the waits in total_waits().
  void seize(std::uint32_t from);

  std::atomic<std::uint32_t> state_{kCellEmpty};
  std::uint64_t value_ = 0;  // moved only inside a busy window
};

}  // namespace force::machdep
