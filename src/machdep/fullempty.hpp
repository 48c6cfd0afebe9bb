// The full/empty gate behind every in-process async variable (paper §4.2).
//
// The paper expands Produce/Consume two ways, chosen by the machine:
//
//   * the HEP: one tagged memory cell - the full/empty cell word of
//     machdep/words.hpp, as in HepCell - and no locks at all. `native`
//     runs the same word by compare-and-swap: it has atomic RMW and its
//     locks are not a budgeted resource (machdep::atomic_full_empty), so
//     the lower level uses what the machine has (§4.1);
//   * every other machine (and native under dispatch="locked"): two locks
//     E and F, where empty == (E locked, F unlocked) and full == (F
//     locked, E unlocked):
//         Produce: Lock F;  write;  Unlock E.
//         Consume: Lock E;  read;   Unlock F.
//     Note the cross-thread unlock: this is why Force locks are binary
//     semaphores, not mutexes. A third lock serializes Void.
//
// FullEmptyGate is both expansions behind one seize/publish protocol: a
// seize_* blocks for the wanted state and opens an exclusive window over
// the payload, which the caller moves before the matching publish_*
// closes it. The expansion is fixed at construction. Both keep the state
// in one cell word the owner places next to the payload - in a block the
// variable owns on the thread backend, in the MAP_SHARED arena (shared
// scope) under os-fork, which always runs the cell - so a handoff writes
// one line; the lock expansion only records full/empty there for Isfull
// and Void, and waits on E and F.
#pragma once

#include <atomic>
#include <memory>

#include "machdep/locks.hpp"
#include "machdep/words.hpp"

namespace force::machdep {

class FullEmptyGate {
 public:
  /// The cell-word gate (the HEP's tagged cell, native's atomic RMW): the
  /// caller's cell word, waited on in `scope`; no locks. The word starts
  /// empty.
  FullEmptyGate(std::atomic<std::uint32_t>& cell, WordScope scope)
      : cell_(&cell), scope_(scope) {}
  /// The lock gate over the §4.2 pair `e`/`f` plus the Void guard, noting
  /// the state in `cell`. Starts empty (acquires `e`).
  FullEmptyGate(std::atomic<std::uint32_t>& cell, std::unique_ptr<BasicLock> e,
                std::unique_ptr<BasicLock> f,
                std::unique_ptr<BasicLock> void_guard);

  FullEmptyGate(const FullEmptyGate&) = delete;
  FullEmptyGate& operator=(const FullEmptyGate&) = delete;

  /// Blocks until empty, then opens the window (Produce: Lock F).
  void seize_empty() {
    if (hardware()) {
      cell_seize(*cell_, kCellEmpty, scope_);
    } else {
      f_->acquire();
    }
  }
  /// Closes the window, leaving the gate full (Produce: Unlock E).
  void publish_full() {
    if (hardware()) {
      cell_publish(*cell_, kCellFull, scope_);
    } else {
      cell_->store(kCellFull, std::memory_order_release);
      e_->release();
    }
  }
  /// Blocks until full, then opens the window (Consume/Copy: Lock E).
  void seize_full() {
    if (hardware()) {
      cell_seize(*cell_, kCellFull, scope_);
    } else {
      e_->acquire();
    }
  }
  /// Closes the window, leaving the gate empty (Consume: Unlock F).
  void publish_empty() {
    if (hardware()) {
      cell_publish(*cell_, kCellEmpty, scope_);
    } else {
      cell_->store(kCellEmpty, std::memory_order_release);
      f_->release();
    }
  }
  /// Non-blocking seizes; true when the window is now open.
  bool try_seize_empty() {
    return hardware() ? cell_try_seize(*cell_, kCellEmpty) : f_->try_acquire();
  }
  bool try_seize_full() {
    return hardware() ? cell_try_seize(*cell_, kCellFull) : e_->try_acquire();
  }

  /// Forces the state to empty from any state (Void). Concurrent Voids are
  /// serialized; one that overlaps an in-flight Produce may land before or
  /// after it, as on the original machines.
  void make_empty();

  /// Snapshot of the state (Isfull).
  [[nodiscard]] bool is_full() const { return cell_is_full(*cell_); }

  /// True for the cell-word expansion (no locks).
  [[nodiscard]] bool hardware() const { return e_ == nullptr; }

 private:
  std::atomic<std::uint32_t>* cell_;
  WordScope scope_ = WordScope::kPrivate;
  std::unique_ptr<BasicLock> e_;  // lock expansion (null on the cell word)
  std::unique_ptr<BasicLock> f_;
  std::unique_ptr<BasicLock> void_guard_;
};

}  // namespace force::machdep
