// The full/empty gate behind every in-process async variable (paper §4.2).
//
// The paper expands Produce/Consume two ways, chosen by the machine:
//
//   * the HEP: one tagged memory cell (HepCell) - no locks at all;
//   * every other machine: two locks E and F, where empty == (E locked,
//     F unlocked) and full == (F locked, E unlocked):
//         Produce: Lock F;  write;  Unlock E.
//         Consume: Lock E;  read;   Unlock F.
//     Note the cross-thread unlock: this is why Force locks are binary
//     semaphores, not mutexes. A third lock serializes Void.
//
// FullEmptyGate is both expansions behind one seize/publish protocol: a
// seize_* blocks for the wanted state and opens an exclusive window over
// the payload, which the caller moves before the matching publish_*
// closes it. The expansion is fixed at construction.
#pragma once

#include <atomic>
#include <memory>

#include "machdep/hepcell.hpp"
#include "machdep/locks.hpp"

namespace force::machdep {

class FullEmptyGate {
 public:
  /// The HEP gate: one tagged cell, no locks. Starts empty.
  FullEmptyGate() = default;
  /// The lock gate over the §4.2 pair `e`/`f` plus the Void guard. Starts
  /// empty (acquires `e`).
  FullEmptyGate(std::unique_ptr<BasicLock> e, std::unique_ptr<BasicLock> f,
                std::unique_ptr<BasicLock> void_guard);

  FullEmptyGate(const FullEmptyGate&) = delete;
  FullEmptyGate& operator=(const FullEmptyGate&) = delete;

  /// Blocks until empty, then opens the window (Produce: Lock F).
  void seize_empty() {
    if (hardware()) {
      cell_.seize_empty();
    } else {
      f_->acquire();
    }
  }
  /// Closes the window, leaving the gate full (Produce: Unlock E).
  void publish_full() {
    if (hardware()) {
      cell_.publish_full();
    } else {
      full_.store(true, std::memory_order_release);
      e_->release();
    }
  }
  /// Blocks until full, then opens the window (Consume/Copy: Lock E).
  void seize_full() {
    if (hardware()) {
      cell_.seize_full();
    } else {
      e_->acquire();
    }
  }
  /// Closes the window, leaving the gate empty (Consume: Unlock F).
  void publish_empty() {
    if (hardware()) {
      cell_.publish_empty();
    } else {
      full_.store(false, std::memory_order_release);
      f_->release();
    }
  }
  /// Non-blocking seizes; true when the window is now open.
  bool try_seize_empty() {
    return hardware() ? cell_.try_seize_empty() : f_->try_acquire();
  }
  bool try_seize_full() {
    return hardware() ? cell_.try_seize_full() : e_->try_acquire();
  }

  /// Forces the state to empty from any state (Void). Concurrent Voids are
  /// serialized; one that overlaps an in-flight Produce may land before or
  /// after it, as on the original machines.
  void make_empty();

  /// Snapshot of the state (Isfull).
  [[nodiscard]] bool is_full() const {
    return hardware() ? cell_.is_full()
                      : full_.load(std::memory_order_acquire);
  }

  /// True for the HEP tagged-cell expansion.
  [[nodiscard]] bool hardware() const { return e_ == nullptr; }

 private:
  HepCell cell_;                        // HEP expansion
  std::unique_ptr<BasicLock> e_;        // lock expansion (null on the HEP)
  std::unique_ptr<BasicLock> f_;
  std::unique_ptr<BasicLock> void_guard_;
  std::atomic<bool> full_{false};
};

}  // namespace force::machdep
