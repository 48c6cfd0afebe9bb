// Reductions over the force (extension; construction per paper §4.2).
//
// The Force's own reduction idiom is "private partial + critical section
// + barrier", spelled out in every numerical program. This header packages
// that idiom as a construct, in the two shapes the machine-independent
// layer can build from the low-level primitives:
//
//   * kCritical  - every process adds its contribution under one lock,
//                  then a barrier publishes the result (O(P) serialized
//                  lock passes: the faithful Force idiom);
//   * kTournament - pairwise combining over per-process slots along the
//                  tree-barrier schedule (O(log P) depth, no locks).
//
// Both return the reduced value to every process (allreduce semantics),
// and both are reusable across episodes. The ablation bench (E2b in
// EXPERIMENTS.md) contrasts their traffic.
//
// kCritical is built only from lower-level pieces every backend provides:
// a keyed CriticalSection, a keyed team barrier and an arena blob, so one
// path runs on every process model. kTournament needs per-process slots in
// one address space; elsewhere it quietly runs kCritical.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "core/barrier.hpp"
#include "core/critical.hpp"
#include "core/env.hpp"
#include "machdep/backend.hpp"
#include "machdep/wait.hpp"

namespace force::core {

enum class ReduceStrategy {
  kCritical,   ///< lock-serialized accumulation (the Force idiom)
  kTournament  ///< pairwise combining tree (log-depth extension)
};

/// Shared state of one reduction site for payload T.
/// T must be copyable; `combine` must be associative and commutative
/// (contributions arrive in no particular order).
template <typename T>
class Reduction {
 public:
  /// `key` is the construct's stable site key. It names the critical
  /// section's lock ("reduce@<key>"), the team barrier and the arena blob
  /// that holds the critical idiom's state, so every address space that
  /// reaches the same site meets the same lock, barrier and state.
  Reduction(ForceEnvironment& env, int width,
            const std::string& key = "reduce")
      : width_(width) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      state_ = &env.arena().get_or_create<State>("%reduce/" + key);
    } else {
      // Only backends that share one address space accept such payloads,
      // so the state may live in this object.
      env.require(machdep::Capability::kNonTrivialPayloads,
                  "Reduction payload", key);
      owned_state_ = std::make_unique<State>();
      state_ = owned_state_.get();
    }
    critical_ = std::make_unique<CriticalSection>(env, "reduce@" + key);
    barrier_ = env.make_team_barrier(width, "%reduce/" + key + "/barrier");
    // The tournament's per-process slots cannot cross address spaces; on
    // the other backends kTournament runs the critical idiom instead.
    if (env.supports(machdep::Capability::kThreadBarrierAlgorithms)) {
      // vector(count) rather than resize(): Slot holds an atomic, so it is
      // not MoveInsertable, which resize() formally requires.
      slots_ = std::vector<Slot>(static_cast<std::size_t>(width));
    }
  }

  /// Contributes `local` and returns the combined value of all width
  /// contributions of this episode. Every process of the team must call
  /// (SPMD); the identity element is the first contribution itself, so no
  /// identity value is needed.
  T allreduce(int me0, const T& local, const std::function<T(T, T)>& combine,
              ReduceStrategy strategy, T* shared_target = nullptr) {
    FORCE_CHECK(me0 >= 0 && me0 < width_, "bad reduce process id");
    if (strategy == ReduceStrategy::kTournament && !slots_.empty()) {
      return allreduce_tournament(me0, local, combine, shared_target);
    }
    return allreduce_critical(me0, local, combine, shared_target);
  }

 private:
  /// The critical idiom's episode state. The arrival count comes first so
  /// os-fork death recovery can zero it without knowing T.
  struct State {
    std::uint32_t arrived = 0;  // guarded by critical_
    T acc{};                    // guarded by critical_
    T result{};                 // written by the barrier section
  };

  T allreduce_critical(int me0, const T& local,
                       const std::function<T(T, T)>& combine,
                       T* shared_target) {
    State& s = *state_;
    critical_->enter([&] {
      s.acc = s.arrived == 0 ? local : combine(s.acc, local);
      ++s.arrived;
    });
    // The barrier section snapshots the total and re-arms the episode
    // while every process is parked - no second barrier needed. A shared
    // target is written here, by the single section executor, so the
    // store is race-free and visible to everyone leaving the barrier.
    barrier_->arrive(me0, [&s, shared_target] {
      s.result = s.acc;
      s.arrived = 0;
      if (shared_target != nullptr) *shared_target = s.result;
    });
    return s.result;
  }

  T allreduce_tournament(int me0, const T& local,
                         const std::function<T(T, T)>& combine,
                         T* shared_target) {
    Slot& mine = slots_[static_cast<std::size_t>(me0)];
    mine.value = local;
    const std::uint64_t ep = ++mine.episode;
    // Combine along the same pairwise schedule as TreeBarrier: rank p
    // collects rank p + 2^r while p is a multiple of 2^(r+1).
    for (int r = 0; (1 << r) < width_; ++r) {
      const int span = 1 << (r + 1);
      if (me0 % span == 0) {
        const int child = me0 + (1 << r);
        if (child < width_) {
          Slot& theirs = slots_[static_cast<std::size_t>(child)];
          // Wait for the child to have *fully combined its subtree* for
          // this episode: it bumps `combined` after losing round r.
          machdep::Waiter().await(
              theirs.combined, [ep](std::uint64_t v) { return v >= ep; });
          mine.value = combine(mine.value, theirs.value);
        }
      } else {
        mine.combined.store(ep, std::memory_order_release);
        mine.combined.notify_all();
        break;
      }
    }
    if (me0 == 0) {
      mine.combined.store(ep, std::memory_order_release);
      state_->result = mine.value;
      // Single-writer point: the champion holds the only complete value.
      if (shared_target != nullptr) *shared_target = mine.value;
      broadcast_.store(ep, std::memory_order_release);
      broadcast_.notify_all();
    } else {
      machdep::Waiter().await(broadcast_,
                              [ep](std::uint64_t v) { return v >= ep; });
    }
    // A trailing barrier keeps the episode reusable: nobody may overwrite
    // its slot while a parent could still read it.
    barrier_->arrive(me0);
    return state_->result;
  }

  struct alignas(64) Slot {
    T value{};
    std::uint64_t episode = 0;
    std::atomic<std::uint64_t> combined{0};
  };

  int width_;
  State* state_ = nullptr;  // arena blob, or owned_state_
  std::unique_ptr<State> owned_state_;
  std::unique_ptr<CriticalSection> critical_;
  std::unique_ptr<BarrierAlgorithm> barrier_;
  std::vector<Slot> slots_;  // kTournament; empty where it cannot run
  std::atomic<std::uint64_t> broadcast_{0};
};

}  // namespace force::core
