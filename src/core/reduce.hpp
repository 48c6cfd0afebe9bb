// Reductions over the force (extension; construction per paper §4.2).
//
// The Force's own reduction idiom is "private partial + critical section
// + barrier", spelled out in every numerical program. This header packages
// it as one barrier episode with a payload: every process writes its
// partial into its own slot, then arrives at a team barrier whose section
// - run by one process while the others are parked - folds the slots left
// to right in process order 0..width-1 and publishes the result.
//
// The fold order is fixed, so any `combine` (floating-point addition
// included) gives the same bits on every run and every backend. No lock is
// taken beyond the barrier's own. The slots live in the arena blob
// `%reduce/<key>`, and the barrier orders every slot write before the
// section and the section's writes before every departure, so the same
// path runs under thread, os-fork and cluster. The barrier is the
// environment's team barrier, so a Reduce episode carries the same
// happens-before edges and trace spans as ctx.barrier().
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/barrier.hpp"
#include "core/env.hpp"
#include "machdep/backend.hpp"

namespace force::core {

/// Shared state of one reduction site for payload T (copyable and
/// default-constructible).
template <typename T>
class Reduction {
 public:
  /// `key` is the construct's stable site key. It names the team barrier
  /// and the arena blob `{T result; T slot[width]}`, so every address space
  /// that reaches the same site meets the same barrier and slots.
  Reduction(ForceEnvironment& env, int width,
            const std::string& key = "reduce")
      : width_(width) {
    const auto cells = static_cast<std::size_t>(width) + 1;
    if constexpr (std::is_trivially_copyable_v<T>) {
      cells_ = static_cast<T*>(env.arena().allocate_once(
          "%reduce/" + key, cells * sizeof(T),
          std::max<std::size_t>(alignof(T), 64), machdep::VarClass::kShared,
          [cells](void* raw) {
            std::uninitialized_value_construct_n(static_cast<T*>(raw), cells);
          }));
    } else {
      // Only backends that share one address space accept such payloads,
      // so the same layout may live in this object.
      env.require(machdep::Capability::kNonTrivialPayloads,
                  "Reduction payload", key);
      owned_cells_.resize(cells);
      cells_ = owned_cells_.data();
    }
    barrier_ = env.make_team_barrier(width, "%reduce/" + key + "/barrier");
  }

  /// Contributes `local` and returns the member-order fold of all width
  /// contributions of this episode. Every process of the team must call
  /// (SPMD); the fold starts from process 0's contribution, so no identity
  /// value is needed. `shared_target`, if given, is written by the section.
  T allreduce(int me0, const T& local, const std::function<T(T, T)>& combine,
              T* shared_target = nullptr) {
    FORCE_CHECK(me0 >= 0 && me0 < width_, "bad reduce process id");
    T* const result = cells_;
    T* const slot = cells_ + 1;
    slot[me0] = local;
    // Nobody reads a slot outside the section, and the result is rewritten
    // only by the next episode's section, which cannot run before every
    // process has copied this one out and arrived again: one barrier per
    // episode keeps the site reusable.
    barrier_->arrive(me0, [&] {
      T acc = slot[0];
      for (int p = 1; p < width_; ++p) acc = combine(std::move(acc), slot[p]);
      *result = acc;
      if (shared_target != nullptr) *shared_target = std::move(acc);
    });
    return *result;
  }

 private:
  int width_;
  T* cells_ = nullptr;  // {result, slot[0..width-1]}: arena blob or owned
  std::vector<T> owned_cells_;
  std::unique_ptr<BarrierAlgorithm> barrier_;
};

}  // namespace force::core
