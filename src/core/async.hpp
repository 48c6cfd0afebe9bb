// Asynchronous variables: Produce / Consume / Copy / Void / Isfull
// (paper §3.2, §3.4, §4.2).
//
// An async variable carries a full/empty state with its value:
//   Produce - waits for empty, writes, leaves full;
//   Consume - waits for full, reads, leaves empty;
//   Copy    - waits for full, reads, leaves full;
//   Void    - forces the state to empty regardless of its previous state;
//   Isfull  - tests the state.
//
// In-process variables move their payload through one machdep
// FullEmptyGate: the HEP's tagged cell, or the §4.2 E/F lock pair on every
// other machine (machdep/fullempty.hpp). Every operation is written once as
// seize -> sentry hooks -> move payload -> publish. Separate-process
// backends instead hand out a cell engine keyed by the label.
#pragma once

#include <memory>
#include <string>
#include <type_traits>

#include "core/env.hpp"
#include "core/sentry.hpp"
#include "machdep/backend.hpp"
#include "machdep/fullempty.hpp"
#include "machdep/locks.hpp"
#include "util/check.hpp"

namespace force::core {

template <typename T>
class Async {
  static_assert(std::is_default_constructible_v<T>,
                "async payloads must be default constructible");

 public:
  /// Creates the variable in the *empty* state (like Void at startup).
  /// `label` names the variable in sentry reports.
  explicit Async(ForceEnvironment& env, std::string label = "async")
      : env_(&env),
        sentry_(env.sentry()),
        label_(std::move(label)),
        cell_engine_(make_cell_engine(env, label_)),
        gate_(cell_engine_ == nullptr ? env.new_full_empty_gate(label_)
                                      : machdep::FullEmptyGate()) {}

  Async(const Async&) = delete;
  Async& operator=(const Async&) = delete;

  /// Waits for empty, writes `v`, leaves full.
  void produce(const T& v) {
    env_->stats().produces.fetch_add(1, std::memory_order_relaxed);
    if (cell_engine_ != nullptr) {
      cell_engine_->produce(&v);
      return;
    }
    seize(Sentry::WaitKind::kProduce, [this] { gate_.seize_empty(); });
    store(v, "Produce");
    gate_.publish_full();
  }

  /// Waits for full, reads, leaves empty.
  T consume() {
    env_->stats().consumes.fetch_add(1, std::memory_order_relaxed);
    T v{};
    if (cell_engine_ != nullptr) {
      cell_engine_->consume(&v);
      return v;
    }
    seize(Sentry::WaitKind::kConsume, [this] { gate_.seize_full(); });
    load(&v, "Consume");
    gate_.publish_empty();
    return v;
  }

  /// Waits for full, reads, leaves full (the Force Copy access). On the
  /// lock gate this holds E throughout, so a concurrent producer (which
  /// needs F, locked while full) cannot interleave.
  T copy() {
    T v{};
    if (cell_engine_ != nullptr) {
      cell_engine_->copy(&v);
      return v;
    }
    seize(Sentry::WaitKind::kConsume, [this] { gate_.seize_full(); });
    load(&v, "Copy");
    gate_.publish_full();
    return v;
  }

  /// Non-blocking produce; true on success.
  bool try_produce(const T& v) {
    if (cell_engine_ != nullptr) {
      if (!cell_engine_->try_produce(&v)) return false;
    } else {
      if (!gate_.try_seize_empty()) return false;
      store(v, "Produce");
      gate_.publish_full();
    }
    env_->stats().produces.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Non-blocking consume; true on success.
  bool try_consume(T* out) {
    FORCE_CHECK(out != nullptr, "try_consume needs an output slot");
    if (cell_engine_ != nullptr) {
      if (!cell_engine_->try_consume(out)) return false;
    } else {
      if (!gate_.try_seize_full()) return false;
      load(out, "Consume");
      gate_.publish_empty();
    }
    env_->stats().consumes.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Forces the state to empty regardless of the previous state (Void).
  /// Concurrent Voids are serialized; a Void that overlaps an in-flight
  /// Produce may land before or after it, as on the original machines.
  void void_state() {
    if (cell_engine_ != nullptr) {
      cell_engine_->void_state();
      return;
    }
    // Void gives no exclusion window over the payload, so the sentry only
    // joins clocks (channel_sync), it does not record a payload access.
    if (sentry_ != nullptr) sentry_->channel_sync(this);
    gate_.make_empty();
  }

  /// Tests the state (Force's Isfull). Inherently a snapshot.
  [[nodiscard]] bool is_full() const {
    // Backends without the isfull capability throw the uniform capability
    // diagnostic from inside their engine.
    if (cell_engine_ != nullptr) return cell_engine_->is_full();
    return gate_.is_full();
  }

  /// True if this variable uses the HEP tagged-cell gate.
  [[nodiscard]] bool uses_hardware_path() const {
    return cell_engine_ == nullptr && gate_.hardware();
  }

 private:
  /// Separate-process backends hand out a cell engine keyed by the label
  /// (labels are construct-unique: sites, names, array elements); the
  /// payload then crosses by memcpy, which is why those backends reject
  /// non-trivially-copyable types. Null on the thread backend.
  static std::unique_ptr<machdep::AsyncCell> make_cell_engine(
      ForceEnvironment& env, const std::string& label) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      return env.backend().make_async_cell(label, sizeof(T), alignof(T));
    } else {
      env.require(machdep::Capability::kNonTrivialPayloads, "Async payload",
                  label);
      return nullptr;
    }
  }

  /// Runs a blocking gate seize; with the sentry on, the wait is
  /// registered so the watchdog can report a stalled Produce/Consume.
  template <typename Seize>
  void seize(Sentry::WaitKind kind, const Seize& seize_gate) {
    if (sentry_ == nullptr) {
      seize_gate();
      return;
    }
    Sentry::WaitScope ws(sentry_, kind, this, label_);
    seize_gate();
  }

  /// Payload moves inside an open window; the sentry records the access.
  void store(const T& v, const char* op) {
    if (sentry_ == nullptr) {
      value_ = v;
      return;
    }
    sentry_->channel_enter(this, /*is_write=*/true, op);
    value_ = v;
    sentry_->channel_exit(this);
  }
  void load(T* out, const char* op) {
    if (sentry_ == nullptr) {
      *out = value_;
      return;
    }
    sentry_->channel_enter(this, /*is_write=*/false, op);
    *out = value_;
    sentry_->channel_exit(this);
  }

  ForceEnvironment* env_;
  Sentry* sentry_;  // null when validation is off (the usual case)
  std::string label_;
  // Separate-process backends: the full/empty state and payload live in
  // one backend cell engine keyed by label_ (an arena blob under os-fork,
  // the coordinator's cell table under cluster). Null on the thread
  // backend, which moves value_ through gate_.
  std::unique_ptr<machdep::AsyncCell> cell_engine_;
  // The machine's full/empty expansion; a variable backed by a cell engine
  // never touches it, so it gets the lock-free one.
  machdep::FullEmptyGate gate_;
  T value_{};
};

/// A fixed-size array of async variables (Force `Async real A(n)`), e.g.
/// for pipelined wavefront algorithms where element (i) being full means
/// row i is ready. Also the stress subject of the lock-scarcity bench.
template <typename T>
class AsyncArray {
 public:
  AsyncArray(ForceEnvironment& env, std::size_t n, std::string label = "async")
      : label_(std::move(label)) {
    slots_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      slots_.push_back(std::make_unique<Async<T>>(
          env, label_ + "(" + std::to_string(i) + ")"));
    }
  }

  [[nodiscard]] std::size_t size() const { return slots_.size(); }
  Async<T>& operator[](std::size_t i) {
    FORCE_CHECK(i < slots_.size(), "async array index out of range");
    return *slots_[i];
  }

 private:
  std::string label_;
  std::vector<std::unique_ptr<Async<T>>> slots_;
};

}  // namespace force::core
