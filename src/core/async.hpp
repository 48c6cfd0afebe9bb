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
// Async<T> holds one machdep::AsyncCell, picked at construction and
// called the same way by every operation. On thread and os-fork it is the
// in-process cell below: the payload moves through one machdep
// FullEmptyGate - the full/empty cell word on the HEP (its tagged cell)
// and on native (atomic RMW, unbudgeted locks), or the §4.2 E/F lock pair
// on every other machine and on native under dispatch="locked"
// (machdep/fullempty.hpp, ForceEnvironment::new_full_empty_gate) - and
// every operation is written once as seize -> sentry hooks -> move
// payload -> publish. A handoff on the cell word writes only that word's
// line and the payload beside it: the Produce/Consume counts go to the
// calling thread's shard of RuntimeStats. Under os-fork its cell word and
// payload live in the arena blob kAsyncWords + label and the gate is
// always the cell word. The cluster backend, which has no shared memory,
// hands out an RPC cell instead.
#pragma once

#include <memory>
#include <string>
#include <type_traits>

#include "core/env.hpp"
#include "core/sentry.hpp"
#include "machdep/backend.hpp"
#include "machdep/fullempty.hpp"
#include "util/check.hpp"

namespace force::core {

/// The in-process async cell: a FullEmptyGate over a payload of type T,
/// with the sentry's hooks around every payload move.
template <typename T>
class LocalAsyncCell final : public machdep::AsyncCell {
 public:
  LocalAsyncCell(ForceEnvironment& env, std::string label)
      : sentry_(env.sentry()),
        label_(std::move(label)),
        words_(env.place_words<Words>(machdep::kAsyncWords + label_)),
        gate_(env.new_full_empty_gate(label_, words_->cell)) {}

  void produce(const void* value) override {
    seize(Sentry::WaitKind::kProduce, [this] { gate_.seize_empty(); });
    store(value, "Produce");
    gate_.publish_full();
  }
  void consume(void* out) override {
    seize(Sentry::WaitKind::kConsume, [this] { gate_.seize_full(); });
    load(out, "Consume");
    gate_.publish_empty();
  }
  // On the lock gate this holds E throughout, so a concurrent producer
  // (which needs F, locked while full) cannot interleave.
  void copy(void* out) override {
    seize(Sentry::WaitKind::kConsume, [this] { gate_.seize_full(); });
    load(out, "Copy");
    gate_.publish_full();
  }
  bool try_produce(const void* value) override {
    if (!gate_.try_seize_empty()) return false;
    store(value, "Produce");
    gate_.publish_full();
    return true;
  }
  bool try_consume(void* out) override {
    if (!gate_.try_seize_full()) return false;
    load(out, "Consume");
    gate_.publish_empty();
    return true;
  }
  void void_state() override {
    // Void gives no exclusion window over the payload, so the sentry only
    // joins clocks (channel_sync), it does not record a payload access.
    if (sentry_ != nullptr) sentry_->channel_sync(this);
    gate_.make_empty();
  }
  [[nodiscard]] bool is_full() override { return gate_.is_full(); }

  [[nodiscard]] bool hardware() const { return gate_.hardware(); }

 private:
  using Words = machdep::AsyncWords<T>;

  /// Runs a blocking gate seize; with the sentry on, the wait is
  /// registered so the watchdog can report a stalled Produce/Consume.
  template <typename Seize>
  void seize(Sentry::WaitKind kind, const Seize& seize_gate) {
    machdep::Waiter::note_site(label_.c_str(), words_.scope());
    if (sentry_ == nullptr) {
      seize_gate();
      return;
    }
    Sentry::WaitScope ws(sentry_, kind, this, label_);
    seize_gate();
  }

  /// Payload moves inside an open window; the sentry records the access.
  void transfer(const T& from, T& to, bool is_write, const char* op) {
    if (sentry_ != nullptr) sentry_->channel_enter(this, is_write, op);
    to = from;
    if (sentry_ != nullptr) sentry_->channel_exit(this);
  }
  void store(const void* value, const char* op) {
    transfer(*static_cast<const T*>(value), words_->payload, true, op);
  }
  void load(void* out, const char* op) {
    transfer(words_->payload, *static_cast<T*>(out), false, op);
  }

  Sentry* sentry_;  // null when validation is off (the usual case)
  std::string label_;
  machdep::PlacedWords<Words> words_;
  machdep::FullEmptyGate gate_;
};

template <typename T>
class Async {
  static_assert(std::is_default_constructible_v<T>,
                "async payloads must be default constructible");

 public:
  /// Creates the variable in the *empty* state (like Void at startup).
  /// `label` names the variable in sentry reports; separate-process
  /// backends key its cell by it (labels are construct-unique: sites,
  /// names, array elements).
  explicit Async(ForceEnvironment& env, std::string label = "async")
      : env_(&env), cell_(make_cell(env, std::move(label))) {}

  Async(const Async&) = delete;
  Async& operator=(const Async&) = delete;

  /// Waits for empty, writes `v`, leaves full.
  void produce(const T& v) {
    env_->stats().produces.fetch_add(1, std::memory_order_relaxed);
    cell_->produce(&v);
  }

  /// Waits for full, reads, leaves empty.
  T consume() {
    env_->stats().consumes.fetch_add(1, std::memory_order_relaxed);
    T v{};
    cell_->consume(&v);
    return v;
  }

  /// Waits for full, reads, leaves full (the Force Copy access).
  T copy() {
    T v{};
    cell_->copy(&v);
    return v;
  }

  /// Non-blocking produce; true on success.
  bool try_produce(const T& v) {
    if (!cell_->try_produce(&v)) return false;
    env_->stats().produces.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Non-blocking consume; true on success.
  bool try_consume(T* out) {
    FORCE_CHECK(out != nullptr, "try_consume needs an output slot");
    if (!cell_->try_consume(out)) return false;
    env_->stats().consumes.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  /// Forces the state to empty regardless of the previous state (Void).
  /// Concurrent Voids are serialized; a Void that overlaps an in-flight
  /// Produce may land before or after it, as on the original machines.
  void void_state() { cell_->void_state(); }

  /// Tests the state (Force's Isfull). Inherently a snapshot. Backends
  /// without the isfull capability throw the uniform capability diagnostic
  /// from inside their cell.
  [[nodiscard]] bool is_full() const { return cell_->is_full(); }

  /// True if this variable runs the full/empty cell word rather than the
  /// E/F lock pair: the HEP's expansion, native's (atomic RMW) unless
  /// dispatch="locked", and every variable whose words are in the os-fork
  /// arena.
  [[nodiscard]] bool uses_hardware_path() const { return hardware_; }

 private:
  /// The cluster's cell where the backend hands one out, otherwise the
  /// in-process cell. Payloads cross address spaces by memcpy (the wire,
  /// the arena), so only the thread backend takes non-trivially-copyable
  /// types.
  std::unique_ptr<machdep::AsyncCell> make_cell(ForceEnvironment& env,
                                                std::string label) {
    if constexpr (std::is_trivially_copyable_v<T>) {
      if (auto remote = env.backend().make_async_cell(label, sizeof(T))) {
        return remote;
      }
    } else {
      env.require(machdep::Capability::kNonTrivialPayloads, "Async payload",
                  label);
    }
    auto local = std::make_unique<LocalAsyncCell<T>>(env, std::move(label));
    hardware_ = local->hardware();
    return local;
  }

  ForceEnvironment* env_;
  bool hardware_ = false;
  std::unique_ptr<machdep::AsyncCell> cell_;
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
