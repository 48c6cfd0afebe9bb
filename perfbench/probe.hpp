// The benchmark's wrappers around the Force's public construct calls.
//
// Application kernels (apps.hpp) call constructs only through a Probe. With
// a null recorder (the untraced run) each wrapper forwards straight to the
// Ctx call; with a recorder it opens a construct span around the call and
// a body span around each application callback the construct runs, so the
// construct's self time excludes the application's work. Sited constructs
// without a pure accessor of their own (selfsched_do, reduce_into) are
// preceded, in the traced run only, by a timed Ctx::critical_section lookup
// at the same site: one site resolution per construct execution, the cost
// every sited construct pays before it starts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "spans.hpp"
#include "theforce.hpp"

namespace perfbench {

class Probe {
 public:
  Probe(force::Ctx& ctx, Recorder* rec) : ctx_(ctx), rec_(rec) {}

  [[nodiscard]] int me() const { return ctx_.me(); }
  [[nodiscard]] int np() const { return ctx_.np(); }
  [[nodiscard]] bool leader() const { return ctx_.leader(); }

  void barrier() {
    Scope s(rec_, Kind::kBarrier);
    ctx_.barrier();
  }

  template <typename F>
  void barrier(F&& section) {
    Scope s(rec_, Kind::kBarrier);
    ctx_.barrier([&] {
      Scope b(rec_, Kind::kSection);
      section();
    });
  }

  template <typename T, typename C>
  T reduce_into(const force::core::Site& site, const T& local, T& target,
                C&& combine) {
    lookup_probe(site);
    Scope s(rec_, Kind::kReduce);
    return ctx_.reduce_into<T>(site, local, target, std::forward<C>(combine));
  }

  template <typename F>
  void selfsched_do(const force::core::Site& site, std::int64_t first,
                    std::int64_t last, F&& body) {
    lookup_probe(site);
    Scope s(rec_, Kind::kSelfsched);
    ctx_.selfsched_do(site, first, last, 1, [&](std::int64_t i) {
      Scope b(rec_, Kind::kDoallBody);
      body(i);
    });
  }

  template <typename F>
  void presched_do(std::int64_t first, std::int64_t last, F&& body) {
    Scope s(rec_, Kind::kPresched);
    ctx_.presched_do(first, last, 1, [&](std::int64_t i) {
      Scope b(rec_, Kind::kDoallBody);
      body(i);
    });
  }

  template <typename F>
  void critical(const force::core::Site& site, F&& body) {
    lookup_probe(site);
    Scope s(rec_, Kind::kCritical);
    ctx_.critical(site, [&] {
      Scope b(rec_, Kind::kCriticalBody);
      body();
    });
  }

  template <typename T>
  force::core::Askfor<T>& askfor(const force::core::Site& site) {
    Scope s(rec_, Kind::kSiteLookup);
    return ctx_.askfor<T>(site);
  }

  template <typename T>
  void put(force::core::Askfor<T>& af, T task) {
    Scope s(rec_, Kind::kAskforPut);
    af.put(task);
  }

  /// Askfor worker loop; `body(task)` may call put() on this probe.
  template <typename T, typename F>
  std::size_t work(force::core::Askfor<T>& af, F&& body) {
    Scope s(rec_, Kind::kAskforWork);
    return af.work([&](T& task, force::core::Askfor<T>&) {
      Scope b(rec_, Kind::kAskforTask);
      body(task);
    });
  }

  template <typename T>
  force::core::AsyncArray<T>& async_array(const force::core::Site& site,
                                          std::size_t n) {
    Scope s(rec_, Kind::kSiteLookup);
    return ctx_.async_array<T>(site, n);
  }

  template <typename T>
  void produce(force::core::Async<T>& cell, const T& v) {
    Scope s(rec_, Kind::kProduce);
    cell.produce(v);
  }

  template <typename T>
  T consume(force::core::Async<T>& cell) {
    Scope s(rec_, Kind::kConsume);
    return cell.consume();
  }

  /// Application work outside any construct (a pipeline stage).
  template <typename F>
  auto stage(F&& f) {
    Scope s(rec_, Kind::kStage);
    return f();
  }

 private:
  void lookup_probe(const force::core::Site& site) {
    if (rec_ == nullptr) return;
    Scope s(rec_, Kind::kSiteLookup);
    (void)ctx_.critical_section(site);
  }

  force::Ctx& ctx_;
  Recorder* rec_;
};

}  // namespace perfbench
