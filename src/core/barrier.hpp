// Barriers with barrier sections (paper §3.4, §4.2; algorithms per [AJ87],
// "Comparing Barrier Algorithms").
//
// Force semantics: at a barrier all processes wait for each other; one
// arbitrary process then executes the barrier section while all others
// remain suspended; when it leaves the section, everyone proceeds. A
// barrier must be reusable (programs put them inside sequential loops).
//
// Four algorithms are provided, matching the families [AJ87] compares:
//
//   * paper-lock    - built from generic Force locks only (two turnstiles
//                     and a counter), the shape a lock-only machine uses;
//   * central-sense - one atomic counter + sense reversal;
//   * tree          - binary combining tree arrival, sense-reversed release;
//   * dissemination - log2(P) rounds of pairwise signalling (no natural
//                     champion, so the section costs one extra mini-phase).
//
// All algorithms implement the same interface and all support sections, so
// bench E2 can sweep them under identical workloads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machdep/backend.hpp"
#include "machdep/locks.hpp"
#include "machdep/words.hpp"

namespace force::core {

class ForceEnvironment;

/// A reusable barrier over a fixed set of `width` processes (0-based ids).
class BarrierAlgorithm {
 public:
  virtual ~BarrierAlgorithm() = default;

  /// Waits for all processes; `section` (may be empty) runs exactly once
  /// per episode, by exactly one process, while the others are suspended.
  virtual void arrive(int proc0, const std::function<void()>& section) = 0;
  void arrive(int proc0) { arrive(proc0, no_section()); }

  /// The one empty barrier section every no-section arrival shares;
  /// algorithms test it through run_section()/has_section() below.
  static const std::function<void()>& no_section();

  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual int width() const = 0;

 protected:
  /// Runs `section` iff it has a target; never throws on an empty one.
  static void run_section(const std::function<void()>& section) {
    if (section) section();
  }
  static bool has_section(const std::function<void()>& section) {
    return static_cast<bool>(section);
  }
};

/// The lock-only barrier: mutex lock + two turnstile locks + counter, the
/// construction available on every 1989 machine (cf. the BARWIN / BARWOT /
/// ZZNBAR environment variables in the paper's macro expansion).
class PaperLockBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  PaperLockBarrier(ForceEnvironment& env, int width);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return "paper-lock"; }
  int width() const override { return width_; }

 private:
  int width_;
  int count_ = 0;  // guarded by *mutex_
  std::unique_ptr<machdep::BasicLock> mutex_;
  std::unique_ptr<machdep::BasicLock> turnstile1_;  // starts locked
  std::unique_ptr<machdep::BasicLock> turnstile2_;  // starts unlocked
};

/// Central counter with sense reversal; the classic shared-memory barrier.
/// It is the episode barrier word (machdep/words.hpp): the episode word is
/// the sense, so no per-process sense is kept. Placed in the os-fork
/// arena, the words span every member process, which note `site` as the
/// construct they wait at.
class CentralSenseBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  explicit CentralSenseBarrier(
      int width, machdep::PlacedWords<machdep::EpisodeBarrier> words = {},
      std::string site = {});
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return "central-sense"; }
  int width() const override { return width_; }

 private:
  int width_;
  machdep::PlacedWords<machdep::EpisodeBarrier> words_;
  std::string site_;
};

/// Binary combining tree: arrivals propagate up; the root (champion) runs
/// the section and flips the global sense.
class TreeBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  explicit TreeBarrier(int width);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return "tree"; }
  int width() const override { return width_; }

 private:
  // One cache line per process: its arrival stamp (read by the parent in
  // the combining tree) and its private episode counter.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> arrival{0};
    std::uint64_t episode = 0;
  };
  int width_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> release_{0};
};

/// Dissemination barrier: ceil(log2 P) rounds; process i signals
/// (i + 2^r) mod P each round. Symmetric, no champion: when a section is
/// requested, process 0 runs it behind an extra release flag.
class DisseminationBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  explicit DisseminationBarrier(int width);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return "dissemination"; }
  int width() const override { return width_; }

 private:
  struct alignas(64) Flag {
    std::atomic<std::uint64_t> stamp{0};
  };
  struct alignas(64) Episode {
    std::uint64_t value = 0;
  };
  int width_;
  int rounds_;
  std::vector<Flag> flags_;  // flags_[proc * rounds_ + round], episode-stamped
  std::vector<Episode> episode_;  // per-process episode counter
  std::atomic<std::uint64_t> section_done_{0};
};

/// Adapter over the cluster backend's keyed BarrierEngine - the barrier
/// that spans address spaces with no shared memory (coordinator RPCs).
/// Core never names the substrate: ForceEnvironment::make_team_barrier
/// asks the backend for an engine and wraps it here.
class EngineBarrier final : public BarrierAlgorithm {
 public:
  using BarrierAlgorithm::arrive;
  EngineBarrier(int width, std::unique_ptr<machdep::BarrierEngine> engine);
  void arrive(int proc0, const std::function<void()>& section) override;
  const char* name() const override { return engine_->name(); }
  int width() const override { return width_; }

 private:
  int width_;
  std::unique_ptr<machdep::BarrierEngine> engine_;
};

/// ForceConfig::barrier_algorithm, parsed once: kAuto, or one of the four
/// algorithms above in barrier_algorithm_names() order.
enum class BarrierKind { kAuto, kPaperLock, kCentralSense, kTree, kDissemination };

/// Parses a barrier_algorithm name ("auto" included); false when unknown.
[[nodiscard]] bool parse_barrier_kind(const std::string& name,
                                      BarrierKind* out);

/// Names of the four algorithms (the E2 sweep and the tests iterate them).
std::vector<std::string> barrier_algorithm_names();

/// Factories; `kind` must not be kAuto, and the by-name one throws on an
/// unknown name.
std::unique_ptr<BarrierAlgorithm> make_barrier_algorithm(BarrierKind kind,
                                                         ForceEnvironment& env,
                                                         int width);
std::unique_ptr<BarrierAlgorithm> make_barrier_algorithm(
    const std::string& name, ForceEnvironment& env, int width);

}  // namespace force::core
