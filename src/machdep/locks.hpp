// The paper's generic lock layer (§4.1.3).
//
// The Force implements *all* higher-level synchronization out of four
// machine-dependent macros: define_lock / init_lock / lock / unlock. This
// file is the C++ rendering of that contract. Each 1989 machine contributed
// a different mechanism, all of which are implemented here:
//
//   * software locks  - spinning with test&set        (Sequent, Encore)
//   * ttas locks      - test-and-test&set w/ backoff  (Alliant, refinement)
//   * system locks    - OS cooperates with scheduler  (Cray-2)
//   * combined locks  - spin a while, then block      (Flex/32)
//   * full/empty      - hardware tagged memory cells  (HEP)
//
// IMPORTANT SEMANTICS: a Force lock is a *binary semaphore*, not a mutex.
// The Produce/Consume protocol (paper §4.2) locks E in one process and
// unlocks it in another, which is undefined behaviour for std::mutex; every
// implementation here therefore permits cross-thread release.
//
// The kinds differ in their probe protocol and spin window; the waiting
// itself goes through machdep::Waiter (wait.hpp), whose pause step yields
// every 64 probes, so the library stays live on oversubscribed hosts (more
// Force processes than CPUs).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "machdep/words.hpp"

namespace force::machdep {

/// Instrumentation shared by all lock types. Counters use relaxed atomics;
/// they are statistics, not synchronization. One LockCounters instance is
/// typically shared by every lock a machine model hands out, giving the
/// benches deterministic per-run lock-operation totals.
struct LockCounters {
  std::atomic<std::uint64_t> acquires{0};
  std::atomic<std::uint64_t> contended_acquires{0};
  std::atomic<std::uint64_t> spin_iterations{0};
  std::atomic<std::uint64_t> blocking_waits{0};
  std::atomic<std::uint64_t> releases{0};

  void reset() {
    acquires.store(0, std::memory_order_relaxed);
    contended_acquires.store(0, std::memory_order_relaxed);
    spin_iterations.store(0, std::memory_order_relaxed);
    blocking_waits.store(0, std::memory_order_relaxed);
    releases.store(0, std::memory_order_relaxed);
  }
};

/// Snapshot of LockCounters (plain integers, copyable).
struct LockCountersSnapshot {
  std::uint64_t acquires = 0;
  std::uint64_t contended_acquires = 0;
  std::uint64_t spin_iterations = 0;
  std::uint64_t blocking_waits = 0;
  std::uint64_t releases = 0;

  LockCountersSnapshot operator-(const LockCountersSnapshot& rhs) const;
};

LockCountersSnapshot snapshot(const LockCounters& c);

/// Abstract binary-semaphore lock: the define_lock/lock/unlock contract.
/// Constructed in the *unlocked* state (the paper's init_lock).
/// Any thread may call release(), not only the acquirer.
class BasicLock {
 public:
  virtual ~BasicLock() = default;

  /// Blocks until the lock is held by the caller.
  virtual void acquire() = 0;
  /// Non-blocking acquire; returns true on success.
  virtual bool try_acquire() = 0;
  /// Releases the lock; callable from any thread. Releasing an unlocked
  /// lock is a caller bug; implementations detect it where cheap.
  virtual void release() = 0;

  /// Human-readable mechanism name ("tas-spin", "system", ...).
  [[nodiscard]] virtual const char* mechanism() const = 0;
};

/// Lock mechanisms available to machine models.
enum class LockKind {
  kTasSpin,      ///< test&set spin (Sequent/Encore software lock)
  kTtasSpin,     ///< test-and-test&set with exponential backoff (Alliant)
  kTicket,       ///< FIFO ticket lock (modern "native" choice)
  kMcs,          ///< MCS queue lock (modern scalable choice)
  kSystem,       ///< blocking lock via the OS scheduler (Cray-2)
  kCombined,     ///< spin for a budget, then block (Flex/32)
  kHepFullEmpty  ///< full/empty tagged cell used as a lock (HEP)
};

const char* lock_kind_name(LockKind kind);
/// Parses the names produced by lock_kind_name; throws on unknown input.
LockKind lock_kind_from_name(const std::string& name);

/// Creates a lock of the given mechanism in the unlocked state.
/// `counters` may be null (no instrumentation).
std::unique_ptr<BasicLock> make_lock(LockKind kind, LockCounters* counters);

// ---------------------------------------------------------------------------
// Concrete implementations (exposed for targeted unit tests and benches;
// ordinary code should go through make_lock).
// ---------------------------------------------------------------------------

/// Test&set spin lock: every probe is a read-modify-write, which on the bus-
/// based 1989 machines generated coherence traffic on each spin - the reason
/// the Alliant/modern variants test before setting.
class TasSpinLock final : public BasicLock {
 public:
  explicit TasSpinLock(LockCounters* counters);
  void acquire() override;
  bool try_acquire() override;
  void release() override;
  const char* mechanism() const override { return "tas-spin"; }

 private:
  std::atomic<bool> held_{false};
  LockCounters* counters_;
};

/// Test-and-test&set with exponential backoff.
class TtasLock final : public BasicLock {
 public:
  explicit TtasLock(LockCounters* counters);
  void acquire() override;
  bool try_acquire() override;
  void release() override;
  const char* mechanism() const override { return "ttas-spin"; }

 private:
  std::atomic<bool> held_{false};
  LockCounters* counters_;
};

/// FIFO ticket lock. Cross-thread release simply advances now-serving.
class TicketLock final : public BasicLock {
 public:
  explicit TicketLock(LockCounters* counters);
  void acquire() override;
  bool try_acquire() override;
  void release() override;
  const char* mechanism() const override { return "ticket"; }

 private:
  std::atomic<std::uint32_t> next_{0};
  std::atomic<std::uint32_t> serving_{0};
  LockCounters* counters_;
};

/// MCS queue lock: each waiter spins on its own node, giving O(1) coherence
/// traffic per handoff. Nodes come from an internal freelist so that
/// release() may run on a different thread than acquire() (the releasing
/// thread recycles the *owner's* node, recorded at acquire time).
class McsLock final : public BasicLock {
 public:
  explicit McsLock(LockCounters* counters);
  ~McsLock() override;
  void acquire() override;
  bool try_acquire() override;
  void release() override;
  const char* mechanism() const override { return "mcs"; }

 private:
  struct Node {
    std::atomic<Node*> next{nullptr};
    std::atomic<bool> ready{false};
    Node* free_next = nullptr;  // freelist linkage, guarded by free_mutex_
  };
  Node* alloc_node();
  void recycle_node(Node* n);

  std::atomic<Node*> tail_{nullptr};
  std::atomic<Node*> owner_{nullptr};  // node of the current holder
  std::mutex free_mutex_;
  Node* free_head_ = nullptr;
  LockCounters* counters_;
};

/// Blocking "system call" lock: the OS parks waiters (Cray-2 model). No
/// spinning at all (a Waiter with no spin window), so waiters burn no CPU.
class SystemLock final : public BasicLock {
 public:
  explicit SystemLock(LockCounters* counters);
  void acquire() override;
  bool try_acquire() override;
  void release() override;
  const char* mechanism() const override { return "system"; }

 private:
  std::atomic<std::uint32_t> word_{0};  // a word lock (words.hpp)
  LockCounters* counters_;
};

// ---------------------------------------------------------------------------
// DispatchCounter - the capability-gated dispatch fast path (§4.1.3).
//
// Every selfscheduled DOALL claim is an atomic read-modify-write. Machines
// whose hardware exposes atomic RMW directly (MachineSpec::
// hardware_atomic_rmw) run it on home blocks: the episode's opener arms
// one contiguous slice of the trips per member, each on a claim word of
// its own line, and a claim is one fetch-add on the member's home word
// (guided: one CAS) - no lock, no serialized critical section, no
// lock-holder preemption, and rows that stay on the member that ran them
// last episode. A member whose block runs dry steals from the front of
// the others' blocks with the same RMW. The paper promises only that
// every index runs once on some process, so the claim order is free.
// Lock-only machines fall back to exactly the paper's expansion: one
// shared loop index behind one generic lock obtained from the machine
// model, so every claim remains visible to LockCounters and the
// lock-scarcity experiments.
// ---------------------------------------------------------------------------

/// A trips-claimed dispatch with two engines over caller-placed
/// DispatchWords (its own block in the owning construct, or the MAP_SHARED
/// arena under os-fork): the home blocks (words.hpp; hardware RMW
/// machines) or the shared word guarded by a lock (everything else). Both
/// clamp at their limit, so no stored value runs away past the episode's
/// trip count no matter how many exhausted processes keep probing
/// (signed-overflow guard), and both charge each member one exhausted
/// claim per episode.
class DispatchCounter {
 public:
  /// Home-block engine for a team of `width` (requires
  /// hardware_atomic_rmw).
  DispatchCounter(DispatchWords& words, int width);
  /// Lock-guarded engine over words.shared; `lock` must come from
  /// MachineModel::new_lock() so claims stay on the machine's
  /// instrumented, budgeted locks.
  DispatchCounter(DispatchWords& words, std::unique_ptr<BasicLock> lock);

  DispatchCounter(const DispatchCounter&) = delete;
  DispatchCounter& operator=(const DispatchCounter&) = delete;

  [[nodiscard]] bool lock_free() const { return lock_ == nullptr; }

  /// Arms an episode of `trips`. NOT thread-safe: callers synchronize
  /// externally (the DOALL entry gate runs this in the first-arriver
  /// critical section and publishes it through the gate).
  void reset(std::int64_t trips);

  /// Trips claimed so far (diagnostic; one lock pass on the lock engine).
  [[nodiscard]] std::int64_t value() const;

  /// Claims up to `want` trips for member `me0`, never past `limit` (the
  /// trip count reset() armed). Word engine: a fetch-add on the home
  /// block, then on the others'. A claim of nothing means the work is
  /// exhausted.
  DispatchClaim claim(int me0, std::int64_t want, std::int64_t limit);

  /// Guided claim: max(1, remaining / divisor) trips where remaining =
  /// limit - current. Word engine: a CAS on the home block, taking the
  /// same share of the block (divisor / blocks) as the shared word would
  /// of the whole. Lock engine: one lock pass, like the paper.
  DispatchClaim claim_fraction(int me0, std::int64_t limit,
                               std::int64_t divisor);

 private:
  [[nodiscard]] std::uint32_t home(int me0) const {
    const auto m = static_cast<std::uint32_t>(me0);
    return m < blocks_ ? m : m % blocks_;  // no division on a narrow team
  }

  DispatchWords* words_;
  std::uint32_t blocks_ = 1;         // home blocks in use (word engine)
  std::unique_ptr<BasicLock> lock_;  // null => home-block engine
};

/// Combined lock (Flex/32): spin for the host's spin window, then block.
/// Best of both worlds for mixed hold times.
class CombinedLock final : public BasicLock {
 public:
  explicit CombinedLock(LockCounters* counters);
  void acquire() override;
  bool try_acquire() override;
  void release() override;
  const char* mechanism() const override { return "combined"; }

 private:
  std::atomic<std::uint32_t> word_{0};  // a word lock (words.hpp)
  LockCounters* counters_;
};

}  // namespace force::machdep
