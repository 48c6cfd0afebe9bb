// The Force sentry: an opt-in runtime validation layer.
//
// The paper's portability argument is that every upper-level construct is
// correct over any conforming lower level; the sentry *checks* the claim at
// run time instead of trusting inspection (after McKenney's validation
// chapters). Three cooperating detectors:
//
//   * a hybrid lockset + happens-before RACE DETECTOR for accesses the
//     program annotates (Ctx::note_read / note_write) and for async
//     variables. Happens-before edges come from barrier episodes,
//     Produce/Consume serialization, and run fork/join; mutex-role locks
//     deliberately add NO edges - instead, Eraser-style, an access pair is
//     racy only if it is unordered AND the locksets held at the two
//     accesses are disjoint. That flags *potential* races even when this
//     particular schedule serialized them.
//
//   * a DEADLOCK DETECTOR: a lock-order graph over mutex-role locks
//     (acquiring B while holding A adds edge A->B; a cycle is a potential
//     deadlock, reported immediately without needing the deadlock to
//     strike) plus a wait-for registry fed by blocked lock acquires,
//     Produce/Consume waits and Askfor polling. A watchdog thread turns
//     the registry into stall reports (waits longer than
//     ForceConfig::sentry_stall_ms) and actual wait-for-cycle reports.
//
//   * a SCHEDULE FUZZER: deterministic seeded yields and backoff spins
//     injected at the sentry hook points, widening the explored
//     interleavings (ForceConfig::schedule_fuzz, --schedule-fuzz=<seed>
//     in the test binaries).
//
// Cost model, shared with the Tracer: barriers, DOALL sites and Askfor
// monitors are observed through decorators ForceEnvironment puts around
// their engines and locks (core/observe.cpp); with ForceConfig::sentry off
// they are built undecorated and cost nothing.
// Only the blocking waits (Produce/Consume, the Askfor idle wait) and
// Async's full/empty window still test the environment's null pointer in
// the construct body, because a wait registration must span the wait
// itself. When on, hooks serialize on one internal mutex - the sentry is
// a validation mode, not a production mode.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace force::core {

class Sentry final {
 public:
  enum class ReportKind {
    kRace,       ///< unordered, lockset-disjoint access pair
    kLockOrder,  ///< cycle in the lock acquisition-order graph
    kDeadlock,   ///< actual cycle in the wait-for graph
    kStall       ///< a wait exceeded the stall threshold
  };

  struct Report {
    ReportKind kind;
    std::string what;  ///< human-readable, with site/episode provenance
  };

  struct Options {
    int nproc = 1;
    std::uint64_t fuzz_seed = 0;  ///< 0 disables the schedule fuzzer
    int stall_ms = 1000;          ///< wait length that counts as a stall
  };

  explicit Sentry(const Options& opts);
  ~Sentry();

  Sentry(const Sentry&) = delete;
  Sentry& operator=(const Sentry&) = delete;

  // --- run fork/join --------------------------------------------------------

  /// Fork edge: seeds every slot's clock from the root clock. Called by
  /// the driver before the team starts.
  void begin_run();
  /// Join edge: folds every slot's clock back into the root clock.
  void end_run();

  // --- race detector --------------------------------------------------------

  /// Names an address range so race reports can say "counter+8" instead of
  /// a raw pointer. Idempotent per base address.
  void track_range(const void* base, std::size_t bytes, std::string name);

  /// Records a read/write of `addr` by the calling thread at source
  /// position `where`, and checks it against previous accesses.
  void on_access(const void* addr, bool is_write, std::string where);

  /// Publishes the caller's clock into barrier `b` (call before arriving).
  void barrier_publish(const void* b);
  /// Merges barrier `b`'s clock into the caller's and advances the
  /// caller's episode number (call after the barrier releases).
  void barrier_join(const void* b);

  // --- async (Produce/Consume) hooks ---------------------------------------

  /// Marks entry into async variable `chan`'s exclusive window (the
  /// region where the full/empty protocol guarantees mutual exclusion).
  /// Performs the bidirectional clock join that orders successive channel
  /// operations, records the access, and - the full/empty conformance
  /// check - reports if another thread is already inside the window,
  /// which can only happen when a machine's lock or tagged-cell emulation
  /// is broken.
  void channel_enter(const void* chan, bool is_write, const char* op);
  void channel_exit(const void* chan);
  /// Clock join only (Void: no exclusion guarantee to check).
  void channel_sync(const void* chan);

  // --- wait-for registry ----------------------------------------------------

  enum class WaitKind { kLock, kProduce, kConsume, kAskfor };

  /// Registers "this thread is blocked on `resource`" for the scope's
  /// lifetime; the watchdog reports stalls and wait-for cycles from these.
  class WaitScope {
   public:
    WaitScope(Sentry* sentry, WaitKind kind, const void* resource,
              const std::string& label);
    ~WaitScope();
    WaitScope(const WaitScope&) = delete;
    WaitScope& operator=(const WaitScope&) = delete;

   private:
    Sentry* sentry_;
    std::uint64_t token_ = 0;
  };

  // --- mutex-role lock hooks -----------------------------------------------
  //
  // Fired by the lock decorator in core/observe.cpp for locks acquired and
  // released by the same process (critical-style). Semaphore-role locks
  // (Produce/Consume pairs, barrier turnstiles, DOALL gates) are released
  // by another process by design, so they stay out of locksets and the
  // order graph, and their waits, which last as long as the slowest
  // process takes, would be stall false positives. `lock` is the lock's
  // logical identity: distinct even when a machine's lock budget stripes
  // several logical locks onto one physical lock.

  /// Before a blocking acquire: fuzzes and registers the wait. The token
  /// goes to lock_acquired.
  std::uint64_t lock_acquire_begin(const void* lock, const std::string& label);
  /// The lock is held. `wait_token` is lock_acquire_begin's, or 0 for a
  /// successful try_acquire (no wait phase).
  void lock_acquired(const void* lock, const std::string& label,
                     std::uint64_t wait_token);
  /// Just before the release, while still held: holder bookkeeping must be
  /// cleared before the next acquirer can see itself as the holder.
  void lock_released(const void* lock);

  // --- schedule fuzzer ------------------------------------------------------

  /// Maybe yields or backoff-spins, deterministically from the seed and
  /// the caller's slot. No-op when fuzzing is off.
  void fuzz();

  [[nodiscard]] bool fuzzing() const { return fuzz_seed_ != 0; }

  // --- reports --------------------------------------------------------------

  [[nodiscard]] std::vector<Report> reports() const;
  [[nodiscard]] std::size_t report_count(ReportKind kind) const;
  [[nodiscard]] std::size_t total_reports() const;
  static const char* report_kind_name(ReportKind kind);

 private:
  using Clock = std::vector<std::uint32_t>;

  /// One recorded access for the race check.
  struct Access {
    int slot = -1;
    std::uint32_t clock = 0;      ///< accessor's own clock component
    std::uint64_t episode = 0;    ///< accessor's barrier episode number
    std::vector<const void*> locks;  ///< mutex-role locks held
    std::string where;
  };

  struct VarState {
    Access last_write;
    std::map<int, Access> reads;  ///< live reads since the last write
  };

  struct TrackedRange {
    const void* base;
    std::size_t bytes;
    std::string name;
  };

  struct SlotState {
    Clock vc;
    std::uint64_t episode = 0;
    std::vector<const void*> held;        ///< mutex-role lock ids
    std::vector<std::string> held_labels;  ///< parallel to `held`
    std::uint64_t wait_token = 0;          ///< current wait, 0 if none
  };

  struct WaitRecord {
    int slot = -1;
    WaitKind kind = WaitKind::kLock;
    const void* resource = nullptr;
    std::string label;
    std::chrono::steady_clock::time_point since;
    bool stall_reported = false;
  };

  // All private helpers below require mu_ to be held by the caller.
  void report_locked(ReportKind kind, std::string what);
  void check_access_locked(const VarState& var, const Access& prior,
                           const Access& cur, const std::string& name,
                           bool prior_is_write, bool cur_is_write);
  [[nodiscard]] std::string describe_addr_locked(const void* addr) const;
  [[nodiscard]] bool order_path_locked(const void* from, const void* to,
                                       std::set<const void*>& seen) const;
  std::uint64_t register_wait_locked(WaitKind kind, const void* resource,
                                     const std::string& label);
  void unregister_wait_locked(std::uint64_t token);
  void scan_for_stalls_locked();
  void scan_for_wait_cycles_locked();
  /// The calling member's slot: its driver index (machdep::this_member,
  /// bound by Force::run), or -1 on a thread outside the force, which
  /// degrades gracefully (fuzz and stall hooks only, no race/lockset
  /// tracking).
  [[nodiscard]] int calling_slot() const;

  void watchdog_main();

  const int nproc_;
  const std::uint64_t fuzz_seed_;
  const int stall_ms_;

  mutable std::mutex mu_;
  std::vector<SlotState> slots_;
  Clock root_vc_;

  std::map<const void*, VarState> vars_;
  std::map<const void*, TrackedRange> ranges_;  ///< keyed by base address

  /// Barrier clocks grow monotonically (never reset), so a publish from a
  /// late thread of episode N can never race a reset for episode N+1; the
  /// extra ordering this implies is real (episodes order transitively).
  std::map<const void*, Clock> barrier_vc_;

  struct ChannelState {
    Clock vc;
    int in_window = 0;
    int window_slot = -1;
    std::string window_op;
  };
  std::map<const void*, ChannelState> channels_;

  /// Lock-order graph over mutex-role locks: edge A -> B with the label
  /// pair recorded at the first acquisition of B under A.
  std::map<const void*, std::map<const void*, std::string>> order_edges_;
  std::set<std::pair<const void*, const void*>> order_reported_;
  std::map<const void*, std::string> lock_labels_;
  std::map<const void*, int> lock_owner_;  ///< mutex-role holder slot

  std::map<std::uint64_t, WaitRecord> waits_;
  std::uint64_t next_wait_token_ = 1;
  std::set<std::string> deadlock_reported_;

  std::vector<Report> reports_;

  std::condition_variable watchdog_cv_;
  bool shutting_down_ = false;
  std::thread watchdog_;
};

}  // namespace force::core
