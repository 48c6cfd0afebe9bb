// Machine models: the pluggable machine-dependent layer.
//
// A MachineModel bundles everything §4.1 of the paper calls machine
// dependent - lock mechanism, sharing strategy, process-creation model,
// hardware full/empty support, lock scarcity - behind the generic
// interfaces the machine-independent runtime is written against. Porting
// the Force to a new machine is exactly "write one MachineSpec".
//
// Six specs reproduce the machines that hosted the Force in 1989 (HEP,
// Flex/32, Encore Multimax, Sequent Balance, Alliant FX/8, Cray-2) and a
// seventh, `native`, is the modern default.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "machdep/arena.hpp"
#include "machdep/costmodel.hpp"
#include "machdep/locks.hpp"
#include "machdep/process.hpp"

namespace force::machdep {

/// Everything needed to port the Force to one machine.
struct MachineSpec {
  std::string name;
  std::string description;
  LockKind lock_kind = LockKind::kTicket;
  SharingStrategy sharing = SharingStrategy::kCompileTime;
  ProcessModelKind process_model = ProcessModelKind::kHepCreate;
  bool hardware_full_empty = false;  ///< HEP only: 1-cell async variables
  /// True when the machine exposes atomic read-modify-write instructions
  /// (fetch&add / compare&swap) to user code. Dispatch-heavy constructs
  /// (selfscheduled DOALL claims, Askfor work stealing) then bypass the
  /// generic lock layer entirely; without it they fall back to the
  /// paper's lock-protected expansion (§4.1.3's efficiency concession).
  bool hardware_atomic_rmw = false;
  /// Physical locks available; < 0 means unlimited. When the budget is
  /// exhausted further logical locks are multiplexed over a shared pool
  /// ("locks may be scarce resources ... some parallel programs may not
  /// execute as efficiently", paper §4.1.3).
  int lock_budget = -1;
  std::size_t page_size = 4096;
  CostParameters costs{};
};

/// The machine half of the async-cell rule (paper §4.1: the lower level
/// uses what the machine has): true when the machine runs its async
/// variables on the full/empty cell word through atomic RMW rather than
/// on the §4.2 E/F lock pair - it has hardware_atomic_rmw and its locks
/// are not a budgeted resource (lock_budget < 0). Of the registered
/// machines only `native` qualifies; the Cray-2 and the Alliant keep E/F,
/// so their async variables still spend their lock budget (E9). The HEP's
/// tagged cell is the separate hardware_full_empty case.
bool atomic_full_empty(const MachineSpec& spec);

/// Names of all registered machines, in canonical order.
std::vector<std::string> machine_names();

/// Spec lookup by name; throws on unknown machines.
const MachineSpec& machine_spec(const std::string& name);

/// Tally of lock handouts, for the scarcity experiments.
struct LockAllocationStats {
  std::uint64_t logical_locks = 0;
  std::uint64_t physical_locks = 0;
  std::uint64_t striped_locks = 0;
};

/// A live machine instance: owns the instrumentation counters and enforces
/// the lock budget. Thread-safe: locks may be created mid-run (e.g. when a
/// process first reaches a new construct site).
class MachineModel {
 public:
  explicit MachineModel(MachineSpec spec);

  [[nodiscard]] const MachineSpec& spec() const { return spec_; }
  [[nodiscard]] const std::string& name() const { return spec_.name; }
  [[nodiscard]] LockCounters& counters() { return counters_; }
  [[nodiscard]] const LockCounters& counters() const { return counters_; }
  [[nodiscard]] CostModel cost_model() const {
    return CostModel(spec_.costs);
  }

  /// Creates a logical lock. Within budget this is a real lock of the
  /// machine's kind; past the budget it is a striped lock multiplexed over
  /// a small shared pool (still correct binary-semaphore semantics, just
  /// slower - the paper's scarcity effect).
  std::unique_ptr<BasicLock> new_lock();

  [[nodiscard]] LockAllocationStats lock_stats() const;

  [[nodiscard]] ProcessTeam process_team() const {
    return ProcessTeam(spec_.process_model);
  }

 private:
  MachineSpec spec_;
  LockCounters counters_;
  mutable std::mutex alloc_mutex_;
  LockAllocationStats stats_;
  std::vector<std::shared_ptr<BasicLock>> stripe_pool_;
  std::size_t next_stripe_ = 0;
};

}  // namespace force::machdep
