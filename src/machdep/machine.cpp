#include "machdep/machine.hpp"

#include <algorithm>

#include "machdep/wait.hpp"
#include "util/check.hpp"

namespace force::machdep {

namespace {

/// A logical binary semaphore multiplexed over one shared physical lock.
/// The logical state (`held_`) is guarded by the physical lock; waiting is
/// a poll with the Waiter's pause step, so many logical locks contend on
/// few physical ones - semantically correct, measurably slower, exactly
/// the paper's scarcity trade-off. The pause step's yield is fiber-aware:
/// on an N:M pooled member the logical holder may be a sibling on this
/// same worker, and only a continuation switch lets it run.
class StripedLock final : public BasicLock {
 public:
  explicit StripedLock(std::shared_ptr<BasicLock> physical)
      : physical_(std::move(physical)) {}

  void acquire() override {
    Waiter w;
    for (;;) {
      physical_->acquire();
      if (!held_) {
        held_ = true;
        physical_->release();
        return;
      }
      physical_->release();
      w.pause();
    }
  }

  bool try_acquire() override {
    physical_->acquire();
    const bool ok = !held_;
    if (ok) held_ = true;
    physical_->release();
    return ok;
  }

  void release() override {
    physical_->acquire();
    held_ = false;
    physical_->release();
  }

  const char* mechanism() const override { return "striped"; }

 private:
  std::shared_ptr<BasicLock> physical_;
  bool held_ = false;  // guarded by *physical_
};

std::vector<MachineSpec> build_registry() {
  std::vector<MachineSpec> specs;

  {
    MachineSpec m;
    m.name = "hep";
    m.description =
        "Denelcor HEP: hardware full/empty bit on every memory cell; "
        "processes created by subroutine call";
    m.lock_kind = LockKind::kHepFullEmpty;
    m.sharing = SharingStrategy::kCompileTime;
    m.process_model = ProcessModelKind::kHepCreate;
    m.hardware_full_empty = true;
    m.lock_budget = -1;  // every cell is a lock
    m.costs.lock_uncontended_ns = 100;
    m.costs.lock_contended_extra_ns = 100;
    m.costs.spin_probe_ns = 0;  // hardware retry queue, no bus traffic
    m.costs.blocking_wait_ns = 200;
    m.costs.barrier_episode_ns = 800;
    m.costs.process_create_ns = 2000;  // a subroutine call
    m.costs.copy_byte_ns = 0.0;
    m.costs.produce_consume_ns = 100;  // one tagged memory access
    m.costs.work_scale = 8.0;  // slow scalar streams
    specs.push_back(m);
  }
  {
    MachineSpec m;
    m.name = "flex32";
    m.description =
        "Flexible Flex/32: combined spin-then-system-call locks; Unix "
        "fork/join processes; compile-time COMMON sharing";
    m.lock_kind = LockKind::kCombined;
    m.sharing = SharingStrategy::kCompileTime;
    m.process_model = ProcessModelKind::kForkJoinCopy;
    m.lock_budget = 1024;
    m.costs.lock_uncontended_ns = 1200;
    m.costs.lock_contended_extra_ns = 2500;
    m.costs.spin_probe_ns = 120;
    m.costs.blocking_wait_ns = 60000;
    m.costs.barrier_episode_ns = 9000;
    m.costs.process_create_ns = 2500000;
    m.costs.copy_byte_ns = 0.8;
    m.costs.produce_consume_ns = 3000;  // two lock passes
    m.costs.work_scale = 5.0;
    specs.push_back(m);
  }
  {
    MachineSpec m;
    m.name = "encore";
    m.description =
        "Encore Multimax: test&set spin locks; run-time shared pages "
        "padded front and back; Unix fork/join processes";
    m.lock_kind = LockKind::kTasSpin;
    m.sharing = SharingStrategy::kRuntimePadded;
    m.process_model = ProcessModelKind::kForkJoinCopy;
    m.lock_budget = 4096;
    m.costs.lock_uncontended_ns = 900;
    m.costs.lock_contended_extra_ns = 1800;
    m.costs.spin_probe_ns = 150;  // every TAS probe hits the bus
    m.costs.blocking_wait_ns = 80000;
    m.costs.barrier_episode_ns = 7000;
    m.costs.process_create_ns = 1800000;
    m.costs.copy_byte_ns = 0.6;
    m.costs.produce_consume_ns = 2400;
    m.costs.work_scale = 6.0;  // NS32032-class CPUs
    specs.push_back(m);
  }
  {
    MachineSpec m;
    m.name = "sequent";
    m.description =
        "Sequent Balance: test&set spin locks; link-time sharing via the "
        "two-run startup protocol; Unix fork/join processes";
    m.lock_kind = LockKind::kTasSpin;
    m.sharing = SharingStrategy::kLinkTime;
    m.process_model = ProcessModelKind::kForkJoinCopy;
    m.lock_budget = 4096;
    m.costs.lock_uncontended_ns = 1000;
    m.costs.lock_contended_extra_ns = 2000;
    m.costs.spin_probe_ns = 140;
    m.costs.blocking_wait_ns = 90000;
    m.costs.barrier_episode_ns = 7500;
    m.costs.process_create_ns = 2200000;
    m.costs.copy_byte_ns = 0.7;
    m.costs.produce_consume_ns = 2600;
    m.costs.work_scale = 7.0;  // NS32016-class CPUs
    specs.push_back(m);
  }
  {
    MachineSpec m;
    m.name = "alliant";
    m.description =
        "Alliant FX/8: test-and-test&set locks; sharing starts on a page "
        "boundary; fork variant sharing data, copying only the stack";
    m.lock_kind = LockKind::kTtasSpin;
    m.sharing = SharingStrategy::kPageAlignedStart;
    m.process_model = ProcessModelKind::kForkSharedData;
    // The FX/8 CEs have interlocked memory ops (the concurrency bus);
    // test&set implies the RMW needed for fetch-add style dispatch.
    m.hardware_atomic_rmw = true;
    m.lock_budget = 2048;
    m.costs.lock_uncontended_ns = 600;
    m.costs.lock_contended_extra_ns = 1200;
    m.costs.spin_probe_ns = 60;  // TTAS probes stay in cache
    m.costs.blocking_wait_ns = 50000;
    m.costs.barrier_episode_ns = 5000;
    m.costs.process_create_ns = 400000;  // only the stack is copied
    m.costs.copy_byte_ns = 0.5;
    m.costs.produce_consume_ns = 1500;
    m.costs.work_scale = 1.8;  // vector CEs
    specs.push_back(m);
  }
  {
    MachineSpec m;
    m.name = "cray2";
    m.description =
        "Cray-2: system-call locks (OS keeps the queue of locked "
        "processes); very fast CPUs; scarce hardware locks";
    m.lock_kind = LockKind::kSystem;
    m.sharing = SharingStrategy::kCompileTime;
    m.process_model = ProcessModelKind::kForkJoinCopy;
    // Scarce *locks*, but the CPU has atomic semaphore/RMW instructions:
    // dispatch counters must not burn the 32-lock budget on loop indices.
    m.hardware_atomic_rmw = true;
    m.lock_budget = 32;  // the scarce-resource machine
    m.costs.lock_uncontended_ns = 15000;  // a system call each way
    m.costs.lock_contended_extra_ns = 10000;
    m.costs.spin_probe_ns = 0;
    m.costs.blocking_wait_ns = 30000;
    m.costs.barrier_episode_ns = 40000;
    m.costs.process_create_ns = 3000000;
    m.costs.copy_byte_ns = 0.1;
    m.costs.produce_consume_ns = 32000;  // two system-call lock passes
    m.costs.work_scale = 0.25;  // fastest machine of its day
    specs.push_back(m);
  }
  {
    MachineSpec m;
    m.name = "native";
    m.description =
        "Modern default: ticket locks, run-time sharing, std::jthread";
    m.lock_kind = LockKind::kTicket;
    m.sharing = SharingStrategy::kRuntimePadded;
    m.process_model = ProcessModelKind::kHepCreate;
    m.hardware_atomic_rmw = true;  // std::atomic RMW is native here
    m.lock_budget = -1;
    m.costs.lock_uncontended_ns = 40;
    m.costs.lock_contended_extra_ns = 120;
    m.costs.spin_probe_ns = 5;
    m.costs.blocking_wait_ns = 4000;
    m.costs.barrier_episode_ns = 300;
    m.costs.process_create_ns = 30000;
    m.costs.copy_byte_ns = 0.05;
    m.costs.produce_consume_ns = 120;
    m.costs.work_scale = 1.0;
    specs.push_back(m);
  }
  return specs;
}

const std::vector<MachineSpec>& registry() {
  static const std::vector<MachineSpec> specs = build_registry();
  return specs;
}

}  // namespace

bool atomic_full_empty(const MachineSpec& spec) {
  return spec.hardware_atomic_rmw && spec.lock_budget < 0;
}

std::vector<std::string> machine_names() {
  std::vector<std::string> names;
  for (const auto& m : registry()) names.push_back(m.name);
  return names;
}

const MachineSpec& machine_spec(const std::string& name) {
  for (const auto& m : registry()) {
    if (m.name == name) return m;
  }
  std::string known;
  for (const auto& m : registry()) known += " " + m.name;
  FORCE_CHECK(false, "unknown machine '" + name + "'; known:" + known);
}

MachineModel::MachineModel(MachineSpec spec) : spec_(std::move(spec)) {}

std::unique_ptr<BasicLock> MachineModel::new_lock() {
  std::lock_guard<std::mutex> g(alloc_mutex_);
  ++stats_.logical_locks;
  const bool unlimited = spec_.lock_budget < 0;
  if (unlimited ||
      stats_.physical_locks <
          static_cast<std::uint64_t>(spec_.lock_budget)) {
    ++stats_.physical_locks;
    return make_lock(spec_.lock_kind, &counters_);
  }
  // Budget exhausted: multiplex over a small pool carved out of the budget.
  if (stripe_pool_.empty()) {
    const std::size_t pool =
        std::max<std::size_t>(1, static_cast<std::size_t>(spec_.lock_budget) / 8);
    for (std::size_t i = 0; i < pool; ++i) {
      stripe_pool_.push_back(std::shared_ptr<BasicLock>(
          make_lock(spec_.lock_kind, &counters_)));
    }
  }
  ++stats_.striped_locks;
  auto physical = stripe_pool_[next_stripe_];
  next_stripe_ = (next_stripe_ + 1) % stripe_pool_.size();
  return std::make_unique<StripedLock>(std::move(physical));
}

LockAllocationStats MachineModel::lock_stats() const {
  std::lock_guard<std::mutex> g(alloc_mutex_);
  return stats_;
}

}  // namespace force::machdep
