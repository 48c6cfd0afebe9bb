// Persistent team pools: force spawn without the per-entry spawn tax.
//
// Every Force::run normally creates its team (jthreads or fork(2)
// children) and joins it at the end - the paper's driver model, and the
// cost bench E7 measures. A pool keeps the team alive across runs and
// replaces create/join with a generation-stamped entry protocol.
//
// TeamPool is the thread axis: W worker threads park between forces on a
// machdep::Waiter await of the arm generation (the host spin window, then
// a futex-style atomic wait). run() publishes the job, bumps the
// generation, executes member 0 ITSELF - the driver is a member, as in the
// paper's driver model - and then waits for the done generation to catch
// up. Running the leader inline saves one worker wake (and its context
// switch) per entry and overlaps the leader's work with the workers'
// wakeup; a 1:1 team therefore needs only NP-1 workers. Worker w owns
// members {w+1, w+1+W, ...}; when the force is wider than the pool
// (NP-1 > W) each worker multiplexes its members as run-to-barrier
// continuations (machdep/fiber).
//
// The process axis keeps its resident team in machdep/forkteam.*: a
// ForkTeam with resident children parks them on a futex'd arm generation
// in its control mapping and joins them like a respawned os-fork team, so
// a dead pool child surfaces once as ProcessDeathError and the next run
// re-forks a fresh team.
//
// TeamPool preserves ProcessTeam::run's contract: the first member
// exception is rethrown after the whole team has quiesced, and the pool is
// reusable after an error.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "machdep/process.hpp"

namespace force::machdep {

class MemberScheduler;  // machdep/fiber.hpp

/// Persistent thread-axis team: W workers executing forces of any width.
class TeamPool {
 public:
  /// Spawns `workers` threads immediately; they park until the first run.
  explicit TeamPool(int workers, std::size_t member_stack_bytes = 256u << 10);
  ~TeamPool();

  TeamPool(const TeamPool&) = delete;
  TeamPool& operator=(const TeamPool&) = delete;

  [[nodiscard]] int workers() const { return workers_; }

  /// One force: entry(m) runs for every member m in [0, nproc). The
  /// calling (driver) thread executes member 0 inline; with
  /// nproc - 1 <= workers every other member owns a worker (1:1),
  /// otherwise members are multiplexed N:M as continuations. Blocks until
  /// all members finished; rethrows the first member exception.
  SpawnStats run(int nproc, const std::function<void(int)>& entry);

 private:
  struct Job {
    const std::function<void(int)>* entry = nullptr;
    int nproc = 0;
  };

  void worker_main(int w);
  // sched is the worker's long-lived member scheduler: it recycles fiber
  // stacks across forces, so N:M re-entry does not re-allocate them.
  void run_members(int w, const Job& job, MemberScheduler& sched);

  int workers_;
  std::size_t member_stack_bytes_;
  Job job_;  // published by the arm_ generation store
  // 32-bit on purpose: futex-sized atomics wait on the word itself
  // (libstdc++ __platform_wait), wider ones go through a proxy wait table
  // with an extra global hash - measurably slower to park and wake. All
  // generation comparisons are != so the 2^32 wrap is harmless.
  std::atomic<std::uint32_t> arm_{0};
  std::atomic<std::uint32_t> done_{0};
  std::atomic<int> remaining_{0};
  std::atomic<bool> shutdown_{false};
  std::mutex error_mutex_;
  std::exception_ptr first_error_;
  std::vector<std::jthread> threads_;
};

}  // namespace force::machdep
