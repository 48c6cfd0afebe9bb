#include "machdep/teampool.hpp"

#include "machdep/fiber.hpp"
#include "machdep/wait.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"

namespace force::machdep {

// ---------------------------------------------------------------------------
// TeamPool (thread axis)
// ---------------------------------------------------------------------------

TeamPool::TeamPool(int workers, std::size_t member_stack_bytes)
    : workers_(workers), member_stack_bytes_(member_stack_bytes) {
  FORCE_CHECK(workers_ > 0, "a team pool needs at least one worker");
  threads_.reserve(static_cast<std::size_t>(workers_));
  for (int w = 0; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

TeamPool::~TeamPool() {
  shutdown_.store(true, std::memory_order_release);
  arm_.fetch_add(1, std::memory_order_acq_rel);
  Waiter::wake(arm_, WordScope::kPrivate, Wake::kAll);
  threads_.clear();  // jthread joins
}

void TeamPool::worker_main(int w) {
  std::uint32_t seen = 0;
  // Lives as long as the worker so fiber stacks are warm across forces.
  MemberScheduler sched(member_stack_bytes_);
  for (;;) {
    // A force arriving within the spin window is picked up without a
    // kernel round trip, which is most of the pooled re-entry win.
    seen = Waiter().await(arm_, [seen](std::uint32_t v) { return v != seen; });
    if (shutdown_.load(std::memory_order_acquire)) return;
    run_members(w, job_, sched);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      done_.store(seen, std::memory_order_release);
      Waiter::wake(done_, WordScope::kPrivate, Wake::kAll);
    }
  }
}

void TeamPool::run_members(int w, const Job& job, MemberScheduler& sched) {
  try {
    // The driver runs member 0 inline (TeamPool::run); worker w owns
    // members {w+1, w+1+W, ...}.
    if (w + 1 >= job.nproc) return;  // no member this force: idle pass
    if (job.nproc - 1 <= workers_) {
      // 1:1 fast path: this worker IS member w+1, on its own OS thread.
      (*job.entry)(w + 1);
      return;
    }
    // N:M: multiplex this worker's members as run-to-barrier continuations
    // so a member blocked on a sibling mapped to this same worker gets off
    // the CPU instead of deadlocking it.
    std::vector<std::function<void()>> bodies;
    for (int m = w + 1; m < job.nproc; m += workers_) {
      const std::function<void(int)>* entry = job.entry;
      bodies.emplace_back([entry, m] { (*entry)(m); });
    }
    sched.run(std::move(bodies));
  } catch (...) {
    std::lock_guard<std::mutex> g(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

SpawnStats TeamPool::run(int nproc, const std::function<void(int)>& entry) {
  FORCE_CHECK(nproc > 0, "a force needs at least one process");
  SpawnStats stats;
  stats.processes = nproc;

  if (nproc == 1) {
    // Solo force: the driver is the whole team - no wake, no join.
    entry(0);
    return stats;
  }

  const std::int64_t t0 = util::now_ns();
  job_.entry = &entry;
  job_.nproc = nproc;
  remaining_.store(workers_, std::memory_order_relaxed);
  // The arm generation publishes the job (release) and unparks the team.
  const std::uint32_t g = arm_.fetch_add(1, std::memory_order_acq_rel) + 1;
  Waiter::wake(arm_, WordScope::kPrivate, Wake::kAll);
  stats.create_ns = util::now_ns() - t0;

  // The driver is member 0: its work overlaps the workers' wakeup, and a
  // force entry costs one wake fewer. A member-0 exception is recorded
  // like any worker's - the team must still quiesce before rethrow.
  try {
    entry(0);
  } catch (...) {
    std::lock_guard<std::mutex> guard(error_mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }

  const std::int64_t t1 = util::now_ns();
  Waiter().await(done_, [g](std::uint32_t v) { return v == g; });
  stats.join_ns = util::now_ns() - t1;

  std::exception_ptr err;
  {
    std::lock_guard<std::mutex> guard(error_mutex_);
    err = first_error_;
    first_error_ = nullptr;  // the pool stays usable after an error
  }
  if (err) std::rethrow_exception(err);
  return stats;
}

}  // namespace force::machdep
