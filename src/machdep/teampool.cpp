#include "machdep/teampool.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <new>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "machdep/fiber.hpp"
#include "machdep/shm.hpp"
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

// ---------------------------------------------------------------------------
// ForkTeamPool (process axis)
// ---------------------------------------------------------------------------

/// Head of the pool control mapping. arm carries the generation to
/// execute; children park on it with futex waits. poison reuses the shm
/// layer's team-poison protocol so a death releases every parked wait.
struct ForkTeamPool::PoolControl {
  std::atomic<std::uint32_t> arm{0};
  std::atomic<std::uint32_t> shutdown{0};
  std::atomic<std::uint32_t> poison{0};
};

/// Per-child slot: the generation it last completed, plus the same
/// last-site / error-text channel the one-shot os-fork backend uses.
struct ForkTeamPool::PoolSlot {
  std::atomic<std::uint32_t> done{0};
  char site[128];
  char error[256];
};

#if defined(__unix__) || defined(__APPLE__)

namespace {
constexpr std::int64_t kDeathGraceNs = 5'000'000'000;  // mirror run_os_fork
}

ForkTeamPool::ForkTeamPool(int nproc) : nproc_(nproc) {
  FORCE_CHECK(nproc_ > 0, "a force needs at least one process");
}

ForkTeamPool::~ForkTeamPool() { shutdown(); }

void ForkTeamPool::spawn(const std::function<void(int)>& entry) {
  const std::size_t bytes =
      sizeof(PoolControl) + static_cast<std::size_t>(nproc_) * sizeof(PoolSlot);
  control_ = std::make_unique<shm::SharedMapping>(bytes);
  ctl_ = ::new (control_->data()) PoolControl();
  slots_ = reinterpret_cast<PoolSlot*>(
      static_cast<std::byte*>(control_->data()) + sizeof(PoolControl));
  for (int p = 0; p < nproc_; ++p) {
    ::new (&slots_[p]) PoolSlot();
    std::strncpy(slots_[p].site, "pool-parked", sizeof(slots_[p].site) - 1);
    slots_[p].site[sizeof(slots_[p].site) - 1] = '\0';
    slots_[p].error[0] = '\0';
  }
  generation_ = 0;
  pids_.assign(static_cast<std::size_t>(nproc_), -1);

  shm::set_team_poison(&ctl_->poison);
  std::fflush(nullptr);

  for (int proc = 0; proc < nproc_; ++proc) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Resident child: park on the arm generation, execute each force,
      // report completion, park again. The fork-point stack frames (and
      // with them the COW copies everything `entry` refers to) stay live
      // for the child's whole lifetime because this loop never returns.
      PoolControl* ctl = ctl_;
      PoolSlot& slot = slots_[proc];
      shm::set_site_slot(slot.site, sizeof(slot.site));
      std::uint32_t seen = 0;
      for (;;) {
        try {
          seen = Waiter().await(
              ctl->arm, [seen](std::uint32_t v) { return v != seen; },
              WordScope::kShared);
        } catch (const shm::TeamPoisoned&) {
          std::fflush(nullptr);
          std::_Exit(kPoisonCollateralExit);
        }
        // shutdown() wakes the park via an arm bump (a wake alone could be
        // slept through: the futex word would still equal `seen`), so a new
        // generation can mean retirement, not work - re-check before running.
        if (ctl->shutdown.load(std::memory_order_acquire) != 0) {
          std::fflush(nullptr);
          std::_Exit(0);
        }
        try {
          entry(proc);
        } catch (const shm::TeamPoisoned&) {
          std::fflush(nullptr);
          std::_Exit(kPoisonCollateralExit);
        } catch (const std::exception& e) {
          std::strncpy(slot.error, e.what(), sizeof(slot.error) - 1);
          slot.error[sizeof(slot.error) - 1] = '\0';
          std::fflush(nullptr);
          std::_Exit(1);
        } catch (...) {
          std::strncpy(slot.error, "unknown exception",
                       sizeof(slot.error) - 1);
          std::fflush(nullptr);
          std::_Exit(1);
        }
        shm::note_site("pool-parked");
        slot.done.store(seen, std::memory_order_release);
        Waiter::wake(slot.done, WordScope::kShared, Wake::kAll);
      }
    }
    if (pid < 0) {
      // fork failed mid-spawn: release and reap whatever exists.
      ctl_->shutdown.store(1, std::memory_order_release);
      ctl_->poison.store(1, std::memory_order_release);
      Waiter::wake(ctl_->arm, WordScope::kShared, Wake::kAll);
      for (int k = 0; k < proc; ++k) {
        if (pids_[static_cast<std::size_t>(k)] > 0) {
          int status = 0;
          ::waitpid(static_cast<pid_t>(pids_[static_cast<std::size_t>(k)]),
                    &status, 0);
        }
      }
      shm::set_team_poison(nullptr);
      control_.reset();
      ctl_ = nullptr;
      slots_ = nullptr;
      FORCE_CHECK(false, "fork() failed spawning pooled force process " +
                             std::to_string(proc + 1) + " of " +
                             std::to_string(nproc_));
    }
    pids_[static_cast<std::size_t>(proc)] = pid;
  }
  alive_ = true;
}

void ForkTeamPool::teardown_after_death() {
  shm::set_team_poison(nullptr);
  control_.reset();
  ctl_ = nullptr;
  slots_ = nullptr;
  pids_.clear();
  alive_ = false;
}

SpawnStats ForkTeamPool::run(PrivateSpace* space,
                             const std::function<void(int)>& entry) {
  SpawnStats stats;
  stats.processes = nproc_;

  const std::int64_t t0 = util::now_ns();
  // Privates are inherited ONCE, at first fork: resident children keep
  // their fork-point copy-on-write snapshot across runs, so a re-armed run
  // has nobody left to inherit a fresh copy (per-run state must go through
  // the shared arena - docs/PORTING.md, pooled contracts).
  if (space != nullptr && !space->materialized()) {
    space->materialize(nproc_, init_mode_for(ProcessModelKind::kOsFork));
    stats.bytes_copied = space->bytes_copied();
  }
  if (!alive_) spawn(entry);  // first run, or respawn after a death

  // Re-arm: clear any stale poison, then publish the new generation.
  ctl_->poison.store(0, std::memory_order_release);
  const std::uint32_t g = ++generation_;
  ctl_->arm.store(g, std::memory_order_release);
  Waiter::wake(ctl_->arm, WordScope::kShared, Wake::kAll);
  stats.create_ns = util::now_ns() - t0;

  // Join: wait for every slot to report this generation, reaping with
  // WNOHANG so a dead child is seen promptly (PR 4's robust-join design;
  // a pool child has no business exiting at all mid-run).
  const std::int64_t t1 = util::now_ns();
  int primary_proc = -1;
  pid_t primary_pid = -1;
  int primary_status = 0;
  std::int64_t poisoned_at = -1;
  bool killed_stragglers = false;
  bool any_death = false;

  for (;;) {
    bool all_done = true;
    if (!any_death) {
      for (int p = 0; p < nproc_; ++p) {
        if (slots_[p].done.load(std::memory_order_acquire) != g) {
          all_done = false;
          break;
        }
      }
      if (all_done) break;
    }

    for (int p = 0; p < nproc_; ++p) {
      auto& pid = pids_[static_cast<std::size_t>(p)];
      if (pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
      if (r == 0) continue;
      FORCE_CHECK(r == static_cast<pid_t>(pid),
                  "waitpid lost track of a pooled force process");
      pid = -1;
      any_death = true;
      const bool collateral =
          WIFEXITED(status) && WEXITSTATUS(status) == kPoisonCollateralExit;
      if (!collateral && primary_proc < 0) {
        primary_proc = p;
        primary_pid = r;
        primary_status = status;
        ctl_->poison.store(1, std::memory_order_release);
        Waiter::wake(ctl_->poison, WordScope::kShared, Wake::kAll);
        Waiter::wake(ctl_->arm, WordScope::kShared, Wake::kAll);
        poisoned_at = util::now_ns();
      }
    }

    if (any_death) {
      int live = 0;
      for (int p = 0; p < nproc_; ++p) {
        if (pids_[static_cast<std::size_t>(p)] > 0) ++live;
      }
      if (live == 0) break;
      if (poisoned_at >= 0 && !killed_stragglers &&
          util::now_ns() - poisoned_at > kDeathGraceNs) {
        for (int p = 0; p < nproc_; ++p) {
          if (pids_[static_cast<std::size_t>(p)] > 0) {
            ::kill(static_cast<pid_t>(pids_[static_cast<std::size_t>(p)]),
                   SIGKILL);
          }
        }
        killed_stragglers = true;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }

    // Park on the first unfinished slot until it moves or one wait slice
    // has passed, which bounds how stale the death poll above can get.
    for (int p = 0; p < nproc_; ++p) {
      const std::uint32_t cur =
          slots_[p].done.load(std::memory_order_acquire);
      if (cur != g) {
        const std::int64_t until = util::now_ns() + shm::kWaitSliceNs;
        Waiter().await(
            slots_[p].done,
            [cur, until](std::uint32_t v) {
              return v != cur || util::now_ns() >= until;
            },
            WordScope::kShared);
        break;
      }
    }
  }
  stats.join_ns = util::now_ns() - t1;

  if (any_death) {
    std::string site = "pool-parked";
    std::string error_text;
    int exit_code = -1;
    int term_signal = 0;
    std::ostringstream msg;
    if (primary_proc >= 0) {
      site = slots_[primary_proc].site;
      error_text = slots_[primary_proc].error;
      exit_code =
          WIFEXITED(primary_status) ? WEXITSTATUS(primary_status) : -1;
      term_signal =
          WIFSIGNALED(primary_status) ? WTERMSIG(primary_status) : 0;
      msg << "pooled force process " << (primary_proc + 1) << " of "
          << nproc_ << " (pid " << primary_pid << ")";
      if (term_signal != 0) {
        msg << " killed by signal " << term_signal;
      } else {
        msg << " exited with code " << exit_code;
      }
      msg << " at construct site '" << site << "'";
      if (!error_text.empty()) msg << ": " << error_text;
    } else {
      msg << "pooled force team lost processes without a primary status";
    }
    msg << " (pool retired; the next force re-forks a fresh team)";
    teardown_after_death();
    throw ProcessDeathError(msg.str(), primary_proc + 1,
                            static_cast<long>(primary_pid), exit_code,
                            term_signal, site, error_text);
  }
  return stats;
}

void ForkTeamPool::shutdown() {
  if (!alive_) return;
  ctl_->shutdown.store(1, std::memory_order_release);
  ctl_->arm.fetch_add(1, std::memory_order_acq_rel);
  Waiter::wake(ctl_->arm, WordScope::kShared, Wake::kAll);

  const std::int64_t deadline = util::now_ns() + 2'000'000'000;  // 2 s
  bool killed = false;
  int live = nproc_;
  while (live > 0) {
    live = 0;
    for (int p = 0; p < nproc_; ++p) {
      auto& pid = pids_[static_cast<std::size_t>(p)];
      if (pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(static_cast<pid_t>(pid), &status, WNOHANG);
      if (r == static_cast<pid_t>(pid)) {
        pid = -1;
      } else {
        ++live;
      }
    }
    if (live == 0) break;
    if (!killed && util::now_ns() > deadline) {
      for (int p = 0; p < nproc_; ++p) {
        if (pids_[static_cast<std::size_t>(p)] > 0) {
          ::kill(static_cast<pid_t>(pids_[static_cast<std::size_t>(p)]),
                 SIGKILL);
        }
      }
      killed = true;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  teardown_after_death();
}

#else  // !(__unix__ || __APPLE__)

ForkTeamPool::ForkTeamPool(int nproc) : nproc_(nproc) {
  FORCE_CHECK(false,
              "the os-fork team pool needs a POSIX host (fork/waitpid)");
}

ForkTeamPool::~ForkTeamPool() = default;

SpawnStats ForkTeamPool::run(PrivateSpace*,
                             const std::function<void(int)>&) {
  return {};
}

void ForkTeamPool::spawn(const std::function<void(int)>&) {}
void ForkTeamPool::teardown_after_death() {}
void ForkTeamPool::shutdown() {}

#endif

}  // namespace force::machdep
