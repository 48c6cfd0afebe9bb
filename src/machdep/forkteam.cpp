#include "machdep/forkteam.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <new>
#include <sstream>
#include <thread>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "machdep/shm.hpp"
#include "machdep/wait.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"

namespace force::machdep {

namespace {

/// Exit code of a member released by a sibling's death (a TeamPoisoned
/// unwind): the parent reports only the primary death, not the releases
/// it caused.
constexpr int kPoisonCollateralExit = 103;

}  // namespace

bool MemberExit::collateral() const {
  return exit_code == kPoisonCollateralExit;
}

void throw_process_death(const MemberDeath& death, int nproc, bool pooled) {
  std::ostringstream msg;
  if (pooled) msg << "pooled ";
  if (death.proc0 < 0) {
    msg << "force team lost processes without a primary status";
  } else {
    msg << "force process " << (death.proc0 + 1) << " of " << nproc
        << " (pid " << death.pid << ")";
    if (death.how.term_signal != 0) {
      msg << " killed by signal " << death.how.term_signal;
    } else {
      msg << " exited with code " << death.how.exit_code;
    }
    msg << " at construct site '" << death.site << "'";
    if (!death.error.empty()) msg << ": " << death.error;
  }
  msg << (pooled ? " (pool retired; the next force re-forks a fresh team)"
                 : " (surviving processes released by team poison)");
  throw ProcessDeathError(msg.str(), death.proc0 + 1, death.pid,
                          death.how.exit_code, death.how.term_signal,
                          death.site, death.error);
}

#if defined(__unix__) || defined(__APPLE__)

namespace {

/// The one way a forked member leaves. A failed report still exits 1.
[[noreturn]] void exit_member(
    int proc, const std::function<void(int)>& body,
    const std::function<void(int, const char*)>& report) {
  int code = 1;
  try {
    try {
      body(proc);
      code = 0;
    } catch (const shm::TeamPoisoned&) {
      code = kPoisonCollateralExit;
    } catch (const std::exception& e) {
      report(proc, e.what());
    } catch (...) {
      report(proc, "unknown exception");
    }
  } catch (...) {
  }
  std::fflush(nullptr);
  std::_Exit(code);
}

}  // namespace

std::vector<long> fork_members(
    int nproc, const std::function<void(int)>& body,
    const std::function<void(int, const char*)>& report) {
  // After this, whatever a child buffers is its own.
  std::fflush(nullptr);
  std::vector<long> pids;
  pids.reserve(static_cast<std::size_t>(nproc));
  for (int proc = 0; proc < nproc; ++proc) {
    const pid_t pid = ::fork();
    if (pid == 0) exit_member(proc, body, report);
    if (pid < 0) {
      for (const long spawned : pids) {
        kill_member(spawned);
        MemberExit how;
        (void)reap_member(spawned, /*block=*/true, &how);
      }
      FORCE_CHECK(false, "fork() failed spawning force process " +
                             std::to_string(proc + 1) + " of " +
                             std::to_string(nproc));
    }
    pids.push_back(static_cast<long>(pid));
  }
  return pids;
}

bool reap_member(long pid, bool block, MemberExit* how) {
  int status = 0;
  const pid_t r =
      ::waitpid(static_cast<pid_t>(pid), &status, block ? 0 : WNOHANG);
  if (r == 0) return false;
  FORCE_CHECK(r == static_cast<pid_t>(pid),
              "waitpid lost track of a force process");
  how->exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  how->term_signal = WIFSIGNALED(status) ? WTERMSIG(status) : 0;
  return true;
}

void kill_member(long pid) { ::kill(static_cast<pid_t>(pid), SIGKILL); }

#else  // !(__unix__ || __APPLE__)

std::vector<long> fork_members(int, const std::function<void(int)>&,
                               const std::function<void(int, const char*)>&) {
  FORCE_CHECK(false,
              "forked force teams (os-fork, cluster) need a POSIX host "
              "(fork/waitpid); use a thread-emulated machine model here");
  return {};
}
bool reap_member(long, bool, MemberExit*) { return true; }
void kill_member(long) {}

#endif

// ---------------------------------------------------------------------------
// ForkTeam
// ---------------------------------------------------------------------------

/// Head of the control mapping. Resident children park on `arm` for the
/// generation to execute; `poison` is the shm layer's team-poison word, so
/// a death releases every shared-scope wait.
struct ForkTeam::Control {
  std::atomic<std::uint32_t> arm{0};
  std::atomic<std::uint32_t> shutdown{0};
  std::atomic<std::uint32_t> poison{0};
};

/// Per-member slot: the generation it last completed (resident), its
/// last-known construct site (kept current through shm::set_site_slot)
/// and the what() it died on, readable across the address-space gap.
struct ForkTeam::Slot {
  std::atomic<std::uint32_t> done{0};
  char site[128];
  char error[256];
};

ForkTeam::ForkTeam(int nproc, bool resident)
    : nproc_(nproc), resident_(resident) {
  FORCE_CHECK(nproc_ > 0, "a force needs at least one process");
}

ForkTeam::~ForkTeam() {
  try {
    shutdown();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "force: retiring a fork team failed: %s\n", e.what());
  }
}

void ForkTeam::spawn(const std::function<void(int)>& entry) {
  // Created before the forks, so every process addresses the control
  // words at the same virtual address.
  control_ = zero_pages(
      sizeof(Control) + static_cast<std::size_t>(nproc_) * sizeof(Slot),
      PageSharing::kShared);
  ctl_ = ::new (control_.get()) Control();
  slots_ = reinterpret_cast<Slot*>(control_.get() + sizeof(Control));
  for (int p = 0; p < nproc_; ++p) {
    ::new (&slots_[p]) Slot();
    std::strncpy(slots_[p].site, resident_ ? "pool-parked" : "startup",
                 sizeof(slots_[p].site) - 1);
  }
  generation_ = 0;
  shm::set_team_poison(&ctl_->poison);

  const auto member = [this, &entry](int proc) {
    Slot& slot = slots_[proc];
    shm::set_site_slot(slot.site, sizeof(slot.site));
    if (!resident_) {
      entry(proc);
      return;
    }
    // Resident: park, execute each armed force, report it, park again.
    // The fork-point stack frames (and with them the COW copies everything
    // `entry` refers to) stay live because this loop only returns to exit.
    for (std::uint32_t seen = 0;;) {
      seen = Waiter().await(
          ctl_->arm, [seen](std::uint32_t v) { return v != seen; },
          WordScope::kShared);
      // shutdown() wakes the park with an arm bump (a bare wake could be
      // slept through), so a new generation may mean retirement.
      if (ctl_->shutdown.load(std::memory_order_acquire) != 0) return;
      entry(proc);
      shm::note_site("pool-parked");
      slot.done.store(seen, std::memory_order_release);
      Waiter::wake(slot.done, WordScope::kShared, Wake::kAll);
    }
  };
  const auto report = [this](int proc, const char* what) {
    Slot& slot = slots_[proc];
    std::strncpy(slot.error, what, sizeof(slot.error) - 1);
  };
  try {
    pids_ = fork_members(nproc_, member, report);
  } catch (...) {
    retire();
    throw;
  }
}

void ForkTeam::retire() {
  shm::set_team_poison(nullptr);
  control_.reset();
  ctl_ = nullptr;
  slots_ = nullptr;
  pids_.clear();
}

SpawnStats ForkTeam::run(PrivateSpace* space,
                         const std::function<void(int)>& entry) {
  SpawnStats stats;
  stats.processes = nproc_;

  const std::int64_t t0 = util::now_ns();
  // Privates are inherited at fork. Resident children keep their
  // fork-point copy-on-write snapshot across runs, so per-run state must
  // go through the shared arena (docs/PORTING.md, pooled contracts).
  if (space != nullptr && !space->materialized()) {
    space->materialize(nproc_, init_mode_for(ProcessModelKind::kOsFork));
    stats.bytes_copied = space->bytes_copied();
  }
  if (!armed()) spawn(entry);  // respawned, first resident run, or a death
  std::uint32_t g = 0;
  if (resident_) {
    g = ++generation_;
    ctl_->arm.store(g, std::memory_order_release);
    Waiter::wake(ctl_->arm, WordScope::kShared, Wake::kAll);
  }
  stats.create_ns = util::now_ns() - t0;

  const std::int64_t t1 = util::now_ns();
  MemberDeath death;
  const bool lost = join(g, /*retiring=*/false, &death);
  stats.join_ns = util::now_ns() - t1;

  if (lost || !resident_) retire();
  if (lost) throw_process_death(death, nproc_, resident_);
  return stats;
}

bool ForkTeam::join(std::uint32_t g, bool retiring, MemberDeath* death) {
  const bool exits = retiring || !resident_;
  // Retiring members get the same grace as a poisoned team's survivors.
  std::int64_t deadline = retiring ? util::now_ns() + kStragglerGraceNs : -1;
  bool lost = false;
  int live = nproc_;
  for (;;) {
    // A resident force is over once every member reported generation g.
    int pending = 0;
    if (!exits && !lost) {
      while (pending < nproc_ &&
             slots_[pending].done.load(std::memory_order_acquire) == g) {
        ++pending;
      }
      if (pending == nproc_) return false;
    }
    bool reaped = false;
    for (int p = 0; p < nproc_; ++p) {
      long& pid = pids_[static_cast<std::size_t>(p)];
      MemberExit how;
      if (pid <= 0 || !reap_member(pid, /*block=*/false, &how)) continue;
      const long dead = std::exchange(pid, -1);
      --live;
      reaped = true;
      if (exits && how.clean()) continue;
      // A resident member has no business exiting mid-force at all.
      lost = true;
      if (how.collateral() || death->proc0 >= 0) continue;
      *death = {p, dead, how, slots_[p].site, slots_[p].error};
      // Poison: every survivor parked on a shared word (or on the arm
      // generation) unwinds within one wait slice.
      ctl_->poison.store(1, std::memory_order_release);
      Waiter::wake(ctl_->poison, WordScope::kShared, Wake::kAll);
      Waiter::wake(ctl_->arm, WordScope::kShared, Wake::kAll);
      deadline = util::now_ns() + kStragglerGraceNs;
    }
    if (live == 0) return lost;
    if (deadline >= 0 && util::now_ns() > deadline) {
      for (const long pid : pids_) {
        if (pid > 0) kill_member(pid);
      }
      deadline = -1;
    }
    if (lost || exits) {
      if (!reaped) std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    // Park on the pending member until its slot moves or one wait slice
    // has passed, which bounds how stale the reap above can get.
    std::atomic<std::uint32_t>& done = slots_[pending].done;
    const std::uint32_t cur = done.load(std::memory_order_acquire);
    const std::int64_t until = util::now_ns() + shm::kWaitSliceNs;
    Waiter().await(
        done,
        [cur, until](std::uint32_t v) {
          return v != cur || util::now_ns() >= until;
        },
        WordScope::kShared);
  }
}

void ForkTeam::shutdown() {
  if (!armed()) return;
  ctl_->shutdown.store(1, std::memory_order_release);
  ctl_->arm.fetch_add(1, std::memory_order_acq_rel);
  Waiter::wake(ctl_->arm, WordScope::kShared, Wake::kAll);
  MemberDeath ignored;
  (void)join(0, /*retiring=*/true, &ignored);
  retire();
}

}  // namespace force::machdep
