#include "machdep/process.hpp"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <mutex>
#include <new>
#include <sstream>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <csignal>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "machdep/cluster.hpp"
#include "machdep/shm.hpp"
#include "machdep/wait.hpp"
#include "util/check.hpp"
#include "util/timing.hpp"

namespace force::machdep {

const char* process_model_name(ProcessModelKind kind) {
  switch (kind) {
    case ProcessModelKind::kForkJoinCopy: return "fork-join-copy";
    case ProcessModelKind::kForkSharedData: return "fork-shared-data";
    case ProcessModelKind::kHepCreate: return "hep-create";
    case ProcessModelKind::kOsFork: return "os-fork";
    case ProcessModelKind::kCluster: return "cluster";
  }
  return "unknown";
}

PrivateSpace::Region private_region_for(ProcessModelKind kind) {
  // Only the stack is truly private under the Alliant model.
  return kind == ProcessModelKind::kForkSharedData
             ? PrivateSpace::Region::kStack
             : PrivateSpace::Region::kData;
}

PrivateSpace::InitMode init_mode_for(ProcessModelKind kind) {
  switch (kind) {
    case ProcessModelKind::kForkJoinCopy:
    case ProcessModelKind::kOsFork:
    case ProcessModelKind::kCluster:
      // Real fork gives every child COW copies of data and stack; the
      // emulated kCopyBoth charges the same copies to creation time.
      return PrivateSpace::InitMode::kCopyBoth;
    case ProcessModelKind::kForkSharedData:
      return PrivateSpace::InitMode::kShareDataCopyStack;
    case ProcessModelKind::kHepCreate:
      return PrivateSpace::InitMode::kZeroBoth;
  }
  return PrivateSpace::InitMode::kZeroBoth;
}

SpawnStats ProcessTeam::run(int nproc, PrivateSpace* space,
                            const std::function<void(int)>& entry) const {
  FORCE_CHECK(nproc > 0, "a force needs at least one process");
  if (kind_ == ProcessModelKind::kOsFork) {
    return run_os_fork(nproc, space, entry);
  }
  if (kind_ == ProcessModelKind::kCluster) {
    return cluster::run_cluster_team(nproc, space, entry);
  }
  SpawnStats stats;
  stats.processes = nproc;

  const std::int64_t t0 = util::now_ns();
  if (space != nullptr) {
    // The parent performs the fork-time copies before any child runs,
    // exactly as fork() charges the copy to process creation.
    space->materialize(nproc, init_mode_for(kind_));
    stats.bytes_copied = space->bytes_copied();
  }

  std::mutex error_mutex;
  std::exception_ptr first_error;

  {
    std::vector<std::jthread> team;
    team.reserve(static_cast<std::size_t>(nproc));
    for (int proc = 0; proc < nproc; ++proc) {
      team.emplace_back([&, proc] {
        try {
          entry(proc);
        } catch (...) {
          std::lock_guard<std::mutex> g(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      });
    }
    stats.create_ns = util::now_ns() - t0;
    const std::int64_t t1 = util::now_ns();
    // jthread joins on destruction (scope exit) - the Force Join statement.
    team.clear();
    stats.join_ns = util::now_ns() - t1;
  }

  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

// --- the real-fork backend -------------------------------------------------

namespace {

/// Per-child control slot inside the team control mapping. The child keeps
/// its last-known construct site current (via shm::set_site_slot) and, if
/// it dies on a C++ exception, copies the what() text here before _Exit so
/// the parent can report it from the other side of the address-space gap.
struct ProcSlot {
  char site[128];
  char error[256];
};

/// Head of the team control mapping: the poison word every shm wait
/// re-checks, followed by one ProcSlot per process.
struct TeamControl {
  std::atomic<std::uint32_t> poison{0};
};

}  // namespace

#if defined(__unix__) || defined(__APPLE__)

SpawnStats ProcessTeam::run_os_fork(
    int nproc, PrivateSpace* space,
    const std::function<void(int)>& entry) const {
  SpawnStats stats;
  stats.processes = nproc;

  const std::int64_t t0 = util::now_ns();
  if (space != nullptr) {
    space->materialize(nproc, init_mode_for(kind_));
    stats.bytes_copied = space->bytes_copied();
  }

  // Control mapping: created before the forks so every process addresses
  // the poison word and the slots at the same virtual address.
  const std::size_t control_bytes =
      sizeof(TeamControl) + static_cast<std::size_t>(nproc) * sizeof(ProcSlot);
  shm::SharedMapping control(control_bytes);
  auto* team = ::new (control.data()) TeamControl();
  auto* slots = reinterpret_cast<ProcSlot*>(
      static_cast<std::byte*>(control.data()) + sizeof(TeamControl));
  for (int p = 0; p < nproc; ++p) {
    std::strncpy(slots[p].site, "startup", sizeof(slots[p].site) - 1);
    slots[p].error[0] = '\0';
  }

  shm::set_team_poison(&team->poison);

  // Flush before forking: children inherit the parent's stdio buffers, so
  // anything pending here would be written once per child. After this,
  // whatever a child buffers is its own and is flushed before _Exit below.
  std::fflush(nullptr);

  std::vector<pid_t> pids(static_cast<std::size_t>(nproc), -1);
  for (int proc = 0; proc < nproc; ++proc) {
    const pid_t pid = ::fork();
    if (pid == 0) {
      // Child. Never return into the parent's driver: _Exit skips atexit
      // handlers that belong to the parent; stdio the *child* buffered
      // (member-program printf) is flushed explicitly so it isn't lost.
      ProcSlot& slot = slots[proc];
      shm::set_site_slot(slot.site, sizeof(slot.site));
      try {
        entry(proc);
        std::fflush(nullptr);
        std::_Exit(0);
      } catch (const shm::TeamPoisoned&) {
        // Collateral of a sibling's death; the parent reports only the
        // primary failure.
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
    }
    if (pid < 0) {
      // fork failed: poison so already-spawned children release, then reap.
      team->poison.store(1, std::memory_order_release);
      Waiter::wake(team->poison, WordScope::kShared, Wake::kAll);
      for (int k = 0; k < proc; ++k) {
        if (pids[static_cast<std::size_t>(k)] > 0) {
          int status = 0;
          ::waitpid(pids[static_cast<std::size_t>(k)], &status, 0);
        }
      }
      shm::set_team_poison(nullptr);
      FORCE_CHECK(false, "fork() failed spawning force process " +
                             std::to_string(proc + 1) + " of " +
                             std::to_string(nproc));
    }
    pids[static_cast<std::size_t>(proc)] = pid;
  }
  stats.create_ns = util::now_ns() - t0;

  // Robust join: reap with a WNOHANG poll so the first abnormal status is
  // seen promptly; on it, poison the team (bounded-wait release of every
  // survivor parked in a shm primitive) and grant a grace period before
  // SIGKILLing stragglers. The parent never blocks unboundedly on a dead
  // team.
  const std::int64_t t1 = util::now_ns();
  constexpr std::int64_t kGraceNs = 5'000'000'000;  // 5 s after poisoning
  int live = nproc;
  int primary_proc = -1;       // 0-based index of the primary death
  pid_t primary_pid = -1;
  int primary_status = 0;
  std::int64_t poisoned_at = -1;
  bool killed_stragglers = false;

  while (live > 0) {
    bool reaped_any = false;
    for (int p = 0; p < nproc; ++p) {
      auto& pid = pids[static_cast<std::size_t>(p)];
      if (pid <= 0) continue;
      int status = 0;
      const pid_t r = ::waitpid(pid, &status, WNOHANG);
      if (r == 0) continue;
      FORCE_CHECK(r == pid, "waitpid lost track of a force process");
      pid = -1;
      --live;
      reaped_any = true;
      const bool clean = WIFEXITED(status) && WEXITSTATUS(status) == 0;
      const bool collateral =
          WIFEXITED(status) && WEXITSTATUS(status) == kPoisonCollateralExit;
      if (!clean && !collateral && primary_proc < 0) {
        primary_proc = p;
        primary_pid = r;
        primary_status = status;
        team->poison.store(1, std::memory_order_release);
        Waiter::wake(team->poison, WordScope::kShared, Wake::kAll);
        poisoned_at = util::now_ns();
      }
    }
    if (live == 0) break;
    if (poisoned_at >= 0 && !killed_stragglers &&
        util::now_ns() - poisoned_at > kGraceNs) {
      for (int p = 0; p < nproc; ++p) {
        if (pids[static_cast<std::size_t>(p)] > 0) {
          ::kill(pids[static_cast<std::size_t>(p)], SIGKILL);
        }
      }
      killed_stragglers = true;
    }
    if (!reaped_any) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  }
  stats.join_ns = util::now_ns() - t1;

  shm::set_team_poison(nullptr);

  if (primary_proc >= 0) {
    const ProcSlot& slot = slots[primary_proc];
    const std::string site(slot.site);
    const std::string error_text(slot.error);
    const int exit_code =
        WIFEXITED(primary_status) ? WEXITSTATUS(primary_status) : -1;
    const int term_signal =
        WIFSIGNALED(primary_status) ? WTERMSIG(primary_status) : 0;
    std::ostringstream msg;
    msg << "force process " << (primary_proc + 1) << " of " << nproc
        << " (pid " << primary_pid << ")";
    if (term_signal != 0) {
      msg << " killed by signal " << term_signal;
    } else {
      msg << " exited with code " << exit_code;
    }
    msg << " at construct site '" << site << "'";
    if (!error_text.empty()) msg << ": " << error_text;
    msg << " (surviving processes released by team poison)";
    throw ProcessDeathError(msg.str(), primary_proc + 1,
                            static_cast<long>(primary_pid), exit_code,
                            term_signal, site, error_text);
  }
  return stats;
}

#else  // !(__unix__ || __APPLE__)

SpawnStats ProcessTeam::run_os_fork(int, PrivateSpace*,
                                    const std::function<void(int)>&) const {
  FORCE_CHECK(false,
              "the os-fork process model needs a POSIX host (fork/waitpid); "
              "use a thread-emulated machine model on this platform");
  return {};
}

#endif

}  // namespace force::machdep
