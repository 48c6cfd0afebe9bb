// Forked force teams (paper §4.1.1): the driver creates the force's
// processes and the Join statement reaps them. This module is the one place
// that forks a force member, decides how it leaves, reaps it and turns its
// death into a ProcessDeathError. The os-fork backend runs its teams through
// ForkTeam; the cluster coordinator forks through fork_members and reaps
// through reap_member inside its own poll loop.
//
//   * Spawn. fork_members flushes stdio first (a child inherits whatever
//     the parent still buffers) and forks nproc members. If a fork fails,
//     the members already forked are SIGKILLed and reaped before the
//     CheckError.
//   * Exit. A member runs its body and leaves by _Exit, never back into the
//     parent's driver or its atexit handlers, after flushing the stdio it
//     buffered itself: code 0 when the body returns, a collateral code when
//     a sibling's death released it (shm::TeamPoisoned), 1 on any other
//     exception, whose what() the member reports first (os-fork: its
//     control slot; cluster: a kError frame).
//   * Join. Members are reaped with WNOHANG. The first abnormal status is
//     the primary death and poisons the team; a collateral exit is never
//     primary; kStragglerGraceNs after the poison, members still running
//     get SIGKILL.
//
// ForkTeam's children either stay resident between forces
// (ForceConfig::team_pool), parked on a futex'd arm generation in the
// control mapping, or are respawned per force and exit after their one
// entry. Both join the same way.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "machdep/pages.hpp"
#include "machdep/process.hpp"

namespace force::machdep {

/// How long a poisoned team's survivors get to leave before SIGKILL.
constexpr std::int64_t kStragglerGraceNs = 5'000'000'000;  // 5 s

/// How a reaped member left.
struct MemberExit {
  int exit_code = -1;   ///< -1 when a signal killed it
  int term_signal = 0;  ///< 0 when it exited
  [[nodiscard]] bool clean() const { return exit_code == 0; }
  /// Released by a sibling's death: never reported as the primary death.
  [[nodiscard]] bool collateral() const;
};

/// Forks `nproc` members. Member p runs body(p) and leaves by the one exit
/// path; report(p, what) records the what() of an exception it dies on.
/// Returns the members' pids.
std::vector<long> fork_members(
    int nproc, const std::function<void(int)>& body,
    const std::function<void(int, const char*)>& report);

/// Reaps member `pid` into *how if it has exited, waiting for it when
/// `block`; false while it still runs.
bool reap_member(long pid, bool block, MemberExit* how);
void kill_member(long pid);

/// The primary death of a team, as its join recorded it.
struct MemberDeath {
  int proc0 = -1;  ///< 0-based; -1 when members were lost without one
  long pid = -1;
  MemberExit how;
  std::string site;   ///< last construct site the member noted
  std::string error;  ///< what() it reported, if any
};

/// Throws the ProcessDeathError for `death` in a team of `nproc`; a
/// `pooled` team says it was retired.
[[noreturn]] void throw_process_death(const MemberDeath& death, int nproc,
                                      bool pooled);

/// An os-fork team of resident or respawned fork(2) children over the
/// MAP_SHARED arena.
class ForkTeam {
 public:
  ForkTeam(int nproc, bool resident);
  ~ForkTeam();

  ForkTeam(const ForkTeam&) = delete;
  ForkTeam& operator=(const ForkTeam&) = delete;

  [[nodiscard]] int nproc() const { return nproc_; }
  /// True while resident children exist (forked lazily on the first run
  /// and re-forked by the run after a death). Always false when respawned.
  [[nodiscard]] bool armed() const { return control_ != nullptr; }

  /// One force. Respawned: forks the team, which runs `entry` once and
  /// exits. Resident: the FIRST run forks the children, which then hold
  /// their fork-point stacks forever, so later runs re-execute the closure
  /// the team was armed with (every run must pass the same program, as
  /// Force::run enforces by the closure's type); after a ProcessDeathError
  /// the next run re-forks with its own entry.
  SpawnStats run(PrivateSpace* space, const std::function<void(int)>& entry);

  /// Retires resident children: they unpark, exit and are reaped.
  /// Idempotent.
  void shutdown();

 private:
  struct Control;
  struct Slot;

  void spawn(const std::function<void(int)>& entry);
  /// The robust join: reaps until every member reported generation `g`
  /// (resident) or exited (respawned, or `retiring`), SIGKILLing
  /// stragglers kStragglerGraceNs after a poison or a retirement. Returns
  /// true when a member was lost, with the primary death in *death.
  bool join(std::uint32_t g, bool retiring, MemberDeath* death);
  void retire();

  int nproc_;
  bool resident_;
  std::uint32_t generation_ = 0;
  ZeroPages control_;
  Control* ctl_ = nullptr;
  Slot* slots_ = nullptr;
  std::vector<long> pids_;
};

}  // namespace force::machdep
