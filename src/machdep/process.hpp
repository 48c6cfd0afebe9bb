// Process creation and termination (paper §4.1.1).
//
// A Force program assumes a force of processes exists; the generated driver
// creates them at program start and joins them at the very end. The paper
// reports two creation models on the 1989 machines:
//
//   * the Unix fork/join model (Encore, Sequent, Flex/32, Cray-2): high
//     creation and context-switch cost; each child starts with a complete
//     copy of the parent's data and stack;
//   * the Alliant variation: data segments are shared, only a fresh copy of
//     the stack belongs to the child;
//   * the HEP model: a subroutine call creates a process running that
//     subroutine; returning terminates it - creation is cheap and copies
//     nothing.
//
// ProcessTeam reproduces the *observable* differences over std::jthread:
// which private regions children inherit (via PrivateSpace) and how much
// memory the spawn must copy (the fork cost driver measured in bench E7).
// ProcessModelKind::kOsFork and kCluster leave emulation behind: for them
// ProcessTeam::run forwards to the fork-team module (machdep/forkteam.*),
// the one place that forks real child processes with fork(2), decides how
// they exit and reaps them. Shared state must then live in MAP_SHARED pages
// (SharedArena with ArenaBacking::kSharedMapping) or, under kCluster, go
// through the coordinator. Join is robust: children are reaped with
// waitpid, a death is surfaced as a structured ProcessDeathError naming
// the process and its last-known construct site, and the surviving
// processes are released within a bounded wait by poisoning the team
// instead of being left parked forever.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>

#include "machdep/arena.hpp"

namespace force::machdep {

enum class ProcessModelKind {
  kForkJoinCopy,    ///< Unix fork: copy data + stack (Sequent/Encore/Flex/Cray)
  kForkSharedData,  ///< Alliant: share data, copy stack only
  kHepCreate,       ///< HEP: subroutine-call creation, nothing copied
  kOsFork,          ///< real fork(2) children over a MAP_SHARED arena
  kCluster          ///< separate processes, no shared mapping: socket
                    ///< transport + software distributed-shared-arena
};

const char* process_model_name(ProcessModelKind kind);

/// Which PrivateSpace region is genuinely per-process under a model; the
/// Force places its private variables there. (Under kForkSharedData the
/// data region is aliased - "private" data there is accidentally shared,
/// which is why the Alliant port must use the stack region.)
PrivateSpace::Region private_region_for(ProcessModelKind kind);

/// Translates a process model into PrivateSpace initialization semantics.
PrivateSpace::InitMode init_mode_for(ProcessModelKind kind);

/// A child of a forked team (kOsFork, kCluster) exited nonzero or died on
/// a signal. Carries the 1-based process number, its pid, how it died, the
/// last construct site the process recorded before dying, and any error
/// text it reported. Built in one place: machdep/forkteam.cpp.
class ProcessDeathError : public std::runtime_error {
 public:
  ProcessDeathError(const std::string& what, int proc1, long pid,
                    int exit_code, int term_signal, std::string site,
                    std::string error_text)
      : std::runtime_error(what),
        proc1_(proc1),
        pid_(pid),
        exit_code_(exit_code),
        term_signal_(term_signal),
        site_(std::move(site)),
        error_text_(std::move(error_text)) {}

  /// 1-based process number, Force convention.
  [[nodiscard]] int process() const { return proc1_; }
  [[nodiscard]] long pid() const { return pid_; }
  /// Exit code, or -1 when the child died on a signal.
  [[nodiscard]] int exit_code() const { return exit_code_; }
  /// Terminating signal, or 0 when the child exited.
  [[nodiscard]] int term_signal() const { return term_signal_; }
  /// Last construct site the child noted ("startup" if none).
  [[nodiscard]] const std::string& site() const { return site_; }
  /// what() of the exception the child died with, if it managed to record
  /// one; empty for signal deaths.
  [[nodiscard]] const std::string& error_text() const { return error_text_; }

 private:
  int proc1_;
  long pid_;
  int exit_code_;
  int term_signal_;
  std::string site_;
  std::string error_text_;
};

/// Outcome of one spawn/execute/join cycle.
struct SpawnStats {
  std::int64_t create_ns = 0;      ///< wall time spent creating processes
  std::int64_t join_ns = 0;        ///< wall time spent joining
  std::size_t bytes_copied = 0;    ///< private bytes copied at creation
  int processes = 0;
};

/// Creates the force of processes, runs `entry(proc)` on each (proc is
/// 0-based), and joins them - the driver + Join of a Force program.
///
/// If `space` is non-null it is materialized with the model's semantics
/// before the processes start, so children observe the right inheritance.
/// The first exception thrown by any process is rethrown after all
/// processes have been joined (no thread is ever leaked). kOsFork runs a
/// respawned ForkTeam and kCluster a coordinated team (machdep/cluster.*),
/// both forked through machdep/forkteam.*; their deaths surface as
/// ProcessDeathError.
class ProcessTeam {
 public:
  explicit ProcessTeam(ProcessModelKind kind) : kind_(kind) {}

  SpawnStats run(int nproc, PrivateSpace* space,
                 const std::function<void(int)>& entry) const;

  [[nodiscard]] ProcessModelKind kind() const { return kind_; }

 private:
  ProcessModelKind kind_;
};

}  // namespace force::machdep
