// Member continuations for the N:M team pool (ROADMAP: "N:M lightweight
// tasking").
//
// A pooled team may run a force of NP members on W < NP worker threads. A
// member then cannot be an OS thread: when it blocks in a barrier it must
// get off the worker so the members it is waiting FOR can run on the same
// worker. MemberScheduler multiplexes members as stackful run-to-barrier
// continuations (ucontext fibers): a member runs until it would wait, calls
// member_yield(), and the scheduler resumes a sibling. machdep::Waiter
// (wait.hpp) is the only caller of member_yield(): every lock, barrier
// flag, askfor poll and full/empty cell waits through it, and its yield is
// an OS yield on a plain thread and a continuation switch inside a fiber -
// so the same construct code serves 1:1 and N:M teams.
//
// The scheduler is deliberately cooperative and deterministic: members are
// resumed round-robin in rank order, and a full unproductive round (every
// live member yielded without finishing) costs one OS yield. There is no
// preemption - a member that spins without ever reaching a Force primitive
// would starve its siblings, but Force programs synchronize through Force
// constructs, which all yield.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "machdep/pages.hpp"

namespace force::machdep {

/// True when the calling thread is currently executing inside a
/// multiplexed member continuation (i.e. an N:M pooled team).
[[nodiscard]] bool on_fiber();

/// Yields to the member scheduler when the caller is a fiber, to the OS
/// scheduler otherwise. Waits call it through machdep::Waiter.
void member_yield();

/// The driver index (0..nproc-1) of the force member the caller runs, or
/// -1 outside one. Each multiplexed continuation keeps its own: the value
/// is saved and restored across member_yield().
[[nodiscard]] int this_member();

/// Binds the caller to member `index` for the scope's lifetime; the
/// driver installs one around each member body.
class MemberScope {
 public:
  explicit MemberScope(int index);
  ~MemberScope();
  MemberScope(const MemberScope&) = delete;
  MemberScope& operator=(const MemberScope&) = delete;

 private:
  int saved_;
};

/// Runs a batch of member bodies to completion on the calling thread,
/// multiplexing them as ucontext continuations. Exceptions thrown by a
/// body are caught into the member's slot; run() rethrows the first one
/// (in rank order) after every member has finished - mirroring
/// ProcessTeam::run's join-then-rethrow contract.
class MemberScheduler {
 public:
  explicit MemberScheduler(std::size_t stack_bytes = 256u << 10);
  ~MemberScheduler();

  MemberScheduler(const MemberScheduler&) = delete;
  MemberScheduler& operator=(const MemberScheduler&) = delete;

  /// Runs all bodies to completion; see class comment for semantics.
  void run(std::vector<std::function<void()>> bodies);

 private:
  std::size_t stack_bytes_;
  // Stacks are recycled across run() calls. A pooled N:M worker enters the
  // scheduler once per force; re-allocating (and first-touch faulting) its
  // members' stacks every entry dominated pooled re-entry cost, so a
  // long-lived scheduler hands the same warm pages to the next force.
  // A fresh stack comes from zero_pages, so it is resident only as deep
  // as its member has run.
  std::vector<ZeroPages> free_stacks_;
};

}  // namespace force::machdep
