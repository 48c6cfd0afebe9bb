// Work distribution: prescheduled and selfscheduled DO loops (paper §3.3,
// §4.2), in singly and doubly nested forms, plus chunked and guided
// selfscheduling extensions from the Force User's Manual lineage.
//
// * Presched DO is "completely machine independent, since only the number
//   of executing processes is needed": iteration k goes to process
//   k mod NP. It is a pure function of (me, np) - no shared state at all.
//
// * Selfsched DO keeps the paper's episode protocol exactly - an entry
//   gate (machdep::EpisodeGate) whose only job is to initialize the
//   dispatch once per episode and to keep the loop from being re-entered
//   before every process has left it. Faithfully to the paper, there is NO
//   exit barrier: a process leaves as soon as it draws an index beyond
//   LAST.
//
//   The gate and the shared loop index (a machdep::DispatchCounter) each
//   come in two expansions, chosen once by ForceEnvironment::atomic_words:
//   with hardware atomic RMW the gate is one word and a claim is one
//   fetch-add (guided: one CAS), with no lock at all; on lock-only machines
//   both are the paper's lock expansions, byte-for-byte in lock traffic -
//   BARWIN/BARWOT/ZZNBAR and one generic lock pass per claim, on locks
//   from MachineModel::new_lock().
//
// Iteration ranges follow Fortran DO semantics: start/last/incr with
// positive or negative increments; an empty range executes nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/barrier.hpp"
#include "machdep/backend.hpp"
#include "machdep/episodegate.hpp"
#include "machdep/locks.hpp"

namespace force::core {

class ForceEnvironment;

/// Trip count of DO start,last,incr (Fortran semantics; 0 if empty).
std::int64_t loop_trip_count(std::int64_t start, std::int64_t last,
                             std::int64_t incr);

/// True if index `k` is within the loop range given the increment sign.
inline bool loop_index_in_range(std::int64_t k, std::int64_t last,
                                std::int64_t incr) {
  return (incr > 0 && k <= last) || (incr < 0 && k >= last);
}

/// Prescheduled 1D DO: process `me0` (0-based) of `np` executes iterations
/// start + (me0 + j*np)*incr. Machine independent by construction.
void presched_do(int me0, int np, std::int64_t start, std::int64_t last,
                 std::int64_t incr, const std::function<void(std::int64_t)>& body);

/// Prescheduled doubly nested DO over index pairs (i, j); the flattened
/// pair sequence is dealt cyclically, matching the "index pairs specify
/// concurrently executable streams" description.
void presched_do2(int me0, int np, std::int64_t i_start, std::int64_t i_last,
                  std::int64_t i_incr, std::int64_t j_start,
                  std::int64_t j_last, std::int64_t j_incr,
                  const std::function<void(std::int64_t, std::int64_t)>& body);

/// Shared state of one selfscheduled loop site: the paper's expansion,
/// object-ified. Reusable (protected against re-entry) and usable from
/// any SPMD team of `width` processes.
class SelfschedLoop {
 public:
  /// `key` is the construct's stable site key. Separate-process backends
  /// key the loop's episode state (entry barrier + dispatch counter +
  /// bounds) by it so every real process reaches the same engine state;
  /// the thread backend ignores it.
  SelfschedLoop(ForceEnvironment& env, int width, const std::string& key = "");

  /// Executes the loop body for dynamically claimed indices. `chunk` > 1
  /// claims several consecutive indices per critical section (chunked
  /// selfscheduling); `guided` claims ceil(remaining / (2*np)) at a time.
  void run(int me0, std::int64_t start, std::int64_t last, std::int64_t incr,
           const std::function<void(std::int64_t)>& body,
           std::int64_t chunk = 1);
  void run_guided(int me0, std::int64_t start, std::int64_t last,
                  std::int64_t incr,
                  const std::function<void(std::int64_t)>& body);

  [[nodiscard]] int width() const { return width_; }

 private:
  /// The claim size of run_guided: a fraction of the remaining trips.
  static constexpr std::int64_t kGuided = 0;

  /// One episode: enter, claim `chunk` trips (or kGuided) until the work
  /// is exhausted, leave.
  void run_episode(int me0, std::int64_t start, std::int64_t last,
                   std::int64_t incr,
                   const std::function<void(std::int64_t)>& body,
                   std::int64_t chunk);
  machdep::DispatchClaim claim(std::int64_t chunk, std::int64_t trips);

  /// Returns false on an SPMD violation (divergent bounds); the arrival is
  /// still counted so the other processes are not wedged - the caller
  /// completes the departure protocol and then reports the error.
  [[nodiscard]] bool enter_episode(std::int64_t start, std::int64_t last,
                                   std::int64_t incr);
  void leave_episode();

  ForceEnvironment& env_;
  int width_;

  // Separate-process backends: the whole episode protocol folds into one
  // backend engine (site_ non-null) - an entry barrier whose champion
  // publishes the bounds and re-arms the dispatch, then a claim loop;
  // faithful to the paper there is still no exit barrier. Null on the
  // thread backend, which keeps the monomorphic expansion below.
  std::unique_ptr<machdep::DoallSite> site_;

  // The paper's shared environment variables for this loop site:
  std::unique_ptr<machdep::EpisodeGate> gate_;  // entry/exit gate
  /// The asynchronous loop index, counted in *trips claimed* (0-based)
  /// rather than raw index values so claims clamp at the trip count and
  /// can never overflow, and so chunked/guided/2D all share one engine.
  std::unique_ptr<machdep::DispatchCounter> dispatch_;
  std::int64_t trips_ = 0;        // trip count of the current episode
  std::int64_t last_ = 0;         // bounds of the current episode
  std::int64_t incr_ = 1;
};

/// Selfscheduled doubly nested DO: one shared dispatch over the flattened
/// pair space, then unflattened to (i, j) for the body.
class Selfsched2Loop {
 public:
  Selfsched2Loop(ForceEnvironment& env, int width,
                 const std::string& key = "");

  void run(int me0, std::int64_t i_start, std::int64_t i_last,
           std::int64_t i_incr, std::int64_t j_start, std::int64_t j_last,
           std::int64_t j_incr,
           const std::function<void(std::int64_t, std::int64_t)>& body,
           std::int64_t chunk = 1);

 private:
  SelfschedLoop flat_;
};

}  // namespace force::core
