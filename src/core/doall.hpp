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
//   entry barrier and NO exit barrier: a process claims as soon as the
//   episode is open and leaves as soon as it draws an index beyond LAST.
//
//   SelfschedLoop holds one machdep::DoallSite, picked at construction and
//   called the same way by every operation. On thread and os-fork it is
//   machdep::GateDoallSite: the gate and the loop index (a
//   machdep::DispatchCounter) over words ForceEnvironment places - in a
//   block the site owns, or in the MAP_SHARED arena under os-fork. Each
//   comes in two expansions, chosen once by ForceEnvironment::atomic_words:
//   with hardware atomic RMW (and always under os-fork) the gate is one
//   word and the loop index is one home block of contiguous trips per
//   member: a claim is one fetch-add on the member's own block (guided:
//   one CAS), and a member whose block is empty steals from the front of
//   the others' with the same RMW, with no lock at all. The paper promises
//   that every index runs once on some process, not which one, so this
//   claim order is free, and it keeps a row on the member that ran it
//   last. On lock-only machines both are the paper's lock expansions,
//   byte-for-byte in lock traffic - BARWIN/BARWOT/ZZNBAR and one generic
//   lock pass per claim on one shared index, on locks from
//   MachineModel::new_lock(). The cluster backend hands out an RPC site
//   instead, which keeps the same gate and home blocks on its coordinator.
//
// Iteration ranges follow Fortran DO semantics: start/last/incr with
// positive or negative increments; an empty range executes nothing.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "machdep/backend.hpp"

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
  /// key the loop's episode state (gate + dispatch counter + bounds) by it
  /// so every real process reaches the same words; it also names the site
  /// in death reports.
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
  machdep::DispatchClaim claim(int me0, std::int64_t chunk,
                               std::int64_t trips);

  ForceEnvironment& env_;
  int width_;
  /// The loop's shared environment variables, behind one engine.
  std::unique_ptr<machdep::DoallSite> site_;
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
