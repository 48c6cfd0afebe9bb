#include "machdep/process.hpp"

#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "machdep/cluster.hpp"
#include "machdep/forkteam.hpp"
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
    return ForkTeam(nproc, /*resident=*/false).run(space, entry);
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

}  // namespace force::machdep
