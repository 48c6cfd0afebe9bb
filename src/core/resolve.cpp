#include "core/resolve.hpp"

#include <algorithm>
#include <numeric>

#include "core/env.hpp"
#include "util/check.hpp"

namespace force::core {

std::vector<int> resolve_partition(int np, const std::vector<int>& weights) {
  FORCE_CHECK(!weights.empty(), "Resolve needs at least one component");
  FORCE_CHECK(np >= static_cast<int>(weights.size()),
              "Resolve needs at least one process per component");
  for (int w : weights) FORCE_CHECK(w > 0, "component weights must be > 0");

  const int n = static_cast<int>(weights.size());
  const long long total_weight =
      std::accumulate(weights.begin(), weights.end(), 0LL);

  // Largest-remainder apportionment of the ideal shares np*w/W, then a
  // floor fix so every component runs on at least one process.
  std::vector<int> sizes(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<long long, int>> remainders;  // (-remainder, idx)
  int assigned = 0;
  for (int i = 0; i < n; ++i) {
    const long long numer =
        static_cast<long long>(np) * weights[static_cast<std::size_t>(i)];
    sizes[static_cast<std::size_t>(i)] = static_cast<int>(numer / total_weight);
    assigned += sizes[static_cast<std::size_t>(i)];
    remainders.emplace_back(-(numer % total_weight), i);
  }
  std::sort(remainders.begin(), remainders.end());
  for (int k = 0; k < np - assigned; ++k) {
    sizes[static_cast<std::size_t>(
        remainders[static_cast<std::size_t>(k % n)].second)] += 1;
  }
  // Floor fix: a starved component takes one process from the largest.
  for (auto& size : sizes) {
    if (size == 0) {
      auto largest = std::max_element(sizes.begin(), sizes.end());
      FORCE_CHECK(*largest > 1, "partition floor fix impossible");
      --*largest;
      size = 1;
    }
  }
  FORCE_CHECK(std::accumulate(sizes.begin(), sizes.end(), 0) == np,
              "partition arithmetic error");
  return sizes;
}

ComponentAssignment assign_component(int proc0,
                                     const std::vector<int>& sizes) {
  int base = 0;
  for (std::size_t c = 0; c < sizes.size(); ++c) {
    if (proc0 < base + sizes[c]) {
      return {static_cast<int>(c), proc0 - base, sizes[c]};
    }
    base += sizes[c];
  }
  FORCE_CHECK(false, "process rank beyond the partition");
}

ResolveState::ResolveState(ForceEnvironment& env,
                           const std::vector<int>& sizes,
                           const std::string& key)
    : sizes_(sizes) {
  component_barriers_.reserve(sizes_.size());
  int total = 0;
  for (std::size_t c = 0; c < sizes_.size(); ++c) {
    component_barriers_.push_back(env.make_team_barrier(
        sizes_[c], key + "/component" + std::to_string(c)));
    total += sizes_[c];
  }
  join_ = env.make_team_barrier(total, key + "/join");
}

BarrierAlgorithm& ResolveState::component_barrier(int component) {
  FORCE_CHECK(component >= 0 &&
                  component < static_cast<int>(component_barriers_.size()),
              "component index out of range");
  return *component_barriers_[static_cast<std::size_t>(component)];
}

}  // namespace force::core
