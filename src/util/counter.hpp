// Per-thread-sharded event counters (perfbook's statistical counters:
// per-thread counts, summed when read).
//
// A runtime counter that every member bumps on a hot path - a Produce, a
// Consume - would otherwise be one cache line that every handoff writes,
// on top of the line the handoff itself needs. ShardedCounter spreads the
// count over a fixed number of cache-line shards; each thread adds to the
// shard it was given on its first count, and a read sums them. The call
// shapes are std::atomic's (fetch_add / load / store), so readers do not
// change. N:M fibers on one worker share the worker's shard, which stays
// exact because every shard is itself atomic.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

namespace force::util {

class ShardedCounter {
 public:
  static constexpr unsigned kShards = 16;

  void fetch_add(std::uint64_t v,
                 std::memory_order order = std::memory_order_seq_cst) noexcept {
    shards_[shard()].value.fetch_add(v, order);
  }
  /// The sum over all shards: exact once the adders have finished (a
  /// concurrent read sees some subset of the in-flight adds).
  [[nodiscard]] std::uint64_t load(
      std::memory_order order = std::memory_order_seq_cst) const noexcept {
    std::uint64_t sum = 0;
    for (const Shard& s : shards_) sum += s.value.load(order);
    return sum;
  }
  /// Sets the total to `v` (reset when 0); not atomic against concurrent
  /// adders, like the reset of any multi-word statistic.
  void store(std::uint64_t v,
             std::memory_order order = std::memory_order_seq_cst) noexcept {
    shards_[0].value.store(v, order);
    for (unsigned i = 1; i < kShards; ++i) shards_[i].value.store(0, order);
  }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> value{0};
  };

  /// The calling thread's shard, dealt round-robin on its first count, so
  /// the members of a team of up to kShards threads count on lines of
  /// their own.
  static unsigned shard() noexcept {
    static std::atomic<unsigned> next{0};
    thread_local const unsigned mine =
        next.fetch_add(1, std::memory_order_relaxed) % kShards;
    return mine;
  }

  std::array<Shard, kShards> shards_{};
};

}  // namespace force::util
