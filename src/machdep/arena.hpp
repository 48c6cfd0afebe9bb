// Shared-memory designation (paper §4.1.2).
//
// The Force's declaration macros (shared / shared_common / async / private)
// are machine dependent because 1989 multiprocessors established sharing at
// three different times:
//
//   * compile time  (HEP, Flex/32): shared variables simply live in COMMON;
//     the preprocessor strips the keyword.
//   * link time     (Sequent): every module's startup routine reports its
//     shared names; the program is "run twice", first to collect linker
//     commands, then for real. Modelled by a declare/link/resolve protocol.
//   * run time      (Encore, Alliant): shared variables go into shared
//     pages; the Force pads the start and end of the shared area so that
//     shared and private data never cohabit a page (Encore), and on the
//     Alliant sharing must begin exactly on a page boundary.
//
// SharedArena implements all of these over one page-structured buffer, with
// guard pages whose integrity can be verified, and it enforces the "a small
// shared variable must not straddle a page boundary" rule from the Encore
// port. PrivateSpace models the per-process private data/stack segments
// whose initialization semantics differ across process-creation models.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "machdep/pages.hpp"

namespace force::machdep {

/// When sharing is established on the modelled machine.
enum class SharingStrategy {
  kCompileTime,      ///< HEP, Flex/32: COMMON placement, no ceremony
  kLinkTime,         ///< Sequent: declare -> link() -> resolve
  kRuntimePadded,    ///< Encore: shared pages padded at both ends
  kPageAlignedStart  ///< Alliant: sharing must start on a page boundary
};

const char* sharing_strategy_name(SharingStrategy s);

/// Storage class of an allocation, mirroring the Force declaration macros.
enum class VarClass { kShared, kAsync };

/// What backs the arena's pages.
///
///   * kPrivateHeap    - one mmap(MAP_PRIVATE | MAP_ANONYMOUS) region;
///                       "sharing" means the thread-emulated processes all
///                       see one address space. Pages no name is placed on
///                       are never touched, so they stay unmapped.
///   * kSharedMapping  - one mmap(MAP_SHARED | MAP_ANONYMOUS) region created
///                       before fork(), so real child processes share the
///                       pages (the kOsFork backend). The allocation
///                       *metadata* (cursor + name table) lives inside the
///                       mapping too, under a process-shared lock, so a
///                       name lazily allocated by one child resolves to the
///                       same offset in every other.
enum class ArenaBacking { kPrivateHeap, kSharedMapping };

const char* arena_backing_name(ArenaBacking b);

// Defined in arena.cpp; live inside the shared mapping under kSharedMapping.
struct ShmArenaHeader;
struct ShmArenaEntry;

/// A page-structured shared memory region.
class SharedArena {
 public:
  /// `capacity_bytes` is rounded up to whole pages. For kRuntimePadded one
  /// guard page is added before and after the usable region; for
  /// kPageAlignedStart the usable region starts exactly on a page boundary.
  /// With kSharedMapping the whole arena - allocation metadata included -
  /// lives in one MAP_SHARED mapping so forked processes stay coherent.
  SharedArena(std::size_t capacity_bytes, std::size_t page_size,
              SharingStrategy strategy,
              ArenaBacking backing = ArenaBacking::kPrivateHeap);

  SharedArena(const SharedArena&) = delete;
  SharedArena& operator=(const SharedArena&) = delete;

  // --- link-time protocol (kLinkTime only; no-ops validated elsewhere) ----

  /// Declares a shared name before link(). Only meaningful for kLinkTime;
  /// other strategies accept and immediately place the allocation.
  void declare(const std::string& name, std::size_t bytes, std::size_t align,
               VarClass cls);
  /// Fixes addresses of all declared names (the "second run" of the Sequent
  /// port). Idempotent calls are an error: the real protocol links once.
  void link();
  [[nodiscard]] bool linked() const { return linked_; }
  [[nodiscard]] ArenaBacking backing() const { return backing_; }
  /// True when the pages are MAP_SHARED, i.e. real forked children see them.
  [[nodiscard]] bool process_shared() const {
    return backing_ == ArenaBacking::kSharedMapping;
  }

  // --- allocation ---------------------------------------------------------

  /// Returns the address of `name`, allocating on first use. For kLinkTime
  /// after link(), the name must have been declared; a new name throws,
  /// modelling the undeclared-shared-variable link failure on the Sequent.
  void* allocate(const std::string& name, std::size_t bytes,
                 std::size_t align, VarClass cls);

  /// Like allocate(), but runs `init` on the storage exactly once, under
  /// the arena lock, the first time the name is placed. Thread-safe
  /// construct-once semantics for shared variables created mid-run.
  void* allocate_once(const std::string& name, std::size_t bytes,
                      std::size_t align, VarClass cls,
                      const std::function<void(void*)>& init);

  /// Address of an already-allocated (or linked) name; throws if unknown.
  [[nodiscard]] void* resolve(const std::string& name) const;
  [[nodiscard]] bool contains_name(const std::string& name) const;

  /// Typed shared variable: default-constructed exactly once, then shared
  /// by every caller of the same name. T must be trivially destructible
  /// (arena storage is reclaimed as raw bytes, Fortran-COMMON style).
  template <typename T>
  T& get_or_create(const std::string& name, VarClass cls = VarClass::kShared) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "shared arena variables are never destroyed");
    void* p = allocate_once(name, sizeof(T), alignof(T), cls,
                            [](void* raw) { ::new (raw) T(); });
    return *static_cast<T*>(p);
  }

  // --- introspection ------------------------------------------------------

  [[nodiscard]] bool is_shared_address(const void* p) const;
  [[nodiscard]] std::size_t page_size() const { return page_size_; }
  [[nodiscard]] std::size_t pages() const;
  [[nodiscard]] std::size_t bytes_used() const;
  [[nodiscard]] std::size_t capacity() const { return usable_bytes_; }
  [[nodiscard]] SharingStrategy strategy() const { return strategy_; }
  /// Page index of an address inside the usable region.
  [[nodiscard]] std::size_t page_of(const void* p) const;

  /// True while the guard pages (kRuntimePadded) still hold their fill
  /// pattern; a false result means private data bled into the shared area,
  /// the exact failure the Encore port's padding exists to prevent.
  [[nodiscard]] bool guards_intact() const;

  /// Number of bytes lost to padding (page-boundary bumps + guards).
  [[nodiscard]] std::size_t padding_bytes() const;

  /// Placement generation: bumped once per allocation placed (lazy or via
  /// link()). Observers that derive per-allocation state - e.g. the
  /// sentry's tracked ranges - can skip re-walking the arena when the
  /// generation is unchanged, which makes pooled force re-entry cheap.
  [[nodiscard]] std::uint64_t generation() const;

  /// Deliberately corrupts a guard byte; used by failure-injection tests.
  void corrupt_guard_for_test();

  /// Visits every placed allocation as (name, address, bytes); used by the
  /// sentry to register linkage-declared shared variables for race
  /// checking. Holds the arena lock for the duration.
  void for_each_allocation(
      const std::function<void(const std::string&, void*, std::size_t)>& fn)
      const;

  /// First byte of the usable region. The cluster backend's software
  /// distributed-shared-arena addresses its update records as offsets from
  /// here; the region start is page-aligned and placement is deterministic,
  /// so the coordinator and every forked peer agree on offsets.
  [[nodiscard]] std::byte* raw_bytes();
  [[nodiscard]] const std::byte* raw_bytes() const;

 private:
  struct Allocation {
    std::size_t offset = 0;
    std::size_t bytes = 0;
    VarClass cls = VarClass::kShared;
    bool placed = false;
    std::size_t align = 1;
  };

  /// Locks either the per-process mutex (heap backing) or the in-mapping
  /// process-shared lock (shared backing), so every metadata operation is
  /// coherent across forked children.
  class Guard;
  friend class Guard;

  std::size_t place(std::size_t bytes, std::size_t align);
  std::byte* usable_base();
  [[nodiscard]] const std::byte* usable_base() const;
  // Unlocked internals; callers hold the Guard.
  void declare_locked(const std::string& name, std::size_t bytes,
                      std::size_t align, VarClass cls);
  void* allocate_locked(const std::string& name, std::size_t bytes,
                        std::size_t align, VarClass cls, bool* created);
  ShmArenaEntry* shm_find_locked(const std::string& name) const;
  ShmArenaEntry* shm_add_locked(const std::string& name, std::size_t bytes,
                                std::size_t align, VarClass cls);

  mutable std::mutex mutex_;

  std::size_t page_size_;
  SharingStrategy strategy_;
  ArenaBacking backing_;
  std::size_t guard_bytes_front_ = 0;
  std::size_t guard_bytes_back_ = 0;
  std::size_t usable_bytes_ = 0;
  std::size_t cursor_ = 0;
  std::size_t padding_bytes_ = 0;
  /// Heap-backing placement generation (the shared backing keeps its
  /// counter in ShmArenaHeader so children agree); atomic so generation()
  /// reads need no Guard.
  std::atomic<std::uint64_t> generation_{0};
  bool linked_ = false;
  // kSharedMapping: [metadata header][storage pages] in one MAP_SHARED
  // mapping; kPrivateHeap: the storage pages alone, MAP_PRIVATE.
  ZeroPages storage_;
  std::size_t header_bytes_ = 0;
  std::map<std::string, Allocation> allocations_;
  ShmArenaHeader* shm_header_ = nullptr;  ///< kSharedMapping only
};

/// Per-process private storage, split into a data region and a stack region
/// so that the three 1989 process-creation models are distinguishable:
///
///   * fork w/ copied data+stack (Sequent/Encore/Flex/Cray): children start
///     with byte copies of the parent's data AND stack regions;
///   * fork w/ shared data (Alliant): the data region is one buffer aliased
///     by everyone (privates placed there are accidentally shared!); only
///     the stack region is per-process, copied from the parent;
///   * HEP create: both regions are fresh zeroed storage per process.
///
/// Offsets are registered before materialize(); the Force runtime places
/// its private variables in whichever region the machine model says is
/// genuinely private.
class PrivateSpace {
 public:
  enum class Region { kData, kStack };
  enum class InitMode { kCopyBoth, kShareDataCopyStack, kZeroBoth };

  PrivateSpace(std::size_t data_bytes, std::size_t stack_bytes);

  /// Registers a slot before materialize(); returns its offset.
  std::size_t register_slot(Region region, std::size_t bytes,
                            std::size_t align);

  /// Parent-view pointer, valid before and after materialize(). Writes made
  /// here before materialize() are what fork-copy children inherit.
  [[nodiscard]] void* parent_ptr(Region region, std::size_t offset);

  /// Creates the per-process segments for `nproc` processes.
  void materialize(int nproc, InitMode mode);
  [[nodiscard]] bool materialized() const { return materialized_; }
  /// Total bytes copied during materialize (the fork cost driver).
  [[nodiscard]] std::size_t bytes_copied() const { return bytes_copied_; }

  /// Pointer for process `proc` (0-based). Under kShareDataCopyStack the
  /// data region resolves to the parent's buffer for every process.
  [[nodiscard]] void* ptr(int proc, Region region, std::size_t offset);

  [[nodiscard]] int nproc() const { return nproc_; }

 private:
  struct RegionState {
    std::size_t capacity = 0;
    std::size_t cursor = 0;
    ZeroPages parent;
    std::vector<ZeroPages> per_process;
    bool aliased_to_parent = false;
  };
  RegionState& state(Region r) {
    return r == Region::kData ? data_ : stack_;
  }

  RegionState data_;
  RegionState stack_;
  bool materialized_ = false;
  int nproc_ = 0;
  std::size_t bytes_copied_ = 0;
};

}  // namespace force::machdep
