#include "machdep/arena.hpp"

#include <cstring>

#include "machdep/words.hpp"
#include "util/check.hpp"

namespace force::machdep {

namespace {
constexpr std::byte kGuardFill{0xAD};

std::size_t round_up(std::size_t v, std::size_t to) {
  FORCE_CHECK(to != 0 && (to & (to - 1)) == 0, "alignment must be power of 2");
  return (v + to - 1) & ~(to - 1);
}
}  // namespace

// --- in-mapping metadata (kSharedMapping) ----------------------------------
//
// Heap-backed arenas keep their name table in a std::map, which forked
// children cannot share. The shared backing keeps a fixed-capacity table
// inside the mapping itself, guarded by a process-shared lock, so a name
// lazily allocated by one child is visible - at the same offset - to all.

struct ShmArenaEntry {
  char name[152] = {};
  std::uint64_t offset = 0;
  std::uint64_t bytes = 0;
  std::uint64_t align = 1;
  std::uint32_t cls = 0;     // VarClass
  std::uint32_t placed = 0;  // 0 = declared only, 1 = placed
};
static_assert(sizeof(ShmArenaEntry) <= 192, "arena entry grew unexpectedly");

struct ShmArenaHeader {
  std::atomic<std::uint32_t> lock{0};  ///< word lock (words.hpp)
  std::uint32_t entry_count = 0;
  std::atomic<std::uint64_t> generation{0};  ///< bumped per placement
  std::uint64_t cursor = 0;
  std::uint64_t padding_bytes = 0;
  static constexpr std::size_t kMaxEntries = 1024;
  ShmArenaEntry entries[kMaxEntries];
};

const char* arena_backing_name(ArenaBacking b) {
  switch (b) {
    case ArenaBacking::kPrivateHeap: return "private-heap";
    case ArenaBacking::kSharedMapping: return "shared-mapping";
  }
  return "unknown";
}

/// Scoped metadata lock: the per-process mutex for heap backing, the
/// in-mapping futex lock for shared backing.
class SharedArena::Guard {
 public:
  explicit Guard(const SharedArena& a) : a_(a) {
    if (a_.shm_header_ != nullptr) {
      word_lock_acquire(a_.shm_header_->lock, WordScope::kShared);
    } else {
      a_.mutex_.lock();
    }
  }
  ~Guard() {
    if (a_.shm_header_ != nullptr) {
      word_lock_release(a_.shm_header_->lock, WordScope::kShared);
    } else {
      a_.mutex_.unlock();
    }
  }
  Guard(const Guard&) = delete;
  Guard& operator=(const Guard&) = delete;

 private:
  const SharedArena& a_;
};

const char* sharing_strategy_name(SharingStrategy s) {
  switch (s) {
    case SharingStrategy::kCompileTime: return "compile-time";
    case SharingStrategy::kLinkTime: return "link-time";
    case SharingStrategy::kRuntimePadded: return "runtime-padded";
    case SharingStrategy::kPageAlignedStart: return "page-aligned-start";
  }
  return "unknown";
}

SharedArena::SharedArena(std::size_t capacity_bytes, std::size_t page_size,
                         SharingStrategy strategy, ArenaBacking backing)
    : page_size_(page_size), strategy_(strategy), backing_(backing) {
  FORCE_CHECK(page_size_ >= 64 && (page_size_ & (page_size_ - 1)) == 0,
              "page size must be a power of two >= 64");
  usable_bytes_ = round_up(capacity_bytes, page_size_);
  if (strategy_ == SharingStrategy::kRuntimePadded) {
    // The Encore port pads extra space at the beginning and the end of the
    // shared area to keep shared and private declarations apart.
    guard_bytes_front_ = page_size_;
    guard_bytes_back_ = page_size_;
  }
  const std::size_t storage_bytes =
      usable_bytes_ + guard_bytes_front_ + guard_bytes_back_ +
      page_size_;  // headroom so the usable base can be aligned
  if (backing_ == ArenaBacking::kSharedMapping) {
    header_bytes_ = round_up(sizeof(ShmArenaHeader), page_size_);
    storage_ =
        zero_pages(header_bytes_ + storage_bytes, PageSharing::kShared);
    shm_header_ = ::new (storage_.get()) ShmArenaHeader();
    shm_header_->cursor = 0;
    shm_header_->padding_bytes = 0;
  } else {
    // Only the pages a program places names on become resident, so a
    // fork copies and an exit tears down those alone (pages.hpp).
    storage_ = zero_pages(storage_bytes);
  }
  if (shm_header_ != nullptr) {
    shm_header_->padding_bytes = guard_bytes_front_ + guard_bytes_back_;
  } else {
    padding_bytes_ = guard_bytes_front_ + guard_bytes_back_;
  }
  if (guard_bytes_front_ != 0) {
    std::memset(usable_base() - guard_bytes_front_,
                static_cast<int>(kGuardFill), guard_bytes_front_);
  }
  if (guard_bytes_back_ != 0) {
    std::memset(usable_base() + usable_bytes_, static_cast<int>(kGuardFill),
                guard_bytes_back_);
  }
}

std::byte* SharedArena::usable_base() {
  // The usable region always begins on a page boundary: the Alliant
  // requires it, the Encore's page arithmetic assumes it, and it makes
  // every allocation's alignment guarantee independent of where mmap
  // happened to place the backing storage.
  std::byte* raw = storage_.get() + header_bytes_;
  const auto addr = round_up(
      reinterpret_cast<std::uintptr_t>(raw) + guard_bytes_front_, page_size_);
  return reinterpret_cast<std::byte*>(addr);
}

const std::byte* SharedArena::usable_base() const {
  return const_cast<SharedArena*>(this)->usable_base();
}

std::byte* SharedArena::raw_bytes() { return usable_base(); }

const std::byte* SharedArena::raw_bytes() const { return usable_base(); }

ShmArenaEntry* SharedArena::shm_find_locked(const std::string& name) const {
  for (std::uint32_t i = 0; i < shm_header_->entry_count; ++i) {
    ShmArenaEntry& e = shm_header_->entries[i];
    if (name == e.name) return &e;
  }
  return nullptr;
}

ShmArenaEntry* SharedArena::shm_add_locked(const std::string& name,
                                           std::size_t bytes,
                                           std::size_t align, VarClass cls) {
  FORCE_CHECK(name.size() < sizeof(ShmArenaEntry{}.name),
              "shared name too long for the process-shared arena table: " +
                  name);
  FORCE_CHECK(shm_header_->entry_count < ShmArenaHeader::kMaxEntries,
              "process-shared arena name table full (" +
                  std::to_string(ShmArenaHeader::kMaxEntries) + " entries)");
  ShmArenaEntry& e = shm_header_->entries[shm_header_->entry_count];
  std::memcpy(e.name, name.data(), name.size());
  e.name[name.size()] = '\0';
  e.bytes = bytes;
  e.align = align;
  e.cls = static_cast<std::uint32_t>(cls);
  e.placed = 0;
  ++shm_header_->entry_count;  // publish only after the fields are written
  return &e;
}

void SharedArena::declare_locked(const std::string& name, std::size_t bytes,
                                 std::size_t align, VarClass cls) {
  FORCE_CHECK(!linked_, "declare after link(): the Sequent protocol "
                        "collects all shared names in the first run");
  // Fortran COMMON semantics: several modules may declare the same shared
  // block; identical shapes resolve to one storage, mismatches are the
  // link error a 1989 loader would give.
  if (shm_header_ != nullptr) {
    if (ShmArenaEntry* e = shm_find_locked(name)) {
      FORCE_CHECK(e->bytes == bytes &&
                      e->cls == static_cast<std::uint32_t>(cls),
                  "shared name re-declared with a different shape: " + name);
      return;
    }
    ShmArenaEntry* e = shm_add_locked(name, bytes, align, cls);
    if (strategy_ != SharingStrategy::kLinkTime) {
      e->offset = place(bytes, align);
      e->placed = 1;
    }
    return;
  }
  if (auto it = allocations_.find(name); it != allocations_.end()) {
    FORCE_CHECK(it->second.bytes == bytes && it->second.cls == cls,
                "shared name re-declared with a different shape: " + name);
    return;
  }
  Allocation a;
  a.bytes = bytes;
  a.align = align;
  a.cls = cls;
  if (strategy_ == SharingStrategy::kLinkTime) {
    a.placed = false;  // placement deferred to link()
  } else {
    a.offset = place(bytes, align);
    a.placed = true;
  }
  allocations_[name] = a;
}

void SharedArena::declare(const std::string& name, std::size_t bytes,
                          std::size_t align, VarClass cls) {
  Guard g(*this);
  declare_locked(name, bytes, align, cls);
}

void SharedArena::link() {
  Guard g(*this);
  FORCE_CHECK(strategy_ == SharingStrategy::kLinkTime,
              "link() is only part of the link-time sharing protocol");
  FORCE_CHECK(!linked_, "link() called twice");
  if (shm_header_ != nullptr) {
    for (std::uint32_t i = 0; i < shm_header_->entry_count; ++i) {
      ShmArenaEntry& e = shm_header_->entries[i];
      if (e.placed == 0) {
        e.offset = place(e.bytes, e.align);
        e.placed = 1;
        shm_header_->generation.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  } else {
    for (auto& [name, a] : allocations_) {
      if (!a.placed) {
        a.offset = place(a.bytes, a.align);
        a.placed = true;
        generation_.fetch_add(1, std::memory_order_acq_rel);
      }
    }
  }
  linked_ = true;
}

std::uint64_t SharedArena::generation() const {
  if (shm_header_ != nullptr) {
    return shm_header_->generation.load(std::memory_order_acquire);
  }
  return generation_.load(std::memory_order_acquire);
}

void* SharedArena::allocate_locked(const std::string& name, std::size_t bytes,
                                   std::size_t align, VarClass cls,
                                   bool* created) {
  if (created != nullptr) *created = false;
  if (shm_header_ != nullptr) {
    if (ShmArenaEntry* e = shm_find_locked(name)) {
      FORCE_CHECK(e->placed != 0, "name declared but not linked yet: " + name);
      FORCE_CHECK(e->bytes >= bytes &&
                      e->cls == static_cast<std::uint32_t>(cls),
                  "allocation mismatch for shared name " + name);
      return usable_base() + e->offset;
    }
    if (strategy_ == SharingStrategy::kLinkTime && name.rfind('%', 0) != 0) {
      // Runtime-internal names (leading '%': lock words, barrier states,
      // construct machinery) are exempt from the declare-before-link
      // protocol - on the real Sequent they would live in the port's own
      // runtime library, not in user COMMON.
      FORCE_CHECK(!linked_,
                  "shared name not declared before link(): " + name +
                      " (the Sequent port would fail to link this variable)");
    }
    ShmArenaEntry* e = shm_add_locked(name, bytes, align, cls);
    e->offset = place(bytes, align);
    e->placed = 1;
    shm_header_->generation.fetch_add(1, std::memory_order_acq_rel);
    if (created != nullptr) *created = true;
    return usable_base() + e->offset;
  }
  auto it = allocations_.find(name);
  if (it != allocations_.end()) {
    Allocation& a = it->second;
    FORCE_CHECK(a.placed, "name declared but not linked yet: " + name);
    FORCE_CHECK(a.bytes >= bytes && a.cls == cls,
                "allocation mismatch for shared name " + name);
    return usable_base() + a.offset;
  }
  if (strategy_ == SharingStrategy::kLinkTime && name.rfind('%', 0) != 0) {
    // The Sequent port would fail to link a shared variable that no
    // startup routine declared; allow late declaration only pre-link.
    // Runtime-internal names (leading '%') are exempt, as above.
    FORCE_CHECK(!linked_,
                "shared name not declared before link(): " + name +
                    " (the Sequent port would fail to link this variable)");
  }
  Allocation a;
  a.bytes = bytes;
  a.align = align;
  a.cls = cls;
  a.offset = place(bytes, align);
  a.placed = true;
  allocations_[name] = a;
  generation_.fetch_add(1, std::memory_order_acq_rel);
  if (created != nullptr) *created = true;
  return usable_base() + a.offset;
}

void* SharedArena::allocate(const std::string& name, std::size_t bytes,
                            std::size_t align, VarClass cls) {
  Guard g(*this);
  return allocate_locked(name, bytes, align, cls, nullptr);
}

void* SharedArena::allocate_once(const std::string& name, std::size_t bytes,
                                 std::size_t align, VarClass cls,
                                 const std::function<void(void*)>& init) {
  // `init` runs under the metadata lock, so construct-once holds across
  // forked processes too: the first process to place the name constructs
  // it while every racing sibling is parked on the in-mapping lock.
  Guard g(*this);
  bool created = false;
  void* p = allocate_locked(name, bytes, align, cls, &created);
  if (created && init) init(p);
  return p;
}

void* SharedArena::resolve(const std::string& name) const {
  Guard g(*this);
  if (shm_header_ != nullptr) {
    ShmArenaEntry* e = shm_find_locked(name);
    FORCE_CHECK(e != nullptr, "unknown shared name " + name);
    FORCE_CHECK(e->placed != 0, "shared name not yet linked: " + name);
    return const_cast<std::byte*>(usable_base()) + e->offset;
  }
  auto it = allocations_.find(name);
  FORCE_CHECK(it != allocations_.end(), "unknown shared name " + name);
  FORCE_CHECK(it->second.placed, "shared name not yet linked: " + name);
  return const_cast<std::byte*>(usable_base()) + it->second.offset;
}

bool SharedArena::contains_name(const std::string& name) const {
  Guard g(*this);
  if (shm_header_ != nullptr) return shm_find_locked(name) != nullptr;
  return allocations_.contains(name);
}

std::size_t SharedArena::place(std::size_t bytes, std::size_t align) {
  FORCE_CHECK(bytes > 0, "zero-byte shared allocation");
  // The cursor and padding tally live in the mapping under kSharedMapping
  // so children placing names stay consistent with each other.
  std::size_t cursor = shm_header_ != nullptr
                           ? static_cast<std::size_t>(shm_header_->cursor)
                           : cursor_;
  std::size_t padding =
      shm_header_ != nullptr
          ? static_cast<std::size_t>(shm_header_->padding_bytes)
          : padding_bytes_;
  std::size_t offset = round_up(cursor, align);
  // Encore rule: a shared variable no larger than a page must lie within a
  // single shared page; bump it to the next page if it would straddle one.
  if (bytes <= page_size_) {
    const std::size_t page_begin = offset / page_size_;
    const std::size_t page_end = (offset + bytes - 1) / page_size_;
    if (page_begin != page_end) {
      const std::size_t bumped = round_up(offset, page_size_);
      padding += bumped - offset;
      offset = bumped;
    }
  }
  FORCE_CHECK(offset + bytes <= usable_bytes_,
              "shared arena exhausted; enlarge ForceConfig::arena_bytes");
  padding += offset - cursor;
  cursor = offset + bytes;
  if (shm_header_ != nullptr) {
    shm_header_->cursor = cursor;
    shm_header_->padding_bytes = padding;
  } else {
    cursor_ = cursor;
    padding_bytes_ = padding;
  }
  return offset;
}

std::size_t SharedArena::bytes_used() const {
  Guard g(*this);
  if (shm_header_ != nullptr) {
    return static_cast<std::size_t>(shm_header_->cursor);
  }
  return cursor_;
}

std::size_t SharedArena::padding_bytes() const {
  Guard g(*this);
  if (shm_header_ != nullptr) {
    return static_cast<std::size_t>(shm_header_->padding_bytes);
  }
  return padding_bytes_;
}

bool SharedArena::is_shared_address(const void* p) const {
  const auto* b = static_cast<const std::byte*>(p);
  const std::byte* base = usable_base();
  return b >= base && b < base + usable_bytes_;
}

std::size_t SharedArena::pages() const { return usable_bytes_ / page_size_; }

std::size_t SharedArena::page_of(const void* p) const {
  FORCE_CHECK(is_shared_address(p), "address not in the shared arena");
  return static_cast<std::size_t>(static_cast<const std::byte*>(p) -
                                  usable_base()) /
         page_size_;
}

bool SharedArena::guards_intact() const {
  const std::byte* front = usable_base() - guard_bytes_front_;
  for (std::size_t i = 0; i < guard_bytes_front_; ++i) {
    if (front[i] != kGuardFill) return false;
  }
  const std::byte* back = usable_base() + usable_bytes_;
  for (std::size_t i = 0; i < guard_bytes_back_; ++i) {
    if (back[i] != kGuardFill) return false;
  }
  return true;
}

void SharedArena::corrupt_guard_for_test() {
  FORCE_CHECK(guard_bytes_front_ > 0, "no guard pages in this strategy");
  *(usable_base() - 1) = std::byte{0x00};
}

void SharedArena::for_each_allocation(
    const std::function<void(const std::string&, void*, std::size_t)>& fn)
    const {
  Guard g(*this);
  auto* self = const_cast<SharedArena*>(this);
  if (shm_header_ != nullptr) {
    for (std::uint32_t i = 0; i < shm_header_->entry_count; ++i) {
      const ShmArenaEntry& e = shm_header_->entries[i];
      if (e.placed == 0) continue;
      fn(std::string(e.name), self->usable_base() + e.offset, e.bytes);
    }
    return;
  }
  for (const auto& [name, alloc] : allocations_) {
    if (!alloc.placed) continue;
    fn(name, self->usable_base() + alloc.offset, alloc.bytes);
  }
}

// ---------------------------------------------------------------------------
// PrivateSpace
// ---------------------------------------------------------------------------

PrivateSpace::PrivateSpace(std::size_t data_bytes, std::size_t stack_bytes) {
  // Zeroed by the kernel on first touch: only the slots a program writes
  // before the fork become resident in the parent.
  data_.capacity = data_bytes;
  data_.parent = zero_pages(data_bytes);
  stack_.capacity = stack_bytes;
  stack_.parent = zero_pages(stack_bytes);
}

std::size_t PrivateSpace::register_slot(Region region, std::size_t bytes,
                                        std::size_t align) {
  FORCE_CHECK(!materialized_, "register_slot after materialize()");
  RegionState& r = state(region);
  const std::size_t offset = round_up(r.cursor, align);
  FORCE_CHECK(offset + bytes <= r.capacity, "private space exhausted");
  r.cursor = offset + bytes;
  return offset;
}

void* PrivateSpace::parent_ptr(Region region, std::size_t offset) {
  RegionState& r = state(region);
  FORCE_CHECK(offset < r.capacity, "private offset out of range");
  return r.parent.get() + offset;
}

void PrivateSpace::materialize(int nproc, InitMode mode) {
  FORCE_CHECK(!materialized_, "materialize() called twice");
  FORCE_CHECK(nproc > 0, "need at least one process");
  nproc_ = nproc;
  bytes_copied_ = 0;

  auto make_copies = [&](RegionState& r, bool copy_from_parent) {
    r.per_process.resize(static_cast<std::size_t>(nproc));
    for (auto& seg : r.per_process) {
      seg = zero_pages(r.capacity);
      if (copy_from_parent) {
        std::memcpy(seg.get(), r.parent.get(), r.capacity);
        bytes_copied_ += r.capacity;
      }
    }
    r.aliased_to_parent = false;
  };

  switch (mode) {
    case InitMode::kCopyBoth:
      // Unix fork: "a complete copy of the data and stack is produced for
      // each forked process" (paper §4.1.1).
      make_copies(data_, /*copy_from_parent=*/true);
      make_copies(stack_, /*copy_from_parent=*/true);
      break;
    case InitMode::kShareDataCopyStack:
      // Alliant: data segments shared, only the stack is private.
      data_.per_process.clear();
      data_.aliased_to_parent = true;
      make_copies(stack_, /*copy_from_parent=*/true);
      break;
    case InitMode::kZeroBoth:
      // HEP: a created process starts a fresh subroutine activation.
      make_copies(data_, /*copy_from_parent=*/false);
      make_copies(stack_, /*copy_from_parent=*/false);
      break;
  }
  materialized_ = true;
}

void* PrivateSpace::ptr(int proc, Region region, std::size_t offset) {
  FORCE_CHECK(materialized_, "ptr() before materialize()");
  FORCE_CHECK(proc >= 0 && proc < nproc_, "process id out of range");
  RegionState& r = state(region);
  FORCE_CHECK(offset < r.capacity, "private offset out of range");
  if (r.aliased_to_parent) return r.parent.get() + offset;
  return r.per_process[static_cast<std::size_t>(proc)].get() + offset;
}

}  // namespace force::machdep
