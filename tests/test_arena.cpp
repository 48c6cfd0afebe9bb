// Tests for shared-memory designation (paper §4.1.2): the four sharing
// strategies, page padding rules, guard pages, the link-time protocol and
// the per-process private space semantics.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "machdep/arena.hpp"
#include "util/check.hpp"

namespace md = force::machdep;
using force::util::CheckError;

namespace {
constexpr std::size_t kPage = 4096;

/// Pages of [p, p + bytes) that mincore(2) reports resident in this
/// process, counted in the host's pages.
std::size_t resident_pages(const void* p, std::size_t bytes) {
  const auto host_page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto begin = reinterpret_cast<std::uintptr_t>(p) & ~(host_page - 1);
  const auto end = (reinterpret_cast<std::uintptr_t>(p) + bytes +
                    host_page - 1) & ~(host_page - 1);
  std::vector<unsigned char> vec((end - begin) / host_page);
  if (::mincore(reinterpret_cast<void*>(begin), end - begin, vec.data()) !=
      0) {
    ADD_FAILURE() << "mincore failed";
    return 0;
  }
  return static_cast<std::size_t>(std::count_if(
      vec.begin(), vec.end(), [](unsigned char v) { return (v & 1) != 0; }));
}

bool all_zero(const void* p, std::size_t bytes) {
  const auto* b = static_cast<const std::byte*>(p);
  return std::all_of(b, b + bytes, [](std::byte v) { return v == std::byte{0}; });
}
}  // namespace

// --- basic allocation ---------------------------------------------------------

TEST(Arena, AllocateAndResolve) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kCompileTime);
  void* p = arena.allocate("x", 8, 8, md::VarClass::kShared);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(arena.resolve("x"), p);
  EXPECT_TRUE(arena.is_shared_address(p));
  EXPECT_TRUE(arena.contains_name("x"));
  EXPECT_FALSE(arena.contains_name("y"));
}

TEST(Arena, SameNameReturnsSameAddress) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kCompileTime);
  void* a = arena.allocate("v", 16, 8, md::VarClass::kShared);
  void* b = arena.allocate("v", 16, 8, md::VarClass::kShared);
  EXPECT_EQ(a, b);
}

TEST(Arena, MismatchedReallocationThrows) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kCompileTime);
  arena.allocate("v", 16, 8, md::VarClass::kShared);
  EXPECT_THROW(arena.allocate("v", 32, 8, md::VarClass::kShared), CheckError);
  EXPECT_THROW(arena.allocate("v", 16, 8, md::VarClass::kAsync), CheckError);
}

TEST(Arena, UnknownResolveThrows) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kCompileTime);
  EXPECT_THROW((void)arena.resolve("ghost"), CheckError);
}

TEST(Arena, AlignmentIsRespected) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kCompileTime);
  arena.allocate("odd", 3, 1, md::VarClass::kShared);
  void* p = arena.allocate("aligned", 64, 64, md::VarClass::kShared);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 64, 0u);
}

TEST(Arena, ExhaustionThrows) {
  md::SharedArena arena(kPage, kPage, md::SharingStrategy::kCompileTime);
  arena.allocate("big", kPage, 8, md::VarClass::kShared);
  EXPECT_THROW(arena.allocate("more", 8, 8, md::VarClass::kShared),
               CheckError);
}

TEST(Arena, GetOrCreateConstructsOnce) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kCompileTime);
  auto& v = arena.get_or_create<std::int64_t>("counter");
  EXPECT_EQ(v, 0);
  v = 42;
  auto& v2 = arena.get_or_create<std::int64_t>("counter");
  EXPECT_EQ(v2, 42);  // not re-constructed
  EXPECT_EQ(&v, &v2);
}

// --- the Encore straddle rule ---------------------------------------------------

TEST(Arena, SmallVariableNeverStraddlesAPage) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kRuntimePadded);
  // Leave 8 bytes before the page boundary, then allocate 64: it must be
  // bumped to the next page.
  arena.allocate("filler", kPage - 8, 1, md::VarClass::kShared);
  void* p = arena.allocate("bumped", 64, 1, md::VarClass::kShared);
  const std::size_t page_first = arena.page_of(p);
  const std::size_t page_last =
      arena.page_of(static_cast<std::byte*>(p) + 63);
  EXPECT_EQ(page_first, page_last);
  EXPECT_GT(arena.padding_bytes(), 0u);
}

TEST(Arena, PageOfOutsideArenaThrows) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kRuntimePadded);
  int local = 0;
  EXPECT_THROW((void)arena.page_of(&local), CheckError);
}

// --- Encore guard pages ---------------------------------------------------------

TEST(Arena, RuntimePaddedHasIntactGuards) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kRuntimePadded);
  arena.allocate("x", 128, 8, md::VarClass::kShared);
  EXPECT_TRUE(arena.guards_intact());
  EXPECT_GE(arena.padding_bytes(), 2 * kPage);
}

TEST(Arena, GuardCorruptionIsDetected) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kRuntimePadded);
  arena.corrupt_guard_for_test();
  EXPECT_FALSE(arena.guards_intact());
}

TEST(Arena, FillingTheWholeRegionKeepsGuardsIntact) {
  md::SharedArena arena(2 * kPage, kPage, md::SharingStrategy::kRuntimePadded);
  void* a = arena.allocate("a", kPage, 1, md::VarClass::kShared);
  void* b = arena.allocate("b", kPage, 1, md::VarClass::kShared);
  std::memset(a, 0xFF, kPage);
  std::memset(b, 0xFF, kPage);
  EXPECT_TRUE(arena.guards_intact());
}

TEST(Arena, CompileTimeStrategyHasNoGuards) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kCompileTime);
  EXPECT_THROW(arena.corrupt_guard_for_test(), CheckError);
}

// --- Alliant page-aligned start -----------------------------------------------

TEST(Arena, PageAlignedStartBeginsOnPageBoundary) {
  md::SharedArena arena(1 << 16, kPage,
                        md::SharingStrategy::kPageAlignedStart);
  void* p = arena.allocate("first", 8, 8, md::VarClass::kShared);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kPage, 0u);
}

// --- the Sequent link-time protocol ---------------------------------------------

TEST(Arena, LinkTimeDeclareLinkResolve) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kLinkTime);
  arena.declare("a", 64, 8, md::VarClass::kShared);
  arena.declare("b", 64, 8, md::VarClass::kShared);
  EXPECT_FALSE(arena.linked());
  EXPECT_THROW((void)arena.resolve("a"), CheckError);  // not linked yet
  arena.link();
  EXPECT_TRUE(arena.linked());
  EXPECT_NE(arena.resolve("a"), nullptr);
  EXPECT_NE(arena.resolve("b"), nullptr);
  EXPECT_NE(arena.resolve("a"), arena.resolve("b"));
}

TEST(Arena, LinkTimeUndeclaredNameAfterLinkFails) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kLinkTime);
  arena.declare("known", 8, 8, md::VarClass::kShared);
  arena.link();
  EXPECT_NE(arena.allocate("known", 8, 8, md::VarClass::kShared), nullptr);
  // The Sequent port would fail to link this variable.
  EXPECT_THROW(arena.allocate("unknown", 8, 8, md::VarClass::kShared),
               CheckError);
}

TEST(Arena, LinkTwiceThrows) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kLinkTime);
  arena.link();
  EXPECT_THROW(arena.link(), CheckError);
}

TEST(Arena, LinkOnNonLinkTimeStrategyThrows) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kCompileTime);
  EXPECT_THROW(arena.link(), CheckError);
}

TEST(Arena, RedeclarationFollowsCommonBlockRules) {
  md::SharedArena arena(1 << 16, kPage, md::SharingStrategy::kLinkTime);
  arena.declare("v", 8, 8, md::VarClass::kShared);
  // Same shape from another module: fine, one storage (COMMON semantics).
  EXPECT_NO_THROW(arena.declare("v", 8, 8, md::VarClass::kShared));
  // Different shape: the link error a 1989 loader would give.
  EXPECT_THROW(arena.declare("v", 16, 8, md::VarClass::kShared), CheckError);
  EXPECT_THROW(arena.declare("v", 8, 8, md::VarClass::kAsync), CheckError);
  arena.link();
  EXPECT_NE(arena.resolve("v"), nullptr);
}

// --- untouched pages stay unmapped -----------------------------------------
//
// Fork copies the page tables of the parent's resident pages and exit tears
// them down, so the arena and the private regions must not touch pages a
// program has not used (machdep/pages.hpp).

TEST(ArenaPages, UntouchedPagesOfALargeArenaStayUnmapped) {
  for (auto strategy : {md::SharingStrategy::kCompileTime,
                        md::SharingStrategy::kRuntimePadded}) {
    SCOPED_TRACE(md::sharing_strategy_name(strategy));
    md::SharedArena arena(64u << 20, kPage, strategy);
    EXPECT_EQ(resident_pages(arena.raw_bytes(), arena.capacity()), 0u);
    if (strategy == md::SharingStrategy::kRuntimePadded) {
      // The guard pages hold their fill pattern, so they alone are touched.
      EXPECT_TRUE(arena.guards_intact());
      EXPECT_EQ(resident_pages(arena.raw_bytes() - kPage,
                               arena.capacity() + 2 * kPage),
                2 * kPage / static_cast<std::size_t>(::sysconf(_SC_PAGESIZE)));
    }
    // Placing and writing one small name makes its page resident, no more.
    *static_cast<std::int64_t*>(
        arena.allocate("x", 8, 8, md::VarClass::kShared)) = 1;
    EXPECT_EQ(resident_pages(arena.raw_bytes(), arena.capacity()), 1u);
  }
}

TEST(ArenaPages, AFreshAllocateOnceNameReadsAsZero) {
  for (auto backing :
       {md::ArenaBacking::kPrivateHeap, md::ArenaBacking::kSharedMapping}) {
    SCOPED_TRACE(md::arena_backing_name(backing));
    md::SharedArena arena(8u << 20, kPage, md::SharingStrategy::kCompileTime,
                          backing);
    // A dirtied neighbour must not bleed into the next name placed.
    std::memset(arena.allocate("dirty", kPage, 64, md::VarClass::kShared),
                0xFF, kPage);
    constexpr std::size_t kBytes = 1u << 20;
    void* p = arena.allocate_once("fresh", kBytes, 64, md::VarClass::kShared,
                                  [](void*) {});
    EXPECT_TRUE(all_zero(p, kBytes));
  }
}

TEST(PrivateSpacePages, ParentRegionReadsAsZeroAndIsNotResident) {
  constexpr std::size_t kBytes = 1u << 20;
  md::PrivateSpace space(kBytes, kBytes);
  for (auto region :
       {md::PrivateSpace::Region::kData, md::PrivateSpace::Region::kStack}) {
    const void* p = space.parent_ptr(region, 0);
    EXPECT_EQ(resident_pages(p, kBytes), 0u);  // before the read below
    EXPECT_TRUE(all_zero(p, kBytes));
  }
}

TEST(PrivateSpacePages, HepCreateCopiesAreNotResident) {
  constexpr std::size_t kBytes = 1u << 20;
  md::PrivateSpace space(kBytes, kBytes);
  space.materialize(3, md::PrivateSpace::InitMode::kZeroBoth);
  for (int proc = 0; proc < 3; ++proc) {
    for (auto region :
         {md::PrivateSpace::Region::kData, md::PrivateSpace::Region::kStack}) {
      const void* p = space.ptr(proc, region, 0);
      EXPECT_EQ(resident_pages(p, kBytes), 0u);
      EXPECT_TRUE(all_zero(p, kBytes));
    }
  }
}

// --- PrivateSpace ------------------------------------------------------------

TEST(PrivateSpace, ForkCopyInheritsParentValues) {
  md::PrivateSpace space(1024, 1024);
  const auto off = space.register_slot(md::PrivateSpace::Region::kData, 8, 8);
  *static_cast<std::int64_t*>(
      space.parent_ptr(md::PrivateSpace::Region::kData, off)) = 77;
  space.materialize(3, md::PrivateSpace::InitMode::kCopyBoth);
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(*static_cast<std::int64_t*>(
                  space.ptr(p, md::PrivateSpace::Region::kData, off)),
              77);
  }
  EXPECT_EQ(space.bytes_copied(), 2u * 3u * 1024u);  // data + stack, 3 procs
}

TEST(PrivateSpace, HepCreateStartsZeroed) {
  md::PrivateSpace space(1024, 1024);
  const auto off = space.register_slot(md::PrivateSpace::Region::kData, 8, 8);
  *static_cast<std::int64_t*>(
      space.parent_ptr(md::PrivateSpace::Region::kData, off)) = 77;
  space.materialize(2, md::PrivateSpace::InitMode::kZeroBoth);
  for (int p = 0; p < 2; ++p) {
    EXPECT_EQ(*static_cast<std::int64_t*>(
                  space.ptr(p, md::PrivateSpace::Region::kData, off)),
              0);
  }
  EXPECT_EQ(space.bytes_copied(), 0u);
}

TEST(PrivateSpace, AlliantSharesDataCopiesStack) {
  md::PrivateSpace space(1024, 1024);
  const auto data_off =
      space.register_slot(md::PrivateSpace::Region::kData, 8, 8);
  const auto stack_off =
      space.register_slot(md::PrivateSpace::Region::kStack, 8, 8);
  *static_cast<std::int64_t*>(
      space.parent_ptr(md::PrivateSpace::Region::kStack, stack_off)) = 5;
  space.materialize(2, md::PrivateSpace::InitMode::kShareDataCopyStack);

  // Data region: ONE buffer, aliased - writes from "process 0" are seen by
  // "process 1" (the accidental-sharing hazard).
  void* d0 = space.ptr(0, md::PrivateSpace::Region::kData, data_off);
  void* d1 = space.ptr(1, md::PrivateSpace::Region::kData, data_off);
  EXPECT_EQ(d0, d1);

  // Stack region: genuinely private copies seeded from the parent.
  void* s0 = space.ptr(0, md::PrivateSpace::Region::kStack, stack_off);
  void* s1 = space.ptr(1, md::PrivateSpace::Region::kStack, stack_off);
  EXPECT_NE(s0, s1);
  EXPECT_EQ(*static_cast<std::int64_t*>(s0), 5);
  EXPECT_EQ(*static_cast<std::int64_t*>(s1), 5);
  EXPECT_EQ(space.bytes_copied(), 2u * 1024u);  // stacks only
}

TEST(PrivateSpace, RegisterAfterMaterializeThrows) {
  md::PrivateSpace space(64, 64);
  space.materialize(1, md::PrivateSpace::InitMode::kZeroBoth);
  EXPECT_THROW(space.register_slot(md::PrivateSpace::Region::kData, 8, 8),
               CheckError);
}

TEST(PrivateSpace, DoubleMaterializeThrows) {
  md::PrivateSpace space(64, 64);
  space.materialize(1, md::PrivateSpace::InitMode::kZeroBoth);
  EXPECT_THROW(space.materialize(1, md::PrivateSpace::InitMode::kZeroBoth),
               CheckError);
}

TEST(PrivateSpace, CapacityExhaustionThrows) {
  md::PrivateSpace space(16, 16);
  space.register_slot(md::PrivateSpace::Region::kData, 16, 1);
  EXPECT_THROW(space.register_slot(md::PrivateSpace::Region::kData, 1, 1),
               CheckError);
}

TEST(SharingStrategyNames, AllDistinct) {
  EXPECT_STREQ(md::sharing_strategy_name(md::SharingStrategy::kCompileTime),
               "compile-time");
  EXPECT_STREQ(md::sharing_strategy_name(md::SharingStrategy::kLinkTime),
               "link-time");
  EXPECT_STREQ(md::sharing_strategy_name(md::SharingStrategy::kRuntimePadded),
               "runtime-padded");
  EXPECT_STREQ(
      md::sharing_strategy_name(md::SharingStrategy::kPageAlignedStart),
      "page-aligned-start");
}
