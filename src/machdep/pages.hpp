// Zero-filled pages straight from the kernel: the one way src/ gets zeroed
// memory.
//
// Every buffer is its own anonymous mmap. The kernel fills a page with
// zeros when it is first touched, so a buffer costs resident memory only
// for the pages a program uses. That matters to the process models that
// fork (paper §4.1.1, "a complete copy of the data and stack"): fork copies
// the page tables of the resident pages, and exit tears them down, so both
// grow with what the parent holds resident. A value-initialised heap
// buffer would write every page before the first fork.
//
//   * kPrivate - MAP_PRIVATE: the thread backend's arena, PrivateSpace's
//                regions and the N:M member stacks. A forked child gets
//                copy-on-write pages, like the rest of its address space.
//   * kShared  - MAP_SHARED: created before fork(), so parent and children
//                address the same pages at the same virtual address (the
//                os-fork arena and team control words). The pages live
//                until the last process unmaps them.
#pragma once

#include <cstddef>
#include <memory>

namespace force::machdep {

enum class PageSharing { kPrivate, kShared };

/// Unmaps the whole buffer; the length rides in the deleter.
struct PageUnmap {
  std::size_t bytes = 0;
  void operator()(std::byte* p) const noexcept;
};

using ZeroPages = std::unique_ptr<std::byte[], PageUnmap>;

/// `bytes` of zero-filled pages, rounded up to whole pages (at least one)
/// by the kernel. Throws CheckError when the mapping fails.
[[nodiscard]] ZeroPages zero_pages(
    std::size_t bytes, PageSharing sharing = PageSharing::kPrivate);

}  // namespace force::machdep
