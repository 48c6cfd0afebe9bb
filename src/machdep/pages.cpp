#include "machdep/pages.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <string>

#include "util/check.hpp"

namespace force::machdep {

void PageUnmap::operator()(std::byte* p) const noexcept {
  if (p != nullptr) ::munmap(p, bytes);
}

ZeroPages zero_pages(std::size_t bytes, PageSharing sharing) {
  bytes = std::max<std::size_t>(bytes, 1);  // a zero-length mmap fails
  const int visibility =
      sharing == PageSharing::kShared ? MAP_SHARED : MAP_PRIVATE;
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   visibility | MAP_ANONYMOUS, -1, 0);
  FORCE_CHECK(p != MAP_FAILED,
              "mmap failed for " + std::to_string(bytes) + " bytes");
#ifdef MADV_NOHUGEPAGE
  // A huge page would make one touch resident for 2 MiB at a time, and
  // the point of these buffers is that untouched pages stay unmapped.
  (void)::madvise(p, bytes, MADV_NOHUGEPAGE);
#endif
  return ZeroPages(static_cast<std::byte*>(p), PageUnmap{bytes});
}

}  // namespace force::machdep
