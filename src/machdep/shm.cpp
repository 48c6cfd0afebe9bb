#include "machdep/shm.hpp"

#include <cstring>
#include <thread>

#include "machdep/wait.hpp"
#include "util/check.hpp"

#ifdef __linux__
#include <linux/futex.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>
#else
#include <sys/mman.h>
#endif

namespace force::machdep::shm {

// --- futex layer -----------------------------------------------------------

void futex_wait(const std::atomic<std::uint32_t>* word,
                std::uint32_t expected) {
#ifdef __linux__
  timespec ts;
  ts.tv_sec = static_cast<time_t>(kWaitSliceNs / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(kWaitSliceNs % 1'000'000'000);
  // No FUTEX_PRIVATE_FLAG: the queue must be keyed by the shared page so
  // waiters and wakers in different address spaces find each other.
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(word), FUTEX_WAIT,
          expected, &ts, nullptr, 0);
#else
  // Portable fallback: bounded sleep-poll. Correct (callers re-check) but
  // slower to wake; Linux never takes this path.
  if (word->load(std::memory_order_acquire) == expected) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
#endif
}

void futex_wake(std::atomic<std::uint32_t>* word, int count) {
#ifdef __linux__
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(word), FUTEX_WAKE,
          count < 0 ? INT32_MAX : count, nullptr, nullptr, 0);
#else
  (void)word;
  (void)count;  // sleep-poll waiters wake by themselves
#endif
}

// --- team poison / site slot -----------------------------------------------

namespace {
// One fork team per process at a time (the Force's one-driver model), and
// forked children are single-threaded, so plain globals suffice. They are
// atomics anyway so thread-mode unit tests of these primitives stay clean.
std::atomic<std::atomic<std::uint32_t>*> g_poison{nullptr};
std::atomic<char*> g_site_slot{nullptr};
std::atomic<std::size_t> g_site_cap{0};
}  // namespace

void set_team_poison(std::atomic<std::uint32_t>* word) {
  g_poison.store(word, std::memory_order_release);
}

std::atomic<std::uint32_t>* team_poison() {
  return g_poison.load(std::memory_order_acquire);
}

bool team_poisoned() {
  std::atomic<std::uint32_t>* w = team_poison();
  return w != nullptr && w->load(std::memory_order_acquire) != 0;
}

void check_poison() {
  if (team_poisoned()) throw TeamPoisoned();
}

void set_site_slot(char* slot, std::size_t capacity) {
  g_site_slot.store(slot, std::memory_order_release);
  g_site_cap.store(capacity, std::memory_order_release);
}

void note_site(const char* label) {
  char* slot = g_site_slot.load(std::memory_order_acquire);
  if (slot == nullptr || label == nullptr) return;
  const std::size_t cap = g_site_cap.load(std::memory_order_acquire);
  if (cap == 0) return;
  // Best-effort: torn reads by the parent can only garble the *text* of a
  // diagnostic, never correctness, and the buffer stays NUL-terminated.
  std::strncpy(slot, label, cap - 1);
  slot[cap - 1] = '\0';
}

// --- shared anonymous mappings ---------------------------------------------

SharedMapping::SharedMapping(std::size_t bytes) : bytes_(bytes) {
  FORCE_CHECK(bytes > 0, "shared mapping must have a size");
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  FORCE_CHECK(p != MAP_FAILED, "mmap(MAP_SHARED) failed for " +
                                   std::to_string(bytes) + " bytes");
  data_ = p;  // anonymous mappings are zero-filled, a valid initial state
              // for every shm state struct in this file
}

SharedMapping::~SharedMapping() {
  if (data_ != nullptr) ::munmap(data_, bytes_);
}

// --- process-shared askfor monitor -----------------------------------------

std::size_t shm_askfor_bytes(std::uint32_t capacity, std::uint32_t stride) {
  return sizeof(ShmAskforState) +
         static_cast<std::size_t>(capacity) * stride;
}

namespace {
std::byte* ring_base(ShmAskforState& a) {
  return reinterpret_cast<std::byte*>(&a + 1);
}

std::byte* ring_slot(ShmAskforState& a, std::uint32_t index) {
  return ring_base(a) + static_cast<std::size_t>(index % a.capacity) * a.stride;
}

void bump_version(ShmAskforState& a) {
  a.version.fetch_add(1, std::memory_order_release);
  Waiter::wake(a.version, WordScope::kShared, Wake::kAll);
}

void enter(ShmAskforState& a) {
  word_lock_acquire(a.monitor, WordScope::kShared);
}

void leave(ShmAskforState& a) {
  word_lock_release(a.monitor, WordScope::kShared);
}
}  // namespace

void shm_askfor_init(void* blob, std::uint32_t capacity,
                     std::uint32_t stride) {
  FORCE_CHECK(capacity > 0 && stride > 0, "askfor ring needs a shape");
  auto* a = ::new (blob) ShmAskforState();
  a->capacity = capacity;
  a->stride = stride;
}

void shm_askfor_rearm(ShmAskforState& a, std::uint32_t gen) {
  if (a.seen_gen.load(std::memory_order_acquire) == gen) return;
  enter(a);
  if (a.seen_gen.load(std::memory_order_relaxed) != gen) {
    // Fresh force entry on a reused site: clear the previous episode. Any
    // tokens still queued belonged to a probend()ed computation; the
    // stamp is the last write so racing first-ops of the same generation
    // see a fully reset ring.
    a.head = 0;
    a.tail = 0;
    a.working = 0;
    a.ended = 0;
    a.seen_gen.store(gen, std::memory_order_release);
  }
  leave(a);
}

void shm_askfor_put(ShmAskforState& a, const void* task) {
  enter(a);
  if (a.ended == kShmAskforProbend) {  // explicitly ended: dropped, as ever
    leave(a);
    return;
  }
  // A drain is provisional: with the seed put() inside the force (only the
  // leader puts, everyone works), a sibling's first ask can find the ring
  // empty with nobody working and latch "drained" before the seed lands -
  // on a parked pool every member wakes hot at once, so the race is live,
  // not theoretical. The seed must never be lost: re-open the ring. The
  // raced siblings may already have left their work() loop; they just sit
  // at the next barrier while the remaining members (at least the seeder
  // itself) drain the work - fewer hands, same answer.
  if (a.ended == kShmAskforDrained) a.ended = 0;
  const bool full = a.tail - a.head >= a.capacity;
  if (full) {
    leave(a);
    FORCE_CHECK(false,
                "os-fork askfor ring overflow; reduce fan-out or enlarge "
                "the per-site task capacity");
  }
  std::memcpy(ring_slot(a, a.tail), task, a.stride);
  ++a.tail;
  leave(a);
  bump_version(a);
}

bool shm_askfor_ask(ShmAskforState& a, void* out, const char* label) {
  note_site(label);
  for (;;) {
    check_poison();
    enter(a);
    if (a.ended != 0) {
      leave(a);
      return false;
    }
    if (a.head != a.tail) {
      std::memcpy(out, ring_slot(a, a.head), a.stride);
      ++a.head;
      ++a.working;
      a.granted.fetch_add(1, std::memory_order_relaxed);
      leave(a);
      return true;
    }
    if (a.working == 0) {
      // Drained: no tokens anywhere and nobody who could put() more.
      // Latch the end so every parked process leaves too.
      a.ended = kShmAskforDrained;
      leave(a);
      bump_version(a);
      return false;
    }
    // No work *right now*, but a working process may still put() more:
    // wait on the version word until something changes.
    const std::uint32_t v = a.version.load(std::memory_order_acquire);
    leave(a);
    Waiter().await(a.version, [v](std::uint32_t now) { return now != v; },
                   WordScope::kShared);
  }
}

void shm_askfor_complete(ShmAskforState& a) {
  enter(a);
  --a.working;
  const bool drained = a.working == 0 && a.head == a.tail;
  leave(a);
  // Wake parked askers so the drained case latches promptly (put() has
  // already bumped the version for the new-work case).
  if (drained) bump_version(a);
}

void shm_askfor_probend(ShmAskforState& a) {
  enter(a);
  a.ended = kShmAskforProbend;
  leave(a);
  bump_version(a);
}

bool shm_askfor_ended(const ShmAskforState& a) {
  auto& m = const_cast<ShmAskforState&>(a);
  enter(m);
  const bool e = m.ended != 0;
  leave(m);
  return e;
}

}  // namespace force::machdep::shm
