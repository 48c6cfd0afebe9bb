#include "machdep/fiber.hpp"

#include <exception>
#include <memory>
#include <thread>

#include "util/check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define FORCE_HAVE_UCONTEXT 1
#include <ucontext.h>
#endif

// AddressSanitizer tracks one shadow stack per thread; every continuation
// switch must be announced or ASan reports wild stack-use-after-return.
// The tsan CI job instead excludes the N:M tests (label "nm"): TSan cannot
// follow swapcontext without a parallel fiber API we do not need here.
#if defined(__SANITIZE_ADDRESS__)
#define FORCE_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FORCE_FIBER_ASAN 1
#endif
#endif
#if defined(FORCE_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif

namespace force::machdep {

namespace {
thread_local int t_member = -1;
}  // namespace

int this_member() { return t_member; }

MemberScope::MemberScope(int index) : saved_(t_member) { t_member = index; }

MemberScope::~MemberScope() { t_member = saved_; }

#if defined(FORCE_HAVE_UCONTEXT)

namespace {

struct Fiber {
  ucontext_t ctx{};
  std::unique_ptr<std::byte[]> stack;
  std::size_t stack_bytes = 0;
  std::function<void()> body;
  bool done = false;
  std::exception_ptr error;
#if defined(FORCE_FIBER_ASAN)
  void* asan_fake_stack = nullptr;  // saved when this fiber switches out
#endif
};

/// Per-thread scheduler state: the context to yield back to and the fiber
/// currently on the CPU (null when the thread runs its own stack).
struct SchedState {
  ucontext_t main_ctx{};
  Fiber* current = nullptr;
#if defined(FORCE_FIBER_ASAN)
  void* asan_fake_stack = nullptr;
  const void* main_stack_bottom = nullptr;
  std::size_t main_stack_size = 0;
#endif
};

thread_local SchedState* g_sched = nullptr;

#if defined(FORCE_FIBER_ASAN)
inline void asan_enter_fiber(SchedState* s, Fiber* f) {
  __sanitizer_start_switch_fiber(&s->asan_fake_stack, f->stack.get(),
                                 f->stack_bytes);
}
inline void asan_back_in_sched(SchedState* s) {
  __sanitizer_finish_switch_fiber(s->asan_fake_stack, nullptr, nullptr);
}
inline void asan_fiber_arrived(SchedState* s, Fiber* f, bool first) {
  __sanitizer_finish_switch_fiber(first ? nullptr : f->asan_fake_stack,
                                  &s->main_stack_bottom, &s->main_stack_size);
}
inline void asan_leave_fiber(SchedState* s, Fiber* f, bool final_exit) {
  __sanitizer_start_switch_fiber(final_exit ? nullptr : &f->asan_fake_stack,
                                 s->main_stack_bottom, s->main_stack_size);
}
#else
inline void asan_enter_fiber(SchedState*, Fiber*) {}
inline void asan_back_in_sched(SchedState*) {}
inline void asan_fiber_arrived(SchedState*, Fiber*, bool) {}
inline void asan_leave_fiber(SchedState*, Fiber*, bool) {}
#endif

/// makecontext passes ints only; the fiber pointer rides in two halves.
/// The shifts are split in two steps because a single `<< 32` / `>> 32`
/// is UB where uintptr_t is 32 bits wide (arm32 and friends are inside
/// the __unix__ guard); two 16-bit steps are defined at both widths and
/// yield 0 for the high half on a 32-bit host.
void trampoline(unsigned hi, unsigned lo) {
  auto addr = (static_cast<std::uintptr_t>(hi) << 16 << 16) |
              static_cast<std::uintptr_t>(lo);
  auto* f = reinterpret_cast<Fiber*>(addr);
  SchedState* s = g_sched;
  asan_fiber_arrived(s, f, /*first=*/true);
  try {
    f->body();
  } catch (...) {
    f->error = std::current_exception();
  }
  f->done = true;
  // Explicit final switch (not uc_link) so the ASan bookkeeping can mark
  // the fake stack for destruction on the way out.
  asan_leave_fiber(s, f, /*final_exit=*/true);
  swapcontext(&f->ctx, &s->main_ctx);
}

}  // namespace

bool on_fiber() {
  return g_sched != nullptr && g_sched->current != nullptr;
}

void member_yield() {
  SchedState* s = g_sched;
  if (s == nullptr || s->current == nullptr) {
    std::this_thread::yield();
    return;
  }
  Fiber* f = s->current;
  const int member = t_member;
  asan_leave_fiber(s, f, /*final_exit=*/false);
  swapcontext(&f->ctx, &s->main_ctx);
  // Resumed by the scheduler on the same thread; re-read its state.
  asan_fiber_arrived(g_sched, f, /*first=*/false);
  t_member = member;
}

MemberScheduler::MemberScheduler(std::size_t stack_bytes)
    : stack_bytes_(stack_bytes) {
  FORCE_CHECK(stack_bytes_ >= (16u << 10),
              "member continuation stacks need at least 16 KiB");
}

MemberScheduler::~MemberScheduler() = default;

void MemberScheduler::run(std::vector<std::function<void()>> bodies) {
  if (bodies.empty()) return;
  FORCE_CHECK(!on_fiber(), "member schedulers do not nest");

  SchedState state;
  SchedState* saved = g_sched;
  g_sched = &state;
  const int saved_member = t_member;

  std::vector<Fiber> fibers(bodies.size());
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    Fiber& f = fibers[i];
    f.body = std::move(bodies[i]);
    f.stack_bytes = stack_bytes_;
    if (!free_stacks_.empty()) {
      f.stack = std::move(free_stacks_.back());
      free_stacks_.pop_back();
    } else {
      f.stack = std::make_unique<std::byte[]>(stack_bytes_);
    }
    FORCE_CHECK(getcontext(&f.ctx) == 0, "getcontext failed");
    f.ctx.uc_stack.ss_sp = f.stack.get();
    f.ctx.uc_stack.ss_size = stack_bytes_;
    f.ctx.uc_link = &state.main_ctx;  // never taken; trampoline swaps out
    const auto addr = reinterpret_cast<std::uintptr_t>(&f);
    makecontext(&f.ctx, reinterpret_cast<void (*)()>(trampoline), 2,
                static_cast<unsigned>(addr >> 16 >> 16),
                static_cast<unsigned>(addr & 0xffffffffu));
  }

  std::size_t unfinished = fibers.size();
  while (unfinished > 0) {
    bool progressed = false;
    for (Fiber& f : fibers) {
      if (f.done) continue;
      state.current = &f;
      asan_enter_fiber(&state, &f);
      swapcontext(&state.main_ctx, &f.ctx);
      asan_back_in_sched(&state);
      state.current = nullptr;
      if (f.done) {
        --unfinished;
        progressed = true;
      }
    }
    // Every live member yielded without finishing: they are all waiting on
    // something outside this worker (another worker's member, a lock held
    // elsewhere). One OS yield keeps the oversubscribed host live.
    if (!progressed && unfinished > 0) std::this_thread::yield();
  }

  g_sched = saved;
  t_member = saved_member;  // a finished member's scope restored a sibling's

  // All fibers have run to completion (the loop above only exits at
  // unfinished == 0), so their stacks are dead and safe to recycle - even
  // when a body threw, since the rethrow below happens off-fiber.
  for (Fiber& f : fibers) {
    free_stacks_.push_back(std::move(f.stack));
  }

  for (Fiber& f : fibers) {
    if (f.error) std::rethrow_exception(f.error);
  }
}

#else  // !FORCE_HAVE_UCONTEXT

bool on_fiber() { return false; }

void member_yield() { std::this_thread::yield(); }

MemberScheduler::MemberScheduler(std::size_t stack_bytes)
    : stack_bytes_(stack_bytes) {}

MemberScheduler::~MemberScheduler() = default;

void MemberScheduler::run(std::vector<std::function<void()>>) {
  FORCE_CHECK(false,
              "N:M member multiplexing needs ucontext (POSIX host); run the "
              "pool with pool_workers >= nproc on this platform");
}

#endif

}  // namespace force::machdep
