#include "machdep/locks.hpp"

#include <algorithm>

#include "machdep/hepcell.hpp"
#include "machdep/wait.hpp"
#include "util/check.hpp"

namespace force::machdep {

namespace {

inline void bump(LockCounters* c, std::atomic<std::uint64_t> LockCounters::*f,
                 std::uint64_t n = 1) {
  if (c != nullptr) (c->*f).fetch_add(n, std::memory_order_relaxed);
}

/// Max exponential-backoff relax count between TtasLock probes.
constexpr std::uint32_t kMaxBackoff = 128;

}  // namespace

LockCountersSnapshot LockCountersSnapshot::operator-(
    const LockCountersSnapshot& rhs) const {
  LockCountersSnapshot d;
  d.acquires = acquires - rhs.acquires;
  d.contended_acquires = contended_acquires - rhs.contended_acquires;
  d.spin_iterations = spin_iterations - rhs.spin_iterations;
  d.blocking_waits = blocking_waits - rhs.blocking_waits;
  d.releases = releases - rhs.releases;
  return d;
}

LockCountersSnapshot snapshot(const LockCounters& c) {
  LockCountersSnapshot s;
  s.acquires = c.acquires.load(std::memory_order_relaxed);
  s.contended_acquires = c.contended_acquires.load(std::memory_order_relaxed);
  s.spin_iterations = c.spin_iterations.load(std::memory_order_relaxed);
  s.blocking_waits = c.blocking_waits.load(std::memory_order_relaxed);
  s.releases = c.releases.load(std::memory_order_relaxed);
  return s;
}

const char* lock_kind_name(LockKind kind) {
  switch (kind) {
    case LockKind::kTasSpin: return "tas-spin";
    case LockKind::kTtasSpin: return "ttas-spin";
    case LockKind::kTicket: return "ticket";
    case LockKind::kMcs: return "mcs";
    case LockKind::kSystem: return "system";
    case LockKind::kCombined: return "combined";
    case LockKind::kHepFullEmpty: return "hep-full-empty";
  }
  return "unknown";
}

LockKind lock_kind_from_name(const std::string& name) {
  for (LockKind k :
       {LockKind::kTasSpin, LockKind::kTtasSpin, LockKind::kTicket,
        LockKind::kMcs, LockKind::kSystem, LockKind::kCombined,
        LockKind::kHepFullEmpty}) {
    if (name == lock_kind_name(k)) return k;
  }
  FORCE_CHECK(false, "unknown lock kind: " + name);
}

// ---------------------------------------------------------------------------
// TasSpinLock
// ---------------------------------------------------------------------------

TasSpinLock::TasSpinLock(LockCounters* counters) : counters_(counters) {}

void TasSpinLock::acquire() {
  bump(counters_, &LockCounters::acquires);
  if (!held_.exchange(true, std::memory_order_acquire)) return;
  bump(counters_, &LockCounters::contended_acquires);
  Waiter w;
  // Naked test&set on every probe: the historically faithful (and
  // coherence-hostile) behaviour of the Sequent/Encore software lock.
  while (held_.exchange(true, std::memory_order_acquire)) w.pause();
  bump(counters_, &LockCounters::spin_iterations, w.spins());
}

bool TasSpinLock::try_acquire() {
  bump(counters_, &LockCounters::acquires);
  return !held_.exchange(true, std::memory_order_acquire);
}

void TasSpinLock::release() {
  bump(counters_, &LockCounters::releases);
  held_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// TtasLock
// ---------------------------------------------------------------------------

TtasLock::TtasLock(LockCounters* counters) : counters_(counters) {}

void TtasLock::acquire() {
  bump(counters_, &LockCounters::acquires);
  if (!held_.exchange(true, std::memory_order_acquire)) return;
  bump(counters_, &LockCounters::contended_acquires);
  Waiter w;
  std::uint32_t backoff = 1;
  for (;;) {
    // Read-only probe loop first: no coherence traffic while held.
    while (held_.load(std::memory_order_relaxed)) {
      Waiter::relax(backoff);
      w.pause();
      if (backoff < kMaxBackoff) backoff *= 2;
    }
    if (!held_.exchange(true, std::memory_order_acquire)) break;
  }
  bump(counters_, &LockCounters::spin_iterations, w.spins());
}

bool TtasLock::try_acquire() {
  bump(counters_, &LockCounters::acquires);
  if (held_.load(std::memory_order_relaxed)) return false;
  return !held_.exchange(true, std::memory_order_acquire);
}

void TtasLock::release() {
  bump(counters_, &LockCounters::releases);
  held_.store(false, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// TicketLock
// ---------------------------------------------------------------------------

TicketLock::TicketLock(LockCounters* counters) : counters_(counters) {}

void TicketLock::acquire() {
  bump(counters_, &LockCounters::acquires);
  const std::uint32_t my = next_.fetch_add(1, std::memory_order_relaxed);
  if (serving_.load(std::memory_order_acquire) == my) return;
  bump(counters_, &LockCounters::contended_acquires);
  Waiter w;
  while (serving_.load(std::memory_order_acquire) != my) w.pause();
  bump(counters_, &LockCounters::spin_iterations, w.spins());
}

bool TicketLock::try_acquire() {
  bump(counters_, &LockCounters::acquires);
  std::uint32_t s = serving_.load(std::memory_order_acquire);
  std::uint32_t expected = s;
  // Succeed only if no one is queued: next_ == serving_.
  return next_.compare_exchange_strong(expected, s + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed);
}

void TicketLock::release() {
  bump(counters_, &LockCounters::releases);
  serving_.fetch_add(1, std::memory_order_release);
}

// ---------------------------------------------------------------------------
// McsLock
// ---------------------------------------------------------------------------

McsLock::McsLock(LockCounters* counters) : counters_(counters) {}

McsLock::~McsLock() {
  Node* n = free_head_;
  while (n != nullptr) {
    Node* next = n->free_next;
    delete n;
    n = next;
  }
}

McsLock::Node* McsLock::alloc_node() {
  {
    std::lock_guard<std::mutex> g(free_mutex_);
    if (free_head_ != nullptr) {
      Node* n = free_head_;
      free_head_ = n->free_next;
      n->next.store(nullptr, std::memory_order_relaxed);
      n->ready.store(false, std::memory_order_relaxed);
      n->free_next = nullptr;
      return n;
    }
  }
  return new Node();
}

void McsLock::recycle_node(Node* n) {
  std::lock_guard<std::mutex> g(free_mutex_);
  n->free_next = free_head_;
  free_head_ = n;
}

void McsLock::acquire() {
  bump(counters_, &LockCounters::acquires);
  Node* node = alloc_node();
  Node* prev = tail_.exchange(node, std::memory_order_acq_rel);
  if (prev != nullptr) {
    bump(counters_, &LockCounters::contended_acquires);
    prev->next.store(node, std::memory_order_release);
    Waiter w;
    while (!node->ready.load(std::memory_order_acquire)) w.pause();
    bump(counters_, &LockCounters::spin_iterations, w.spins());
  }
  owner_.store(node, std::memory_order_release);
}

bool McsLock::try_acquire() {
  bump(counters_, &LockCounters::acquires);
  if (tail_.load(std::memory_order_relaxed) != nullptr) return false;
  Node* node = alloc_node();
  Node* expected = nullptr;
  if (tail_.compare_exchange_strong(expected, node,
                                    std::memory_order_acq_rel,
                                    std::memory_order_relaxed)) {
    owner_.store(node, std::memory_order_release);
    return true;
  }
  recycle_node(node);
  return false;
}

void McsLock::release() {
  bump(counters_, &LockCounters::releases);
  Node* node = owner_.load(std::memory_order_acquire);
  FORCE_CHECK(node != nullptr, "McsLock released while not held");
  owner_.store(nullptr, std::memory_order_relaxed);
  Node* expected = node;
  if (node->next.load(std::memory_order_acquire) == nullptr) {
    if (tail_.compare_exchange_strong(expected, nullptr,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      recycle_node(node);
      return;
    }
    // A successor is mid-enqueue: wait for its next-pointer store.
    Waiter w;
    while (node->next.load(std::memory_order_acquire) == nullptr) w.pause();
    bump(counters_, &LockCounters::spin_iterations, w.spins());
  }
  node->next.load(std::memory_order_acquire)
      ->ready.store(true, std::memory_order_release);
  recycle_node(node);
}

// ---------------------------------------------------------------------------
// SystemLock
// ---------------------------------------------------------------------------

SystemLock::SystemLock(LockCounters* counters) : counters_(counters) {}

void SystemLock::acquire() {
  bump(counters_, &LockCounters::acquires);
  if (word_lock_try(word_)) return;
  bump(counters_, &LockCounters::contended_acquires);
  bump(counters_, &LockCounters::blocking_waits);
  Waiter w(0);  // no spin window: every contended acquire blocks
  word_lock_wait(word_, w, WordScope::kPrivate);
}

bool SystemLock::try_acquire() {
  bump(counters_, &LockCounters::acquires);
  return word_lock_try(word_);
}

void SystemLock::release() {
  bump(counters_, &LockCounters::releases);
  word_lock_release(word_, WordScope::kPrivate);
}

// ---------------------------------------------------------------------------
// CombinedLock
// ---------------------------------------------------------------------------

CombinedLock::CombinedLock(LockCounters* counters) : counters_(counters) {}

void CombinedLock::acquire() {
  bump(counters_, &LockCounters::acquires);
  if (word_lock_try(word_)) return;
  bump(counters_, &LockCounters::contended_acquires);
  // Spin out the window (short critical sections win here), then block.
  Waiter w;
  word_lock_wait(word_, w, WordScope::kPrivate);
  bump(counters_, &LockCounters::spin_iterations, w.spins());
  if (w.slept()) bump(counters_, &LockCounters::blocking_waits);
}

bool CombinedLock::try_acquire() {
  bump(counters_, &LockCounters::acquires);
  return word_lock_try(word_);
}

void CombinedLock::release() {
  bump(counters_, &LockCounters::releases);
  word_lock_release(word_, WordScope::kPrivate);
}

// ---------------------------------------------------------------------------
// DispatchCounter
// ---------------------------------------------------------------------------

DispatchCounter::DispatchCounter(DispatchWords& words, int width)
    : words_(&words),
      blocks_(std::min(static_cast<std::uint32_t>(width), kDispatchBlocks)) {
  FORCE_CHECK(width > 0, "dispatch width must be positive");
}

DispatchCounter::DispatchCounter(DispatchWords& words,
                                 std::unique_ptr<BasicLock> lock)
    : words_(&words), lock_(std::move(lock)) {
  FORCE_CHECK(lock_ != nullptr, "lock-engine DispatchCounter needs a lock");
}

void DispatchCounter::reset(std::int64_t trips) {
  // Single-threaded by contract; the caller's gate release publishes it.
  if (lock_ == nullptr) {
    dispatch_arm(words_->blocks, blocks_, trips);
  } else {
    words_->shared.store(0, std::memory_order_relaxed);
  }
}

std::int64_t DispatchCounter::value() const {
  if (lock_ == nullptr) {
    // Blocks tile the trips in order: each begins where the last ended.
    std::int64_t claimed = 0;
    std::int64_t begin = 0;
    for (std::uint32_t s = 0; s < blocks_; ++s) {
      const DispatchBlock& b = words_->blocks[s];
      claimed += b.next.load(std::memory_order_acquire) - begin;
      begin = b.end;
    }
    return claimed;
  }
  lock_->acquire();
  const std::int64_t v = words_->shared.load(std::memory_order_relaxed);
  lock_->release();
  return v;
}

DispatchClaim DispatchCounter::claim(int me0, std::int64_t want,
                                     std::int64_t limit) {
  if (lock_ == nullptr) {
    return dispatch_claim_home(
        words_->blocks, blocks_, home(me0),
        [want](std::atomic<std::int64_t>& word, std::int64_t end) {
          return dispatch_claim(word, want, end);
        });
  }
  FORCE_CHECK(want >= 1, "dispatch claim must want at least one trip");
  // Lock engine: the paper's expansion - one generic-lock pass per claim,
  // clamped at the limit so an exhausted loop never advances the counter.
  lock_->acquire();
  const std::int64_t t = words_->shared.load(std::memory_order_relaxed);
  if (t < limit) {
    words_->shared.store(t + std::min(want, limit - t),
                         std::memory_order_relaxed);
  }
  lock_->release();
  if (t >= limit) return {t, 0};
  return {t, std::min(want, limit - t)};
}

DispatchClaim DispatchCounter::claim_fraction(int me0, std::int64_t limit,
                                              std::int64_t divisor) {
  if (lock_ == nullptr) {
    const std::int64_t share = std::max<std::int64_t>(1, divisor / blocks_);
    return dispatch_claim_home(
        words_->blocks, blocks_, home(me0),
        [share](std::atomic<std::int64_t>& word, std::int64_t end) {
          return dispatch_claim_fraction(word, end, share);
        });
  }
  FORCE_CHECK(divisor >= 1, "dispatch divisor must be at least one");
  lock_->acquire();
  const std::int64_t t = words_->shared.load(std::memory_order_relaxed);
  std::int64_t want = 0;
  if (t < limit) {
    want = std::max<std::int64_t>(1, (limit - t) / divisor);
    words_->shared.store(t + want, std::memory_order_relaxed);
  }
  lock_->release();
  return {t, want};
}

// ---------------------------------------------------------------------------
// HEP full/empty lock: a tagged cell initialized full; acquire consumes the
// token, release produces it back. This is how HEP programs spelled locks.
// ---------------------------------------------------------------------------

namespace {

class HepFullEmptyLock final : public BasicLock {
 public:
  explicit HepFullEmptyLock(LockCounters* counters)
      : cell_(1), counters_(counters) {}

  void acquire() override {
    bump(counters_, &LockCounters::acquires);
    std::uint64_t token;
    if (cell_.try_consume(&token)) return;
    bump(counters_, &LockCounters::contended_acquires);
    bump(counters_, &LockCounters::blocking_waits);
    cell_.consume();
  }

  bool try_acquire() override {
    bump(counters_, &LockCounters::acquires);
    std::uint64_t token;
    return cell_.try_consume(&token);
  }

  void release() override {
    bump(counters_, &LockCounters::releases);
    cell_.produce(1);
  }

  const char* mechanism() const override { return "hep-full-empty"; }

 private:
  HepCell cell_;
  LockCounters* counters_;
};

}  // namespace

std::unique_ptr<BasicLock> make_lock(LockKind kind, LockCounters* counters) {
  switch (kind) {
    case LockKind::kTasSpin:
      return std::make_unique<TasSpinLock>(counters);
    case LockKind::kTtasSpin:
      return std::make_unique<TtasLock>(counters);
    case LockKind::kTicket:
      return std::make_unique<TicketLock>(counters);
    case LockKind::kMcs:
      return std::make_unique<McsLock>(counters);
    case LockKind::kSystem:
      return std::make_unique<SystemLock>(counters);
    case LockKind::kCombined:
      return std::make_unique<CombinedLock>(counters);
    case LockKind::kHepFullEmpty:
      return std::make_unique<HepFullEmptyLock>(counters);
  }
  FORCE_CHECK(false, "unreachable lock kind");
}

}  // namespace force::machdep
