#include "core/sentry.hpp"

#include <algorithm>
#include <cstdio>

#include "machdep/fiber.hpp"
#include "machdep/wait.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace force::core {

namespace {

/// Per-thread fuzz generator, reseeded when the (sentry, slot) binding
/// changes so the stream is a pure function of (seed, slot, draw count)
/// for registered threads.
struct TlsFuzz {
  const Sentry* owner = nullptr;
  int slot = -2;
  force::util::Xoshiro256 rng{0};
};
thread_local TlsFuzz tls_fuzz;

void join_into(std::vector<std::uint32_t>& dst,
               const std::vector<std::uint32_t>& src) {
  if (dst.size() < src.size()) dst.resize(src.size(), 0);
  for (std::size_t i = 0; i < src.size(); ++i) {
    dst[i] = std::max(dst[i], src[i]);
  }
}

std::string hex_addr(const void* p) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%p", p);
  return buf;
}

}  // namespace

Sentry::Sentry(const Options& opts)
    : nproc_(opts.nproc),
      fuzz_seed_(opts.fuzz_seed),
      stall_ms_(opts.stall_ms > 0 ? opts.stall_ms : 1000),
      slots_(static_cast<std::size_t>(opts.nproc)),
      root_vc_(static_cast<std::size_t>(opts.nproc), 0) {
  FORCE_CHECK(nproc_ > 0, "sentry needs a positive process count");
  for (auto& s : slots_) s.vc.assign(static_cast<std::size_t>(nproc_), 0);
  watchdog_ = std::thread([this] { watchdog_main(); });
}

Sentry::~Sentry() {
  {
    std::lock_guard<std::mutex> g(mu_);
    shutting_down_ = true;
  }
  watchdog_cv_.notify_all();
  watchdog_.join();
}

// ---------------------------------------------------------------------------
// Member identity and run fork/join edges.
// ---------------------------------------------------------------------------

int Sentry::calling_slot() const {
  const int slot = machdep::this_member();
  return slot < nproc_ ? slot : -1;
}

void Sentry::begin_run() {
  std::lock_guard<std::mutex> g(mu_);
  for (std::size_t p = 0; p < slots_.size(); ++p) {
    // Fork edge: everything the root (and any previous run) did happens
    // before anything this run's processes do.
    slots_[p].vc = root_vc_;
    slots_[p].vc[p] += 1;
  }
}

void Sentry::end_run() {
  std::lock_guard<std::mutex> g(mu_);
  for (const auto& s : slots_) join_into(root_vc_, s.vc);
}

// ---------------------------------------------------------------------------
// Race detector.
// ---------------------------------------------------------------------------

void Sentry::track_range(const void* base, std::size_t bytes,
                         std::string name) {
  std::lock_guard<std::mutex> g(mu_);
  ranges_.emplace(base, TrackedRange{base, bytes, std::move(name)});
}

std::string Sentry::describe_addr_locked(const void* addr) const {
  auto it = ranges_.upper_bound(addr);
  if (it != ranges_.begin()) {
    --it;
    const TrackedRange& r = it->second;
    const auto off = static_cast<std::size_t>(
        static_cast<const char*>(addr) - static_cast<const char*>(r.base));
    if (off < r.bytes) {
      if (off == 0) return "'" + r.name + "'";
      return "'" + r.name + "'+" + std::to_string(off);
    }
  }
  return hex_addr(addr);
}

void Sentry::check_access_locked(const VarState&, const Access& prior,
                                 const Access& cur, const std::string& name,
                                 bool prior_is_write, bool cur_is_write) {
  if (prior.slot < 0 || prior.slot == cur.slot) return;
  if (!prior_is_write && !cur_is_write) return;
  // Happens-before: ordered iff the current thread's clock has absorbed
  // the prior access's own component.
  const auto u = static_cast<std::size_t>(prior.slot);
  const Clock& my_vc = slots_[static_cast<std::size_t>(cur.slot)].vc;
  if (u < my_vc.size() && my_vc[u] >= prior.clock) return;
  // Eraser escape hatch: a common mutex-role lock orders them in practice.
  for (const void* l : cur.locks) {
    if (std::find(prior.locks.begin(), prior.locks.end(), l) !=
        prior.locks.end()) {
      return;
    }
  }
  auto lockset_str = [this](const std::vector<const void*>& ls) {
    if (ls.empty()) return std::string("{}");
    std::string out = "{";
    for (std::size_t i = 0; i < ls.size(); ++i) {
      auto it = lock_labels_.find(ls[i]);
      out += (i ? ", " : "") + (it != lock_labels_.end() ? it->second
                                                         : hex_addr(ls[i]));
    }
    return out + "}";
  };
  std::string what = "race on " + name + ": " +
                     (cur_is_write ? "write" : "read") + " at " + cur.where +
                     " by P" + std::to_string(cur.slot + 1) + " (episode " +
                     std::to_string(cur.episode) + ", locks " +
                     lockset_str(cur.locks) + ") unordered with " +
                     (prior_is_write ? "write" : "read") + " at " +
                     prior.where + " by P" + std::to_string(prior.slot + 1) +
                     " (episode " + std::to_string(prior.episode) +
                     ", locks " + lockset_str(prior.locks) + ")";
  report_locked(ReportKind::kRace, std::move(what));
}

void Sentry::on_access(const void* addr, bool is_write, std::string where) {
  fuzz();
  const int slot = calling_slot();
  if (slot < 0) return;  // unregistered threads carry no clock
  std::lock_guard<std::mutex> g(mu_);
  SlotState& me = slots_[static_cast<std::size_t>(slot)];
  Access cur;
  cur.slot = slot;
  cur.clock = me.vc[static_cast<std::size_t>(slot)];
  cur.episode = me.episode;
  cur.locks = me.held;
  cur.where = std::move(where);

  VarState& var = vars_[addr];
  const std::string name = describe_addr_locked(addr);
  check_access_locked(var, var.last_write, cur, name, /*prior_is_write=*/true,
                      is_write);
  if (is_write) {
    for (const auto& [rslot, racc] : var.reads) {
      if (rslot == slot) continue;
      check_access_locked(var, racc, cur, name, /*prior_is_write=*/false,
                          /*cur_is_write=*/true);
    }
    var.last_write = cur;
    var.reads.clear();
  } else {
    var.reads[slot] = cur;
  }
}

void Sentry::barrier_publish(const void* b) {
  fuzz();
  const int slot = calling_slot();
  if (slot < 0) return;
  std::lock_guard<std::mutex> g(mu_);
  join_into(barrier_vc_[b], slots_[static_cast<std::size_t>(slot)].vc);
}

void Sentry::barrier_join(const void* b) {
  const int slot = calling_slot();
  if (slot < 0) return;
  std::lock_guard<std::mutex> g(mu_);
  SlotState& me = slots_[static_cast<std::size_t>(slot)];
  join_into(me.vc, barrier_vc_[b]);
  // Bump after the merge: accesses in the next episode are unordered with
  // other processes' next-episode accesses but ordered after everything
  // published before the barrier.
  me.vc[static_cast<std::size_t>(slot)] += 1;
  me.episode += 1;
}

// ---------------------------------------------------------------------------
// Async channel hooks.
// ---------------------------------------------------------------------------

void Sentry::channel_enter(const void* chan, bool is_write, const char* op) {
  fuzz();
  const int slot = calling_slot();
  std::lock_guard<std::mutex> g(mu_);
  ChannelState& ch = channels_[chan];
  if (ch.in_window > 0) {
    // Two threads inside one async variable's exclusive window: the
    // machine's full/empty (or two-lock) emulation failed to serialize.
    report_locked(
        ReportKind::kRace,
        "async protocol violation on " + describe_addr_locked(chan) + ": " +
            op + " by P" + std::to_string(slot + 1) +
            " entered the exclusive window while " + ch.window_op + " by P" +
            std::to_string(ch.window_slot + 1) + " was still inside");
  }
  ch.in_window += 1;
  ch.window_slot = slot;
  ch.window_op = op;
  if (slot < 0) return;
  SlotState& me = slots_[static_cast<std::size_t>(slot)];
  // Bidirectional join: successive operations on one async variable are
  // totally ordered by the full/empty protocol, so the channel clock
  // carries each operation's knowledge to the next.
  join_into(ch.vc, me.vc);
  me.vc = ch.vc;
  me.vc[static_cast<std::size_t>(slot)] += 1;
  // The payload access itself, recorded against the channel address.
  Access cur;
  cur.slot = slot;
  cur.clock = me.vc[static_cast<std::size_t>(slot)] - 1;
  cur.episode = me.episode;
  cur.locks = me.held;
  cur.where = op;
  VarState& var = vars_[chan];
  const std::string name = describe_addr_locked(chan);
  check_access_locked(var, var.last_write, cur, name, true, is_write);
  if (is_write) {
    var.last_write = cur;
    var.reads.clear();
  } else {
    var.reads[slot] = cur;
  }
}

void Sentry::channel_exit(const void* chan) {
  std::lock_guard<std::mutex> g(mu_);
  ChannelState& ch = channels_[chan];
  if (ch.in_window > 0) ch.in_window -= 1;
}

void Sentry::channel_sync(const void* chan) {
  fuzz();
  const int slot = calling_slot();
  if (slot < 0) return;
  std::lock_guard<std::mutex> g(mu_);
  ChannelState& ch = channels_[chan];
  SlotState& me = slots_[static_cast<std::size_t>(slot)];
  join_into(ch.vc, me.vc);
  me.vc = ch.vc;
  me.vc[static_cast<std::size_t>(slot)] += 1;
}

// ---------------------------------------------------------------------------
// Wait-for registry.
// ---------------------------------------------------------------------------

std::uint64_t Sentry::register_wait_locked(WaitKind kind, const void* resource,
                                           const std::string& label) {
  const std::uint64_t token = next_wait_token_++;
  WaitRecord rec;
  rec.slot = calling_slot();
  rec.kind = kind;
  rec.resource = resource;
  rec.label = label;
  rec.since = std::chrono::steady_clock::now();
  if (rec.slot >= 0) {
    slots_[static_cast<std::size_t>(rec.slot)].wait_token = token;
  }
  waits_.emplace(token, std::move(rec));
  return token;
}

void Sentry::unregister_wait_locked(std::uint64_t token) {
  auto it = waits_.find(token);
  if (it == waits_.end()) return;
  if (it->second.slot >= 0) {
    SlotState& s = slots_[static_cast<std::size_t>(it->second.slot)];
    if (s.wait_token == token) s.wait_token = 0;
  }
  waits_.erase(it);
}

Sentry::WaitScope::WaitScope(Sentry* sentry, WaitKind kind,
                             const void* resource, const std::string& label)
    : sentry_(sentry) {
  if (sentry_ == nullptr) return;
  sentry_->fuzz();
  std::lock_guard<std::mutex> g(sentry_->mu_);
  token_ = sentry_->register_wait_locked(kind, resource, label);
}

Sentry::WaitScope::~WaitScope() {
  if (sentry_ == nullptr || token_ == 0) return;
  std::lock_guard<std::mutex> g(sentry_->mu_);
  sentry_->unregister_wait_locked(token_);
}

// ---------------------------------------------------------------------------
// Mutex-role locks: lockset, acquisition-order graph, owner tracking.
// ---------------------------------------------------------------------------

std::uint64_t Sentry::lock_acquire_begin(const void* lock,
                                         const std::string& label) {
  fuzz();
  std::lock_guard<std::mutex> g(mu_);
  return register_wait_locked(WaitKind::kLock, lock, label);
}

bool Sentry::order_path_locked(const void* from, const void* to,
                               std::set<const void*>& seen) const {
  if (from == to) return true;
  if (!seen.insert(from).second) return false;
  auto it = order_edges_.find(from);
  if (it == order_edges_.end()) return false;
  for (const auto& [next, site] : it->second) {
    (void)site;
    if (order_path_locked(next, to, seen)) return true;
  }
  return false;
}

void Sentry::lock_acquired(const void* lock, const std::string& label,
                           std::uint64_t wait_token) {
  std::lock_guard<std::mutex> g(mu_);
  if (wait_token != 0) unregister_wait_locked(wait_token);
  lock_labels_.emplace(lock, label);
  const int slot = calling_slot();
  lock_owner_[lock] = slot;
  if (slot < 0) return;
  SlotState& me = slots_[static_cast<std::size_t>(slot)];
  for (std::size_t i = 0; i < me.held.size(); ++i) {
    const void* outer = me.held[i];
    if (outer == lock) continue;
    auto& edges = order_edges_[outer];
    if (edges.emplace(lock, me.held_labels[i] + " -> " + label).second) {
      // New edge outer -> lock: a path lock ->* outer now closes a cycle.
      std::set<const void*> seen;
      if (order_path_locked(lock, outer, seen)) {
        const void* lo = outer;
        const void* hi = lock;
        if (hi < lo) std::swap(lo, hi);
        if (order_reported_.insert({lo, hi}).second) {
          report_locked(
              ReportKind::kLockOrder,
              "lock-order inversion: '" + label + "' acquired while "
              "holding '" + me.held_labels[i] + "' by P" +
                  std::to_string(slot + 1) +
                  ", but the acquisition-order graph already orders '" +
                  label + "' before '" + me.held_labels[i] +
                  "' - a schedule interleaving these chains deadlocks");
        }
      }
    }
  }
  me.held.push_back(lock);
  me.held_labels.push_back(label);
}

void Sentry::lock_released(const void* lock) {
  std::lock_guard<std::mutex> g(mu_);
  const int slot = calling_slot();
  // Normal path: the releasing thread holds the lock. A cross-thread
  // release of a mutex-role lock (legal Force semantics, unusual usage)
  // clears the recorded owner's bookkeeping instead.
  int owner = slot;
  if (slot < 0 || std::find(slots_[static_cast<std::size_t>(slot)].held.begin(),
                            slots_[static_cast<std::size_t>(slot)].held.end(),
                            lock) ==
                      slots_[static_cast<std::size_t>(slot)].held.end()) {
    auto it = lock_owner_.find(lock);
    owner = (it != lock_owner_.end()) ? it->second : -1;
  }
  lock_owner_.erase(lock);
  if (owner < 0) return;
  SlotState& holder = slots_[static_cast<std::size_t>(owner)];
  for (std::size_t i = holder.held.size(); i-- > 0;) {
    if (holder.held[i] == lock) {
      holder.held.erase(holder.held.begin() + static_cast<std::ptrdiff_t>(i));
      holder.held_labels.erase(holder.held_labels.begin() +
                               static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Watchdog: stall and wait-for-cycle reporting.
// ---------------------------------------------------------------------------

void Sentry::scan_for_stalls_locked() {
  const auto now = std::chrono::steady_clock::now();
  for (auto& [token, rec] : waits_) {
    (void)token;
    if (rec.stall_reported) continue;
    const auto waited =
        std::chrono::duration_cast<std::chrono::milliseconds>(now - rec.since)
            .count();
    if (waited < stall_ms_) continue;
    rec.stall_reported = true;
    const char* kind = rec.kind == WaitKind::kProduce   ? "Produce"
                       : rec.kind == WaitKind::kConsume ? "Consume"
                       : rec.kind == WaitKind::kAskfor
                           ? "Askfor termination wait"
                           : "lock acquire";
    std::string who = rec.slot >= 0 ? "P" + std::to_string(rec.slot + 1)
                                    : "an unregistered thread";
    report_locked(ReportKind::kStall,
                  "stall: " + who + " blocked " + std::to_string(waited) +
                      "ms in " + kind + " on '" + rec.label + "'");
  }
}

void Sentry::scan_for_wait_cycles_locked() {
  // slot -> waited-on mutex lock -> owner slot -> ... ; a cycle of
  // registered slots is an actual deadlock in progress.
  for (std::size_t start = 0; start < slots_.size(); ++start) {
    std::vector<int> chain;
    int cur = static_cast<int>(start);
    bool cycle = false;
    while (cur >= 0 &&
           std::find(chain.begin(), chain.end(), cur) == chain.end()) {
      chain.push_back(cur);
      const std::uint64_t token =
          slots_[static_cast<std::size_t>(cur)].wait_token;
      if (token == 0) break;
      auto wit = waits_.find(token);
      if (wit == waits_.end() || wit->second.kind != WaitKind::kLock) break;
      auto oit = lock_owner_.find(wit->second.resource);
      if (oit == lock_owner_.end()) break;
      cur = oit->second;
      if (cur == static_cast<int>(start)) {
        cycle = true;
        break;
      }
    }
    if (!cycle) continue;
    std::string key;
    std::string desc;
    for (int p : chain) {
      key += std::to_string(p) + ",";
      const auto& rec =
          waits_.at(slots_[static_cast<std::size_t>(p)].wait_token);
      desc += "P";
      desc += std::to_string(p + 1);
      desc += " waits on '";
      desc += rec.label;
      desc += "'; ";
    }
    if (deadlock_reported_.insert(key).second) {
      report_locked(ReportKind::kDeadlock,
                    "deadlock: wait-for cycle - " + desc);
    }
  }
}

void Sentry::watchdog_main() {
  std::unique_lock<std::mutex> g(mu_);
  const auto interval = std::chrono::milliseconds(
      std::max(10, std::min(stall_ms_ / 2, 50)));
  while (!shutting_down_) {
    watchdog_cv_.wait_for(g, interval);
    if (shutting_down_) break;
    scan_for_stalls_locked();
    scan_for_wait_cycles_locked();
  }
}

// ---------------------------------------------------------------------------
// Schedule fuzzer.
// ---------------------------------------------------------------------------

void Sentry::fuzz() {
  if (fuzz_seed_ == 0) return;
  const int slot = calling_slot();
  if (tls_fuzz.owner != this || tls_fuzz.slot != slot) {
    // Deterministic per (seed, slot) stream; unregistered threads share
    // substream 0.
    tls_fuzz.owner = this;
    tls_fuzz.slot = slot;
    tls_fuzz.rng = force::util::Xoshiro256(fuzz_seed_)
                       .substream(static_cast<unsigned>(slot + 1));
  }
  const std::uint64_t u = tls_fuzz.rng.next();
  if ((u & 7u) == 0) {
    machdep::Waiter::yield();
  } else if ((u & 63u) == 1) {
    machdep::Waiter::relax(static_cast<std::uint32_t>((u >> 6) & 255u));
  }
}

// ---------------------------------------------------------------------------
// Reports.
// ---------------------------------------------------------------------------

void Sentry::report_locked(ReportKind kind, std::string what) {
  reports_.push_back({kind, std::move(what)});
}

std::vector<Sentry::Report> Sentry::reports() const {
  std::lock_guard<std::mutex> g(mu_);
  return reports_;
}

std::size_t Sentry::report_count(ReportKind kind) const {
  std::lock_guard<std::mutex> g(mu_);
  std::size_t n = 0;
  for (const auto& r : reports_) n += r.kind == kind ? 1 : 0;
  return n;
}

std::size_t Sentry::total_reports() const {
  std::lock_guard<std::mutex> g(mu_);
  return reports_.size();
}

const char* Sentry::report_kind_name(ReportKind kind) {
  switch (kind) {
    case ReportKind::kRace:
      return "race";
    case ReportKind::kLockOrder:
      return "lock-order";
    case ReportKind::kDeadlock:
      return "deadlock";
    case ReportKind::kStall:
      return "stall";
  }
  return "?";
}

}  // namespace force::core
