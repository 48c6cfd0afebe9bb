#include "spans.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/timing.hpp"

namespace perfbench {

bool is_body(Kind k) {
  switch (k) {
    case Kind::kSection:
    case Kind::kDoallBody:
    case Kind::kAskforTask:
    case Kind::kCriticalBody:
    case Kind::kStage:
      return true;
    default:
      return false;
  }
}

void Recorder::open(Kind kind) {
  stack_.push_back({force::util::now_ns(), 0, kind});
}

void Recorder::close() {
  const std::int64_t t1 = force::util::now_ns();
  const Open top = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t1 - top.t0;
  Span s;
  s.t0 = top.t0;
  s.t1 = t1;
  s.self_ns = dur - top.child_ns;
  s.kind = top.kind;
  s.member = member_;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    s.parent = stack_.back().kind;
  }
  spans_.push_back(s);
}

void Histogram::add(std::int64_t v) {
  const auto u = static_cast<std::uint64_t>(std::max<std::int64_t>(v, 0));
  std::size_t b;
  if (u < kSub) {
    b = u;
  } else {
    const int e = std::bit_width(u) - 1;  // >= 6
    const std::uint64_t sub = (u >> (e - 6)) & (kSub - 1);
    b = static_cast<std::size_t>(kSub + (e - 6) * kSub) + sub;
  }
  counts_[std::min(b, counts_.size() - 1)] += 1;
  n_ += 1;
}

double Histogram::quantile(double q) const {
  if (n_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(n_ - 1));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (seen + counts_[b] > rank) {
      // Spread the bucket's values evenly over its width and take the
      // rank's position among them.
      double lo = static_cast<double>(b);
      double width = 1.0;
      if (b >= kSub) {
        const std::size_t octave = (b - kSub) / kSub;  // e - 6
        const std::size_t sub = (b - kSub) % kSub;
        width = std::ldexp(1.0, static_cast<int>(octave));
        lo = static_cast<double>(kSub + sub) * width;
      }
      const double within = (static_cast<double>(rank - seen) + 0.5) /
                            static_cast<double>(counts_[b]);
      return lo + width * within;
    }
    seen += counts_[b];
  }
  return 0.0;
}

void Histogram::merge(const Histogram& other) {
  for (std::size_t b = 0; b < counts_.size(); ++b) counts_[b] += other.counts_[b];
  n_ += other.n_;
}

SolveCounts Breakdown::add_solve(const std::vector<Span>& spans) {
  SolveCounts c;
  std::vector<std::int64_t> busy(static_cast<std::size_t>(np_), 0);
  for (const Span& s : spans) {
    const std::size_t k = idx(s.kind);
    c.by_kind[k] += 1;
    const std::size_t m = std::min<std::size_t>(s.member, busy.size() - 1);
    if (s.kind == Kind::kSolve) {
      wall_sum_ += s.t1 - s.t0;
      continue;
    }
    if (s.kind == Kind::kDoallBody && s.parent == Kind::kSelfsched) {
      c.selfsched_iterations += 1;
    }
    if (s.kind == Kind::kAskforTask) tasks_per_member_[m] += 1;
    if (is_body(s.kind)) busy[m] += s.self_ns;
    self_sum_[k] += s.self_ns;
    hist_[k].add(s.self_ns);
  }
  for (std::size_t k = 0; k < count_.size(); ++k) count_[k] += c.by_kind[k];
  std::int64_t total = 0;
  std::int64_t most = 0;
  for (const std::int64_t b : busy) {
    total += b;
    most = std::max(most, b);
  }
  if (total > 0) {
    imbalance_per_solve_.push_back(static_cast<double>(most) * np_ /
                                   static_cast<double>(total));
  }
  solves_ += 1;
  return c;
}

double Breakdown::per_solve(Kind k) const {
  if (solves_ == 0) return 0.0;
  return static_cast<double>(count_[idx(k)]) / solves_;
}

double Breakdown::self_p50(std::initializer_list<Kind> ks) const {
  Histogram pooled;
  for (const Kind k : ks) pooled.merge(hist_[idx(k)]);
  return pooled.quantile(0.5);
}

double Breakdown::share(std::initializer_list<Kind> ks) const {
  if (wall_sum_ <= 0) return 0.0;
  std::int64_t sum = 0;
  for (const Kind k : ks) sum += self_sum_[idx(k)];
  return static_cast<double>(sum) / static_cast<double>(wall_sum_);
}

double Breakdown::busy_share() const {
  if (wall_sum_ <= 0) return 0.0;
  std::int64_t sum = 0;
  for (int k = 0; k < kKinds; ++k) {
    if (is_body(static_cast<Kind>(k))) sum += self_sum_[static_cast<std::size_t>(k)];
  }
  return static_cast<double>(sum) / static_cast<double>(wall_sum_);
}

double Breakdown::member_imbalance() const {
  if (imbalance_per_solve_.empty()) return 0.0;
  std::vector<double> v = imbalance_per_solve_;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid), v.end());
  return v[mid];
}

double Breakdown::grant_imbalance() const {
  std::uint64_t total = 0;
  std::uint64_t most = 0;
  for (const std::uint64_t t : tasks_per_member_) {
    total += t;
    most = std::max(most, t);
  }
  if (total == 0) return 0.0;
  return static_cast<double>(most) * np_ / static_cast<double>(total);
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const std::size_t n = spans.size();
  bool ok = std::fwrite(&n, sizeof n, 1, f) == 1;
  if (ok && n > 0) ok = std::fwrite(spans.data(), sizeof(Span), n, f) == n;
  return std::fclose(f) == 0 && ok;
}

bool read_spans(const std::string& path, std::vector<Span>* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  std::size_t n = 0;
  bool ok = std::fread(&n, sizeof n, 1, f) == 1 && n < (std::size_t{1} << 28);
  if (ok) {
    const std::size_t base = out->size();
    out->resize(base + n);
    ok = n == 0 || std::fread(out->data() + base, sizeof(Span), n, f) == n;
  }
  std::fclose(f);
  return ok;
}

}  // namespace perfbench
