// Benchmark-side spans for the traced run.
//
// The benchmark measures the Force's layers only from outside: every span
// is opened and closed by the benchmark's own wrappers (probe.hpp) around a
// call into a public Ctx function, or around the application callback the
// construct runs. Each member owns one Recorder per traced solve; the
// member's whole program closure is the root span (Kind::kSolve), construct
// spans are its children and body spans (application work) their children.
// A span's self time is its duration minus the time its direct children
// cover, computed online as spans close.
//
// Spans stay in memory until the solve ends. forcebench then folds them
// into a Breakdown (per-kind counts, self-time sums and a log-linear
// histogram for medians) and clears the buffers, so a long traced run
// keeps a bounded footprint. Under the cluster backend each member is a
// separate process: it writes its buffer to a file when its closure ends
// and forcebench reads the files back (write_spans / read_spans), so no
// span ever travels through the Force's own shared arena.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace perfbench {

enum class Kind : std::uint8_t {
  kSolve,       ///< root: one member's program closure
  // Constructs (core layer).
  kBarrier,     ///< Ctx::barrier, with or without a section
  kReduce,      ///< Ctx::reduce_into
  kSelfsched,   ///< Ctx::selfsched_do episode
  kPresched,    ///< Ctx::presched_do episode
  kSiteLookup,  ///< a pure site accessor (critical_section/askfor/async_array)
  kAskforWork,  ///< Askfor::work loop: asking, stealing and termination
  kAskforPut,   ///< Askfor::put
  kProduce,     ///< Async::produce
  kConsume,     ///< Async::consume
  kCritical,    ///< Ctx::critical
  // Bodies (application work run by or between constructs).
  kSection,       ///< barrier section
  kDoallBody,     ///< one DOALL iteration
  kAskforTask,    ///< one granted Askfor task
  kCriticalBody,  ///< critical section body
  kStage,         ///< pipeline stage compute between handoffs
  kCount
};
inline constexpr int kKinds = static_cast<int>(Kind::kCount);

[[nodiscard]] bool is_body(Kind k);

/// One closed span. Plain data, so a cluster member can write its buffer
/// as raw bytes and forcebench (the same binary) read it back.
struct Span {
  std::int64_t t0 = 0;       ///< steady-clock ns (system-wide clock)
  std::int64_t t1 = 0;
  std::int64_t self_ns = 0;  ///< duration minus direct children
  Kind kind = Kind::kSolve;
  Kind parent = Kind::kSolve;  ///< kind of the enclosing span
  std::uint8_t member = 0;     ///< 0-based member index
};

/// One member's span buffer. Single writer (the member), read by the
/// benchmark only after the force has joined.
class Recorder {
 public:
  Recorder() { spans_.reserve(1u << 14); }

  void open(Kind kind);
  void close();

  void set_member(int member0) { member_ = static_cast<std::uint8_t>(member0); }
  [[nodiscard]] std::vector<Span>& spans() { return spans_; }

 private:
  struct Open {
    std::int64_t t0;
    std::int64_t child_ns;
    Kind kind;
  };
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint8_t member_ = 0;
};

/// RAII span; a no-op when the recorder is null (the untraced path pays
/// one pointer test per wrapped call).
class Scope {
 public:
  Scope(Recorder* rec, Kind kind) : rec_(rec) {
    if (rec_ != nullptr) rec_->open(kind);
  }
  ~Scope() {
    if (rec_ != nullptr) rec_->close();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Recorder* rec_;
};

/// Log-linear histogram of non-negative ns values: exact below 64, then 64
/// sub-buckets per power of two (relative error under 1/64).
class Histogram {
 public:
  void add(std::int64_t v);
  /// The rank-q value (0 <= q <= 1), interpolated within its bucket as if
  /// the bucket's values were evenly spread; 0 when empty.
  [[nodiscard]] double quantile(double q) const;
  void merge(const Histogram& other);

 private:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = kSub + 58 * kSub;
  std::vector<std::uint64_t> counts_ = std::vector<std::uint64_t>(kBuckets, 0);
  std::uint64_t n_ = 0;
};

/// Per-solve span counts used by the traced-run self-check.
struct SolveCounts {
  std::array<std::uint64_t, kKinds> by_kind{};
  std::uint64_t selfsched_iterations = 0;  ///< DOALL bodies under selfsched
};

/// Everything the per-layer metrics need, folded over traced solves.
class Breakdown {
 public:
  explicit Breakdown(int np) : np_(np) {}

  /// Folds one traced solve's spans (all members) and returns its counts.
  SolveCounts add_solve(const std::vector<Span>& spans);

  /// Spans of `k` per solve.
  [[nodiscard]] double per_solve(Kind k) const;
  /// Median self time of the spans of `ks`, pooled (ns).
  [[nodiscard]] double self_p50(std::initializer_list<Kind> ks) const;
  /// Summed self time of `ks` over summed member wall time.
  [[nodiscard]] double share(std::initializer_list<Kind> ks) const;
  /// Summed self time of every body kind over summed member wall time.
  [[nodiscard]] double busy_share() const;
  /// Median over solves of max/mean member busy time (1 = balanced).
  [[nodiscard]] double member_imbalance() const;
  /// max/mean member Askfor task count over all solves; 0 without tasks.
  [[nodiscard]] double grant_imbalance() const;

 private:
  static std::size_t idx(Kind k) { return static_cast<std::size_t>(k); }

  int np_;
  int solves_ = 0;
  std::array<std::uint64_t, kKinds> count_{};
  std::array<std::int64_t, kKinds> self_sum_{};
  std::array<Histogram, kKinds> hist_{};
  std::int64_t wall_sum_ = 0;
  std::vector<double> imbalance_per_solve_;
  std::vector<std::uint64_t> tasks_per_member_ =
      std::vector<std::uint64_t>(static_cast<std::size_t>(np_), 0);
};

/// Writes `spans` to `path` (raw records); false on I/O error.
bool write_spans(const std::string& path, const std::vector<Span>& spans);
/// Appends the records in `path` to `out`; false when the file is missing
/// or truncated.
bool read_spans(const std::string& path, std::vector<Span>* out);

}  // namespace perfbench
