// Execution tracing for Force programs.
//
// A lightweight per-member ring-buffer tracer: constructs record begin/end
// events (barrier episodes and sections, critical sections, DOALL
// participation and dispatches) with nanosecond timestamps, and programs
// may add their own spans; the collected timeline exports to
// the Chrome trace-event JSON format (load via chrome://tracing or
// https://ui.perfetto.dev) so the interleaving of a Force program can be
// inspected visually.
//
// A Force records through decorators that its environment puts around the
// construct engines when ForceConfig::trace is on (core/observe.cpp), each
// event into the ring of the member's driver index; with tracing off the
// engines are built undecorated, so the disabled case costs nothing.
// Buffers are fixed-capacity rings: a long run keeps the most recent
// events rather than growing unboundedly.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace force::util {

/// What a trace event describes. Kept small: the event payload is POD.
enum class TraceKind : std::uint8_t {
  kBarrier,       ///< one barrier episode (arrive -> release)
  kSection,       ///< a barrier section execution
  kCritical,      ///< a critical-section occupancy
  kLoopDispatch,  ///< one selfsched index grab (instant)
  kLoopRun,       ///< a whole DOALL participation
  kProduce,       ///< async produce (instant)
  kConsume,       ///< async consume (instant)
  kAskforGrant,   ///< one askfor grant (instant)
  kPhase          ///< user span (Tracer::record or Tracer::Span)
};

const char* trace_kind_name(TraceKind kind);

/// One event. `end_ns == begin_ns` marks an instant event.
struct TraceEvent {
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
  TraceKind kind = TraceKind::kPhase;
  std::int32_t proc = 0;
  std::int64_t arg = 0;  ///< kind-specific (loop index, site hash, ...)
};

/// Per-process fixed-capacity ring of events. Single-writer (its process);
/// drained after the force joins.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity);

  void record(const TraceEvent& e);
  [[nodiscard]] std::size_t capacity() const { return events_.size(); }
  /// Number of events recorded over the ring's lifetime (may exceed
  /// capacity; the oldest are overwritten).
  [[nodiscard]] std::uint64_t recorded() const { return recorded_; }
  /// Events in record order (oldest first), at most `capacity`.
  [[nodiscard]] std::vector<TraceEvent> drain() const;

 private:
  std::vector<TraceEvent> events_;
  std::uint64_t recorded_ = 0;
};

/// The tracer: one ring per process. Thread-safe under the Force model
/// (process p only writes ring p).
class Tracer {
 public:
  Tracer(int nproc, std::size_t events_per_process = 64 * 1024);

  /// Records a completed span or instant event for process `proc`.
  void record(int proc, TraceKind kind, std::int64_t begin_ns,
              std::int64_t end_ns, std::int64_t arg = 0);

  /// Convenience: an instant event stamped now.
  void instant(int proc, TraceKind kind, std::int64_t arg = 0);

  /// RAII span: records kind from construction to destruction.
  class Span {
   public:
    Span(Tracer* tracer, int proc, TraceKind kind, std::int64_t arg = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int proc_;
    TraceKind kind_;
    std::int64_t arg_;
    std::int64_t begin_ns_;
  };

  [[nodiscard]] int nproc() const { return static_cast<int>(rings_.size()); }
  [[nodiscard]] std::uint64_t total_recorded() const;
  [[nodiscard]] std::vector<TraceEvent> all_events() const;

  /// Chrome trace-event JSON ("traceEvents" array; X events for spans,
  /// i events for instants; one tid per Force process).
  [[nodiscard]] std::string to_chrome_json() const;
  /// Writes the JSON to `path`, creating parent directories as needed;
  /// returns false (with the errno reported on stderr) on I/O failure.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<std::unique_ptr<TraceRing>> rings_;
};

}  // namespace force::util
