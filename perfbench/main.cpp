// forcebench: the repo benchmark's program (see perfbench/README.md).
//
//   forcebench --workload cmfd|tree|pipeline|cluster --seed N --seconds S
//              --trace 0|1 [--short N] [--corrupt-every K] [--scratch DIR]
//
// One process, closed loop: each solve is one Force::run of a whole app on
// a force created during set-up. Inputs are reset before the timer starts,
// and every solve is checked bit-identically against the sequential oracle
// after it stops; only verified solves are timed into the metrics. The
// oracle is timed interleaved with the solves (about a fifth of the loop),
// so host drift cancels in speedup_vs_seq. A solve that mismatches or throws counts into fail_ratio
// and the command exits 1 after printing every metric.
//
// --trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
// traced solves and prints the per-layer metrics (spans from probe.hpp, the
// runtime's own counters, the empty-force entry time and the raw host
// probes), after checking every traced solve's span counts against the
// workload's analytic counts. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --short N runs N solves instead of a timed run (the benchmark's tests);
// --corrupt-every K damages every K-th result after its solve, through the
// benchmark's own hook, to prove the failure accounting.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps.hpp"
#include "host.hpp"
#include "spans.hpp"
#include "util/timing.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kSetupRounds = 9;

/// Analytic span counts of one solve, summed over members.
struct Expected {
  std::uint64_t barriers = 0;
  std::uint64_t tasks = 0;
  std::uint64_t produces = 0;  ///< and as many consumes
};

/// One workload's application: inputs, oracle, shared state and the member
/// program. Inputs are generated in the constructor from the seed.
class App {
 public:
  virtual ~App() = default;
  /// Places the shared state in the force's arena.
  virtual void bind(force::Force& f) = 0;
  /// Computes the oracle's reference output.
  virtual void reference() = 0;
  /// Runs the oracle again (the timed copy); true when it reproduces the
  /// reference.
  virtual bool oracle_once() = 0;
  /// Resets the shared state before a solve.
  virtual void reset() = 0;
  virtual void program(Probe& p) = 0;
  /// True when the shared outputs equal the reference bit for bit.
  [[nodiscard]] virtual bool verify() const = 0;
  /// The test hook: damages the shared outputs.
  virtual void corrupt() = 0;
  [[nodiscard]] virtual Expected expected(int np) const = 0;
};

class CmfdApp final : public App {
 public:
  CmfdApp(int n, int iters, std::uint64_t seed)
      : in_(n, iters, mix64(seed ^ 0xc3fdu)) {}
  void bind(force::Force& f) override { s_ = &f.shared<CmfdState>("cmfd_state"); }
  void reference() override { cmfd_oracle(*ref_, in_); }
  bool oracle_once() override {
    cmfd_oracle(*scratch_, in_);
    return same(*scratch_);
  }
  void reset() override { cmfd_init(*s_, in_); }
  void program(Probe& p) override { cmfd_parallel(p, *s_, in_); }
  [[nodiscard]] bool verify() const override { return same(*s_); }
  void corrupt() override { s_->flux[kCmfdMax + 1] += 1.0; }
  [[nodiscard]] Expected expected(int np) const override {
    return {2ull * static_cast<std::uint64_t>(in_.iters * np), 0, 0};
  }

 private:
  [[nodiscard]] bool same(const CmfdState& s) const {
    return std::memcmp(s.flux.data(), ref_->flux.data(), sizeof s.flux) == 0 &&
           s.iters == ref_->iters &&
           std::memcmp(&s.keff, &ref_->keff, sizeof s.keff) == 0 &&
           std::memcmp(&s.leakage, &ref_->leakage, sizeof s.leakage) == 0;
  }
  CmfdInput in_;
  std::unique_ptr<CmfdState> ref_ = std::make_unique<CmfdState>();
  std::unique_ptr<CmfdState> scratch_ = std::make_unique<CmfdState>();
  CmfdState* s_ = nullptr;
};

class TreeApp final : public App {
 public:
  TreeApp(int full_depth, int tail_depth, int rounds, std::uint64_t seed)
      : in_{full_depth, full_depth + tail_depth, rounds, mix64(seed ^ 0x7eeu)} {}
  void bind(force::Force& f) override { s_ = &f.shared<TreeShared>("tree_totals"); }
  void reference() override { ref_ = tree_oracle(in_); }
  bool oracle_once() override {
    const TreeShared r = tree_oracle(in_);
    return r.sum == ref_.sum && r.nodes == ref_.nodes;
  }
  void reset() override { *s_ = TreeShared{0, 0}; }
  void program(Probe& p) override { tree_parallel(p, *s_, in_); }
  [[nodiscard]] bool verify() const override {
    return s_->sum == ref_.sum && s_->nodes == ref_.nodes;
  }
  void corrupt() override { s_->sum ^= 1u; }
  [[nodiscard]] Expected expected(int np) const override {
    return {2ull * static_cast<std::uint64_t>(np),
            static_cast<std::uint64_t>(ref_.nodes), 0};
  }

 private:
  TreeInput in_;
  TreeShared ref_{0, 0};
  TreeShared* s_ = nullptr;
};

class PipeApp final : public App {
 public:
  PipeApp(std::int64_t items, int rounds, int stages, std::uint64_t seed)
      : in_{items, rounds, mix64(seed ^ 0x919eu)}, stages_(stages) {}
  void bind(force::Force& f) override { s_ = &f.shared<PipeShared>("pipe_sink"); }
  void reference() override { ref_ = pipe_oracle(in_, stages_); }
  bool oracle_once() override { return pipe_oracle(in_, stages_) == ref_; }
  void reset() override { *s_ = PipeShared{0, 0}; }
  void program(Probe& p) override { pipe_parallel(p, *s_, in_); }
  [[nodiscard]] bool verify() const override {
    return s_->sink == ref_ && s_->delivered == in_.items;
  }
  void corrupt() override { s_->sink ^= 1u; }
  [[nodiscard]] Expected expected(int np) const override {
    return {static_cast<std::uint64_t>(np), 0,
            static_cast<std::uint64_t>(in_.items * (np - 1))};
  }

 private:
  PipeInput in_;
  int stages_;
  std::uint64_t ref_ = 0;
  PipeShared* s_ = nullptr;
};

/// Several apps run back to back inside one force (the cluster workload).
class PhasedApp final : public App {
 public:
  explicit PhasedApp(std::vector<std::unique_ptr<App>> phases)
      : phases_(std::move(phases)) {}
  void bind(force::Force& f) override {
    for (auto& a : phases_) a->bind(f);
  }
  void reference() override {
    for (auto& a : phases_) a->reference();
  }
  bool oracle_once() override {
    bool ok = true;
    for (auto& a : phases_) ok = a->oracle_once() && ok;
    return ok;
  }
  void reset() override {
    for (auto& a : phases_) a->reset();
  }
  void program(Probe& p) override {
    for (auto& a : phases_) a->program(p);
  }
  [[nodiscard]] bool verify() const override {
    bool ok = true;
    for (const auto& a : phases_) ok = a->verify() && ok;
    return ok;
  }
  void corrupt() override { phases_.back()->corrupt(); }
  [[nodiscard]] Expected expected(int np) const override {
    Expected e;
    for (const auto& a : phases_) {
      const Expected x = a->expected(np);
      e.barriers += x.barriers;
      e.tasks += x.tasks;
      e.produces += x.produces;
    }
    return e;
  }

 private:
  std::vector<std::unique_ptr<App>> phases_;
};

struct Workload {
  const char* name;
  const char* backend;
  int np;
  int processes;  ///< OS processes/threads doing work (np, + coordinator)
  bool cluster;
  /// solve_ms_tail percentile, fixed so that it cannot flip between runs:
  /// the highest that keeps ten samples beyond it at the benchmark's run
  /// length (BENCHMARK.json run_seconds) with room for a slower host, and
  /// below the knee of the pipeline's bimodal handoff times.
  double tail_pct;
  std::function<std::unique_ptr<App>(std::uint64_t seed)> make;
};

std::vector<Workload> workloads() {
  std::vector<Workload> w;
  w.push_back({"cmfd", "thread/pooled", 4, 4, false, 95.0, [](std::uint64_t seed) {
                 return std::unique_ptr<App>(new CmfdApp(48, 600, seed));
               }});
  w.push_back({"tree", "thread/pooled", 4, 4, false, 95.0, [](std::uint64_t seed) {
                 return std::unique_ptr<App>(new TreeApp(13, 6, 48, seed));
               }});
  w.push_back({"pipeline", "thread/pooled", 4, 4, false, 90.0, [](std::uint64_t seed) {
                 return std::unique_ptr<App>(new PipeApp(12000, 200, 4, seed));
               }});
  w.push_back({"cluster", "cluster/unix respawn", 3, 4, true, 90.0,
               [](std::uint64_t seed) {
                 std::vector<std::unique_ptr<App>> phases;
                 phases.push_back(std::make_unique<CmfdApp>(16, 10, seed));
                 phases.push_back(std::make_unique<TreeApp>(6, 6, 48, seed));
                 phases.push_back(std::make_unique<PipeApp>(100, 200, 3, seed));
                 return std::unique_ptr<App>(new PhasedApp(std::move(phases)));
               }});
  return w;
}

force::ForceConfig config_for(const Workload& w) {
  force::ForceConfig cfg;
  cfg.nproc = w.np;
  if (w.cluster) {
    cfg.process_model = "cluster";
    cfg.cluster_transport = "unix";
  } else {
    cfg.team_pool = true;
  }
  return cfg;
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  int short_solves = 0;
  int corrupt_every = 0;
  std::string scratch = ".bench_build/perfbench-scratch";
};

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    std::string val;
    if (key.rfind("--", 0) != 0) return false;
    const auto eq = key.find('=');
    if (eq != std::string::npos) {
      val = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (i + 1 < argc) {
      val = argv[++i];
    } else {
      return false;
    }
    try {
      if (key == "--workload") {
        o->workload = val;
      } else if (key == "--seed") {
        o->seed = std::stoull(val);
      } else if (key == "--seconds") {
        o->seconds = std::stod(val);
      } else if (key == "--trace") {
        o->trace = std::stoi(val) != 0;
      } else if (key == "--short") {
        o->short_solves = std::stoi(val);
      } else if (key == "--corrupt-every") {
        o->corrupt_every = std::stoi(val);
      } else if (key == "--scratch") {
        o->scratch = val;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile `pct`, stepped down a fixed ladder when fewer
/// than ten samples lie beyond it (a run cut short or a slow host).
struct Tail {
  double pct = 100.0;
  double value = 0.0;
  std::size_t n = 0;
  std::size_t beyond = 0;
};

Tail tail_of(std::vector<double> v, double pct) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  for (const double p : {99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0}) {
    if (p > pct) continue;
    const auto rank = static_cast<std::size_t>(
        std::ceil(p / 100.0 * static_cast<double>(v.size())));
    const std::size_t idx = rank == 0 ? 0 : rank - 1;
    const std::size_t beyond = v.size() - 1 - idx;
    if (beyond >= 10) {
      t.pct = p;
      t.value = v[idx];
      t.beyond = beyond;
      return t;
    }
  }
  t.value = v.back();
  return t;
}

/// Times (ms) of verified solves or oracle runs. A run during which the
/// hypervisor took more than 5% of the VM's CPU time away measures the
/// neighbours, not the Force, so the metrics use only the others, unless
/// fewer than 20 escaped (a host too busy to filter).
struct Times {
  std::vector<double> all;
  std::vector<double> clean;

  void add(double ms, double stolen_cpu_s, int nproc) {
    all.push_back(ms);
    if (stolen_cpu_s <= 0.05 * ms / 1e3 * nproc) clean.push_back(ms);
  }
  [[nodiscard]] const std::vector<double>& timed() const {
    return clean.size() >= 20 || clean.size() == all.size() ? clean : all;
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string json = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char num[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    json += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + num +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("metric %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

struct StatsSnapshot {
  std::uint64_t barriers, doall_iterations, grants, produces, consumes;
};

StatsSnapshot stats_of(force::Force& f) {
  auto& s = f.env().stats();
  return {s.barrier_episodes.load(), s.doall_iterations.load(),
          s.askfor_grants.load(), s.produces.load(), s.consumes.load()};
}

/// Per-layer state of a traced run.
class Tracing {
 public:
  Tracing(const Workload& w, const std::string& scratch)
      : np_(w.np), to_files_(w.cluster), breakdown_(w.np) {
    for (int m = 0; m < np_; ++m) recorders_.push_back(std::make_unique<Recorder>());
    if (to_files_) {
      dir_ = scratch + "/trace-" + std::to_string(getpid());
      std::filesystem::create_directories(dir_);
    }
  }
  ~Tracing() {
    if (!dir_.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir_, ec);
    }
  }
  Tracing(const Tracing&) = delete;
  Tracing& operator=(const Tracing&) = delete;

  /// The traced member program: root span around the app, and under the
  /// cluster backend the member's buffer written to a file on the way out.
  std::function<void(force::Ctx&)> program(App& app) {
    return [this, &app](force::Ctx& ctx) {
      Recorder& rec = *recorders_[static_cast<std::size_t>(ctx.me0())];
      rec.set_member(ctx.me0());
      {
        Scope root(&rec, Kind::kSolve);
        Probe p(ctx, &rec);
        app.program(p);
      }
      if (to_files_) {
        FORCE_CHECK(write_spans(file_for(ctx.me0()), rec.spans()),
                    "perfbench: cannot write the member span file");
      }
    };
  }

  /// Moves the finished solve's spans out of the member buffers (or the
  /// member files under cluster) into `all`, leaving them empty for the
  /// next solve; false when a member's spans are missing.
  bool take(std::vector<Span>* all) {
    bool ok = true;
    for (int m = 0; m < np_; ++m) {
      std::vector<Span>& mine = recorders_[static_cast<std::size_t>(m)]->spans();
      if (to_files_) {
        std::error_code ec;
        ok = read_spans(file_for(m), all) && ok;
        std::filesystem::remove(file_for(m), ec);
      } else {
        all->insert(all->end(), mine.begin(), mine.end());
      }
      mine.clear();
    }
    return ok;
  }

  [[nodiscard]] Breakdown& breakdown() { return breakdown_; }

 private:
  [[nodiscard]] std::string file_for(int m) const {
    return dir_ + "/m" + std::to_string(m) + ".spans";
  }

  int np_;
  bool to_files_;
  std::string dir_;
  std::vector<std::unique_ptr<Recorder>> recorders_;
  Breakdown breakdown_;
};

int run(const Options& opt, std::int64_t t_start) {
  const std::vector<Workload> all = workloads();
  const auto it = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
    return opt.workload == w.name;
  });
  if (it == all.end()) {
    std::fprintf(stderr, "forcebench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  const Workload& w = *it;
  const HostStamp host = host_stamp();
  std::printf("host nproc=%d cpu=\"%s\"\n", host.nproc, host.cpu_model.c_str());
  std::printf("workload %s backend=%s np=%d processes=%d seed=%llu trace=%d\n",
              w.name, w.backend, w.np, w.processes,
              static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
  if (w.processes > host.nproc) {
    std::fprintf(stderr,
                 "forcebench: refusing to run %s: its team needs %d CPUs and "
                 "this host has %d - that would measure the scheduler\n",
                 w.name, w.processes, host.nproc);
    return 2;
  }
  const force::ForceConfig cfg = config_for(w);

  // --- set-up, repeated: force creation, inputs, oracle, first solve -------
  std::unique_ptr<App> app;
  std::unique_ptr<force::Force> f;
  std::vector<double> setup_s;
  const auto untraced = [&app](force::Ctx& ctx) {
    Probe p(ctx, nullptr);
    app->program(p);
  };
  for (int round = 0; round < kSetupRounds; ++round) {
    const std::int64_t t0 = round == 0 ? t_start : force::util::now_ns();
    app.reset();  // holds pointers into the old force's arena
    f.reset();
    f = std::make_unique<force::Force>(cfg);
    app = w.make(opt.seed);
    app->bind(*f);
    app->reference();
    app->reset();
    f->run(untraced);
    if (!app->verify()) {
      std::fprintf(stderr, "forcebench: %s set-up solve disagrees with the oracle\n",
                   w.name);
      return 1;
    }
    setup_s.push_back(static_cast<double>(force::util::now_ns() - t0) / 1e9);
  }

  // --- the timed closed loop ------------------------------------------------
  std::unique_ptr<Tracing> tracing;
  std::function<void(force::Ctx&)> traced;
  if (opt.trace) {
    tracing = std::make_unique<Tracing>(w, opt.scratch);
    traced = tracing->program(*app);
  }
  const Expected expect = app->expected(w.np);
  Times solves, traced_solves_ms, oracles;
  double oracle_total_ms = 0.0, solve_total_ms = 0.0;
  std::uint64_t attempted = 0, failed = 0, traced_solves = 0, check_failures = 0;
  force::machdep::LockCountersSnapshot locks{};
  bool stats_match = true;
  const double steal0 = steal_cpu_seconds();
  const std::int64_t loop_start = force::util::now_ns();
  const std::int64_t deadline =
      loop_start + static_cast<std::int64_t>(opt.seconds * 1e9);
  for (std::uint64_t i = 0;; ++i) {
    if (opt.short_solves > 0 ? i >= static_cast<std::uint64_t>(opt.short_solves) *
                                        (opt.trace ? 2u : 1u)
                             : force::util::now_ns() >= deadline) {
      break;
    }
    const bool trace_turn = opt.trace && i % 2 == 1;
    // The oracle runs interleaved with the solves, as often as keeps it near
    // a fifth of the loop: before every solve when it is cheap, before every
    // few when it costs more than a solve (pipeline).
    if (!opt.trace && oracle_total_ms <= 0.25 * solve_total_ms) {
      const double steal_before = steal_cpu_seconds();
      const std::int64_t t0 = force::util::now_ns();
      const bool same = app->oracle_once();
      const double ms = static_cast<double>(force::util::now_ns() - t0) / 1e6;
      oracles.add(ms, steal_cpu_seconds() - steal_before, host.nproc);
      oracle_total_ms += ms;
      if (!same) {
        std::fprintf(stderr, "forcebench: the oracle is not deterministic\n");
        return 1;
      }
    }
    app->reset();
    const auto locks0 = force::machdep::snapshot(f->env().machine().counters());
    const StatsSnapshot stats0 = stats_of(*f);
    std::vector<Span> spans;
    attempted += 1;
    const double steal_before = steal_cpu_seconds();
    const std::int64_t t0 = force::util::now_ns();
    try {
      if (trace_turn) {
        f->run(traced);
      } else {
        f->run(untraced);
      }
    } catch (const std::exception& e) {
      failed += 1;
      std::fprintf(stderr, "forcebench: solve %llu threw: %s\n",
                   static_cast<unsigned long long>(attempted), e.what());
      if (trace_turn) tracing->take(&spans);  // discarded
      continue;
    }
    const double ms = static_cast<double>(force::util::now_ns() - t0) / 1e6;
    const double stolen = steal_cpu_seconds() - steal_before;
    solve_total_ms += ms;
    if (opt.corrupt_every > 0 && attempted % static_cast<std::uint64_t>(opt.corrupt_every) == 0) {
      app->corrupt();
    }
    if (!app->verify()) {
      failed += 1;
      std::fprintf(stderr, "forcebench: solve %llu disagrees with the oracle\n",
                   static_cast<unsigned long long>(attempted));
      if (trace_turn) tracing->take(&spans);  // discarded
      continue;
    }
    if (!trace_turn) {
      solves.add(ms, stolen, host.nproc);
      continue;
    }
    traced_solves_ms.add(ms, stolen, host.nproc);
    traced_solves += 1;
    bool ok = tracing->take(&spans);
    const SolveCounts c = tracing->breakdown().add_solve(spans);
    const auto count = [&c](Kind k) { return c.by_kind[static_cast<std::size_t>(k)]; };
    ok = ok && count(Kind::kBarrier) == expect.barriers &&
         count(Kind::kAskforTask) == expect.tasks &&
         count(Kind::kProduce) == expect.produces &&
         count(Kind::kConsume) == expect.produces;
    if (!w.cluster) {
      const StatsSnapshot s1 = stats_of(*f);
      const StatsSnapshot d{s1.barriers - stats0.barriers,
                            s1.doall_iterations - stats0.doall_iterations,
                            s1.grants - stats0.grants, s1.produces - stats0.produces,
                            s1.consumes - stats0.consumes};
      const bool m = d.barriers * static_cast<std::uint64_t>(w.np) == count(Kind::kBarrier) &&
                     d.doall_iterations == c.selfsched_iterations &&
                     d.grants == count(Kind::kAskforTask) &&
                     d.produces == count(Kind::kProduce) &&
                     d.consumes == count(Kind::kConsume);
      stats_match = stats_match && m;
      ok = ok && m;
      const auto dl = force::machdep::snapshot(f->env().machine().counters()) - locks0;
      locks.acquires += dl.acquires;
      locks.contended_acquires += dl.contended_acquires;
      locks.spin_iterations += dl.spin_iterations;
      locks.blocking_waits += dl.blocking_waits;
    }
    if (!ok) {
      check_failures += 1;
      std::fprintf(stderr,
                   "forcebench: traced solve %llu span counts disagree: barrier %llu "
                   "(expect %llu), askfor tasks %llu (expect %llu), produce %llu / "
                   "consume %llu (expect %llu)\n",
                   static_cast<unsigned long long>(attempted),
                   static_cast<unsigned long long>(count(Kind::kBarrier)),
                   static_cast<unsigned long long>(expect.barriers),
                   static_cast<unsigned long long>(count(Kind::kAskforTask)),
                   static_cast<unsigned long long>(expect.tasks),
                   static_cast<unsigned long long>(count(Kind::kProduce)),
                   static_cast<unsigned long long>(count(Kind::kConsume)),
                   static_cast<unsigned long long>(expect.produces));
    }
  }

  // Share of the host's CPU time the hypervisor took away during the loop:
  // a noisy neighbour shows here rather than as an unexplained spread.
  const double loop_s = static_cast<double>(force::util::now_ns() - loop_start) / 1e9;
  std::printf("host steal_share=%.4f\n",
              (steal_cpu_seconds() - steal0) / (loop_s * host.nproc));
  const bool correct = failed == 0 && check_failures == 0;
  std::printf("solves attempted=%llu failed=%llu fail_ratio=%.6f\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);
  std::printf("timed solves=%zu of %zu verified (the rest lost CPU to the "
              "hypervisor)%s\n",
              solves.timed().size() + traced_solves_ms.timed().size(),
              solves.all.size() + traced_solves_ms.all.size(),
              solves.timed().size() == solves.all.size() ? "" : " - steal filter on");
  const std::vector<double>& solve_ms = solves.timed();
  const std::vector<double>& traced_ms = traced_solves_ms.timed();
  const std::vector<double>& oracle_ms = oracles.timed();
  std::vector<Metric> metrics;
  if (!opt.trace) {
    const Tail tail = tail_of(solve_ms, w.tail_pct);
    const double p50 = median(solve_ms);
    std::printf("tail percentile=p%g samples=%zu beyond=%zu\n", tail.pct, tail.n,
                tail.beyond);
    metrics = {
        {"solve_ms_p50", p50, "ms"},
        {"solve_ms_tail", tail.value, "ms"},
        {"speedup_vs_seq", p50 > 0.0 ? median(oracle_ms) / p50 : 0.0, "x"},
        {"setup_s", median(setup_s), "s"},
        {"rss_mb", peak_rss_mb(), "MB"},
    };
    print_metrics(metrics);
    std::printf("metric %-36s %16.6f %s\n", "fail_ratio",
                attempted > 0 ? static_cast<double>(failed) / attempted : 0.0, "ratio");
  } else {
    // Force entry on this workload's team configuration: an empty program.
    std::vector<double> entry_ns;
    const int entries = w.cluster ? 20 : 200;
    for (int k = 0; k < entries; ++k) {
      const std::int64_t t0 = force::util::now_ns();
      f->run([](force::Ctx&) {});
      entry_ns.push_back(static_cast<double>(force::util::now_ns() - t0));
    }
    const Breakdown& b = tracing->breakdown();
    const double n = std::max<double>(1.0, static_cast<double>(traced_solves));
    const double acquires = static_cast<double>(locks.acquires);
    std::printf("selfcheck traced_solves=%llu span_mismatches=%llu stats=%s\n",
                static_cast<unsigned long long>(traced_solves),
                static_cast<unsigned long long>(check_failures),
                w.cluster ? "unavailable" : (stats_match ? "match" : "MISMATCH"));
    if (w.cluster) {
      std::printf("unavailable machdep.locks.* (cluster members count in their "
                  "own address spaces; reported as 0)\n");
    }
    metrics = {
        {"core.barrier.count", b.per_solve(Kind::kBarrier), "count"},
        {"core.barrier.ns_p50", b.self_p50({Kind::kBarrier}), "ns"},
        {"core.barrier.share", b.share({Kind::kBarrier}), "ratio"},
        {"core.reduce.count", b.per_solve(Kind::kReduce), "count"},
        {"core.reduce.ns_p50", b.self_p50({Kind::kReduce}), "ns"},
        {"core.reduce.share", b.share({Kind::kReduce}), "ratio"},
        {"core.doall.episodes",
         b.per_solve(Kind::kSelfsched) + b.per_solve(Kind::kPresched), "count"},
        {"core.doall.iters", b.per_solve(Kind::kDoallBody), "count"},
        {"core.doall.self_ns_p50", b.self_p50({Kind::kSelfsched, Kind::kPresched}), "ns"},
        {"core.doall.share", b.share({Kind::kSelfsched, Kind::kPresched}), "ratio"},
        {"core.site.lookup_ns_p50", b.self_p50({Kind::kSiteLookup}), "ns"},
        {"core.askfor.grants", b.per_solve(Kind::kAskforTask), "count"},
        {"core.askfor.put_ns_p50", b.self_p50({Kind::kAskforPut}), "ns"},
        {"core.askfor.idle_share", b.share({Kind::kAskforWork}), "ratio"},
        {"core.askfor.grant_imbalance", b.grant_imbalance(), "ratio"},
        {"member.imbalance", b.member_imbalance(), "ratio"},
        {"core.async.count", b.per_solve(Kind::kProduce), "count"},
        {"core.async.produce_ns_p50", b.self_p50({Kind::kProduce}), "ns"},
        {"core.async.consume_ns_p50", b.self_p50({Kind::kConsume}), "ns"},
        {"core.async.share", b.share({Kind::kProduce, Kind::kConsume}), "ratio"},
        {"machdep.locks.acquires_per_solve", acquires / n, "count"},
        {"machdep.locks.contended_ratio",
         acquires > 0 ? static_cast<double>(locks.contended_acquires) / acquires : 0.0,
         "ratio"},
        {"machdep.locks.spins_per_acquire",
         acquires > 0 ? static_cast<double>(locks.spin_iterations) / acquires : 0.0,
         "count"},
        {"machdep.locks.blocking_waits_per_solve",
         static_cast<double>(locks.blocking_waits) / n, "count"},
        {"core.critical.count", b.per_solve(Kind::kCritical), "count"},
        {"core.critical.ns_p50", b.self_p50({Kind::kCritical}), "ns"},
        {"machdep.team.entry_ns_p50", median(entry_ns), "ns"},
        {"member.busy_share", b.busy_share(), "ratio"},
        {"host.atomic_rmw_ns", probe_atomic_rmw_ns(w.np), "ns"},
        {"host.futex_handoff_ns", probe_futex_handoff_ns(), "ns"},
        {"host.socket_rtt_ns", probe_socket_rtt_ns(), "ns"},
        {"trace.overhead",
         median(solve_ms) > 0.0 ? median(traced_ms) / median(solve_ms) : 0.0, "ratio"},
    };
    print_metrics(metrics);
  }
  std::fflush(stdout);
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::int64_t t_start = force::util::now_ns();
  perfbench::Options opt;
  if (!perfbench::parse(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: forcebench --workload cmfd|tree|pipeline|cluster "
                 "[--seed N] [--seconds S] [--trace 0|1] [--short N] "
                 "[--corrupt-every K] [--scratch DIR]\n");
    return 2;
  }
  try {
    return perfbench::run(opt, t_start);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "forcebench: %s\n", e.what());
    return 1;
  }
}
