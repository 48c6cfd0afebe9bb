// Shared helpers for the experiment harnesses (DESIGN.md §5).
//
// Every harness prints:
//   * wall-clock measurements on the host (informative but noisy on a
//     shared 1-CPU container), and
//   * deterministic simulated-machine numbers: instrumented counters
//     multiplied through each machine's CostModel - these carry the
//     paper-shape conclusions and are reproducible.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "machdep/wait.hpp"
#include "theforce.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace force::bench {

/// The six paper machines + native, canonical order.
inline std::vector<std::string> all_machines() {
  return machdep::machine_names();
}

/// Runs `fn(proc)` on `np` plain threads (for machdep-level experiments
/// that bypass the driver).
inline void on_team(int np, const std::function<void(int)>& fn) {
  std::vector<std::jthread> team;
  for (int t = 0; t < np; ++t) team.emplace_back([&fn, t] { fn(t); });
}

/// Formats nanoseconds for table cells.
inline std::string ns_cell(double ns) {
  return util::format_duration_ns(ns);
}

/// Prints a section header so bench output reads like the paper's tables.
inline void print_header(const std::string& experiment,
                         const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", experiment.c_str(), claim.c_str());
}

/// Wall-clocks one callable.
inline double time_ns(const std::function<void()>& fn) {
  util::WallTimer t;
  t.start();
  fn();
  t.stop();
  return static_cast<double>(t.elapsed_ns());
}

// --- machine-readable artifacts (BENCH_*.json) -----------------------------
//
// The benches additionally emit a small JSON file so the measured
// throughput per machine model is recorded in the repo, not just scrolled
// past on a terminal. The format is one object with a "results" array of
// flat records; only strings and numbers appear, so a hand-rolled emitter
// is enough (no JSON library in the container).
//
// Every artifact goes through render_bench_json() below, which stamps the
// document with kBenchSchemaVersion. tools/bench_gate.py - the single CI
// gate over these artifacts - refuses to compare documents whose
// schema_version differs, so a stale committed baseline fails loudly
// instead of silently comparing mismatched metrics. Bump the version
// whenever the meaning of a recorded metric changes, and refresh every
// committed BENCH_*.json in the same commit (docs/VALIDATION.md, baseline
// refresh policy).

/// One "key": value JSON field; strings must already be json_str()-quoted.
inline std::string json_field(const std::string& key,
                              const std::string& value) {
  return "\"" + key + "\": " + value;
}

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

inline std::string json_num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

/// Like json_num(double) but with significant digits (%g): for ratio
/// metrics that can sit far below 1, where fixed %.3f would quantize the
/// gate's comparison into its own noise floor.
inline std::string json_num_sig(double v, int digits = 6) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

inline std::string json_num(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

inline std::string json_object(const std::vector<std::string>& fields,
                               const std::string& indent = "") {
  std::string out = indent + "{";
  for (std::size_t i = 0; i < fields.size(); ++i) {
    out += (i == 0 ? "" : ", ") + fields[i];
  }
  return out + "}";
}

/// Version of the BENCH_*.json contract shared by every writer and by
/// tools/bench_gate.py.
inline constexpr std::uint64_t kBenchSchemaVersion = 1;

/// Renders the canonical BENCH_*.json document:
///
///   {
///     "schema_version": <kBenchSchemaVersion>,
///     "bench": "<name>",
///     <meta fields...>,
///     "results": [ {flat row}, ... ]
///   }
///
/// `meta_fields` and each row's fields are pre-rendered with json_field().
/// Rows must be flat (strings and numbers only): tools/bench_gate.py keys
/// rows by their string-valued fields and compares the numeric ones.
inline std::string render_bench_json(
    const std::string& bench, const std::vector<std::string>& meta_fields,
    const std::vector<std::vector<std::string>>& rows) {
  std::string json =
      "{\n  " + json_field("schema_version", json_num(kBenchSchemaVersion));
  json += ",\n  " + json_field("bench", json_str(bench));
  for (const auto& field : meta_fields) json += ",\n  " + field;
  json += ",\n  \"results\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    json += json_object(rows[i], "    ");
    json += (i + 1 < rows.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  return json;
}

/// The CPUs this process may run on (machdep::Waiter::usable_cpus): its
/// affinity mask on Linux, so a run under `taskset -c 0` records 1
/// (hardware_concurrency() counts every online CPU whatever the pin).
inline std::uint64_t host_cpu_count() {
  return force::machdep::Waiter::usable_cpus();
}

/// Host provenance fields recorded in every artifact that carries
/// host-relative ratios: absolute wall numbers are only comparable against
/// a baseline from a similar host, and the gate's ratio metrics are
/// measured back to back on one host precisely so this does not matter.
/// tools/bench_gate.py refuses to compare artifacts whose host_cpus
/// differ.
inline std::vector<std::string> host_meta_fields() {
  std::vector<std::string> fields;
  fields.push_back(json_field("host_cpus", json_num(host_cpu_count())));
#if defined(__linux__)
  fields.push_back(json_field("host_os", json_str("linux")));
#elif defined(__APPLE__)
  fields.push_back(json_field("host_os", json_str("darwin")));
#else
  fields.push_back(json_field("host_os", json_str("other")));
#endif
  return fields;
}

inline bool write_text_file(const std::string& path,
                            const std::string& text) {
  // Artifact paths may point into a directory that does not exist yet
  // (e.g. a CI upload dir); create it, and say why a write failed.
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "write_text_file: cannot open %s: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  const std::size_t written = std::fwrite(text.data(), 1, text.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != text.size() || !closed) {
    std::fprintf(stderr, "write_text_file: short write to %s: %s\n",
                 path.c_str(), std::strerror(errno));
    return false;
  }
  return true;
}

}  // namespace force::bench
