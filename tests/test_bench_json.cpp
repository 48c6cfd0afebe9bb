// Round-trips the bench_common.hpp JSON writer through tools/bench_gate.py:
// the C++ side renders a BENCH_*.json document, the Python side (the single
// CI gate over these artifacts) must accept it under --check, pass a
// self-gate, and *fail* on a synthetically regressed copy, a bumped
// schema_version, and a metric the baseline never recorded. This pins the
// writer and the gate to one contract so they cannot drift apart silently.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#if defined(__linux__)
#include <sched.h>
#endif

#include "bench_common.hpp"

#ifndef FORCE_BENCH_GATE_PY
#error "build must define FORCE_BENCH_GATE_PY (path to tools/bench_gate.py)"
#endif

namespace {

namespace fb = force::bench;
namespace fs = std::filesystem;

/// Runs a shell command, returning its exit status (-1 if it did not exit
/// normally). Output is silenced; the gate's diagnostics are for humans in
/// CI logs, the tests only assert on exit codes.
int run(const std::string& cmd) {
  const int status = std::system((cmd + " > /dev/null 2>&1").c_str());
  if (status == -1) return -1;
#if defined(_WIN32)
  return status;
#else
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#endif
}

bool have_python3() {
  return run("python3 --version") == 0;
}

std::string gate() {
  return std::string("python3 ") + FORCE_BENCH_GATE_PY;
}

/// A small two-row document exercising every field kind the real benches
/// emit: string identity fields, integer counters, and float ratios.
std::string sample_doc(double fast_rel, double slow_rel,
                       bool include_rel = true) {
  std::vector<std::vector<std::string>> rows;
  for (int i = 0; i < 2; ++i) {
    std::vector<std::string> row;
    row.push_back(fb::json_field(
        "workload", fb::json_str(i == 0 ? "fast" : "slow")));
    row.push_back(fb::json_field("model", fb::json_str("thread")));
    row.push_back(fb::json_field("items", fb::json_num(std::uint64_t(100))));
    if (include_rel) {
      row.push_back(fb::json_field(
          "rel_throughput", fb::json_num(i == 0 ? fast_rel : slow_rel)));
    }
    rows.push_back(row);
  }
  std::vector<std::string> meta = fb::host_meta_fields();
  meta.push_back(fb::json_field("np", fb::json_num(std::uint64_t(4))));
  return fb::render_bench_json("apps", meta, rows);
}

/// sample_doc() with its host_cpus field set to `cpus`, or removed when
/// `cpus` is negative.
std::string sample_doc_on(int cpus, double fast_rel, double slow_rel) {
  std::string doc = sample_doc(fast_rel, slow_rel);
  const std::string field = fb::json_field(
      "host_cpus", fb::json_num(std::uint64_t(fb::host_cpu_count())));
  const auto pos = doc.find(field + ",\n");
  EXPECT_NE(pos, std::string::npos);
  if (pos == std::string::npos) return doc;
  const std::string separator = ",\n  ";
  const std::string replacement =
      cpus < 0 ? std::string()
               : fb::json_field("host_cpus",
                                fb::json_num(std::uint64_t(cpus))) +
                     separator;
  doc.replace(pos, field.size() + separator.size(), replacement);
  return doc;
}

class BenchJsonGateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!have_python3()) GTEST_SKIP() << "python3 not on PATH";
    // Per-test directory: ctest runs these cases as parallel processes,
    // so a shared path would let one test overwrite another's fixtures.
    dir_ = fs::path(::testing::TempDir()) / "bench_json_gate" /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::create_directories(dir_);
  }

  std::string write(const std::string& name, const std::string& text) {
    const std::string path = (dir_ / name).string();
    EXPECT_TRUE(fb::write_text_file(path, text));
    return path;
  }

  fs::path dir_;
};

TEST(BenchJsonRender, DocumentCarriesSchemaVersionAndBenchName) {
  const std::string doc = sample_doc(2.0, 1.0);
  EXPECT_NE(doc.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(doc.find("\"bench\": \"apps\""), std::string::npos);
  EXPECT_NE(doc.find("\"results\": ["), std::string::npos);
  EXPECT_NE(doc.find("\"workload\": \"fast\""), std::string::npos);
  EXPECT_NE(doc.find("\"rel_throughput\": 2.000"), std::string::npos);
}

TEST(BenchJsonRender, HostCpusIsTheAffinityCount) {
  // A pinned run (taskset) must record the CPUs it could use, not the
  // host's online count, or its artifact names the wrong host class.
  std::uint64_t expected = std::thread::hardware_concurrency();
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof set, &set), 0);
  expected = static_cast<std::uint64_t>(CPU_COUNT(&set));
#endif
  EXPECT_EQ(fb::host_cpu_count(), expected);
  const std::string field =
      fb::json_field("host_cpus", fb::json_num(expected));
  EXPECT_NE(sample_doc(2.0, 1.0).find(field), std::string::npos);
}

TEST(BenchJsonRender, EscapesQuotesAndBackslashes) {
  EXPECT_EQ(fb::json_str("a\"b\\c"), "\"a\\\"b\\\\c\"");
}

TEST_F(BenchJsonGateTest, WriterOutputPassesSchemaCheck) {
  const std::string doc = write("ok.json", sample_doc(2.0, 1.0));
  EXPECT_EQ(run(gate() + " --check " + doc), 0);
}

TEST_F(BenchJsonGateTest, SelfGatePasses) {
  const std::string doc = write("base.json", sample_doc(2.0, 1.0));
  EXPECT_EQ(run(gate() + " --baseline " + doc + " --current " + doc +
                " --metric rel_throughput --max-regression 1.5"),
            0);
}

TEST_F(BenchJsonGateTest, SyntheticRegressionFailsGate) {
  const std::string base = write("base.json", sample_doc(2.0, 1.0));
  // "slow" drops 1.0 -> 0.4: a 2.5x regression, over the 1.5x budget.
  const std::string cur = write("cur.json", sample_doc(2.0, 0.4));
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + cur +
                " --metric rel_throughput --max-regression 1.5"),
            1);
  // Inside the budget it passes (1.0 -> 0.8 is 1.25x).
  const std::string ok = write("ok.json", sample_doc(2.0, 0.8));
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + ok +
                " --metric rel_throughput --max-regression 1.5"),
            0);
}

TEST_F(BenchJsonGateTest, LowerIsBetterDirectionFlips) {
  const std::string base = write("base.json", sample_doc(2.0, 1.0));
  const std::string worse = write("worse.json", sample_doc(2.0, 2.0));
  // As higher-is-better, 1.0 -> 2.0 is an improvement...
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + worse +
                " --metric rel_throughput --max-regression 1.5"),
            0);
  // ...as lower-is-better it is a 2x regression.
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + worse +
                " --metric rel_throughput:lower --max-regression 1.5"),
            1);
}

TEST_F(BenchJsonGateTest, SchemaVersionMismatchFailsLoudly) {
  std::string stale = sample_doc(2.0, 1.0);
  const std::string needle = "\"schema_version\": 1";
  const auto pos = stale.find(needle);
  ASSERT_NE(pos, std::string::npos);
  stale.replace(pos, needle.size(), "\"schema_version\": 0");
  const std::string base = write("stale.json", stale);
  const std::string cur = write("cur.json", sample_doc(2.0, 1.0));
  // Exit 2: contract error, not a measured regression.
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + cur +
                " --metric rel_throughput --max-regression 1.5"),
            2);
}

TEST_F(BenchJsonGateTest, HostCpusMismatchIsNeitherPassNorFail) {
  // A 1-CPU baseline against a 4-CPU run: exit 2 whatever the numbers,
  // even for a current run that would pass or fail the gate outright.
  const std::string base = write("base.json", sample_doc_on(1, 2.0, 1.0));
  for (const double slow : {1.0, 0.4}) {
    const std::string cur = write("cur.json", sample_doc_on(4, 2.0, slow));
    EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + cur +
                  " --metric rel_throughput --max-regression 1.5"),
              2)
        << slow;
  }
}

TEST_F(BenchJsonGateTest, EqualHostCpusGatesAsBefore) {
  const std::string base = write("base.json", sample_doc_on(4, 2.0, 1.0));
  const std::string ok = write("ok.json", sample_doc_on(4, 2.0, 0.8));
  const std::string bad = write("bad.json", sample_doc_on(4, 2.0, 0.4));
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + ok +
                " --metric rel_throughput --max-regression 1.5"),
            0);
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + bad +
                " --metric rel_throughput --max-regression 1.5"),
            1);
}

TEST_F(BenchJsonGateTest, ArtifactsWithoutHostCpusGateAsBefore) {
  // A record from before the field existed (or a bench that does not
  // write it) gates on its numbers alone, on either side.
  const std::string bare = write("bare.json", sample_doc_on(-1, 2.0, 1.0));
  const std::string ok = write("ok.json", sample_doc_on(4, 2.0, 0.8));
  const std::string bad = write("bad.json", sample_doc_on(-1, 2.0, 0.4));
  EXPECT_EQ(run(gate() + " --check " + bare), 0);
  EXPECT_EQ(run(gate() + " --baseline " + bare + " --current " + ok +
                " --metric rel_throughput --max-regression 1.5"),
            0);
  EXPECT_EQ(run(gate() + " --baseline " + bare + " --current " + bad +
                " --metric rel_throughput --max-regression 1.5"),
            1);
  EXPECT_EQ(run(gate() + " --baseline " + ok + " --current " + bad +
                " --metric rel_throughput --max-regression 1.5"),
            1);
}

TEST_F(BenchJsonGateTest, MetricMissingEverywhereIsAnError) {
  const std::string base = write("base.json", sample_doc(2.0, 1.0));
  const std::string cur = write("cur.json", sample_doc(2.0, 1.0));
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + cur +
                " --metric no_such_metric --max-regression 1.5"),
            2);
}

TEST_F(BenchJsonGateTest, RowDroppedFromCurrentFailsGate) {
  const std::string base = write("base.json", sample_doc(2.0, 1.0));
  // Re-render with only the "fast" row: the baseline's "slow" row has no
  // counterpart, which must read as a regression, not a silent skip.
  std::vector<std::string> row;
  row.push_back(fb::json_field("workload", fb::json_str("fast")));
  row.push_back(fb::json_field("model", fb::json_str("thread")));
  row.push_back(fb::json_field("items", fb::json_num(std::uint64_t(100))));
  row.push_back(fb::json_field("rel_throughput", fb::json_num(2.0)));
  std::vector<std::string> meta = fb::host_meta_fields();
  meta.push_back(fb::json_field("np", fb::json_num(std::uint64_t(4))));
  const std::string cur =
      write("cur.json", fb::render_bench_json("apps", meta, {row}));
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + cur +
                " --metric rel_throughput --max-regression 1.5"),
            1);
}

TEST_F(BenchJsonGateTest, MergeMinTakesPerRowEnvelope) {
  // Two runs where each row is worst in a different run: the merged
  // baseline must take the per-row minimum, and every input run must
  // then pass a gate against it.
  const std::string a = write("a.json", sample_doc(2.0, 0.9));
  const std::string b = write("b.json", sample_doc(1.6, 1.2));
  const std::string merged = (dir_ / "merged.json").string();
  ASSERT_EQ(run(gate() + " --merge-min --out " + merged +
                " --metric rel_throughput " + a + " " + b),
            0);
  EXPECT_EQ(run(gate() + " --check " + merged), 0);
  for (const std::string& doc : {a, b}) {
    EXPECT_EQ(run(gate() + " --baseline " + merged + " --current " + doc +
                  " --metric rel_throughput --max-regression 1.5"),
              0);
  }
  // A genuine regression below the envelope still fails.
  const std::string bad = write("bad.json", sample_doc(0.9, 0.5));
  EXPECT_EQ(run(gate() + " --baseline " + merged + " --current " + bad +
                " --metric rel_throughput --max-regression 1.5"),
            1);
}

TEST_F(BenchJsonGateTest, MetricRemovedFromCurrentRowsFailsGate) {
  const std::string base = write("base.json", sample_doc(2.0, 1.0));
  const std::string cur =
      write("cur.json", sample_doc(2.0, 1.0, /*include_rel=*/false));
  EXPECT_EQ(run(gate() + " --baseline " + base + " --current " + cur +
                " --metric rel_throughput --max-regression 1.5"),
            1);
}

}  // namespace
