#!/usr/bin/env python3
"""Tests of the repo benchmark itself (not of the Force library).

    python3 perfbench/test_perfbench.py

Each workload runs in short mode (a few solves instead of a timed run). The
tests check that every metric BENCHMARK.json names is printed with its unit
in both the untraced and the traced run, that the traced run's span-count
self-check passes, that a result damaged through the benchmark's own
--corrupt-every hook is counted as failed (and the command exits 1 after
printing every metric), that a team wider than the host's CPUs is refused,
and that the benchmark fails without a result when the sources are absent.
"""
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, *extra, trace=0, preexec_fn=None, run=RUN):
    """Runs the benchmark; returns (exit code, stdout lines, parsed result)."""
    done = subprocess.run(
        [sys.executable, run, "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, timeout=600, check=False,
        preexec_fn=preexec_fn)
    lines = done.stdout.strip().splitlines()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
    return done.returncode, lines, result


def printed_metrics(lines):
    """{name: unit} of the human-readable 'metric <name> <value> <unit>' lines."""
    out = {}
    for line in lines:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "metric":
            out[parts[1]] = parts[3]
    return out


class ShortRuns(unittest.TestCase):
    def check_metrics(self, lines, result, group):
        printed = printed_metrics(lines)
        for m in SPEC[group]:
            self.assertIn(m["name"], result["metrics"])
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertEqual(printed.get(m["name"]), m["unit"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC[group]})

    def test_untraced_prints_every_end_to_end_metric(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = bench(w, "--short", "3")
                self.assertEqual(code, 0, lines)
                self.assertTrue(result["correct"])
                self.assertEqual(result["attempted"], 3)
                self.assertEqual(result["failed"], 0)
                self.check_metrics(lines, result, "end_to_end")
                self.assertIn("fail_ratio", printed_metrics(lines))
                self.assertTrue(any(l.startswith("host nproc=") for l in lines))
                for m in SPEC["end_to_end"]:
                    self.assertGreater(result["metrics"][m["name"]]["value"], 0)

    def test_traced_prints_every_per_layer_metric_and_self_checks(self):
        for w in WORKLOADS:
            with self.subTest(workload=w):
                code, lines, result = bench(w, "--short", "2", trace=1)
                self.assertEqual(code, 0, lines)
                self.assertTrue(result["correct"])
                self.check_metrics(lines, result, "per_layer")
                check = [l for l in lines if l.startswith("selfcheck")]
                self.assertEqual(len(check), 1)
                self.assertIn("traced_solves=2 span_mismatches=0", check[0])
                self.assertNotIn("MISMATCH", check[0])

    def test_corrupted_results_count_as_failures(self):
        for w in ("cmfd", "cluster"):
            with self.subTest(workload=w):
                code, lines, result = bench(w, "--short", "4",
                                            "--corrupt-every", "2")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertEqual(result["attempted"], 4)
                self.assertEqual(result["failed"], 2)
                self.assertIn("fail_ratio=0.500000", "\n".join(lines))
                self.check_metrics(lines, result, "end_to_end")

    def test_refuses_a_team_wider_than_the_host(self):
        code, lines, result = bench(
            "cmfd", "--short", "1",
            preexec_fn=lambda: os.sched_setaffinity(0, {0}))
        self.assertEqual(code, 2)
        self.assertIsNone(result)

    def test_fails_without_sources(self):
        scratch = os.path.join(ROOT, ".bench_build", "perfbench-alone")
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            shutil.copytree(HERE, os.path.join(scratch, "perfbench"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
            code, _, result = bench(
                "cmfd", run=os.path.join(scratch, "perfbench", "run.py"))
            self.assertNotEqual(code, 0)
            self.assertIsNone(result)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
