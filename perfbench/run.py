#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cmfd --seed 1 --seconds 20 --trace 0

Run from anywhere inside a full checkout. The benchmark binary (forcebench) is
built from perfbench/ and the checkout's src/ into .bench_build/perfbench
(a no-op when up to date); build output goes to stderr, so the last line of
stdout is forcebench's JSON result. Every argument is forwarded to
forcebench. Exits non-zero, without a result, when the build fails (for
example in a directory that holds the benchmark but not the sources).
"""
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "perfbench-scratch")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds forcebench; returns its path or None."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: no Force sources next to perfbench/ - run from a "
              "full checkout", file=sys.stderr)
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "forcebench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench: build step failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench: build step exited {done.returncode}: "
                  f"{' '.join(cmd)}", file=sys.stderr)
            return None
    return os.path.join(BUILD_DIR, "forcebench")


def main(argv):
    binary = build()
    if binary is None:
        return 2
    os.makedirs(SCRATCH_DIR, exist_ok=True)
    sys.stdout.flush()
    # Own process group, so a timeout also stops any cluster member that
    # forcebench forked.
    proc = subprocess.Popen([binary, *argv, "--scratch", SCRATCH_DIR],
                            start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s, stopping it",
              file=sys.stderr)
        return 1
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # no-op once all have exited
        except ProcessLookupError:
            pass
        proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
