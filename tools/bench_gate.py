#!/usr/bin/env python3
"""Gate a fresh BENCH_*.json artifact against its committed baseline.

This is the single regression-gate mechanism for every CI bench job
(.github/workflows/ci.yml); the per-bench gate shell that used to live
inline in the workflow (and the --gate flag bench_process once carried)
is replaced by invocations of this script.

Contract (shared with bench/bench_common.hpp render_bench_json()):

  {
    "schema_version": <int>,        # must match between baseline/current
    "bench": "<name>",              # must match between baseline/current
    <flat metadata: strings/numbers>,
    "results": [ {flat row of strings/numbers}, ... ]
  }

Rows are identified by their string-valued fields (e.g. workload + model
+ mode); numeric fields are metrics. A gated metric may live at the top
level (e.g. thread_pooled_speedup) or per row (e.g. rel_throughput): the
script compares wherever the baseline carries it.

Usage:

  # schema-validate one artifact (the writer/gate contract check):
  bench_gate.py --check BENCH_apps.json

  # gate: fail if any gated metric regressed more than --max-regression:
  bench_gate.py --baseline BENCH_apps.json --current fresh/BENCH_apps.json \
      --metric rel_throughput --max-regression 1.5

  # build a conservative baseline: per-row/top-level minimum (maximum for
  # :lower metrics) of each gated metric across several runs of one bench:
  bench_gate.py --merge-min --out BENCH_apps.json \
      --metric rel_throughput run1.json run2.json run3.json

Metric direction defaults to higher-is-better; append ":lower" for
metrics where smaller is better (e.g. --metric ns_per_item:lower).

--merge-min exists because a baseline from a single run flakes on noisy
hosts: the gate only fires on drops below baseline / max-regression, so
recording the conservative envelope of N runs absorbs host noise without
loosening the budget (docs/VALIDATION.md, baseline refresh policy). All
non-gated fields are kept from the first input run.

Both artifacts are gated only within one host class: when both carry
"host_cpus" (the CPUs the bench process could run on) and the counts
differ, the comparison means nothing and the script exits 2.

Exit codes: 0 ok; 1 a gated metric regressed (or a baseline row/metric
disappeared from the current run); 2 schema violation, schema_version,
bench-name or host_cpus mismatch, or usage error.
"""

import argparse
import json
import sys


class GateError(Exception):
    """Schema violation or baseline/current incompatibility (exit 2)."""


def is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_doc(doc, path):
    """Checks one parsed artifact against the BENCH_*.json contract."""
    problems = []
    if not isinstance(doc, dict):
        raise GateError(f"{path}: top level must be a JSON object")
    if not isinstance(doc.get("schema_version"), int) or isinstance(
        doc.get("schema_version"), bool
    ):
        problems.append('missing or non-integer "schema_version"')
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        problems.append('missing or empty "bench" name')
    results = doc.get("results")
    if not isinstance(results, list):
        problems.append('"results" must be an array')
        results = []
    for key, value in doc.items():
        if key == "results":
            continue
        if not (isinstance(value, str) or is_number(value)):
            problems.append(f'top-level field "{key}" is not a string/number')
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            problems.append(f"results[{i}] is not an object")
            continue
        for key, value in row.items():
            if not (isinstance(value, str) or is_number(value)):
                problems.append(
                    f'results[{i}].{key} is not a string/number'
                )
    if problems:
        raise GateError(
            f"{path}: does not match the BENCH_*.json schema "
            f"(bench_common.hpp render_bench_json):\n  - "
            + "\n  - ".join(problems)
        )


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise GateError(f"cannot open {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise GateError(f"{path}: not valid JSON: {e}") from e
    validate_doc(doc, path)
    return doc


def row_identity(row):
    """A row is addressed by its string-valued fields, order-independent."""
    return tuple(sorted((k, v) for k, v in row.items() if isinstance(v, str)))


def cpu_list(count):
    """The taskset list that pins a run to the first `count` CPUs."""
    count = int(count)
    return "0" if count <= 1 else f"0-{count - 1}"


def parse_metric(spec):
    name, sep, direction = spec.partition(":")
    if not name or (sep and direction not in ("higher", "lower")):
        raise GateError(
            f"bad --metric '{spec}': expected name[:higher|:lower]"
        )
    return name, (direction or "higher")


def compare(label, metric, direction, base, cur, max_regression):
    """One gate line; returns True when within the allowed regression."""
    if base <= 0.0:
        print(f"gate: {label:<44} baseline {base:.3f} <= 0, skipped")
        return True
    if direction == "higher":
        floor = base / max_regression
        ok = cur >= floor
        print(
            f"gate: {label:<44} baseline {base:.3f}, current {cur:.3f}, "
            f"floor {floor:.3f} -> {'ok' if ok else 'REGRESSED'}"
        )
    else:
        ceiling = base * max_regression
        ok = cur <= ceiling
        print(
            f"gate: {label:<44} baseline {base:.3f}, current {cur:.3f}, "
            f"ceiling {ceiling:.3f} -> {'ok' if ok else 'REGRESSED'}"
        )
    return ok


def gate(baseline, current, metrics, max_regression, baseline_path,
         current_path):
    if baseline["schema_version"] != current["schema_version"]:
        raise GateError(
            f"schema_version mismatch: baseline {baseline_path} has "
            f"{baseline['schema_version']}, current {current_path} has "
            f"{current['schema_version']}. The committed baseline is stale "
            "- regenerate it with the current bench writer and commit the "
            "refreshed record (docs/VALIDATION.md, baseline refresh policy)."
        )
    if baseline["bench"] != current["bench"]:
        raise GateError(
            f"bench name mismatch: baseline '{baseline['bench']}' vs "
            f"current '{current['bench']}' - wrong artifact passed?"
        )
    base_cpus = baseline.get("host_cpus")
    cur_cpus = current.get("host_cpus")
    if is_number(base_cpus) and is_number(cur_cpus) and base_cpus != cur_cpus:
        raise GateError(
            f"host class mismatch: baseline {baseline_path} was recorded "
            f"with host_cpus {base_cpus}, current {current_path} with "
            f"host_cpus {cur_cpus}. Parallel ratios differ by host class, "
            "so this is neither a pass nor a fail - rerun pinned to the "
            f"baseline's class (e.g. taskset -c {cpu_list(base_cpus)}) or "
            "record a baseline for this one."
        )

    current_rows = {}
    for row in current.get("results", []):
        current_rows.setdefault(row_identity(row), []).append(row)

    ok = True
    for name, direction in metrics:
        compared = 0
        # Top-level metric (e.g. the force_entry speedup ratios).
        if is_number(baseline.get(name)):
            if not is_number(current.get(name)):
                print(f"gate: FAILED - top-level metric '{name}' is in the "
                      f"baseline but missing from {current_path}")
                ok = False
            else:
                ok = compare(name, name, direction, float(baseline[name]),
                             float(current[name]), max_regression) and ok
            compared += 1
        # Per-row metric, keyed by the row's string fields.
        for row in baseline.get("results", []):
            if not is_number(row.get(name)):
                continue
            compared += 1
            identity = row_identity(row)
            label = "/".join(v for _, v in identity) or "<row>"
            matches = current_rows.get(identity, [])
            if not matches:
                print(f"gate: FAILED - baseline row {label} has no "
                      f"counterpart in {current_path}")
                ok = False
                continue
            if len(matches) > 1:
                print(f"gate: FAILED - row {label} is ambiguous in "
                      f"{current_path} ({len(matches)} matches)")
                ok = False
                continue
            if not is_number(matches[0].get(name)):
                print(f"gate: FAILED - row {label} in {current_path} lacks "
                      f"metric '{name}'")
                ok = False
                continue
            ok = compare(f"{label} {name}", name, direction,
                         float(row[name]), float(matches[0][name]),
                         max_regression) and ok
        if compared == 0:
            raise GateError(
                f"metric '{name}' appears nowhere in baseline "
                f"{baseline_path} - typo, or the baseline predates it?"
            )
    return ok


def merge_min(docs, metrics, paths):
    """Conservative baseline: per-metric min (max for :lower) across runs.

    Every doc must describe the same bench at the same schema_version and
    carry the same row identities; all non-gated fields come from the
    first run.
    """
    base = docs[0]
    for doc, path in zip(docs[1:], paths[1:]):
        if doc["schema_version"] != base["schema_version"]:
            raise GateError(f"{path}: schema_version differs from {paths[0]}")
        if doc["bench"] != base["bench"]:
            raise GateError(f"{path}: bench name differs from {paths[0]}")

    def envelope(values, direction):
        return min(values) if direction == "higher" else max(values)

    merged = dict(base)
    merged["results"] = [dict(row) for row in base.get("results", [])]
    row_sets = []
    for doc, path in zip(docs, paths):
        rows = {}
        for row in doc.get("results", []):
            identity = row_identity(row)
            if identity in rows:
                raise GateError(f"{path}: ambiguous row {identity}")
            rows[identity] = row
        row_sets.append((rows, path))
    for name, direction in metrics:
        touched = 0
        if is_number(base.get(name)):
            values = []
            for doc, path in zip(docs, paths):
                if not is_number(doc.get(name)):
                    raise GateError(
                        f"{path}: top-level metric '{name}' missing"
                    )
                values.append(float(doc[name]))
            merged[name] = envelope(values, direction)
            touched += 1
        for row in merged["results"]:
            if not is_number(row.get(name)):
                continue
            identity = row_identity(row)
            values = []
            for rows, path in row_sets:
                other = rows.get(identity)
                label = "/".join(v for _, v in identity) or "<row>"
                if other is None or not is_number(other.get(name)):
                    raise GateError(
                        f"{path}: row {label} missing metric '{name}'"
                    )
                values.append(float(other[name]))
            row[name] = envelope(values, direction)
            touched += 1
        if touched == 0:
            raise GateError(
                f"metric '{name}' appears nowhere in {paths[0]}"
            )
    return merged


def render(doc):
    """Renders a merged doc in the same shape render_bench_json() emits."""
    lines = []
    for key, value in doc.items():
        if key == "results":
            continue
        lines.append(f"  {json.dumps(key)}: {json.dumps(value)}")
    rows = [
        "    {" + ", ".join(
            f"{json.dumps(k)}: {json.dumps(v)}" for k, v in row.items()
        ) + "}"
        for row in doc.get("results", [])
    ]
    return ("{\n" + ",\n".join(lines) + ",\n  \"results\": [\n"
            + ",\n".join(rows) + "\n  ]\n}\n")


def main(argv):
    parser = argparse.ArgumentParser(
        description="Gate BENCH_*.json artifacts against committed baselines."
    )
    parser.add_argument("--check", metavar="FILE",
                        help="schema-validate one artifact and exit")
    parser.add_argument("--baseline", help="committed baseline BENCH_*.json")
    parser.add_argument("--current", help="freshly measured BENCH_*.json")
    parser.add_argument("--metric", action="append", default=[],
                        metavar="NAME[:higher|:lower]",
                        help="gated metric (repeatable); direction defaults "
                             "to higher-is-better")
    parser.add_argument("--max-regression", type=float, default=1.5,
                        help="allowed ratio vs baseline (default 1.5)")
    parser.add_argument("--merge-min", action="store_true",
                        help="write a conservative baseline: per-metric "
                             "min (max for :lower) across the given runs")
    parser.add_argument("--out", metavar="FILE",
                        help="output path for --merge-min")
    parser.add_argument("runs", nargs="*", metavar="RUN.json",
                        help="input runs for --merge-min")
    args = parser.parse_args(argv)

    try:
        if args.check:
            doc = load(args.check)
            print(f"{args.check}: schema ok (bench '{doc['bench']}', "
                  f"schema_version {doc['schema_version']}, "
                  f"{len(doc['results'])} rows)")
            return 0
        if args.merge_min:
            if not args.out or len(args.runs) < 2:
                parser.error("--merge-min needs --out FILE and >= 2 runs")
            if not args.metric:
                parser.error("at least one --metric is required")
            metrics = [parse_metric(m) for m in args.metric]
            docs = [load(p) for p in args.runs]
            merged = merge_min(docs, metrics, args.runs)
            with open(args.out, "w", encoding="utf-8") as f:
                f.write(render(merged))
            validate_doc(merged, args.out)
            print(f"bench_gate: wrote {args.out} (conservative envelope of "
                  f"{len(args.runs)} runs)")
            return 0
        if not args.baseline or not args.current:
            parser.error("--baseline and --current are required "
                         "(or use --check FILE)")
        if not args.metric:
            parser.error("at least one --metric is required")
        if args.max_regression <= 1.0:
            parser.error("--max-regression must be > 1.0")
        metrics = [parse_metric(m) for m in args.metric]
        baseline = load(args.baseline)
        current = load(args.current)
        ok = gate(baseline, current, metrics, args.max_regression,
                  args.baseline, args.current)
    except GateError as e:
        print(f"bench_gate: {e}", file=sys.stderr)
        return 2
    if not ok:
        print("bench_gate: FAILED - at least one gated metric regressed "
              f"more than {args.max_regression}x vs {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"bench_gate: ok ({args.current} vs {args.baseline})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
