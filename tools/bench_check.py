#!/usr/bin/env python3
"""Gate two perfbench `sweep_fig1` runs: the CI `perf` check.

Usage:
  python3 tools/bench_check.py BENCH_history.jsonl UNTRACED TRACED

UNTRACED and TRACED hold the standard output of
`python3 perfbench/run.py --workload sweep_fig1 ... --trace 0` and of the
same run with `--trace 1` (perfbench/README.md). Each must carry its
`{"context": ...}` line and its result line. The checks:

* Throughput: the untraced run's `replicas_per_s` is at least the latest
  `sweep_fig1`/`replicas_per_s` `change_median` in BENCH_history.jsonl,
  divided by 3. The history holds medians of paired runs on one 4-vCPU
  box; the 3x slack absorbs a slower or shared runner and still catches an
  order-of-magnitude regression (a quadratic in the event loop, a debug
  build measured by mistake).
* Dist overhead: the traced run's `dist.overhead_ratio` is at most 3. It is
  dist wall time over in-process wall time for the same campaigns, both
  timed in one process, so the speed of the runner cancels out.
* Correctness: both runs report `correct` true and `failed` 0, and each
  run's context names the workload and trace mode its position expects.

Exit status 0 when every check passes; 1 with one line per violation on
stderr otherwise. Stdlib only.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

WORKLOAD = "sweep_fig1"
THROUGHPUT = "replicas_per_s"
SLACK = 3.0
DIST_OVERHEAD = "dist.overhead_ratio"
MAX_DIST_OVERHEAD = 3.0


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def json_records(path: Path) -> list[object]:
    """Every line of `path` that parses as JSON."""
    out = []
    for line in path.read_text().splitlines():
        try:
            out.append(json.loads(line))
        except json.JSONDecodeError:
            continue
    return out


def throughput_baseline(path: Path, violations: list[str]) -> float | None:
    """The latest recorded `sweep_fig1` `replicas_per_s` change median."""
    baseline = None
    for record in json_records(path):
        if (isinstance(record, dict) and record.get("workload") == WORKLOAD
                and record.get("metric") == THROUGHPUT
                and is_number(record.get("change_median"))):
            baseline = float(record["change_median"])
    if baseline is None:
        violations.append(f"{path}: no {WORKLOAD}/{THROUGHPUT} line with a "
                          f"numeric change_median")
    return baseline


def read_run(path: Path, trace: int, violations: list[str]) -> dict:
    """The result's metrics of one run, after its context and outcome
    checks."""
    context = result = None
    for record in json_records(path):
        if not isinstance(record, dict):
            continue
        if isinstance(record.get("context"), dict):
            context = record["context"]
        elif isinstance(record.get("metrics"), dict):
            result = record
    if context is None or result is None:
        violations.append(f"{path}: no perfbench context and result lines")
        return {}
    if context.get("workload") != WORKLOAD or context.get("trace") != trace:
        violations.append(
            f"{path}: context says workload {context.get('workload')!r} "
            f"trace {context.get('trace')!r}, expected {WORKLOAD!r} "
            f"trace {trace}")
    for key, expected in (("correct", True), ("failed", 0)):
        value = result.get(key)
        if type(value) is not type(expected) or value != expected:
            violations.append(f"{path}: {key} is {json.dumps(value)}, "
                              f"expected {json.dumps(expected)}")
    return result["metrics"]


def metric(metrics: dict, name: str, path: Path,
           violations: list[str]) -> float | None:
    """`metrics[name]["value"]`, the shape perfbench prints."""
    entry = metrics.get(name)
    value = entry.get("value") if isinstance(entry, dict) else None
    if not is_number(value):
        violations.append(f"{path}: metric {name} missing")
        return None
    return float(value)


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    history, untraced, traced = (Path(arg) for arg in argv)
    violations: list[str] = []
    try:
        baseline = throughput_baseline(history, violations)
        untraced_metrics = read_run(untraced, 0, violations)
        traced_metrics = read_run(traced, 1, violations)
    except OSError as error:
        print(f"FAIL {error}", file=sys.stderr)
        return 1

    rate = metric(untraced_metrics, THROUGHPUT, untraced, violations)
    if rate is not None and baseline is not None:
        floor = baseline / SLACK
        if rate < floor:
            violations.append(
                f"{untraced}: {THROUGHPUT} {rate:.6g} < {baseline:.6g} / "
                f"{SLACK:g} = {floor:.6g}")
        else:
            print(f"ok {THROUGHPUT} {rate:.6g} (floor {floor:.6g} = "
                  f"{baseline:.6g} / {SLACK:g})")

    ratio = metric(traced_metrics, DIST_OVERHEAD, traced, violations)
    if ratio is not None:
        if ratio > MAX_DIST_OVERHEAD:
            violations.append(f"{traced}: {DIST_OVERHEAD} {ratio:.6g} > "
                              f"{MAX_DIST_OVERHEAD:g}")
        else:
            print(f"ok {DIST_OVERHEAD} {ratio:.6g} "
                  f"(at most {MAX_DIST_OVERHEAD:g})")

    for line in violations:
        print(f"FAIL {line}", file=sys.stderr)
    print(f"{len(violations)} violations")
    return 1 if violations else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
