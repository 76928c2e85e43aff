#!/usr/bin/env python3
"""Check BENCH_history.jsonl, the perf trajectory of the repository.

Each non-empty line is one JSON object recording one perf change's claimed
perfbench metric: the change (`pr`, `commit`), what was measured
(`workload`, `metric`) and the median and quartiles of the parent's runs and
of the change's runs. `commit` is null until the recording commit is known;
a quartile is null where none was recorded.

Exit status: 0 when every line parses and carries every key with the right
type, 1 otherwise (one line per problem: `file:line: message`). Stdlib only.
"""

import json
import sys
from pathlib import Path

NUMBER_KEYS = ("parent_median", "change_median")
NULLABLE_NUMBER_KEYS = ("parent_q1", "parent_q3", "change_q1", "change_q3")
REQUIRED = ("pr", "commit", "workload", "metric") + NUMBER_KEYS + \
    NULLABLE_NUMBER_KEYS


def is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def problems(record: object) -> list[str]:
    if not isinstance(record, dict):
        return ["not a JSON object"]
    out = [f"missing key '{key}'" for key in REQUIRED if key not in record]
    if out:
        return out
    if not isinstance(record["pr"], int) or isinstance(record["pr"], bool):
        out.append("'pr' must be an integer")
    commit = record["commit"]
    if commit is not None and not (
            isinstance(commit, str) and len(commit) == 40 and
            all(c in "0123456789abcdef" for c in commit)):
        out.append("'commit' must be a full hex commit id or null")
    for key in ("workload", "metric"):
        if not isinstance(record[key], str) or not record[key]:
            out.append(f"'{key}' must be a non-empty string")
    for key in NUMBER_KEYS:
        if not is_number(record[key]):
            out.append(f"'{key}' must be a number")
    for key in NULLABLE_NUMBER_KEYS:
        if record[key] is not None and not is_number(record[key]):
            out.append(f"'{key}' must be a number or null")
    return out


def main(argv: list[str]) -> int:
    path = Path(argv[1] if len(argv) > 1 else "BENCH_history.jsonl")
    failed = False
    lines = 0
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        lines += 1
        try:
            record = json.loads(line)
        except json.JSONDecodeError as err:
            print(f"{path}:{number}: does not parse: {err}")
            failed = True
            continue
        for message in problems(record):
            print(f"{path}:{number}: {message}")
            failed = True
    if lines == 0:
        print(f"{path}: no records")
        failed = True
    if not failed:
        print(f"{path}: {lines} records ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
