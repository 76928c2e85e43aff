#!/usr/bin/env python3
"""Check that every number in JSON-lines and CSV files is printed canonically.

Usage:

    python3 tools/check_canonical_numbers.py answers.jsonl sweep_demo.json \
        sweep_demo.csv

A file whose name ends in .csv is read as CSV (quoted fields allowed): every
field that is a decimal number is checked, header and label fields are not.
Any other file is read as JSON lines: each non-empty line must be one JSON
document, and every numeric literal in it is checked. A number passes when
it equals '%.17g' % float(number): the 17-significant-digit C-locale form
the emitters promise (util/csv.hpp append_number). Python's own formatter is
an oracle independent of the C++ renderer. The advisor golden rounds numbers
to 9 digits (tools/normalize_numbers.py), so this is the check that sees a
formatting change. Prints the number count per file; exits non-zero naming
the first offending number.
"""

import csv
import json
import re
import sys

# A decimal number as the emitters print one (no inf, nan or hex).
NUMBER = re.compile(r"-?(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?")


def check_token(path, where, token):
    canonical = "%.17g" % float(token)
    if canonical != token:
        sys.exit(f"{path}:{where}: number {token!r} is not canonical "
                 f"(expected {canonical!r})")


def check_json_lines(path):
    tokens = []

    def keep(token):
        tokens.append(token)
        return float(token)

    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            if not line.strip():
                continue
            start = len(tokens)
            json.loads(line, parse_int=keep, parse_float=keep)
            for token in tokens[start:]:
                check_token(path, line_no, token)
    return len(tokens)


def check_csv(path):
    count = 0
    with open(path, encoding="utf-8", newline="") as f:
        for row_no, row in enumerate(csv.reader(f), 1):
            for column, field in enumerate(row, 1):
                if NUMBER.fullmatch(field):
                    check_token(path, f"{row_no}:{column}", field)
                    count += 1
    return count


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip().splitlines()[0])
    for path in sys.argv[1:]:
        check = check_csv if path.endswith(".csv") else check_json_lines
        print(f"{path}: {check(path)} numbers, all canonical")


if __name__ == "__main__":
    main()
