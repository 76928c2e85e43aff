#!/usr/bin/env python3
"""Check that every number in JSON-lines files is printed canonically.

Usage:

    python3 tools/check_canonical_numbers.py answers.jsonl sweep_demo.json

Each non-empty line of each file must be one JSON document. Every numeric
literal in it must equal '%.17g' % float(literal): the 17-significant-digit
C-locale form the emitters promise (util/csv.hpp format_number). The
advisor golden rounds numbers to 9 digits (tools/normalize_numbers.py), so
this is the check that sees a formatting change. Prints the token count per
file; exits non-zero naming the first offending literal.
"""

import json
import sys


def check_file(path):
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
                canonical = "%.17g" % float(token)
                if canonical != token:
                    sys.exit(f"{path}:{line_no}: number {token!r} is not "
                             f"canonical (expected {canonical!r})")
    return len(tokens)


def main():
    if len(sys.argv) < 2:
        sys.exit(__doc__.strip().splitlines()[0])
    for path in sys.argv[1:]:
        print(f"{path}: {check_file(path)} numbers, all canonical")


if __name__ == "__main__":
    main()
