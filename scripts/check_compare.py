#!/usr/bin/env python3
"""Fail on a `worse` verdict in a paired benchmark comparison.

Usage:
  check_compare.py CMP.json

CMP.json is what `bench/perf/run_bench.py compare --results CMP.json`
writes: a list holding one {"compare": [row, ...]} object, one row per
(workload, end-to-end metric) with its paired verdict ("improved",
"no-worse", "unresolved" or "worse"; see run_bench.py's verdict()).
Exits 1 when any row is "worse" or when the file holds no rows, and
prints every row either way.
"""

import json
import sys


def rows_of(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    rows = []
    for entry in doc if isinstance(doc, list) else [doc]:
        rows.extend(entry.get("compare", []))
    return rows


def main(argv: list) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    rows = rows_of(argv[1])
    if not rows:
        print(f"check_compare: {argv[1]} holds no comparison rows")
        return 1
    worse = []
    for r in rows:
        line = (f"{r['workload']:<14} {r['metric']:<13} "
                f"base {r['base']['median']:.6g} "
                f"head {r['head']['median']:.6g} "
                f"wins {r['wins']}/{r['pairs']} {r['verdict']}")
        print(f"check_compare: {line}")
        if r["verdict"] == "worse":
            worse.append(line)
    if worse:
        print(f"check_compare: {len(worse)} metric(s) worse than the base")
        return 1
    print(f"check_compare: OK, none of {len(rows)} rows is worse")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
