#!/usr/bin/env python3
"""Compare two sets of untraced result files, metric by metric.

    python3 benchmarks/e2e/compare.py SET_A/*/*.json -- SET_B/*/*.json

A is the baseline (the parent commit, or the first of two sets of one
commit), B the candidate.  For every workload and end-to-end metric the
table gives both medians, both quartile pairs, B's relative gap to A and
a verdict against the bound in ``BENCHMARK.json``:

* ``FAIL``        B's median is worse than A's by more than the bound;
* ``UNRESOLVED``  not worse by more than the bound, but one set's own
  spread (quartile distance over median) is wider than the bound, so
  "unchanged" is not shown either;
* ``PASS``        otherwise.

Exit code 1 on any FAIL.  Take the two sets by alternating sides run by
run, so a slow spell of the host lands on both.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def load(paths) -> dict:
    """(workload, metric) -> values, from the untraced result files."""
    values: dict = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        if result["traced"]:
            continue  # timings taken with tracing on are not end-to-end numbers
        for metric, value in result["end_to_end"].items():
            values.setdefault((result["workload"], metric), []).append(value)
    return values


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(set_a: dict, set_b: dict) -> tuple[list[str], bool]:
    lines, failed = [], False
    lines.append(
        f"{'workload':20s} {'metric':25s} {'A median':>12s} {'A q1..q3':>23s} "
        f"{'B median':>12s} {'B q1..q3':>23s} {'gap':>8s} {'bound':>6s}  verdict"
    )
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            key = (workload["name"], metric["name"])
            if key not in set_a or key not in set_b:
                lines.append(f"{key[0]:20s} {key[1]:25s} missing from one set")
                failed = True
                continue
            (a1, a2, a3), (b1, b2, b3) = quartiles(set_a[key]), quartiles(set_b[key])
            gap = (b2 - a2) / a2
            worse = gap if metric["better"] == "lower" else -gap
            own_spread = max((a3 - a1) / a2, (b3 - b1) / b2)
            if worse > metric["bound"]:
                verdict, failed = "FAIL", True
            elif own_spread > metric["bound"]:
                verdict = "UNRESOLVED"
            else:
                verdict = "PASS"
            lines.append(
                f"{key[0]:20s} {key[1]:25s} {a2:12.6g} {a1:11.6g}..{a3:<10.6g} "
                f"{b2:12.6g} {b1:11.6g}..{b3:<10.6g} {gap:+8.2%} {metric['bound']:6.3f}  "
                f"{verdict}"
            )
    return lines, failed


def main(argv) -> int:
    if "--" not in argv:
        print(__doc__, file=sys.stderr)
        return 2
    split = argv.index("--")
    set_a, set_b = load(argv[:split]), load(argv[split + 1 :])
    lines, failed = compare(set_a, set_b)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
