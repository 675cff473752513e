#!/usr/bin/env python3
"""Median and quartiles of every metric over a set of benchmark runs.

    python3 perfbench/summarize.py .perfbench_out/report-*-trace0.json

Reads the reports that run.py writes and prints, per workload and metric,
the median, the first and third quartiles and the spread (their distance
over the median), then the hosts, digests and failures seen.
"""

from __future__ import annotations

import json
import statistics
import sys


def main(paths) -> int:
    groups: dict[str, list[dict]] = {}
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            report = json.load(fh)
        groups.setdefault(report["workload"], []).append(report)
    for workload, reports in sorted(groups.items()):
        print(f"{workload}: {len(reports)} runs, seeds {sorted(r['seed'] for r in reports)}")
        for name in reports[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in reports if name in r["metrics"]]
            unit = reports[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else 0.0
            print(f"  {name:42s} {med:14.6g} {unit:6s} [{q1:.6g}, {q3:.6g}] spread {spread:.3f}")
        hosts = {json.dumps(r["host"], sort_keys=True) for r in reports}
        digests = {(r["seed"], r["digest"]) for r in reports}
        failed = sum(r["failed"] for r in reports)
        print(f"  hosts {sorted(hosts)}")
        print(f"  digests {sorted(digests)}; failed operations {failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
