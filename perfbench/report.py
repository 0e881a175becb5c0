#!/usr/bin/env python3
"""Summarise recorded benchmark runs as medians with quartiles.

    python3 perfbench/report.py

Reads `.bench_runs/runs.jsonl` (written by run.py) and prints, per commit,
workload and trace setting, each metric's median, first and third
quartile, and spread: the quartile distance as a share of the median,
computed as `statistics.quantiles(values, n=4)` gives the quartiles.
"""

import json
import statistics
from collections import defaultdict

RUNS = ".bench_runs/runs.jsonl"


def summarise(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / med if med else float("nan")
    return med, q1, q3, spread


def main():
    groups = defaultdict(list)
    with open(RUNS) as f:
        for line in f:
            run = json.loads(line)
            groups[(run["host"]["commit"], run["workload"], run["trace"])].append(run)

    for (commit, workload, trace), runs in groups.items():
        host = runs[-1]["host"]
        failed = sum(r["result"]["failed"] for r in runs)
        attempted = sum(r["result"]["attempted"] for r in runs)
        print(f"== {workload} trace={trace} commit={commit[:16]} runs={len(runs)} "
              f"seeds={sorted({r['seed'] for r in runs})} failed={failed}/{attempted}")
        steal = statistics.median(r["host"].get("steal_pct", 0.0) for r in runs)
        print(f"   host: {host['cpu']}, nproc {host['nproc']}, avx2 {host['avx2']}, "
              f"D2_THREADS {host['D2_THREADS']}, median steal {steal:.2f}%")
        values = defaultdict(list)
        units = {}
        for r in runs:
            for name, m in r["result"]["metrics"].items():
                values[name].append(m["value"])
                units[name] = m["unit"]
            p95 = r["detail"].get("e2e", {}).get("latency_p95_ms")
            if p95 is not None:
                values["latency_p95_ms (not gated)"].append(p95)
                units["latency_p95_ms (not gated)"] = "ms"
        print(f"   {'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}  unit")
        for name, vs in values.items():
            med, q1, q3, spread = summarise(vs)
            print(f"   {name:32} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.3f}  {units[name]}")


if __name__ == "__main__":
    main()
