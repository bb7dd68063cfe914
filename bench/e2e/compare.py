#!/usr/bin/env python3
"""Compare two result sets of bench_e2e runs against the bounds in BENCHMARK.json.

    python3 bench/e2e/compare.py A.json B.json

A and B are result sets written by run.py --out (several seeds per workload).
For each workload and end-to-end metric it prints the median and quartiles of
A and of B, the spread of each ((q3 - q1) / median) and a verdict:

  ok           B's median is not worse than A's by more than the bound
  REGRESSION   B's median is worse than A's by more than the bound
  unresolved   a side's spread exceeds the bound, so the runs cannot tell
               (unless every run of B is better than every run of A)

It also prints each workload's failed/attempted operations. Exits 1 on a
regression, on a workload missing from either side, or when B fails a larger
share of its operations than A.
"""
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load(path):
    """workload -> {"runs": [metric dicts], "failed": n, "attempted": n}"""
    sets = defaultdict(lambda: {"runs": [], "failed": 0, "attempted": 0})
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        w = sets[run["workload"]]
        w["runs"].append({k: m["value"] for k, m in run["metrics"].items()})
        w["failed"] += run["failed"]
        w["attempted"] += run["attempted"]
    return sets


def summary(values):
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(q1, med, q3):
    return (q3 - q1) / med if med else 0.0


def worse(a, b, better):
    """How much worse b is than a, as a share of a (negative = better)."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def verdict(metric, a_vals, b_vals):
    bound = metric["bound"]
    qa, qb = summary(a_vals), summary(b_vals)
    change = worse(qa[1], qb[1], metric["better"])
    lower = metric["better"] == "lower"
    b_always_better = (max(b_vals) < min(a_vals) if lower
                       else min(b_vals) > max(a_vals))
    if max(spread(*qa), spread(*qb)) > bound and not b_always_better:
        status = "unresolved"
    elif change > bound:
        status = "REGRESSION"
    else:
        status = "ok"
    return qa, qb, change, status


def fmt(q):
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    print(f"{'workload':<14} {'metric':<21} {'A median [q1, q3]':<36} "
          f"{'B median [q1, q3]':<36} {'B vs A':>8} {'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if name not in a or name not in b:
            print(f"{name:<14} missing from {'A' if name not in a else 'B'}")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            key = metric["name"]
            a_vals = [r[key] for r in a[name]["runs"] if key in r]
            b_vals = [r[key] for r in b[name]["runs"] if key in r]
            if not a_vals or not b_vals:
                continue
            qa, qb, change, status = verdict(metric, a_vals, b_vals)
            bad = bad or status == "REGRESSION"
            print(f"{name:<14} {key:<21} {fmt(qa):<36} {fmt(qb):<36} "
                  f"{change:>+8.1%} {metric['bound']:>6.0%}  {status}")
        fa = a[name]["failed"] / max(a[name]["attempted"], 1)
        fb = b[name]["failed"] / max(b[name]["attempted"], 1)
        print(f"{name:<14} {'ops_failed_frac':<21} "
              f"{a[name]['failed']}/{a[name]['attempted']:<32} "
              f"{b[name]['failed']}/{b[name]['attempted']:<32}"
              f"{'':>17}  {'REGRESSION' if fb > fa else 'ok'}")
        bad = bad or fb > fa
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
