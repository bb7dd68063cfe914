#!/usr/bin/env python3
"""Bench regression guard for the substrate sweeps.

Raw items/second is machine-dependent, so the guarded quantity is always a
*throughput ratio* between two implementations measured in the same run;
that ratio is what the optimization bought, and it is stable across hosts
in a way absolute numbers are not. Two suites:

  --suite scatter (default)
    BM_ScatterAppendStaged vs BM_ScatterAppendLocked per (threads,
    intervals) configuration — what the lock-free staging commit bought.
    Configurations with fewer than --min-threads producer threads are
    reported but not enforced: the staging win is a contention effect.

  --suite io
    BM_IoRandReadUring vs BM_IoRandReadThreadPool per (read size, queue
    depth) configuration — what batched io_uring submission bought over
    the AsyncIo thread pool. Configurations below --min-depth are reported
    but not enforced: batching needs a queue to batch. --min-ratio
    additionally enforces an absolute floor on the current geomean
    (ISSUE acceptance: >= 1.5x at depth >= 32). When the current run has
    no uring results at all (probe unavailable, benchmarks skipped with
    an error) the guard is skipped with exit 0 so kernels without
    io_uring stay green.

  --suite serve
    bench_serve's custom BENCH_serve.json (not google-benchmark format):
    qps at concurrency C vs qps at concurrency 1 — what the shared
    RuntimeContext serving path scales to. Levels below --min-concurrency
    are reported but not enforced (scaling at c<=4 is dominated by core
    count, not the serving path).

  --suite compress
    bench_compress's custom BENCH_compress.json: v1/v2 bytes-per-edge
    ratios per layer — what the delta+varint on-disk format bought.
    Entries the binary marks "enforced": false are reported only.
    --min-ratio enforces the compression floor (ISSUE acceptance: >= 2x
    on adjacency and message-log bytes/edge).

  --suite async
    bench_async's custom BENCH_async.json (same metric/ratio/enforced
    shape as compress): bsp/async ratios of effective rounds and modeled
    time for delta-PageRank under each schedule policy — what
    interval-granular async scheduling bought over the barrier wave.
    Enforced entries are the skewed-large-scale hub-degree pair;
    --min-ratio enforces the absolute floor on their geomean.

  --suite stripe
    bench_stripe's custom BENCH_stripe.json (same metric/ratio/enforced
    shape as compress): modeled-bandwidth scaling of the striped layout.
    The enforced entry is the 1 vs 4 device log-load bandwidth ratio
    (bench_stripe itself fails below 1.6x); --min-ratio enforces the
    absolute floor on the enforced geomean.

  --suite direction
    bench_direction's custom BENCH_direction.json (same
    metric/ratio/enforced shape as compress): push/adaptive ratios of
    message-log bytes and modeled work time for BFS/WCC/PageRank — what
    the direction-optimizing pull path bought over the pure push wave.
    Byte counts are deterministic, so the geomean is dominated by the
    (large) log-byte cuts and is stable across hosts; bench_direction
    itself enforces the per-app floors at generation time.

Individual configurations are noisy at CI bench durations (a single 0.02 s
run can swing ±30%), so the gate is the *geometric mean* of the ratios over
all enforced configurations: a genuine regression shifts every
configuration and moves the mean, while one noisy cell does not. Fails
(exit 1) when the geometric-mean ratio drops more than --max-regression
(default 0.30, i.e. 30%) below the baseline's, or below --min-ratio.

Usage:
    tools/check_bench_regression.py CURRENT.json BASELINE.json \
        [--suite scatter|io] [--max-regression 0.30] \
        [--min-threads 2] [--min-depth 32] [--min-ratio 1.5]
"""

import argparse
import json
import math
import sys


def load_runs(path):
    with open(path) as f:
        data = json.load(f)
    for b in data.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        name = b.get("name", "")
        parts = name.split("/")
        args = [p for p in parts[1:] if p.isdigit()]
        yield parts[0], args, b


def load_scatter_ratios(path, min_threads):
    """Map 'threads/intervals[/depth]' -> staged/locked items_per_second."""
    locked = {}
    staged = {}
    for bench, args, b in load_runs(path):
        ips = b.get("items_per_second")
        if ips is None:
            continue
        if bench == "BM_ScatterAppendLocked" and len(args) >= 2:
            locked[(args[0], args[1])] = ips
        elif bench == "BM_ScatterAppendStaged" and len(args) >= 3:
            staged[(args[0], args[1], args[2])] = ips
    ratios = {}
    enforced = {}
    for (t, iv, depth), s_ips in sorted(staged.items()):
        l_ips = locked.get((t, iv))
        if not l_ips:
            continue
        key = f"{t}t/{iv}iv/depth{depth}"
        ratios[key] = s_ips / l_ips
        if int(t) >= min_threads:
            enforced[key] = ratios[key]
    return ratios, enforced


def load_io_ratios(path, min_depth):
    """Map 'KiB/depth' -> uring/threadpool bytes_per_second."""
    pool = {}
    uring = {}
    for bench, args, b in load_runs(path):
        bps = b.get("bytes_per_second")
        if bps is None or len(args) < 2:
            continue
        if bench == "BM_IoRandReadThreadPool":
            pool[(args[0], args[1])] = bps
        elif bench == "BM_IoRandReadUring":
            uring[(args[0], args[1])] = bps
    ratios = {}
    enforced = {}
    for (kib, depth), u_bps in sorted(uring.items()):
        p_bps = pool.get((kib, depth))
        if not p_bps:
            continue
        key = f"{kib}K/qd{depth}"
        ratios[key] = u_bps / p_bps
        if int(depth) >= min_depth:
            enforced[key] = ratios[key]
    return ratios, enforced


def load_serve_ratios(path, min_concurrency):
    """Map 'cN' -> qps(N)/qps(1) from bench_serve's custom JSON."""
    with open(path) as f:
        data = json.load(f)
    runs = {r["concurrency"]: r for r in data.get("runs", [])}
    base = runs.get(1)
    ratios = {}
    enforced = {}
    if not base or base.get("qps", 0) <= 0:
        return ratios, enforced
    for concurrency in sorted(runs):
        if concurrency == 1:
            continue
        qps = runs[concurrency].get("qps", 0)
        key = f"c{concurrency}"
        ratios[key] = qps / base["qps"]
        if concurrency >= min_concurrency:
            enforced[key] = ratios[key]
    return ratios, enforced


def load_compress_ratios(path, _unused=None):
    """Map metric name -> v1/v2 ratio from bench_compress's custom JSON."""
    with open(path) as f:
        data = json.load(f)
    ratios = {}
    enforced = {}
    for run in data.get("runs", []):
        metric = run.get("metric")
        ratio = run.get("ratio", 0)
        if not metric or ratio <= 0:
            continue
        ratios[metric] = ratio
        if run.get("enforced"):
            enforced[metric] = ratio
    return ratios, enforced


def geomean(values):
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--suite",
                    choices=("scatter", "io", "serve", "compress", "async",
                             "stripe", "direction"),
                    default="scatter")
    ap.add_argument("--max-regression", type=float, default=0.30,
                    help="fail when ratio drops by more than this fraction")
    ap.add_argument("--min-threads", type=int, default=2,
                    help="scatter: only enforce configs with at least this "
                         "many threads")
    ap.add_argument("--min-depth", type=int, default=32,
                    help="io: only enforce configs at or above this queue "
                         "depth")
    ap.add_argument("--min-concurrency", type=int, default=8,
                    help="serve: only enforce levels at or above this "
                         "concurrency")
    ap.add_argument("--min-ratio", type=float, default=None,
                    help="absolute floor on the current geomean ratio")
    args = ap.parse_args()

    if args.suite == "scatter":
        cur_all, cur = load_scatter_ratios(args.current, args.min_threads)
        base_all, base = load_scatter_ratios(args.baseline, args.min_threads)
        label = "staged/locked"
    elif args.suite == "serve":
        cur_all, cur = load_serve_ratios(args.current, args.min_concurrency)
        base_all, base = load_serve_ratios(args.baseline,
                                           args.min_concurrency)
        label = "qps-vs-c1 scaling"
    elif args.suite == "compress":
        cur_all, cur = load_compress_ratios(args.current)
        base_all, base = load_compress_ratios(args.baseline)
        label = "v1/v2 bytes-per-edge"
    elif args.suite == "async":
        # Same custom JSON shape as compress: runs[{metric, ratio, enforced}].
        cur_all, cur = load_compress_ratios(args.current)
        base_all, base = load_compress_ratios(args.baseline)
        label = "bsp/async"
    elif args.suite == "stripe":
        # Same custom JSON shape as compress: runs[{metric, ratio, enforced}].
        cur_all, cur = load_compress_ratios(args.current)
        base_all, base = load_compress_ratios(args.baseline)
        label = "striped/single-device"
    elif args.suite == "direction":
        # Same custom JSON shape as compress: runs[{metric, ratio, enforced}].
        cur_all, cur = load_compress_ratios(args.current)
        base_all, base = load_compress_ratios(args.baseline)
        label = "push/adaptive"
    else:
        cur_all, cur = load_io_ratios(args.current, args.min_depth)
        base_all, base = load_io_ratios(args.baseline, args.min_depth)
        label = "uring/threadpool"
        if not cur_all:
            print(f"no uring results in {args.current} (io_uring probe "
                  f"unavailable?); skipping io bench guard")
            return 0
    if not base:
        print(f"error: no enforceable {label} ratios in {args.baseline}",
              file=sys.stderr)
        return 2
    if not cur:
        print(f"error: no enforceable {label} ratios in {args.current}",
              file=sys.stderr)
        return 2

    floor = 1.0 - args.max_regression
    print(f"{'config':<20} {'baseline':>9} {'current':>9} {'delta':>8}")
    for key in sorted(base_all):
        b = base_all[key]
        c = cur_all.get(key)
        if c is None:
            continue
        delta = (c - b) / b
        enforced = key in base and key in cur
        marker = "" if enforced else "  (not enforced)"
        print(f"{key:<20} {b:>8.2f}x {c:>8.2f}x {delta:>+7.1%}{marker}")

    shared = sorted(set(base) & set(cur))
    if not shared:
        print("error: no overlapping enforced configs", file=sys.stderr)
        return 2
    base_gm = geomean([base[k] for k in shared])
    cur_gm = geomean([cur[k] for k in shared])
    delta = (cur_gm - base_gm) / base_gm
    print(f"\ngeomean {label} ratio over {len(shared)} enforced "
          f"configs: baseline {base_gm:.2f}x, current {cur_gm:.2f}x "
          f"({delta:+.1%})")
    ok = True
    if cur_gm < base_gm * floor:
        print(f"FAIL: geomean ratio regressed more than "
              f"{args.max_regression:.0%} vs baseline", file=sys.stderr)
        ok = False
    if args.min_ratio is not None and cur_gm < args.min_ratio:
        print(f"FAIL: geomean ratio {cur_gm:.2f}x below the "
              f"{args.min_ratio:.2f}x floor", file=sys.stderr)
        ok = False
    if not ok:
        return 1
    print(f"OK: within {args.max_regression:.0%} of baseline"
          + (f" and above the {args.min_ratio:.2f}x floor"
             if args.min_ratio is not None else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
