#!/usr/bin/env python3
"""Build bench_e2e and run workloads with a pinned configuration.

    python3 bench/e2e/run.py [--workload NAME] [--seed N] [--runs R]
                             [--seconds S] [--trace 0|1] [--trace-file F]
                             [--out F]

Builds the standalone project in bench/e2e into .bench_build/e2e (Release),
then runs each workload in its own process, with OMP_NUM_THREADS set to half
the CPUs (at most 4; the other half serve the engine's I/O threads), one
malloc arena, no MLVC_* variable, and TMPDIR inside .bench_build. Without
--workload every
workload of BENCHMARK.json runs; --runs R runs seeds N .. N+R-1 of each.

Every metric prints as "workload metric value unit n=<samples>", and the last
line of standard output is the result JSON {correct, attempted, failed,
metrics} of the last run. --trace 1 prints the per-layer metrics instead of
the end-to-end ones and writes the spans as Chrome trace-event JSON (default
.bench_build/trace/<workload>-<seed>.json). --out appends each run, with its
samples and resolved configuration, to a result set that compare.py reads.
Exits non-zero when the build fails, an output does not match its reference,
or the printed metrics differ from BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    tree = BUILD / "e2e"
    subprocess.run(["cmake", "-S", str(HERE), "-B", str(tree),
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(tree), "--target", "bench_e2e",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return tree / "bench_e2e"


def append_run(path, run):
    path = Path(path)
    runs = json.loads(path.read_text())["runs"] if path.exists() else []
    runs.append(run)
    path.parent.mkdir(parents=True, exist_ok=True)
    # One run per line keeps committed result sets small and diffable.
    path.write_text('{"runs": [\n' + ",\n".join(json.dumps(r) for r in runs)
                    + "\n]}\n")


def run_one(binary, spec, args, workload, seed):
    """Runs one workload process; returns its exit status."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MLVC_")}
    env["OMP_NUM_THREADS"] = str(max(1, min((os.cpu_count() or 1) // 2, 4)))
    # One malloc arena: with per-thread arenas the peak resident set of one
    # input differed by up to 6 MiB between processes.
    env["MALLOC_ARENA_MAX"] = "1"
    env["TMPDIR"] = str(BUILD / "tmp")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    record = BUILD / "e2e" / "last-run.json"
    record.unlink(missing_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--record", str(record)]
    trace_file = Path(args.trace_file or
                      BUILD / "trace" / f"{workload}-{seed}.json")
    if args.trace:
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace", str(trace_file)]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run.py: bench_e2e did not finish within {RUN_TIMEOUT_S} s")
        return 1
    if proc.returncode != 0 or not record.exists():
        sys.stdout.write(proc.stdout)
        log(f"run.py: bench_e2e exited with {proc.returncode}")
        return proc.returncode or 1

    run = json.loads(record.read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if args.trace else "end_to_end"]}
    if {name: m["unit"] for name, m in run["metrics"].items()} != expected:
        log("run.py: the metrics bench_e2e printed differ from BENCHMARK.json")
        return 1
    if args.trace:
        try:
            json.loads(trace_file.read_text())
        except ValueError as e:
            log(f"run.py: {trace_file} is not valid JSON: {e}")
            return 1
    if args.out:
        append_run(args.out, run)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return 0


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names,
                   help="one workload (default: every workload)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--runs", type=int, default=1,
                   help="runs per workload, with seeds seed .. seed+runs-1")
    p.add_argument("--seconds", type=float, default=spec["run_seconds"],
                   help="measured seconds per run (default: run_seconds of "
                        "BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-file")
    p.add_argument("--out", help="result set to append each run to")
    args = p.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as e:
        log("run.py: build failed:", e)
        return 1
    status = 0
    for workload in [args.workload] if args.workload else names:
        for seed in range(args.seed, args.seed + args.runs):
            status = run_one(binary, spec, args, workload, seed) or status
    return status


if __name__ == "__main__":
    sys.exit(main())
