#!/usr/bin/env sh
# Run the substrate sweeps and emit BENCH_scatter.json + BENCH_io.json +
# BENCH_serve.json + BENCH_compress.json + BENCH_async.json +
# BENCH_stripe.json + BENCH_direction.json.
#
#   tools/run_bench.sh [build-dir] [scatter-out.json] [io-out.json] \
#       [serve-out.json] [compress-out.json] [async-out.json] \
#       [stripe-out.json] [direction-out.json]
#
# Environment:
#   MLVC_BENCH_MIN_TIME   per-benchmark min time in seconds (default 0.05;
#                         raise for stable numbers, e.g. MLVC_BENCH_MIN_TIME=0.5)
#   MLVC_BENCH_FILTER     benchmark_filter regex for the scatter sweep
#                         (default: BM_ScatterAppend)
#   MLVC_BENCH_BASELINE   baseline JSON for the scatter regression guard
#                         (default: bench/baselines/scatter.json next to this
#                         script; guard is skipped when the file is absent)
#   MLVC_BENCH_IO_BASELINE  baseline JSON for the io-substrate guard
#                         (default: bench/baselines/io.json; skipped if absent)
#   MLVC_BENCH_SERVE_BASELINE  baseline JSON for the serving-scaling guard
#                         (default: bench/baselines/serve.json; skipped if
#                         absent)
#   MLVC_BENCH_COMPRESS_BASELINE  baseline JSON for the on-disk-format
#                         compression guard (default:
#                         bench/baselines/compress.json; skipped if absent)
#   MLVC_BENCH_SERVE_QUERIES / MLVC_BENCH_SERVE_CONCURRENCY
#                         forwarded to bench_serve (queries per level /
#                         comma list of concurrency levels)
#   MLVC_BENCH_CHECK      set to 0 to skip the regression guards entirely
#   MLVC_BENCH_MAX_REGRESSION  allowed fractional drop in a guarded
#                         throughput ratio before failing (default 0.30)
#   MLVC_BENCH_IO_MIN_RATIO  absolute floor on the uring/threadpool geomean
#                         at enforced queue depths (default 1.5; set empty
#                         to disable the floor)
#   MLVC_BENCH_COMPRESS_MIN_RATIO  absolute floor on the v1/v2 bytes-per-edge
#                         geomean (default 2.0; set empty to disable)
#   MLVC_BENCH_ASYNC_BASELINE  baseline JSON for the async-scheduling guard
#                         (default: bench/baselines/async.json; skipped if
#                         absent)
#   MLVC_BENCH_ASYNC_MIN_GEOMEAN  absolute floor on the bsp/async geomean
#                         over the enforced configs (default 1.05; set empty
#                         to disable)
#   MLVC_BENCH_STRIPE_BASELINE  baseline JSON for the multi-device striping
#                         guard (default: bench/baselines/stripe.json;
#                         skipped if absent)
#   MLVC_BENCH_STRIPE_MIN_GEOMEAN  absolute floor on the striped/single-
#                         device geomean over the enforced configs
#                         (default 1.3; set empty to disable)
#   MLVC_BENCH_DIRECTION_BASELINE  baseline JSON for the direction-
#                         optimization guard (default:
#                         bench/baselines/direction.json; skipped if absent)
#   MLVC_BENCH_DIRECTION_MIN_GEOMEAN  absolute floor on the push/adaptive
#                         geomean over the enforced configs (default 2.0;
#                         set empty to disable). bench_direction itself
#                         additionally enforces the per-app log-byte and
#                         modeled-time floors and exits nonzero on failure.
set -eu

build_dir="${1:-build}"
scatter_out="${2:-BENCH_scatter.json}"
io_out="${3:-BENCH_io.json}"
serve_out="${4:-BENCH_serve.json}"
compress_out="${5:-BENCH_compress.json}"
async_out="${6:-BENCH_async.json}"
stripe_out="${7:-BENCH_stripe.json}"
direction_out="${8:-BENCH_direction.json}"
min_time="${MLVC_BENCH_MIN_TIME:-0.05}"
filter="${MLVC_BENCH_FILTER:-BM_ScatterAppend}"
repo_root="$(cd "$(dirname "$0")/.." && pwd)"
check="${MLVC_BENCH_CHECK:-1}"
max_regression="${MLVC_BENCH_MAX_REGRESSION:-0.30}"

# The suites, in run order, one per line:
#   suite  bench-binary  baseline-env  floor-env  default-floor
# A floor env set to the empty string disables that suite's absolute floor;
# "-" means the suite has none.
suites='
scatter   bench_micro_substrate MLVC_BENCH_BASELINE           -                                -
io        bench_micro_substrate MLVC_BENCH_IO_BASELINE        MLVC_BENCH_IO_MIN_RATIO          1.5
serve     bench_serve           MLVC_BENCH_SERVE_BASELINE     -                                -
compress  bench_compress        MLVC_BENCH_COMPRESS_BASELINE  MLVC_BENCH_COMPRESS_MIN_RATIO    2.0
async     bench_async           MLVC_BENCH_ASYNC_BASELINE     MLVC_BENCH_ASYNC_MIN_GEOMEAN     1.05
stripe    bench_stripe          MLVC_BENCH_STRIPE_BASELINE    MLVC_BENCH_STRIPE_MIN_GEOMEAN    1.3
direction bench_direction       MLVC_BENCH_DIRECTION_BASELINE MLVC_BENCH_DIRECTION_MIN_GEOMEAN 2.0
'

# run_suite SUITE BINARY OUT: run one sweep, writing OUT. scatter and io
# are two filters over the google-benchmark substrate binary; every other
# suite binary takes its output path.
run_suite() {
  bin="$build_dir/bench/$2"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (cmake --build $build_dir --target $2)" >&2
    exit 1
  fi
  case "$1" in
    scatter) bench_filter="$filter" ;;
    io) bench_filter="BM_IoRandRead" ;;
    *)
      "$bin" "$3"
      return 0
      ;;
  esac
  "$bin" \
    --benchmark_filter="$bench_filter" \
    --benchmark_min_time="$min_time" \
    --benchmark_out="$3" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true
  echo "wrote $3"
}

# guard_suite SUITE OUT BASELINE-ENV FLOOR-ENV DEFAULT-FLOOR: compare the
# suite's guarded ratios against its committed baseline (skipped when the
# baseline file is absent).
guard_suite() {
  eval "baseline=\${$3:-$repo_root/bench/baselines/$1.json}"
  if [ ! -f "$baseline" ]; then
    echo "no baseline at $baseline, skipping $1 regression guard"
    return 0
  fi
  floor=""
  if [ "$4" != "-" ]; then eval "floor=\${$4-$5}"; fi
  if [ -n "$floor" ]; then
    python3 "$repo_root/tools/check_bench_regression.py" "$2" "$baseline" \
      --suite "$1" --max-regression "$max_regression" --min-ratio "$floor"
  else
    python3 "$repo_root/tools/check_bench_regression.py" "$2" "$baseline" \
      --suite "$1" --max-regression "$max_regression"
  fi
}

while read -r suite bin _; do
  [ -n "$suite" ] || continue
  eval "suite_out=\$${suite}_out"
  run_suite "$suite" "$bin" "$suite_out"
done <<EOF
$suites
EOF

# Regression guards: skipped entirely when MLVC_BENCH_CHECK=0.
if [ "$check" != "0" ]; then
  while read -r suite _ baseline_env floor_env floor; do
    [ -n "$suite" ] || continue
    eval "suite_out=\$${suite}_out"
    guard_suite "$suite" "$suite_out" "$baseline_env" "$floor_env" "$floor"
  done <<EOF
$suites
EOF
fi
