#!/usr/bin/env bash
# Build spatial-perf from source and run one workload:
#
#   bash bench/perf/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the repository root.  The build goes to
# $CARGO_TARGET_DIR/perf (default .bench_build/perf); build output goes
# to stderr, so the last line on stdout is the run's JSON result.
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}/perf"

args=()
while [ $# -gt 0 ]; do
  case "$1" in
    --*=*) args+=("$1"); shift ;;
    --*)
      if [ $# -lt 2 ]; then
        echo "run.sh: $1 needs a value" >&2
        exit 2
      fi
      args+=("$1=$2"); shift 2 ;;
    *) echo "run.sh: unexpected argument '$1'" >&2; exit 2 ;;
  esac
done

cmake -S bench/perf -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target spatial_perf -j 4 >&2
exec "$build/spatial-perf" one "${args[@]}"
