#!/bin/sh
# Builds the benchmark from source and runs one workload.
#
#   sh bench/perf/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#
# The repository root is found from this script's location, so a copy
# that holds only the benchmark's own files fails to build and exits
# nonzero instead of picking up another dune project.
set -e
root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
exec dune exec --root "$root" --cache=disabled --display=quiet \
  --no-print-directory ./bench/perf/main.exe -- "$@"
