#!/usr/bin/env bash
# Build perfbench/perf.exe from the sources of this checkout, then run it
# with the given arguments.  Build output goes to stderr, so the last line
# on stdout is the benchmark's result line.  The dune cache is off, so the
# build writes nothing outside the checkout.
#
#   bash perfbench/run.sh --workload read-mostly --seed 1 --seconds 10 --trace 0
set -euo pipefail
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --build-dir _build ./perfbench/perf.exe 1>&2
exec ./_build/default/perfbench/perf.exe "$@"
