#!/usr/bin/env bash
# Build the exom benchmark from source and run it:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  The build log goes to stderr, so the
# harness's result object stays the last line of stdout.
set -euo pipefail
export DUNE_CACHE=disabled
dune build --root . ./benchmark/exbench.exe 1>&2
exec ./_build/default/benchmark/exbench.exe "$@"
