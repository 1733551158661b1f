#!/usr/bin/env bash
# Build the benchmark harness from source and run it:
#
#   bash mgbench/run.sh --workload solve-W --seed 1 --seconds 20 --trace 0
#
# Run from the repository root.  Build output goes to stderr, so the
# harness's last line of standard output stays its JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# The benchmark fixes every engine setting itself; MG_* variables
# (thread count, pooling, C compiler, ...) must not leak in.
for v in $(compgen -e | grep '^MG_' || true); do unset "$v"; done
dune build --root . ./mgbench/mgbench.exe 1>&2
exec ./_build/default/mgbench/mgbench.exe "$@"
