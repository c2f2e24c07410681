#!/bin/sh
# Builds the benchmark from source, then runs it with the given
# arguments, e.g.
#   sh perfbench/run.sh --workload fig3-channel --seed 1 --seconds 10 --trace 0
# Run from the root of a checkout.  Build output goes to stderr; the
# last line of stdout is the result object.
set -e
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
