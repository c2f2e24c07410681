#!/bin/sh
# Line count of each library's OCaml sources under lib/, then of the
# bench harness, the CLIs, the scripts and the CI workflow, with a total
# per group, so code size can be tracked next to ms/step.
# Informational only: it never fails on a count.
set -eu
cd "$(dirname "$0")/.."

# row LABEL FILE...: print the lines of FILE... and add them to $total.
row() {
  n=$(shift; cat "$@" 2>/dev/null | wc -l)
  printf '%-24s %6d\n' "$1" "$n"
  total=$((total + n))
}

total=0
for dir in lib/*/; do row "${dir%/}" "$dir"*.ml "$dir"*.mli; done
printf '%-24s %6d\n' "total lib" "$total"
total=0
for dir in bench bin; do row "$dir" "$dir"/*.ml "$dir"/*.mli; done
row scripts scripts/*.sh
row ci .github/workflows/ci.yml
printf '%-24s %6d\n' "total harness" "$total"
