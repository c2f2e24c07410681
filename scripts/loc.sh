#!/bin/sh
# Line count of the OCaml sources (.ml and .mli) of each library under
# lib/, plus the total, so code size can be tracked next to ms/step.
# Informational only: it never fails on a count.
set -eu
cd "$(dirname "$0")/.."

total=0
for dir in lib/*/; do
  lib=${dir%/}
  n=$(cat "$lib"/*.ml "$lib"/*.mli 2>/dev/null | wc -l)
  printf '%-24s %6d\n' "$lib" "$n"
  total=$((total + n))
done
printf '%-24s %6d\n' total "$total"
