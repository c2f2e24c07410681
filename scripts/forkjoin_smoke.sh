#!/bin/sh
# Fork/join smoke: marches the Fortran baseline on a 24x24 two-channel
# problem (WENO3 + HLLC, per-row regions) through the eulersim CLI,
# once on the 2-lane fork/join scheduler and once sequentially, and
# requires the two runs to agree bit for bit: the final field CSV and
# every stdout line from the conservation line on.  The lines above it
# name the scheduler and report wall times, so they differ by design.
set -eu
cd "$(dirname "$0")/.."

dune build bin/eulersim.exe
sim=_build/default/bin/eulersim.exe
work="bench_out/forkjoin-smoke"
rm -rf "$work"
mkdir -p "$work"

for sched in forkjoin seq; do
  "$sim" two-channel --nx 24 --steps 10 --backend fortran \
    --sched "$sched" --lanes 2 --csv "$work/$sched.csv" \
    | sed -n '/^mass /,$p' | grep -v '^wrote ' >"$work/$sched.out"
done

test -s "$work/seq.out" \
  || { echo "forkjoin_smoke: no conservation line in output" >&2; exit 1; }
cmp "$work/forkjoin.out" "$work/seq.out" \
  || { echo "forkjoin_smoke: stdout differs from the sequential run" >&2
       exit 1; }
cmp "$work/forkjoin.csv" "$work/seq.csv" \
  || { echo "forkjoin_smoke: field differs from the sequential run" >&2
       exit 1; }
echo "forkjoin_smoke: fork/join(2) matches sequential bit for bit"
