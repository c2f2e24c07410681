#!/bin/sh
# 1D ghost-fill smoke: marches a 400-cell Sod tube on the reference
# backend five ways (sequential, SPMD and fork/join at 2 lanes, the
# unfused per-loop dispatch, and 1x2 tiles) and requires the final
# checkpoints to be byte-identical.  A 1D grid (ny = 1 < 3 ghost
# layers) fills its south and north ghost rows as whole rows, and the
# checkpoint carries those ghost rows; the --csv output does not.
set -eu
cd "$(dirname "$0")/.."

dune build bin/eulersim.exe
sim=_build/default/bin/eulersim.exe
work="bench_out/sod1d-smoke"
rm -rf "$work"

run() {
  name=$1
  shift
  mkdir -p "$work/$name"
  "$sim" sod --nx 400 --steps 20 --backend reference \
    --checkpoint-dir "$work/$name" "$@" >/dev/null
}

run seq --sched seq
run spmd --sched spmd --lanes 2
run forkjoin --sched forkjoin --lanes 2
run unfused --unfused
run tiles --tiles 1x2

ckpt=ckpt-000000020.swck
test -s "$work/seq/$ckpt" \
  || { echo "sod1d_smoke: no final checkpoint $ckpt" >&2; exit 1; }
for name in spmd forkjoin unfused tiles; do
  cmp "$work/seq/$ckpt" "$work/$name/$ckpt" \
    || { echo "sod1d_smoke: $name checkpoint differs from seq" >&2; exit 1; }
done
echo "sod1d_smoke: spmd, forkjoin, unfused and 1x2 tiles match seq byte for byte"
