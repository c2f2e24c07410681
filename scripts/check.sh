#!/bin/sh
# Tier-1 health check: build, run the test suite, then drive every
# runtime surface end to end: the bench harness (fig1 and the hotpath,
# scaling, checkpoint, tiling, convergence and fleet smokes, each of
# which checks its BENCH_*.json against the floor table in
# bench/artefact.ml as it writes it), the CLI smokes and the golden
# store.  scripts/loc.sh prints the line count (informational).
set -eu
cd "$(dirname "$0")/.."

dune build
dune runtest
sh scripts/loc.sh
dune exec bench/main.exe -- fig1 --quick

# Checkpoint/restart: deterministic resume, torn-write fallback and
# kill -9 survival, all through the CLI.
sh scripts/ckpt_smoke.sh

# Fork/join end to end: the hot team must reproduce the sequential
# march bit for bit.
sh scripts/forkjoin_smoke.sh

# 1D ghost rows end to end: every scheduler, the unfused dispatch and
# 1x2 tiles must write byte-identical Sod checkpoints.
sh scripts/sod1d_smoke.sh

# The committed golden store must match what the backends compute now.
dune exec bin/golden.exe -- check --root test/golden

# The bytecode VM must drive a Sod run through the registered sacprog
# backend end to end before the bench relies on it.
dune exec bin/eulersim.exe -- sod --nx 32 --steps 5 --backend sacprog \
  >/dev/null || { echo "check.sh: sacprog VM smoke failed" >&2; exit 1; }
echo "check.sh: sacprog bytecode-VM smoke passed"

# The README's sacc line must run the paper's dfDxNoBoundary kernel and
# print its value.
sacc_out=$(dune exec bin/sacc.exe -- dfdx --run dfDxNoBoundary \
  --arg "[1,4,9,16]" --arg 1.0)
echo "$sacc_out" | grep -qF 'dfDxNoBoundary([1,4,9,16], 1.0) = [3, 5, 7]' \
  || { echo "check.sh: sacc smoke failed: $sacc_out" >&2; exit 1; }
echo "check.sh: sacc smoke passed"

# Bench smokes on tiny grids.  Each experiment checks its BENCH_*.json
# against the floor table in bench/artefact.ml as it writes it; quick
# artefacts are exempt from the full-size floors, so a full
# BENCH_hotpath.json left by an earlier run is re-checked here.
smoke_dir="bench_out/smoke"
dune exec bench/main.exe -- hotpath --quick --out "$smoke_dir"
[ ! -f bench_out/BENCH_hotpath.json ] \
  || dune exec bench/main.exe -- validate bench_out/BENCH_hotpath.json

# A 2-lane VM run through the CLI: the sacprog backend must accept a
# parallel scheduler and a lowered parallel threshold together (the
# with-loops on this grid only cross the default 1024-element cut
# when --par-threshold drags it down).
dune exec bin/eulersim.exe -- sod --nx 32 --steps 5 --backend sacprog \
  --sched spmd --lanes 2 --par-threshold 16 >/dev/null \
  || { echo "check.sh: 2-lane sacprog VM smoke failed" >&2; exit 1; }
echo "check.sh: 2-lane sacprog VM smoke passed"

# Scaling: every scheduler at 1 and 2 lanes, fused and unfused.
dune exec bench/main.exe -- scaling --quick --lanes 2 --out "$smoke_dir"

# Checkpoint overhead: ms/snapshot against ms/step.
dune exec bench/main.exe -- checkpoint --quick --out "$smoke_dir"

# Tiling: monolithic and tiled runs under every scheduler, halo share
# and arena growth measured.
dune exec bench/main.exe -- tiling --quick --lanes 2 --out "$smoke_dir"

# Convergence: grid-refinement slopes per scheme on the smooth pulse
# and exact-Riemann L1 decay on the shock tubes.
dune exec bench/main.exe -- convergence --quick --out "$smoke_dir"

# Double Mach reflection through the CLI: the time-dependent north
# boundary (the oblique shock's analytic trajectory) must march a
# short run cleanly end to end.
dune exec bin/eulersim.exe -- dmr --nx 32 --steps 8 --cfl 0.4 \
  --recon pc --riemann rusanov >/dev/null \
  || { echo "check.sh: dmr CLI smoke failed" >&2; exit 1; }
echo "check.sh: dmr time-dependent boundary smoke passed"

# Tiled decomposition smoke through the CLI: a 2x2 and an uneven 3x2
# run must produce checkpoints byte-identical to the monolithic run's
# (the gather-on-snapshot contract), on a genuinely 2D problem.
tile_dir="bench_out/smoke/tiles"
rm -rf "$tile_dir"
for t in 1x1 2x2 3x2; do
  mkdir -p "$tile_dir/$t"
  dune exec bin/eulersim.exe -- quadrant --nx 24 --tiles "$t" --steps 6 \
    --checkpoint-dir "$tile_dir/$t" --checkpoint-every 6 >/dev/null
done
for t in 2x2 3x2; do
  cmp "$tile_dir/1x1/ckpt-000000006.swck" "$tile_dir/$t/ckpt-000000006.swck" \
    || { echo "check.sh: --tiles $t diverged from monolithic" >&2; exit 1; }
done
echo "check.sh: tiled runs bitwise-identical to monolithic"

# Fleet job engine: inbox lifecycle, failed-job isolation and kill -9
# crash recovery through the serve CLI.
sh scripts/fleet_smoke.sh

# Fleet: a mixed batch drained with preemption, against the serial
# per-job-decomposition baseline.
dune exec bench/main.exe -- fleet --quick --lanes 2 --out "$smoke_dir"

echo "check.sh: all green"
