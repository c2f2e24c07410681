#!/bin/sh
# Tier-1 health check: build everything, run the full test suite, and
# exercise the engine-driven bench harness end to end on the Fig. 1
# experiment (fast, no multicore hardware needed), plus two bench
# smokes: hotpath (every registry backend on a tiny grid) and a 2-lane
# scaling sweep (sequential/spmd/fork-join, fused and unfused), with
# the emitted BENCH_hotpath.json and BENCH_scaling.json validated for
# shape.  The checkpoint/restart subsystem gets its own smoke
# (save -> kill -> resume, bitwise acceptance) plus a golden-store
# check and the checkpoint-overhead bench artefact.  Tiled domain
# decomposition is covered twice: the BENCH_tiling.json artefact
# (halo-exchange share, fused dispatch budget, steady arenas) and a
# CLI smoke comparing tiled checkpoints against monolithic bytes.
# The fleet job engine gets a serve-CLI smoke (mixed-batch drain,
# failed-job isolation, kill -9 crash recovery) and the BENCH_fleet
# artefact with its 2x batching-speedup floor.  The mini-SaC driver
# gets a sacc smoke running the README's dfDxNoBoundary line, and the
# fork/join scheduler a CLI smoke pinning it to the sequential march.
# scripts/loc.sh prints the per-library line count (informational).
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

# Hotpath artefact validation (hotpath-v3).  The fold section must be
# present, bitwise-pinned, fully kernelised and faster than the
# generic (kernels-off) walk; the VM row must beat the interpreter.
# The <= 1.2x reference-parity floor binds on full-size artefacts
# (quick grids are overhead-dominated and exempt): a non-quick
# BENCH_hotpath.json above the floor fails this script with a
# non-zero exit.  The same predicate runs on the quick smoke here and
# on bench_out/BENCH_hotpath.json when a full run has left one.
validate_hotpath() {
  hp_json="$1"
  if command -v jq >/dev/null 2>&1; then
    jq -e '
      .schema == "hotpath-v3"
      and .parity_target == 1.2
      and (.fold
           | .bitwise_equal == true
           and .fold_kernel_execs > 0
           and .fold_kernel_execs == .fold_execs
           and .par_fold_kernel_execs > 0
           and .seq_ms_per_call > 0
           and .kernel_speedup >= 1
           and .par_lanes >= 2)
      and (.backends | length > 0)
      and ([.backends[] | select(.name == "sacprog-vm")] | length == 1)
      and ([.backends[] | select(.name == "sacprog-interp")] | length == 1)
      and ([.backends[] | select(.name == "reference-sod")] | length == 1)
      and ([.backends[] | select(.name == "sacprog-vm")
            | .speedup_vs_interp] | min >= 1)
      and ([.backends[] | select(.name == "sacprog-vm")
            | .slowdown_vs_reference_sod] | min > 0)
      and (.quick
           or ([.backends[] | select(.name == "sacprog-vm")
                | .slowdown_vs_reference_sod] | min) <= .parity_target)' \
      "$hp_json" >/dev/null \
      || { echo "check.sh: $hp_json failed validation" >&2; exit 1; }
  else
    python3 - "$hp_json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "hotpath-v3", "bad schema"
assert d["parity_target"] == 1.2, "bad parity target"
fold = d["fold"]
assert fold["bitwise_equal"] is True, "fold paths diverged"
assert fold["fold_kernel_execs"] > 0, "no fold kernels"
assert fold["fold_kernel_execs"] == fold["fold_execs"], "folds not kernelised"
assert fold["par_fold_kernel_execs"] > 0, "no parallel fold kernels"
assert fold["seq_ms_per_call"] > 0, "bad fold timing"
assert fold["kernel_speedup"] >= 1, "fold kernel slower than generic walk"
assert fold["par_lanes"] >= 2, "parallel fold not measured"
assert len(d["backends"]) > 0, "no backend rows"
rows = {r["name"]: r for r in d["backends"]}
for name in ("sacprog-vm", "sacprog-interp", "reference-sod"):
    assert name in rows, "missing " + name
vm = rows["sacprog-vm"]
assert vm["speedup_vs_interp"] >= 1, "VM slower than the interpreter"
assert vm["slowdown_vs_reference_sod"] > 0, "bad reference ratio"
if not d["quick"]:
    assert vm["slowdown_vs_reference_sod"] <= d["parity_target"], (
        "VM misses the %.1fx reference-parity floor: %.3fx"
        % (d["parity_target"], vm["slowdown_vs_reference_sod"]))
EOF
  fi
  echo "check.sh: $hp_json validated"
}

smoke_dir="bench_out/smoke"
dune exec bench/main.exe -- hotpath --quick --out "$smoke_dir"
json="$smoke_dir/BENCH_hotpath.json"
validate_hotpath "$json"
if [ -f bench_out/BENCH_hotpath.json ]; then
  validate_hotpath bench_out/BENCH_hotpath.json
fi

# A 2-lane VM run through the CLI: the sacprog backend must accept a
# parallel scheduler and a lowered parallel threshold together (the
# with-loops on this grid only cross the default 1024-element cut
# when --par-threshold drags it down).
dune exec bin/eulersim.exe -- sod --nx 32 --steps 5 --backend sacprog \
  --sched spmd --lanes 2 --par-threshold 16 >/dev/null \
  || { echo "check.sh: 2-lane sacprog VM smoke failed" >&2; exit 1; }
echo "check.sh: 2-lane sacprog VM smoke passed"

# Scaling smoke: 2 lanes is enough to prove the sweep covers every
# scheduler at every lane count with both the fused and the unfused
# solver path, and that the fused path holds the <= 4 regions/step
# contract the with-loop-folding work guarantees.
dune exec bench/main.exe -- scaling --quick --lanes 2 --out "$smoke_dir"
scaling_json="$smoke_dir/BENCH_scaling.json"
if command -v jq >/dev/null 2>&1; then
  jq -e '
    .schema == "scaling-v1"
    and .max_lanes == 2
    and ([.rows[].exec] | unique == ["fork-join", "sequential", "spmd"])
    and ([.rows[] | select(.exec != "sequential") | .lanes]
         | unique == [1, 2])
    and ([.rows[].fused] | unique == [false, true])
    and ([.rows[] | select(.fused and .exec != "fork-join")
          | .regions_per_step] | max <= 4)
    and ([.rows[] | .ms_per_step] | min > 0)' "$scaling_json" \
    >/dev/null || {
      echo "check.sh: $scaling_json failed validation" >&2; exit 1; }
else
  python3 - "$scaling_json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "scaling-v1", "bad schema"
assert d["max_lanes"] == 2, "bad max_lanes"
rows = d["rows"]
assert sorted({r["exec"] for r in rows}) == ["fork-join", "sequential", "spmd"]
assert sorted({r["lanes"] for r in rows if r["exec"] != "sequential"}) == [1, 2]
assert sorted({r["fused"] for r in rows}) == [False, True]
assert all(r["regions_per_step"] <= 4 for r in rows
           if r["fused"] and r["exec"] != "fork-join"), "fused regions > 4"
assert all(r["ms_per_step"] > 0 for r in rows)
EOF
fi
echo "check.sh: $scaling_json validated"

# Checkpoint-overhead artefact: ms/snapshot vs ms/step must be
# measured and the payload must dominate the bytes written.
dune exec bench/main.exe -- checkpoint --quick --out "$smoke_dir"
ckpt_json="$smoke_dir/BENCH_checkpoint.json"
if command -v jq >/dev/null 2>&1; then
  jq -e '
    .schema == "checkpoint-v1"
    and (.rows | length > 0)
    and ([.rows[].ms_per_snapshot] | min > 0)
    and ([.rows[].payload_fraction] | min > 0.5)' "$ckpt_json" \
    >/dev/null || {
      echo "check.sh: $ckpt_json failed validation" >&2; exit 1; }
else
  python3 - "$ckpt_json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "checkpoint-v1", "bad schema"
rows = d["rows"]
assert rows, "no rows"
assert all(r["ms_per_snapshot"] > 0 for r in rows)
assert all(r["payload_fraction"] > 0.5 for r in rows)
EOF
fi
echo "check.sh: $ckpt_json validated"

# Tiling bench artefact: every scheduler must be measured monolithic
# and tiled, the fused dispatch budget must hold under tiling, and the
# lane arenas must be steady after warm-up (zero steady-state
# allocation with halo exchange in the loop).
dune exec bench/main.exe -- tiling --quick --lanes 2 --out "$smoke_dir"
tiling_json="$smoke_dir/BENCH_tiling.json"
if command -v jq >/dev/null 2>&1; then
  jq -e '
    .schema == "tiling-v1"
    and ([.rows[].exec] | unique == ["fork-join", "sequential", "spmd"])
    and ([.rows[].tiles] | unique == [[1, 1], [2, 2], [3, 2]])
    and ([.rows[] | select(.exec != "fork-join") | .regions_per_step]
         | max <= 4)
    and ([.rows[] | select(.tiles != [1, 1]) | .halo_share] | min > 0)
    and ([.rows[] | select(.tiles == [1, 1]) | .halo_share] | max == 0)
    and ([.rows[].growths_stable] | unique == [true])
    and ([.rows[].ms_per_step] | min > 0)' "$tiling_json" \
    >/dev/null || {
      echo "check.sh: $tiling_json failed validation" >&2; exit 1; }
else
  python3 - "$tiling_json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "tiling-v1", "bad schema"
rows = d["rows"]
assert sorted({r["exec"] for r in rows}) == ["fork-join", "sequential", "spmd"]
assert sorted({tuple(r["tiles"]) for r in rows}) == [(1, 1), (2, 2), (3, 2)]
assert all(r["regions_per_step"] <= 4 for r in rows
           if r["exec"] != "fork-join"), "tiled fused regions > 4"
assert all(r["halo_share"] > 0 for r in rows if r["tiles"] != [1, 1])
assert all(r["halo_share"] == 0 for r in rows if r["tiles"] == [1, 1])
assert all(r["growths_stable"] for r in rows), "arena grew mid-run"
assert all(r["ms_per_step"] > 0 for r in rows)
EOF
fi
echo "check.sh: $tiling_json validated"

# Convergence harness: grid-refinement slopes per scheme on the smooth
# pulse and exact-Riemann L1 decay on the shock tubes.  The experiment
# itself exits non-zero if any scheme falls below its order floor; the
# JSON shape check keeps the artefact consumable.
dune exec bench/main.exe -- convergence --quick --out "$smoke_dir"
conv_json="$smoke_dir/BENCH_convergence.json"
if command -v jq >/dev/null 2>&1; then
  jq -e '
    .schema == "convergence-v1"
    and ([.rows[].kind] | unique == ["exact", "self"])
    and ([.rows[].pass] | unique == [true])
    and ([.rows[].monotone] | unique == [true])
    and ([.rows[] | .samples | length] | min >= 2)
    and ([.rows[] | select(.kind == "self")
          | .observed_order >= .min_order] | unique == [true])' \
    "$conv_json" >/dev/null || {
      echo "check.sh: $conv_json failed validation" >&2; exit 1; }
else
  python3 - "$conv_json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "convergence-v1", "bad schema"
rows = d["rows"]
assert sorted({r["kind"] for r in rows}) == ["exact", "self"]
assert all(r["pass"] for r in rows), "a scheme fell below its floor"
assert all(r["monotone"] for r in rows), "errors not monotone"
assert all(len(r["samples"]) >= 2 for r in rows)
assert all(r["observed_order"] >= r["min_order"]
           for r in rows if r["kind"] == "self")
EOF
fi
echo "check.sh: $conv_json validated"

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

# Fleet bench artefact: a >= 20-job mixed batch must drain with zero
# failures, real preemptions and resumes, and beat the serial
# per-job-decomposition baseline by the 2x floor (the experiment
# itself exits non-zero below the floor; the shape check keeps the
# artefact consumable).
dune exec bench/main.exe -- fleet --quick --lanes 2 --out "$smoke_dir"
fleet_json="$smoke_dir/BENCH_fleet.json"
if command -v jq >/dev/null 2>&1; then
  jq -e '
    .schema == "fleet-v1"
    and .speedup_floor == 2.0
    and .speedup >= .speedup_floor
    and .failed == 0
    and .completed == .jobs
    and .preemptions > 0
    and .resumes > 0
    and .small_jobs > 0
    and .large_jobs > 0
    and (.rows | length) >= 20
    and (.rows | length) == .jobs
    and ([.rows[].status] | unique == ["done"])
    and ([.rows[].steps_run] | min > 0)
    and .fleet.agg_cells_per_s > 0
    and .fleet.p99_ms_per_step >= .fleet.p50_ms_per_step' \
    "$fleet_json" >/dev/null || {
      echo "check.sh: $fleet_json failed validation" >&2; exit 1; }
else
  python3 - "$fleet_json" <<'EOF'
import json, sys
d = json.load(open(sys.argv[1]))
assert d["schema"] == "fleet-v1", "bad schema"
assert d["speedup_floor"] == 2.0, "bad speedup floor"
assert d["speedup"] >= d["speedup_floor"], (
    "fleet misses the %.1fx floor: %.3fx" % (d["speedup_floor"], d["speedup"]))
assert d["failed"] == 0, "failed jobs in the bench batch"
assert d["completed"] == d["jobs"], "not every job completed"
assert d["preemptions"] > 0, "no preemptions measured"
assert d["resumes"] > 0, "no resumes measured"
assert d["small_jobs"] > 0 and d["large_jobs"] > 0, "batch not mixed"
rows = d["rows"]
assert len(rows) >= 20 and len(rows) == d["jobs"], "bad row count"
assert {r["status"] for r in rows} == {"done"}, "non-done rows"
assert all(r["steps_run"] > 0 for r in rows), "a job ran no steps"
assert d["fleet"]["agg_cells_per_s"] > 0, "no aggregate throughput"
assert d["fleet"]["p99_ms_per_step"] >= d["fleet"]["p50_ms_per_step"]
EOF
fi
echo "check.sh: $fleet_json validated"

echo "check.sh: all green"
