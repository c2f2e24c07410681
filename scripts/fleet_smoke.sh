#!/bin/sh
# Fleet smoke: exercises the job engine end to end through the
# `eulersim serve` CLI and its file-based inbox.
#
#   1. Mixed batch drain: drop a mixed batch of job files (three
#      submitters, mixed priorities, 1D tubes + a tiled 2D quadrant +
#      a sacprog job + one malformed file) into the inbox, run a
#      drain-mode server, and require a result file per job — every
#      well-formed job "done", the malformed one "failed" with a
#      reason.  The malformed job makes the server exit non-zero,
#      which is asserted too.
#   2. kill -9 mid-fleet: start a server on long-running jobs, SIGKILL
#      it once at least one result exists, restart in drain mode, and
#      require every job to finish with exactly one result file —
#      adopted from the active set and resumed from its checkpoints,
#      never redone from scratch into a second result.
#
# Invokes the built binary directly (not through `dune exec`) so the
# kill hits the server process itself.
set -eu
cd "$(dirname "$0")/.."

dune build bin/eulersim.exe
sim=_build/default/bin/eulersim.exe
work="bench_out/fleet-smoke"
rm -rf "$work"

# Job files are dropped atomically: write <id>.job.tmp, then mv. *.tmp
# is invisible to the claimer.
submit() { # dir id lines...
  dir=$1; id=$2; shift 2
  mkdir -p "$dir/inbox"
  : > "$dir/inbox/$id.job.tmp"
  for line in "$@"; do printf '%s\n' "$line" >> "$dir/inbox/$id.job.tmp"; done
  mv "$dir/inbox/$id.job.tmp" "$dir/inbox/$id.job"
}

# --- 1. mixed batch drain ---------------------------------------------------
box="$work/batch"
i=0
for owner in alice bob carol; do
  for scen in sod lax 123; do
    i=$((i + 1))
    submit "$box" "tube-$owner-$scen" \
      "fleetjob 1" "submitter $owner" "priority $i" \
      "scenario $scen" "nx 40" "steps 20"
  done
done
submit "$box" "quad" \
  "fleetjob 1" "submitter alice" "scenario quadrant" "nx 16" \
  "tiles 2x2" "steps 6"
submit "$box" "sacjob" \
  "fleetjob 1" "submitter bob" "backend sacprog" "scenario sod" \
  "nx 40" "steps 20"
submit "$box" "broken" "fleetjob 1" "scenario sod" "steps 20" "wibble 3"

if "$sim" serve "$box" --drain --slice 8 --quiet >/dev/null 2>&1; then
  echo "fleet_smoke: server should exit non-zero when a job failed" >&2
  exit 1
fi

for id in quad sacjob; do
  grep -q '^status done$' "$box/done/$id.result" 2>/dev/null || {
    echo "fleet_smoke: job $id did not report done" >&2
    exit 1
  }
done
done_count=$(grep -l '^status done$' "$box"/done/*.result | wc -l)
[ "$done_count" -eq 11 ] || {
  echo "fleet_smoke: expected 11 done jobs, saw $done_count" >&2
  exit 1
}
grep -q '^status failed$' "$box/done/broken.result" \
  && grep -q '^error .*wibble' "$box/done/broken.result" || {
  echo "fleet_smoke: malformed job should fail with a reason" >&2
  exit 1
}
[ -z "$(ls -A "$box/inbox")" ] && [ -z "$(ls -A "$box/active")" ] || {
  echo "fleet_smoke: inbox/active not empty after drain" >&2
  exit 1
}
echo "fleet_smoke: mixed batch drained, 11 done + 1 failed-with-reason"

# --- 2. kill -9 mid-fleet ---------------------------------------------------
box="$work/kill"
for n in 1 2 3 4; do
  submit "$box" "long-$n" \
    "fleetjob 1" "submitter alice" "scenario sod" "nx 8192" "steps 400"
done
# The jobs run one slice at a time on the shared exec.  Kill only once at least one job has finished AND another
# is mid-flight with a checkpoint on disk — that guarantees the restart
# has something to resume rather than redo.
ready_to_kill() {
  got_result=0
  got_pending_ckpt=0
  for n in 1 2 3 4; do
    if [ -f "$box/done/long-$n.result" ]; then
      got_result=1
    elif ls "$box/ckpt/long-$n"/ckpt-*.swck >/dev/null 2>&1; then
      got_pending_ckpt=1
    fi
  done
  [ "$got_result" -eq 1 ] && [ "$got_pending_ckpt" -eq 1 ]
}
"$sim" serve "$box" --slice 50 --quiet >/dev/null 2>&1 &
pid=$!
tries=0
until ready_to_kill; do
  if [ "$(ls "$box/done" 2>/dev/null | grep -c '\.result$')" -eq 4 ]; then
    kill -9 "$pid" 2>/dev/null || true
    echo "fleet_smoke: fleet finished before the kill landed; grow the jobs" >&2
    exit 1
  fi
  tries=$((tries + 1))
  if [ "$tries" -gt 1200 ]; then
    kill -9 "$pid" 2>/dev/null || true
    echo "fleet_smoke: no kill window appeared within 60s" >&2
    exit 1
  fi
  sleep 0.05
done
kill -9 "$pid" 2>/dev/null
wait "$pid" 2>/dev/null || true
ls "$box"/ckpt/long-*/ckpt-*.swck >/dev/null 2>&1 || {
  echo "fleet_smoke: expected checkpoints from the killed fleet" >&2
  exit 1
}

restart_log="$work/restart.log"
"$sim" serve "$box" --drain --slice 50 > "$restart_log" 2>&1 || {
  echo "fleet_smoke: restarted server failed" >&2
  cat "$restart_log" >&2
  exit 1
}
for n in 1 2 3 4; do
  grep -q '^status done$' "$box/done/long-$n.result" 2>/dev/null || {
    echo "fleet_smoke: job long-$n missing after restart" >&2
    exit 1
  }
done
result_count=$(ls "$box/done" | grep -c '\.result$')
[ "$result_count" -eq 4 ] || {
  echo "fleet_smoke: expected exactly 4 results, saw $result_count" >&2
  exit 1
}
[ -z "$(ls -A "$box/active")" ] || {
  echo "fleet_smoke: active set not reconciled after restart" >&2
  exit 1
}
grep -q 'resumed from' "$restart_log" || {
  echo "fleet_smoke: restart should resume from checkpoints, not redo" >&2
  cat "$restart_log" >&2
  exit 1
}
echo "fleet_smoke: survived kill -9 mid-fleet, all jobs done exactly once"

echo "fleet_smoke: all green"
