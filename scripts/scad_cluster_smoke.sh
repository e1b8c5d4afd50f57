#!/usr/bin/env bash
# scad_cluster_smoke.sh [spec] [expected-results] — end-to-end proof of
# the distributed campaign path: start three scad workers, run the
# campaign across them with scadctl, SIGKILL one worker mid-run, and
# require the merged results to be byte-identical to the committed
# single-process output. Defaults to the smoke campaign.
set -euo pipefail

SPEC=${1:-campaigns/smoke.json}
EXPECTED=${2:-campaigns/smoke.results.json}

BIN=$(mktemp -d)
go build -o "$BIN/scad" ./cmd/scad
go build -o "$BIN/scadctl" ./cmd/scadctl

WORK=$(mktemp -d)
PORTS=(8721 8722 8723)
PIDS=()
for p in "${PORTS[@]}"; do
  "$BIN/scad" -addr "127.0.0.1:$p" -spill "$WORK/w$p.jsonl" 2>"$WORK/scad-$p.log" &
  PIDS+=($!)
done
trap 'kill "${PIDS[@]}" 2>/dev/null || true; wait 2>/dev/null || true' EXIT

WORKERS="http://127.0.0.1:${PORTS[0]},http://127.0.0.1:${PORTS[1]},http://127.0.0.1:${PORTS[2]}"

# Gate on the /healthz readiness detail of every worker (same marker
# the single-service smoke and TestHealthzReportsReadinessDetail pin).
wait_ready() {
  local base=$1 deadline=$((SECONDS + 30))
  while [ "$SECONDS" -lt "$deadline" ]; do
    if curl -sf "$base/healthz" 2>/dev/null | grep -q '"ready": true'; then
      return 0
    fi
    sleep 0.1
  done
  return 1
}
for p in "${PORTS[@]}"; do
  wait_ready "http://127.0.0.1:$p" || {
    echo "worker on port $p never became ready"; cat "$WORK/scad-$p.log"; exit 1; }
done
"$BIN/scadctl" workers -workers "$WORKERS"

# Run the campaign across the cluster and SIGKILL one worker as soon as
# the coordinator reports three completed scenarios — mid-run by
# construction. Completions are the driver's progress lines
# ("[  3/64] <scenario>: <headline>"). The dead worker's in-flight
# scenario must go back on the shared queue for the survivors, and the
# artifacts must still be byte-identical.
"$BIN/scadctl" run -spec "$SPEC" -workers "$WORKERS" \
  -out "$WORK/out" >"$WORK/ctl.out" 2>"$WORK/ctl.log" &
CTL_PID=$!
for _ in $(seq 1 500); do
  [ "$(grep -cE '^\[ *[0-9]+/[0-9]+\] ' "$WORK/ctl.log" 2>/dev/null || true)" -ge 3 ] && break
  kill -0 "$CTL_PID" 2>/dev/null || break
  sleep 0.02
done
kill -9 "${PIDS[2]}"
echo "SIGKILLed worker on port ${PORTS[2]} mid-campaign"
if ! wait "$CTL_PID"; then
  echo "scadctl run failed:"; cat "$WORK/ctl.log"; exit 1
fi
cat "$WORK/ctl.out"

cmp "$WORK/out/results.json" "$EXPECTED" || {
  echo "distributed results differ from the committed single-process run"; exit 1; }
echo "cluster run of $SPEC byte-identical to $EXPECTED despite worker loss"
grep -q "workers lost 1" "$WORK/ctl.out" \
  || echo "note: the campaign drained before the kill could cost scenarios"

# The degraded cluster is visible: status must exit nonzero with one
# worker down, and the survivors still report ready.
if "$BIN/scadctl" status -workers "$WORKERS"; then
  echo "scadctl status must exit nonzero with a dead worker"; exit 1
fi
"$BIN/scadctl" status -workers "http://127.0.0.1:${PORTS[0]},http://127.0.0.1:${PORTS[1]}"
