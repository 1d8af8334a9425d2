#!/usr/bin/env sh
# Calibration-drift-plane smoke: boot nisqd with a persistent cycle
# store and a low drift threshold, register a Q5 device, then append
# three progressively different calibration cycles, each after a
# request for one hot compiled circuit. The detector must trigger, the canary recompiler
# must re-run the hot circuit and report a predicted-PST delta, and the
# drift report, window query, and nisqd_drift_* metrics must all agree
# — end-to-end through a real process, real HTTP, and a real store
# directory.
set -eu
cd "$(dirname "$0")/.."

SMOKE=smoke_drift
PORT="${NISQD_SMOKE_DRIFT_PORT:-18083}"
BASE="http://127.0.0.1:$PORT"
. scripts/smoke_lib.sh
LOG="$WORK/nisqd.log"
PID=""

cleanup() {
	[ -n "$PID" ] && kill "$PID" 2> /dev/null || true
	wait 2> /dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

"$BIN" -addr "127.0.0.1:$PORT" -drift-dir "$WORK/drift" \
	-drift-threshold 0.02 >> "$LOG" 2>&1 &
PID=$!
wait_healthy "$BASE" "$LOG"

# Register the device from a generated Q5 archive, then warm one hot
# circuit so the canary has a recompile target.
go run ./cmd/calgen -device q5 -seed 1 -days 1 -format json > "$WORK/base.json"
curl -sf -X POST "$BASE/v1/calibration?name=smoke-q5" \
	-H 'Content-Type: application/json' \
	--data-binary @"$WORK/base.json" > /dev/null

# Three drifting cycles: independently seeded archives on the same
# topology read as large per-link deviations, so the EWMA crosses the
# low threshold well inside the window. The hot circuit is requested
# before every cycle, as live traffic would: an adopted canary
# invalidates its cached mapping and drops it from the hot set, and
# only the next request re-registers the fresh mapping as the canary
# baseline.
for SEED in 2 3 4; do
	curl -sf -X POST "$BASE/v1/compile" \
		-H 'Content-Type: application/json' \
		-d '{"workload":"triswap","device":"smoke-q5","policy":"vqa+vqm"}' > /dev/null
	go run ./cmd/calgen -device q5 -seed "$SEED" -days 1 -format json > "$WORK/cycle.json"
	curl -sf -X POST "$BASE/v1/calibration?name=smoke-q5&append=true" \
		-H 'Content-Type: application/json' \
		--data-binary @"$WORK/cycle.json" > /dev/null
done

# The window query must serve the stored cycles back.
WINDOW="$(curl -sf "$BASE/v1/calibration/smoke-q5?window=2")"
case "$WINDOW" in
*'"snapshots"'*) ;;
*)
	echo "smoke_drift: window query returned no snapshots: $WINDOW" >&2
	exit 1
	;;
esac

# The drift report must be triggered and carry a canary delta.
REPORT="$(curl -sf "$BASE/v1/drift/smoke-q5")"
case "$REPORT" in
*'"triggered": true'*) ;;
*)
	echo "smoke_drift: detector did not trigger: $REPORT" >&2
	exit 1
	;;
esac
case "$REPORT" in
*'"deltas"'*) ;;
*)
	echo "smoke_drift: report carries no canary deltas: $REPORT" >&2
	exit 1
	;;
esac
printf '%s' "$REPORT" | grep -q '"delta": *-\{0,1\}[0-9]' || {
	echo "smoke_drift: canary delta is not numeric: $REPORT" >&2
	exit 1
}

# Metrics must agree: three stored cycles, at least one canary run.
METRICS="$(curl -sf "$BASE/metrics")"
case "$METRICS" in
*'nisqd_drift_cycles_total 3'*) ;;
*)
	echo "smoke_drift: metrics did not count 3 cycles" >&2
	printf '%s\n' "$METRICS" | grep nisqd_drift >&2 || true
	exit 1
	;;
esac
printf '%s\n' "$METRICS" | grep -q '^nisqd_drift_canary_runs_total [1-9]' || {
	echo "smoke_drift: metrics did not count a canary run" >&2
	printf '%s\n' "$METRICS" | grep nisqd_drift >&2 || true
	exit 1
}

echo "smoke_drift: drift detected, canary recompiled, report/metrics agree OK"
