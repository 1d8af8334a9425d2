#!/usr/bin/env sh
# nisqd boot-and-probe smoke: build the daemon, boot it on a local port,
# wait for /healthz, run one real compile through the HTTP surface,
# check the metrics endpoint counted it, and shut the daemon down.
# Catches wiring failures (flag parsing, listener setup, route
# registration, serialization) that unit tests of the handler cannot.
set -eu
cd "$(dirname "$0")/.."

SMOKE=smoke
PORT="${NISQD_SMOKE_PORT:-18080}"
BASE="http://127.0.0.1:$PORT"
. scripts/smoke_lib.sh
LOG="$WORK/nisqd.log"

"$BIN" -addr "127.0.0.1:$PORT" -trials 1000000 > "$LOG" 2>&1 &
PID=$!
cleanup() {
	kill "$PID" 2> /dev/null || true
	wait "$PID" 2> /dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

wait_healthy "$BASE" "$LOG"

# One real compile through the full stack; the response must carry the
# nisqc-format report.
RESP="$(curl -sf -X POST "$BASE/v1/compile" \
	-H 'Content-Type: application/json' \
	-d '{"workload":"bv-8","policy":"vqm","trials":2000}')"
case "$RESP" in
*'"report"'*'program     bv-8'*) ;;
*)
	echo "smoke: compile response missing report: $RESP" >&2
	exit 1
	;;
esac

# The metrics endpoint must have counted the request.
METRICS="$(curl -sf "$BASE/metrics")"
case "$METRICS" in
*'nisqd_requests_total{endpoint="/v1/compile"} 1'*) ;;
*)
	echo "smoke: metrics did not count the compile request" >&2
	echo "$METRICS" >&2
	exit 1
	;;
esac

# Graceful shutdown: SIGTERM must exit cleanly.
kill -TERM "$PID"
wait "$PID"
echo "smoke: nisqd boot-and-probe OK"
