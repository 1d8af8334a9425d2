#!/usr/bin/env sh
# Parametric-sweep-plane smoke: boot two nisqd daemons — one pinned to a
# single worker, one at the GOMAXPROCS default — and POST the same
# 100-point qaoa-6 sweep to both. The responses must be byte-identical
# (the compile-once/rebind-many fan-out is deterministic at any worker
# count), a replay must come back as a response-cache hit, and the
# sweep bookkeeping (compiles_saved, nisqd_sweep_* metrics) must agree
# — end-to-end through real processes and real HTTP. Last, nisqc -sweep
# over the same points must print every fingerprint the daemon returned
# (both front-ends run one sweep pipeline, serve.Sweep).
set -eu
cd "$(dirname "$0")/.."

SMOKE=smoke_sweep
PORT1="${NISQD_SMOKE_SWEEP_PORT:-18084}"
PORT2=$((PORT1 + 1))
BASE1="http://127.0.0.1:$PORT1"
BASE2="http://127.0.0.1:$PORT2"
. scripts/smoke_lib.sh
PID1=""
PID2=""

go build -o "$WORK/nisqc" ./cmd/nisqc

cleanup() {
	[ -n "$PID1" ] && kill "$PID1" 2> /dev/null || true
	[ -n "$PID2" ] && kill "$PID2" 2> /dev/null || true
	wait 2> /dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

"$BIN" -addr "127.0.0.1:$PORT1" -workers 1 >> "$WORK/nisqd1.log" 2>&1 &
PID1=$!
"$BIN" -addr "127.0.0.1:$PORT2" >> "$WORK/nisqd2.log" 2>&1 &
PID2=$!
wait_healthy "$BASE1" "$WORK"/nisqd*.log
wait_healthy "$BASE2" "$WORK"/nisqd*.log

# A 100-point grid over qaoa-6's (γ, β) plane, identical on every send.
awk 'BEGIN {
	printf("[")
	for (i = 0; i < 100; i++)
		printf("%s[%.3f,%.3f]", i ? "," : "", 0.031 * i, 0.017 * i)
	printf("]")
}' > "$WORK/pts.json"
printf '{"ansatz":"qaoa-6","policy":"vqm","points":%s}' "$(cat "$WORK/pts.json")" > "$WORK/req.json"

curl -sf -X POST "$BASE1/v1/sweep" -H 'Content-Type: application/json' \
	--data-binary @"$WORK/req.json" -o "$WORK/resp1.json" -D "$WORK/hdr1"
curl -sf -X POST "$BASE2/v1/sweep" -H 'Content-Type: application/json' \
	--data-binary @"$WORK/req.json" -o "$WORK/resp2.json"

cmp -s "$WORK/resp1.json" "$WORK/resp2.json" || {
	echo "smoke_sweep: 1-worker and GOMAXPROCS-worker responses differ" >&2
	diff "$WORK/resp1.json" "$WORK/resp2.json" >&2 || true
	exit 1
}
grep -q 'X-Nisqd-Cache: miss' "$WORK/hdr1" || {
	echo "smoke_sweep: first request was not a cache miss" >&2
	cat "$WORK/hdr1" >&2
	exit 1
}

# The sweep body must record one compile amortized over the whole grid.
grep -q '"compiles_saved": 99' "$WORK/resp1.json" || {
	echo "smoke_sweep: response does not report 99 compiles saved" >&2
	head -c 400 "$WORK/resp1.json" >&2
	exit 1
}

# A replay must be served from the response cache, byte-identical.
curl -sf -X POST "$BASE1/v1/sweep" -H 'Content-Type: application/json' \
	--data-binary @"$WORK/req.json" -o "$WORK/resp1b.json" -D "$WORK/hdr1b"
grep -q 'X-Nisqd-Cache: hit' "$WORK/hdr1b" || {
	echo "smoke_sweep: replay was not a cache hit" >&2
	cat "$WORK/hdr1b" >&2
	exit 1
}
cmp -s "$WORK/resp1.json" "$WORK/resp1b.json" || {
	echo "smoke_sweep: cached replay differs from original response" >&2
	exit 1
}

# Metrics must agree: 200 points over the two requests (hit included).
METRICS="$(curl -sf "$BASE1/metrics")"
case "$METRICS" in
*'nisqd_sweep_points_total 200'*) ;;
*)
	echo "smoke_sweep: metrics did not count 200 sweep points" >&2
	printf '%s\n' "$METRICS" | grep nisqd_sweep >&2 || true
	exit 1
	;;
esac

# The CLI leg: the same sweep through nisqc must print the daemon's
# fingerprints, point for point.
"$WORK/nisqc" -ansatz qaoa-6 -policy vqm -sweep "$WORK/pts.json" > "$WORK/cli.txt"
awk '/^point/ { on = 1; next } /^sweep/ { on = 0 } on { print $NF }' "$WORK/cli.txt" > "$WORK/cli.fp"
awk '/"points"/ { on = 1 } on && /"fingerprint"/ { gsub(/[",]/, "", $2); print $2 }' "$WORK/resp1.json" > "$WORK/daemon.fp"
if [ "$(wc -l < "$WORK/daemon.fp")" -ne 100 ] || ! cmp -s "$WORK/cli.fp" "$WORK/daemon.fp"; then
	echo "smoke_sweep: nisqc -sweep fingerprints differ from the daemon's" >&2
	diff "$WORK/cli.fp" "$WORK/daemon.fp" >&2 || true
	exit 1
fi

echo "smoke_sweep: 100-point sweep byte-identical at 1 vs GOMAXPROCS workers, cache and metrics agree, nisqc matches OK"
