#!/usr/bin/env sh
# Durable-job-plane smoke: boot nisqd with a persistent queue, submit a
# slow portfolio job, SIGKILL the daemon mid-execution, restart it on
# the same queue directory, and assert the job is recovered,
# re-executed, and finishes with a result byte-identical to a
# synchronous run of the same request on a daemon that never crashed
# (identical after zeroing compile_ns/total_ns, the wall-clock
# diagnostics that are the portfolio response's only nondeterministic
# bytes — the same normalization the golden tests apply). Exercises the
# full durability contract end-to-end through real processes — persist-
# before-ack, crash-marker recovery, deterministic re-execution — which
# in-process tests cannot: only a real SIGKILL proves nothing essential
# lives outside the store directory.
set -eu
cd "$(dirname "$0")/.."

SMOKE=smoke_jobs
PORT="${NISQD_SMOKE_JOBS_PORT:-18081}"
REF_PORT=$((PORT + 1))
BASE="http://127.0.0.1:$PORT"
REF_BASE="http://127.0.0.1:$REF_PORT"
. scripts/smoke_lib.sh
JOBS_DIR="$WORK/jobs"
LOG="$WORK/nisqd.log"
PID=""
REF_PID=""

cleanup() {
	[ -n "$PID" ] && kill "$PID" 2> /dev/null || true
	[ -n "$REF_PID" ] && kill "$REF_PID" 2> /dev/null || true
	wait 2> /dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT

boot() {
	"$BIN" -addr "127.0.0.1:$PORT" -trials 100000000 \
		-jobs-dir "$JOBS_DIR" -job-workers 1 >> "$LOG" 2>&1 &
	PID=$!
	wait_healthy "$BASE" "$LOG"
}

# job_state ID -> current state string
job_state() {
	curl -sf "$BASE/v1/jobs/$1" | sed -n 's/^ *"state": *"\([a-z]*\)".*/\1/p'
}

# The job: a portfolio whose Monte-Carlo refinement stage (8 candidates
# x 100M trials) runs for seconds, so the SIGKILL below reliably lands
# mid-execution.
REQUEST='{"workload":"bv-10","device":"q20","trials":100000000,"cycles":2,"random_starts":2,"top_k":8}'

boot

ACCEPT="$(curl -sf -X POST "$BASE/v1/jobs" \
	-H 'Content-Type: application/json' \
	-d "{\"kind\":\"portfolio\",\"request\":$REQUEST}")"
ID="$(printf '%s' "$ACCEPT" | sed -n 's/^ *"id": *"\([0-9a-f]*\)".*/\1/p')"
if [ -z "$ID" ]; then
	echo "smoke_jobs: submission not accepted: $ACCEPT" >&2
	exit 1
fi

# Wait for the worker to pick the job up, then kill the daemon without
# any chance to drain or checkpoint further.
i=0
until [ "$(job_state "$ID")" = "running" ]; do
	i=$((i + 1))
	if [ "$i" -ge 100 ]; then
		echo "smoke_jobs: job $ID never started running" >&2
		exit 1
	fi
	sleep 0.1
done
kill -9 "$PID"
wait "$PID" 2> /dev/null || true
PID=""

# Restart on the same queue directory: the orphaned job must come back
# queued, re-execute, and succeed.
boot
i=0
while :; do
	STATE="$(job_state "$ID")"
	[ "$STATE" = "succeeded" ] && break
	case "$STATE" in failed | cancelled)
		echo "smoke_jobs: recovered job ended $STATE" >&2
		curl -sf "$BASE/v1/jobs/$ID" >&2
		exit 1
		;;
	esac
	i=$((i + 1))
	if [ "$i" -ge 600 ]; then
		echo "smoke_jobs: recovered job stuck in '$STATE'" >&2
		exit 1
	fi
	sleep 0.1
done

VIEW="$(curl -sf "$BASE/v1/jobs/$ID")"
case "$VIEW" in
*'"interruptions": 1'*) ;;
*)
	echo "smoke_jobs: recovered job does not record the crash: $VIEW" >&2
	exit 1
	;;
esac
METRICS="$(curl -sf "$BASE/metrics")"
case "$METRICS" in
*'nisqd_jobs_recovered_total 1'*) ;;
*)
	echo "smoke_jobs: metrics did not count the recovery" >&2
	exit 1
	;;
esac

# normalize_timings: zero the wall-clock diagnostic fields, leaving
# every computed byte (rankings, seeds, PSTs, layouts) exact.
normalize_timings() {
	sed -E 's/"(compile_ns|total_ns)": [0-9]+/"\1": 0/'
}

curl -sf "$BASE/v1/jobs/$ID/result" | normalize_timings > "$WORK/resumed.json"

# Reference: the same request, synchronously, on a daemon that never
# crashed (separate port, no shared state). Byte-identical or bust.
"$BIN" -addr "127.0.0.1:$REF_PORT" -trials 100000000 >> "$LOG" 2>&1 &
REF_PID=$!
wait_healthy "$REF_BASE" "$LOG"
curl -sf -X POST "$REF_BASE/v1/portfolio" \
	-H 'Content-Type: application/json' \
	-d "$REQUEST" | normalize_timings > "$WORK/clean.json"

if ! cmp -s "$WORK/resumed.json" "$WORK/clean.json"; then
	echo "smoke_jobs: resumed result is not byte-identical to the uninterrupted run" >&2
	diff "$WORK/resumed.json" "$WORK/clean.json" >&2 || true
	exit 1
fi

echo "smoke_jobs: kill -9, recover, byte-identical resume OK"
