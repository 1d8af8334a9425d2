#!/usr/bin/env sh
# Tier-1 + concurrency gate: vet and gofmt, then the full test suite
# under the race detector, which exercises the worker pool
# (internal/parallel), the block-sharded Monte-Carlo simulator, and the
# concurrent experiment fan-out. Pass extra go-test flags through, e.g.:
#
#	scripts/check.sh -short       # quick race pass
#	scripts/check.sh -count=1     # force re-run
set -eu
cd "$(dirname "$0")/.."
go vet ./...
# perfbench is a nested module (replace vaq => ../), so the commands
# above never compile it: vet and test it on its own, so a change that
# removes an API it calls fails here, not at benchmark time.
(cd perfbench && go vet ./... && go test ./...)
# Formatting gate: every .go file must be gofmt-clean.
test -z "$(gofmt -l .)" || { gofmt -l .; echo "FAIL: files above are not gofmt-clean" >&2; exit 1; }
go test -race "$@" ./...
# Large-device smoke, kept explicit so even a -short run exercises it:
# SABRE-route a 60-qubit workload on the 399-qubit heavy-hex fleet under
# the race detector (the A* router cannot attempt this size at all).
go test -race -count=1 -run 'TestSabreHeavyHex399|TestSabreConcurrentDeterminism' ./internal/route
# A* route goldens on the 1000-qubit heavy-hex fleet, kept explicit
# because -short skips them and the race detector slows the
# 10⁶-entry adjacency-table build several-fold: run them without -race,
# as the paper-table golden below is run.
go test -count=1 -run 'TestGoldenRoutingDeterminism/hh1000' ./internal/route
# Full paper-table golden, kept explicit because -short pins only the
# cheap experiments: every table and chart of `repro -experiment all` at
# seed 2019, byte-compared serially and at one worker per CPU (without
# -race it takes a few seconds; with it, about half a minute).
go test -count=1 -run 'TestReproGolden' ./cmd/repro
# Benchmark smoke: one iteration of every tracked benchmark — including
# the Monte-Carlo kernel benches (BenchmarkMonteCarlo runs the packed
# kernel; internal/sim's BenchmarkMonteCarloScalar runs the test-only
# scalar reference) — so a change that breaks
# a benchmark body (rather than its performance) fails the gate instead
# of surfacing at the next scripts/bench.sh run.
go test -run '^$' -bench 'MonteCarlo|CompilePipeline|Ablation|Route|Rows|NewCosts|SearchSwaps|ServeCompile|Portfolio|JobThroughput|DriftDetect|CanaryRecompile|RebindVsRecompile|SweepServe|Allocate|Fig16Partitioning|RankedBipartitions' -benchtime=1x ./...
# Perf-regression gate: rebench against the newest committed snapshot and
# fail on big regressions in ns/op, B/op or allocs/op. Both sides take
# the minimum of 5 samples per figure (the snapshot is written by
# `BENCHTIME=100ms scripts/bench.sh 5` on the host that runs this gate),
# so one slow sample on a busy machine does not fail the build. Only the
# stable keys are compared — the compute-bound kernels, the scoring step
# (MonteCarloPrepare/) and routing cores whose timings are reproducible
# on a loaded machine — and the tolerance
# is wide (1.5x) so the gate catches algorithmic regressions, not
# scheduler noise; a kernel that allocated nothing fails on its first
# allocation. An intended change in a gated figure ships with a
# regenerated snapshot. A full-precision diff is still available via
# scripts/bench.sh -compare with defaults.
BASELINE="$(ls BENCH_*.json 2>/dev/null | sort | tail -1 || true)"
if [ -n "$BASELINE" ]; then
	FRESH="$(mktemp -t bench_fresh_XXXXXX.json)"
	BENCH_OUT="$FRESH" BENCHTIME=100ms scripts/bench.sh 5 > /dev/null
	BENCH_TOLERANCE=1.5 \
	BENCH_MATCH='MonteCarlo$|MonteCarloPrepare/|NewCosts|SearchSwaps|RouteCached|RouteScale/(bv|qft16)/sabre|RebindVsRecompile/rebind' \
	scripts/bench.sh -compare "$BASELINE" "$FRESH" || { rm -f "$FRESH"; exit 1; }
	rm -f "$FRESH"
else
	echo "no committed BENCH_*.json baseline; skipping perf-regression gate"
fi
# Fuzz smoke: a short native-fuzzing burst on the untrusted-input
# parsers (QASM source, calibration archives, nisqd request bodies). The
# committed testdata/fuzz corpora replay on every plain `go test` run;
# this burst additionally mutates for a few seconds so new crashes
# surface here before they surface in a user's archive or request.
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/qasm
go test -run '^$' -fuzz FuzzReadJSON -fuzztime 10s ./internal/calib
go test -run '^$' -fuzz FuzzCompileRequest -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz FuzzPortfolioRequest -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz FuzzSweepRequest -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz FuzzJobRequest -fuzztime 10s ./internal/serve
go test -run '^$' -fuzz FuzzCycleAppend -fuzztime 10s ./internal/caldrift
go test -run '^$' -fuzz FuzzDriftWindowQuery -fuzztime 10s ./internal/caldrift
# Boot-and-probe smoke: build and boot nisqd, compile over HTTP, check
# /metrics counted the request, and shut down with SIGTERM.
scripts/smoke_nisqd.sh
# Durability smoke: kill -9 a daemon mid-job and prove the restarted
# daemon resumes it to a byte-identical result (real processes, real
# SIGKILL — the one scenario in-process tests cannot stage).
scripts/smoke_jobs.sh
# Drift-plane smoke: register a device, append drifting calibration
# cycles over real HTTP, and prove the detector triggers and the canary
# recompiler reports a predicted-PST delta (see scripts/smoke_drift.sh).
scripts/smoke_drift.sh
# Sweep-plane smoke: the same 100-point parameter sweep against a
# 1-worker and a GOMAXPROCS-worker daemon must come back byte-identical
# (see scripts/smoke_sweep.sh).
scripts/smoke_sweep.sh
# Coverage floor: total statement coverage must not regress below the
# recorded baseline (88.6% at the floor's introduction; raised to 89.5,
# one point under a measured 90.5%). Raise the floor when coverage
# improves; never lower it.
COVER_FLOOR=89.5
COVER_PROFILE="$(mktemp)"
trap 'rm -f "$COVER_PROFILE"' EXIT
go test -count=1 -coverprofile="$COVER_PROFILE" ./... > /dev/null
go tool cover -func="$COVER_PROFILE" | awk -v floor="$COVER_FLOOR" '
/^total:/ {
	sub(/%/, "", $NF)
	printf("total coverage %.1f%% (floor %.1f%%)\n", $NF, floor)
	if ($NF + 0 < floor + 0) { print "FAIL: coverage below floor"; exit 1 }
}'
