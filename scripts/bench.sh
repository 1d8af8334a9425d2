#!/usr/bin/env sh
# Benchmark runner + snapshot writer + regression comparator.
#
# Run mode executes the repository's tracked benchmarks (Monte-Carlo
# simulator, compile pipeline, routing core, serve-layer response cache,
# portfolio fan-out) with allocation reporting and parses the output into
# a machine-readable BENCH_<yyyymmdd>.json in the repo root, so perf
# regressions can be diffed across PRs. Snapshot keys are stable and
# deduplicated: the GOMAXPROCS suffix (-8) and Go's collision suffix
# (#01) are stripped, and repeated samples of one benchmark (-count > 1,
# or historical duplicate sub-benchmark names) keep the minimum of each
# of ns/op, B/op and allocs/op — the least-noise estimate of the true
# cost.
#
# Compare mode diffs two snapshots and fails (non-zero exit) when any
# benchmark present in both regressed by more than 10% in ns/op, B/op or
# allocs/op, for CI and pre-merge checks. A figure that was 0 regresses
# on any increase (one allocation in a zero-allocation kernel fails).
#
#	scripts/bench.sh                        # one run of each benchmark
#	scripts/bench.sh 5                      # -count=5 (five samples each)
#	scripts/bench.sh -compare OLD.json NEW.json
#
# Environment overrides:
#	BENCH_OUT        snapshot path (default BENCH_<yyyymmdd>.json)
#	BENCHTIME        go test -benchtime value (default 1s)
#	BENCH_TOLERANCE  compare-mode regression ratio (default 1.10 = +10%)
#	BENCH_MATCH      compare-mode key filter, awk ERE (default: all keys)
set -eu

# canonical_rows <file>: emit "name ns_op b_op allocs_op" per benchmark
# with canonicalized names and the minimum of each figure across
# duplicates ("-" for a figure the snapshot does not record).
canonical_rows() {
	awk '
	function field(key,    v) {
		if (!match($0, "\"" key "\": *[0-9.e+-]+")) return ""
		v = substr($0, RSTART, RLENGTH); sub(/^"[a-z_]+": */, "", v)
		return v
	}
	function keepmin(arr, v) {
		if (v != "" && (!(name in arr) || v + 0 < arr[name] + 0)) arr[name] = v
	}
	match($0, /"name": *"[^"]*"/) {
		name = substr($0, RSTART, RLENGTH)
		sub(/^"name": *"/, "", name); sub(/"$/, "", name)
		sub(/-[0-9]+$/, "", name); sub(/#[0-9]+$/, "", name)
		ns = field("ns_op")
		if (ns == "") next
		keepmin(best, ns); keepmin(bop, field("b_op")); keepmin(aop, field("allocs_op"))
	}
	END {
		for (name in best)
			printf("%s %s %s %s\n", name, best[name], (name in bop) ? bop[name] : "-", (name in aop) ? aop[name] : "-")
	}
	' "$1"
}

if [ "${1:-}" = "-compare" ]; then
	if [ $# -ne 3 ]; then
		echo "usage: scripts/bench.sh -compare OLD.json NEW.json" >&2
		exit 2
	fi
	OLD_ROWS="$(mktemp)"
	NEW_ROWS="$(mktemp)"
	trap 'rm -f "$OLD_ROWS" "$NEW_ROWS"' EXIT
	canonical_rows "$2" > "$OLD_ROWS"
	canonical_rows "$3" > "$NEW_ROWS"
	awk -v old="$2" -v new="$3" \
	    -v tol="${BENCH_TOLERANCE:-1.10}" -v keyre="${BENCH_MATCH:-.}" '
	# check: compare one figure of one benchmark; "-" on either side
	# (not recorded) skips it.
	function check(name, unit, a, b,    worse) {
		if (a == "-" || b == "-") return
		worse = (a + 0 == 0) ? (b + 0 > 0) : (b / a > tol + 0)
		printf("%s %s: %.0f -> %.0f %s", worse ? "REGRESSION" : "ok        ", name, a, b, unit)
		if (a + 0 > 0) printf(" (%+.1f%%)", (b / a - 1) * 100)
		printf("\n")
		if (worse) bad++
	}
	NR == FNR { ns[$1] = $2; bop[$1] = $3; aop[$1] = $4; next }
	($1 in ns) && ($1 ~ keyre) {
		check($1, "ns/op", ns[$1], $2)
		check($1, "B/op", bop[$1], $3)
		check($1, "allocs/op", aop[$1], $4)
	}
	END {
		if (bad) { printf("%d regression(s) past %.2fx from %s to %s\n", bad, tol, old, new); exit 1 }
		printf("no ns/op, B/op or allocs/op regressions past %.2fx\n", tol)
	}
	' "$OLD_ROWS" "$NEW_ROWS"
	exit $?
fi

cd "$(dirname "$0")/.."

COUNT="${1:-1}"
PATTERN='MonteCarlo|CompilePipeline|Route|NewCosts|SearchSwaps|ServeCompile|Portfolio|JobThroughput|DriftDetect|CanaryRecompile|RebindVsRecompile|SweepServe'
OUT="${BENCH_OUT:-BENCH_$(date +%Y%m%d).json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

go test -run '^$' -bench "$PATTERN" -benchmem -benchtime "${BENCHTIME:-1s}" -count="$COUNT" ./... | tee "$RAW"

# The trailer records the machine next to goos/goarch/count: the CPU
# model (go test's "cpu:" line), GOMAXPROCS (the -N suffix of a
# benchmark without sub-benchmarks; go test omits it at 1) and the Go
# toolchain. Compare mode reads only the per-benchmark rows.
awk -v count="$COUNT" -v gover="$(go env GOVERSION)" '
/^goos:/   { goos = $2 }
/^goarch:/ { goarch = $2 }
/^cpu:/    { cpu = $0; sub(/^cpu: */, "", cpu); gsub(/["\\]/, "", cpu) }
/^Benchmark/ {
	name = $1
	if (procs == "" && name !~ /\//) {
		procs = 1
		if (match(name, /-[0-9]+$/)) procs = substr(name, RSTART + 1)
	}
	sub(/-[0-9]+$/, "", name); sub(/#[0-9]+$/, "", name)
	ns = ""; bop = "0"; aop = "0"; ts = "0"
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns = $(i-1)
		else if ($i == "B/op") bop = $(i-1)
		else if ($i == "allocs/op") aop = $(i-1)
		else if ($i == "trials/sec") ts = $(i-1)
	}
	if (ns == "") next
	# Deduplicate: keep the minimum of each figure per canonical name.
	if (!(name in best)) {
		order[n++] = name
		best[name] = ns; bops[name] = bop; aops[name] = aop
	}
	if (ns + 0 < best[name] + 0) best[name] = ns
	if (bop + 0 < bops[name] + 0) bops[name] = bop
	if (aop + 0 < aops[name] + 0) aops[name] = aop
	if (ts + 0 > rate[name] + 0) rate[name] = ts
}
END {
	for (i = 0; i < n; i++) {
		name = order[i]
		printf("    {\"name\": \"%s\", \"ns_op\": %s, \"b_op\": %s, \"allocs_op\": %s", name, best[name], bops[name], aops[name])
		if (rate[name] + 0 > 0) printf(", \"trials_sec\": %s", rate[name])
		printf("}%s\n", i < n - 1 ? "," : "")
	}
	print "  ],"
	printf("  \"goos\": \"%s\", \"goarch\": \"%s\", \"count\": %s,\n", goos, goarch, count)
	printf("  \"cpu\": \"%s\", \"gomaxprocs\": %s, \"go_version\": \"%s\"\n", cpu, procs == "" ? 1 : procs, gover)
	print "}"
}
' "$RAW" > "$OUT.tmp"

{
	printf '{\n  "date": "%s",\n  "benchmarks": [\n' "$(date +%Y-%m-%d)"
	cat "$OUT.tmp"
} > "$OUT"
rm -f "$OUT.tmp"
echo "wrote $OUT"
