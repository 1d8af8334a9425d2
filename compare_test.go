package bench

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// writeSnapshot drops a minimal bench.sh-format snapshot into dir.
func writeSnapshot(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCompare invokes scripts/bench.sh -compare and returns the exit code
// with the combined output.
func runCompare(t *testing.T, old, new string) (int, string) {
	t.Helper()
	cmd := exec.Command("sh", "scripts/bench.sh", "-compare", old, new)
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	if ee, ok := err.(*exec.ExitError); ok {
		return ee.ExitCode(), string(out)
	}
	t.Fatalf("running bench.sh -compare: %v\n%s", err, out)
	return -1, ""
}

// TestBenchCompare pins the regression-gate contract of
// scripts/bench.sh -compare: a >10% regression in ns/op, B/op or
// allocs/op on any shared benchmark exits non-zero and names the
// offender, and a zero figure regresses on any increase; improvements,
// small wobbles, and benchmarks present on only one side pass. It also
// covers the key canonicalization (GOMAXPROCS -8 and collision #01
// suffixes strip; duplicate samples aggregate to the minimum of each
// figure).
func TestBenchCompare(t *testing.T) {
	dir := t.TempDir()
	old := writeSnapshot(t, dir, "old.json", `{
  "date": "2026-08-05",
  "benchmarks": [
    {"name": "BenchmarkMonteCarlo", "ns_op": 1000000, "b_op": 0, "allocs_op": 0},
    {"name": "BenchmarkRouteCold", "ns_op": 200000, "b_op": 0, "allocs_op": 0},
    {"name": "BenchmarkOldOnly", "ns_op": 5, "b_op": 0, "allocs_op": 0}
  ],
  "goos": "linux", "goarch": "amd64", "count": 1
}
`)

	// Injected regression: RouteCold 200000 -> 260000 (+30%).
	bad := writeSnapshot(t, dir, "bad.json", `{
  "date": "2026-08-08",
  "benchmarks": [
    {"name": "BenchmarkMonteCarlo-8", "ns_op": 250000, "b_op": 0, "allocs_op": 0, "trials_sec": 260000000},
    {"name": "BenchmarkRouteCold", "ns_op": 260000, "b_op": 0, "allocs_op": 0},
    {"name": "BenchmarkNewOnly", "ns_op": 7, "b_op": 0, "allocs_op": 0}
  ],
  "goos": "linux", "goarch": "amd64", "count": 1
}
`)
	code, out := runCompare(t, old, bad)
	if code == 0 {
		t.Fatalf("injected +30%% regression passed the gate:\n%s", out)
	}
	if want := "REGRESSION BenchmarkRouteCold"; !strings.Contains(out, want) {
		t.Errorf("output does not name the regressed benchmark (%q):\n%s", want, out)
	}
	if strings.Contains(out, "REGRESSION BenchmarkMonteCarlo") {
		t.Errorf("4x speedup flagged as a regression:\n%s", out)
	}

	// Clean pair: improvement plus within-noise wobble (+5%), duplicate
	// samples keeping the minimum (#01 suffix canonicalizes to the same
	// key, and only the faster 205000 sample must be compared).
	good := writeSnapshot(t, dir, "good.json", `{
  "date": "2026-08-08",
  "benchmarks": [
    {"name": "BenchmarkMonteCarlo", "ns_op": 250000, "b_op": 0, "allocs_op": 0, "trials_sec": 260000000},
    {"name": "BenchmarkRouteCold", "ns_op": 999000, "b_op": 0, "allocs_op": 0},
    {"name": "BenchmarkRouteCold#01", "ns_op": 205000, "b_op": 0, "allocs_op": 0}
  ],
  "goos": "linux", "goarch": "amd64", "count": 2
}
`)
	code, out = runCompare(t, old, good)
	if code != 0 {
		t.Fatalf("clean snapshot pair failed the gate (exit %d):\n%s", code, out)
	}

	// Memory figures: one allocation in a zero-allocation kernel and a
	// doubled B/op each fail at unchanged ns/op; a duplicate sample that
	// allocates less is the one compared.
	memOld := writeSnapshot(t, dir, "mem_old.json", `{
  "benchmarks": [
    {"name": "BenchmarkSearchSwaps", "ns_op": 1000, "b_op": 0, "allocs_op": 0},
    {"name": "BenchmarkRouteCached", "ns_op": 1000, "b_op": 1000, "allocs_op": 10},
    {"name": "BenchmarkNewCosts", "ns_op": 1000, "b_op": 1000, "allocs_op": 10}
  ]
}
`)
	memNew := writeSnapshot(t, dir, "mem_new.json", `{
  "benchmarks": [
    {"name": "BenchmarkSearchSwaps", "ns_op": 1000, "b_op": 8, "allocs_op": 1},
    {"name": "BenchmarkRouteCached", "ns_op": 1000, "b_op": 2000, "allocs_op": 10},
    {"name": "BenchmarkNewCosts", "ns_op": 1000, "b_op": 1000, "allocs_op": 50},
    {"name": "BenchmarkNewCosts#01", "ns_op": 1100, "b_op": 1000, "allocs_op": 10}
  ]
}
`)
	code, out = runCompare(t, memOld, memNew)
	if code == 0 {
		t.Fatalf("allocation regressions passed the gate:\n%s", out)
	}
	for _, want := range []string{
		"REGRESSION BenchmarkSearchSwaps: 0 -> 1 allocs/op",
		"REGRESSION BenchmarkSearchSwaps: 0 -> 8 B/op",
		"REGRESSION BenchmarkRouteCached: 1000 -> 2000 B/op",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output does not report %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "REGRESSION BenchmarkNewCosts") {
		t.Errorf("duplicate samples did not keep the minimum allocs/op:\n%s", out)
	}
}
