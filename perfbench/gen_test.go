package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"
)

// heldOutSeed is never used while tuning the benchmark; validate a
// performance claim on it as well as on the seeds it was developed with.
const heldOutSeed = 20190413

// serveDigest hashes every generated op: kind, path and body.
func serveDigest(t *testing.T, seed int64) [32]byte {
	t.Helper()
	ops, err := genServeOps(seed, 1000)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, op := range ops {
		fmt.Fprintf(&b, "%s %s %v\n%s\n", op.Kind, op.Path, op.Repeat, op.Body)
	}
	return sha256.Sum256(b.Bytes())
}

func compileDigestOf(seed int64) [32]byte {
	return sha256.Sum256([]byte(fmt.Sprint(compileSequence(seed, 93, 4))))
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 2, heldOutSeed} {
		if serveDigest(t, seed) != serveDigest(t, seed) {
			t.Errorf("serve-mixed: seed %d generated two different op sequences", seed)
		}
		if compileDigestOf(seed) != compileDigestOf(seed) {
			t.Errorf("compile-suite: seed %d generated two different op orders", seed)
		}
	}
	if serveDigest(t, 1) == serveDigest(t, 2) || serveDigest(t, 1) == serveDigest(t, heldOutSeed) {
		t.Error("serve-mixed: different seeds generated the same op sequence")
	}
	if compileDigestOf(1) == compileDigestOf(2) || compileDigestOf(1) == compileDigestOf(heldOutSeed) {
		t.Error("compile-suite: different seeds generated the same op order")
	}
}

func TestServeMixCounts(t *testing.T) {
	ops, err := genServeOps(7, 1000)
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	repeats := 0
	for _, op := range ops {
		count[op.Kind]++
		if op.Repeat {
			repeats++
		}
	}
	want := map[string]int{"compile": 500, "estimate": 150, "sweep": 100, "portfolio": 50, "batch": 100, "job": 50, "append": 50}
	for k, n := range want {
		if count[k] != n {
			t.Errorf("%s: %d ops, want %d", k, count[k], n)
		}
	}
	// Repeated bodies are the only possible response-cache hits; they
	// must stay a minority so the median op is not a hit.
	if repeats > 300 {
		t.Errorf("%d of 1000 ops repeat a body, want at most 300", repeats)
	}
}

func TestCompileCatalogMatchesGolden(t *testing.T) {
	cat, err := compileCatalog()
	if err != nil {
		t.Fatal(err)
	}
	golden := parseGolden(compileGolden)
	if len(cat) != len(golden) {
		t.Fatalf("catalog has %d entries, golden %d", len(cat), len(golden))
	}
	for _, e := range cat {
		if _, ok := golden[e.Key]; !ok {
			t.Errorf("catalog entry %s has no recorded digest", e.Key)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := tailPercentile(xs); got != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990 (ten samples beyond)", got)
	}
	if got := tailPercentile(xs[:100]); got != 90 {
		t.Errorf("tail of 1..100 = %v, want 90 (ten samples beyond)", got)
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{Name: "op", ID: 1, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60},
		{Name: "c", ID: 4, Parent: 3, Start: 35, End: 45},
	}}
	self, count := tr.selfTimes()
	if self["op"] != 50 || self["a"] != 30 || self["b"] != 20 || self["c"] != 10 || count["op"] != 1 {
		t.Errorf("self times %v", self)
	}
}

func TestBinomialTail(t *testing.T) {
	// Three successes where 0.12 are expected: rare (about 3e-4) but far
	// from the 6-sigma false-alarm rate the check uses.
	if got := binomialTail(20000, 6e-6, 3); got < 2e-4 || got > 4e-4 {
		t.Errorf("P(X >= 3 | n=20000, p=6e-6) = %g, want about 2.9e-4", got)
	}
	// 50% successes at p = 0.5 is the centre: the tail holds half the mass.
	if got := binomialTail(1000, 0.5, 500); got < 0.5 || got > 0.52 {
		t.Errorf("P(X >= 500 | n=1000, p=0.5) = %g, want just over 0.5", got)
	}
	// 400 of 1000 at p = 0.5 is a 6.3-sigma deviation.
	if got := binomialTail(1000, 0.5, 400); got > math.Erfc(mcSigmas/math.Sqrt2) {
		t.Errorf("P(X <= 400 | n=1000, p=0.5) = %g, want below the false-alarm rate", got)
	}
}
