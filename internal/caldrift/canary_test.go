package caldrift

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/portfolio"
	"vaq/internal/sim"
	"vaq/internal/workloads"
)

// canarySpec keeps canary test runs cheap: reference device only, no
// multi-starts, no optimizer sweep beyond the grid's own axis.
func canarySpec(workers int) portfolio.Spec {
	return portfolio.Spec{
		RootSeed:     7,
		Cycles:       -1,
		RandomStarts: -1,
		TopK:         1,
		Trials:       500,
		Workers:      workers,
	}
}

// canaryFixture compiles BV(4) on the window's first cycle — the stale
// mapping — then degrades the rest of the window.
func canaryFixture(t *testing.T) (window []*calib.Snapshot, targets []CanaryTarget) {
	t.Helper()
	window = genCycles(t, 13, 4)
	prog := workloads.BV(4)
	d0, err := device.New(window[0].Topo, window[0])
	if err != nil {
		t.Fatal(err)
	}
	compiled, err := core.Compile(d0, prog, core.Options{Policy: core.VQAVQM, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Make the stale mapping's links much worse on later cycles while
	// the rest of the device holds, so recompilation has room to win.
	for _, g := range compiled.Routed.Physical.Gates {
		if len(g.Qubits) != 2 {
			continue
		}
		for _, s := range window[1:] {
			for _, c := range s.Topo.Couplings {
				if (c.A == g.Qubits[0] && c.B == g.Qubits[1]) || (c.A == g.Qubits[1] && c.B == g.Qubits[0]) {
					s.TwoQubit[c] = 0.25
				}
			}
		}
	}
	targets = []CanaryTarget{{Name: "bv4", Prog: prog, Stale: compiled.Routed.Physical}}
	return window, targets
}

func TestCanaryPredictsRecompileGain(t *testing.T) {
	window, targets := canaryFixture(t)
	rep, err := Canary(context.Background(), window, targets, canarySpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Targets != 1 || len(rep.Deltas) != 1 {
		t.Fatalf("report shape: %+v", rep)
	}
	dl := rep.Deltas[0]
	if dl.Err != "" {
		t.Fatalf("canary errored: %s", dl.Err)
	}
	if dl.Delta <= 0 {
		t.Fatalf("recompiling around poisoned links predicted no gain: stale %v recompiled %v",
			dl.StalePST, dl.RecompiledPST)
	}
	if dl.Policy == "" {
		t.Fatal("winning policy not labeled")
	}
	if rep.MaxDelta != dl.Delta || rep.MeanDelta != dl.Delta {
		t.Fatalf("aggregates %v/%v do not match sole delta %v", rep.MeanDelta, rep.MaxDelta, dl.Delta)
	}
	// Sanity: the stale PST the canary reports is the cached mapping
	// scored on the *current* calibration.
	cur, _ := device.New(window[3].Topo, window[3])
	if want := sim.AnalyticPST(cur, targets[0].Stale, sim.Config{}); dl.StalePST != want {
		t.Fatalf("stale PST %v, want %v", dl.StalePST, want)
	}
}

func TestCanaryBadTarget(t *testing.T) {
	window, _ := canaryFixture(t)
	rep, err := Canary(context.Background(), window, []CanaryTarget{{Name: "empty"}}, canarySpec(0))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deltas[0].Err == "" {
		t.Fatal("nil-circuit target produced no error")
	}
	if _, err := Canary(context.Background(), nil, nil, canarySpec(0)); err == nil {
		t.Fatal("empty window accepted")
	}
}

// TestDriftRecompileDeterminism pins the PR's acceptance criterion:
// the full drift report — detection plus canary recompilation — is
// byte-identical at 1, 2, and GOMAXPROCS workers.
func TestDriftRecompileDeterminism(t *testing.T) {
	window, targets := canaryFixture(t)
	var want []byte
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		rep, err := Detect("q5", window, 0.01)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Triggered {
			t.Fatalf("fixture did not trigger (score %v)", rep.Score)
		}
		canary, err := Canary(context.Background(), window, targets, canarySpec(workers))
		if err != nil {
			t.Fatal(err)
		}
		rep.Canary = canary
		got, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: drift report differs from workers=1", workers)
		}
	}
}
