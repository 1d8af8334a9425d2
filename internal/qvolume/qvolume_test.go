package qvolume

import (
	"strings"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/topo"
)

func uniformQ20(e float64) *device.Device {
	tp := topo.IBMQ20()
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = e
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.0005
		s.Readout[q] = 0.01
		s.T1Us[q], s.T2Us[q] = 200, 150
	}
	return device.MustNew(tp, s)
}

func TestModelCircuitShape(t *testing.T) {
	c := ModelCircuit(4, 1)
	if c.NumQubits != 4 {
		t.Fatalf("qubits = %d", c.NumQubits)
	}
	// 4 layers × 2 pairs × 2 CX per block = 16 CX.
	if got := c.Stats().TwoQubit; got != 16 {
		t.Fatalf("CX count = %d, want 16", got)
	}
	if c.Stats().Measures != 4 {
		t.Fatalf("measures = %d", c.Stats().Measures)
	}
}

func TestModelCircuitDeterministicPerSeed(t *testing.T) {
	a, b := ModelCircuit(4, 9), ModelCircuit(4, 9)
	if len(a.Gates) != len(b.Gates) {
		t.Fatal("same seed, different sizes")
	}
	for i := range a.Gates {
		if a.Gates[i].Kind != b.Gates[i].Kind || a.Gates[i].Param != b.Gates[i].Param {
			t.Fatal("same seed, different gates")
		}
	}
	c := ModelCircuit(4, 10)
	same := true
	for i := range a.Gates {
		if i >= len(c.Gates) || a.Gates[i].Param != c.Gates[i].Param {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds identical")
	}
}

func TestModelCircuitPanicsOnTinyWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ModelCircuit(1) did not panic")
		}
	}()
	ModelCircuit(1, 1)
}

func TestHeavyOutputs(t *testing.T) {
	c := ModelCircuit(4, 3)
	heavy, hop, err := HeavyOutputs(c)
	if err != nil {
		t.Fatal(err)
	}
	// For scrambling circuits the ideal HOP approaches (1+ln2)/2 ≈ 0.85;
	// any genuinely scrambled circuit lands well above 0.5.
	if hop <= 0.5 || hop > 1 {
		t.Fatalf("ideal HOP = %v, want in (0.5, 1]", hop)
	}
	if len(heavy) == 0 || len(heavy) > 16 {
		t.Fatalf("heavy set size = %d", len(heavy))
	}
}

func TestEvaluatePerfectDevicePasses(t *testing.T) {
	d := uniformQ20(0.0001)
	res, err := Evaluate(d, 3, Config{Circuits: 4, Seed: 1, Policy: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass {
		t.Fatalf("near-perfect device failed QV at m=3: %+v", res)
	}
	if res.MeanPST < 0.9 {
		t.Fatalf("mean PST = %v on a near-perfect device", res.MeanPST)
	}
}

func TestEvaluateNoisyDeviceFails(t *testing.T) {
	d := uniformQ20(0.2) // terrible links
	res, err := Evaluate(d, 4, Config{Circuits: 4, Seed: 1, Policy: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if res.Pass {
		t.Fatalf("20%%-error device passed QV at m=4: %+v", res)
	}
	if res.NoisyHOP < 0.45 || res.NoisyHOP > 0.7 {
		t.Fatalf("noisy HOP = %v, want near the depolarized 0.5", res.NoisyHOP)
	}
}

func TestEvaluateErrors(t *testing.T) {
	d := uniformQ20(0.01)
	if _, err := Evaluate(d, 25, Config{}); err == nil {
		t.Fatal("width beyond device accepted")
	}
	if _, err := Evaluate(d, 15, Config{}); err == nil {
		t.Fatal("width beyond simulation budget accepted")
	}
}

// TestEvaluateRejectsNarrowWidth checks that widths below the 2-qubit
// model-circuit minimum come back as a plain error before any work,
// rather than a panic from ModelCircuit inside the worker pool.
func TestEvaluateRejectsNarrowWidth(t *testing.T) {
	d := uniformQ20(0.01)
	for _, m := range []int{-1, 0, 1} {
		_, err := Evaluate(d, m, Config{Circuits: 2})
		if err == nil {
			t.Fatalf("width %d accepted", m)
		}
		if strings.Contains(err.Error(), "panic") {
			t.Fatalf("width %d: %v", m, err)
		}
	}
}

func TestAchievableMonotoneScan(t *testing.T) {
	d := uniformQ20(0.015)
	best, all, err := Achievable(d, 5, Config{Circuits: 3, Seed: 2, Policy: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if len(all) == 0 {
		t.Fatal("no widths evaluated")
	}
	// The scan stops at the first failure; every result before the last
	// must have passed.
	for i, r := range all[:len(all)-1] {
		if !r.Pass {
			t.Fatalf("intermediate width %d failed but scan continued", all[i].M)
		}
	}
	if best > 0 && !all[best-2].Pass {
		t.Fatalf("achievable %d inconsistent with results", best)
	}
}

func TestVariationAwareQVAtLeastBaseline(t *testing.T) {
	// The Related-Work argument made quantitative: on a chip with link
	// variation, the variation-aware compiler achieves at least the
	// baseline's noisy HOP at the same width (usually more).
	arch := calib.Generate(calib.DefaultQ20Config(11))
	d := device.MustNew(arch.Topo, arch.MustMean())
	cfgB := Config{Circuits: 4, Seed: 5, Policy: core.Baseline}
	cfgV := Config{Circuits: 4, Seed: 5, Policy: core.VQAVQM}
	rb, err := Evaluate(d, 4, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	rv, err := Evaluate(d, 4, cfgV)
	if err != nil {
		t.Fatal(err)
	}
	if rv.NoisyHOP < rb.NoisyHOP-1e-9 {
		t.Fatalf("VQA+VQM HOP %v below baseline %v", rv.NoisyHOP, rb.NoisyHOP)
	}
	if rv.MeanPST < rb.MeanPST-1e-9 {
		t.Fatalf("VQA+VQM PST %v below baseline %v", rv.MeanPST, rb.MeanPST)
	}
}
