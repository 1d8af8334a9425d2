// End-to-end checks of the estimator on circuits the compile pipeline
// produced. They live in the external test package because core scores
// candidates with sim, so the internal tests cannot import core.
package sim_test

import (
	"testing"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/sim"
	"vaq/internal/workloads"
)

func TestGateErrorsDominateCoherenceForBV20(t *testing.T) {
	// Section 4.4: "for bv-20, the gate errors are 16x more likely to
	// cause system failures than the coherence errors." Our duty factor is
	// calibrated to land in that regime (same order of magnitude).
	arch := calib.Generate(calib.DefaultQ20Config(42))
	d := device.MustNew(arch.Topo, arch.MustMean())
	prog := workloads.BV(20)
	comp, err := core.Compile(d, prog, core.Options{Policy: core.Baseline})
	if err != nil {
		t.Fatal(err)
	}
	b := sim.AnalyticBreakdown(d, comp.Routed.Physical, sim.Config{})
	if b.Coherence <= 0 {
		t.Fatal("coherence failure probability is zero; model inert")
	}
	ratio := (b.Gate + b.Readout) / b.Coherence
	if ratio < 6 || ratio > 40 {
		t.Fatalf("gate/coherence hazard ratio = %v, want ≈16 (same order)", ratio)
	}
	// The Monte Carlo run must also observe coherence failures.
	out := sim.Run(d, comp.Routed.Physical, sim.Config{Trials: 300000, Seed: 5})
	if out.CoherenceFailures == 0 {
		t.Fatal("MC never observed a coherence failure")
	}
}

func TestCompiledPipelinePSTOrdering(t *testing.T) {
	// End-to-end sanity: on a skewed device, the full VQA+VQM pipeline
	// should deliver PST at least as good as the native compiler's by a
	// wide margin (Figure 13's 4-7x gap, loosely).
	arch := calib.Generate(calib.DefaultQ20Config(13))
	d := device.MustNew(arch.Topo, arch.MustMean())
	prog := workloads.BV(16)
	native, err := core.Compile(d, prog, core.Options{Policy: core.Native, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	full, err := core.Compile(d, prog, core.Options{Policy: core.VQAVQM})
	if err != nil {
		t.Fatal(err)
	}
	cfg := sim.Config{Trials: 100000, Seed: 11}
	pNative := sim.Run(d, native.Routed.Physical, cfg).PST
	pFull := sim.Run(d, full.Routed.Physical, cfg).PST
	if pFull <= pNative {
		t.Fatalf("VQA+VQM PST %v not above native %v", pFull, pNative)
	}
}
