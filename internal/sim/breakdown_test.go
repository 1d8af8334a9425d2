package sim_test

import (
	"math"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/gate"
	"vaq/internal/sim"
	"vaq/internal/workloads"
)

// refBreakdown is the two-pass hazard formula Prepared.Breakdown must
// reproduce bit for bit: one pass over the gates, then a fresh ASAP
// schedule for the coherence term.
func refBreakdown(d *device.Device, phys *circuit.Circuit, cfg sim.Config) sim.Breakdown {
	var b sim.Breakdown
	for _, g := range phys.Gates {
		s := d.GateSuccess(g.Kind, g.Qubits)
		if g.Kind.Class() == gate.Readout {
			b.Readout += -math.Log(s)
		} else if s < 1 {
			b.Gate += -math.Log(s)
		}
	}
	if !cfg.DisableCoherence {
		for _, perr := range sim.CoherenceErrors(d, sim.IdleTimes(phys)) {
			b.Coherence += -math.Log(1 - perr)
		}
	}
	return b
}

func sameBits(a, b sim.Breakdown) bool {
	return math.Float64bits(a.Gate) == math.Float64bits(b.Gate) &&
		math.Float64bits(a.Readout) == math.Float64bits(b.Readout) &&
		math.Float64bits(a.Coherence) == math.Float64bits(b.Coherence)
}

// TestPreparedBreakdownBitIdentical compiles the Table 1 suite under
// every policy on the Q20 and Q16 models (A*) and the heavy-hex-127 and
// heavy-hex-399 lattices (SABRE movement), and checks the hazards
// Prepare accumulates in its own loops against the two-pass reference,
// with coherence on and off.
func TestPreparedBreakdownBitIdentical(t *testing.T) {
	devices := []struct {
		name     string
		arch     func() (*calib.Archive, error)
		movement string
	}{
		{"q20", func() (*calib.Archive, error) { return calib.Generate(calib.DefaultQ20Config(2019)), nil }, ""},
		{"q16", func() (*calib.Archive, error) { return calib.Generate(calib.DefaultQ16Config(2019)), nil }, ""},
		{"heavy-hex-127", func() (*calib.Archive, error) { return calib.ZooArchive("heavy-hex-127", 2019) }, "sabre"},
		{"heavy-hex-399", func() (*calib.Archive, error) { return calib.ZooArchive("heavy-hex-399", 2019) }, "sabre"},
	}
	cases := 0
	for _, dv := range devices {
		arch, err := dv.arch()
		if err != nil {
			t.Fatal(err)
		}
		d := device.MustNew(arch.Topo, arch.MustMean())
		for _, w := range workloads.Table1Suite() {
			if w.Circuit.NumQubits > d.NumQubits() {
				continue
			}
			for _, p := range core.AllPolicies() {
				comp, err := core.Compile(d, w.Circuit, core.Options{Policy: p, Seed: 1, Movement: dv.movement})
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", dv.name, w.Name, p, err)
				}
				phys := comp.Routed.Physical
				for _, off := range []bool{false, true} {
					cfg := sim.Config{DisableCoherence: off}
					got, want := sim.Prepare(d, phys, cfg).Breakdown(), refBreakdown(d, phys, cfg)
					if !sameBits(got, want) {
						t.Errorf("%s/%s/%s coherence-off=%v: Breakdown %+v, reference %+v", dv.name, w.Name, p, off, got, want)
					}
					if got := sim.AnalyticBreakdown(d, phys, cfg); !sameBits(got, want) {
						t.Errorf("%s/%s/%s coherence-off=%v: AnalyticBreakdown %+v, reference %+v", dv.name, w.Name, p, off, got, want)
					}
					cases++
				}
			}
		}
	}
	// 5 policies × coherence on and off × the Table 1 workloads that fit
	// each device: all 7, except 4 on Q16.
	if cases != 2*5*(7+4+7+7) {
		t.Fatalf("%d cases ran, want 250", cases)
	}
}
