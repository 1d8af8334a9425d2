package sim

import (
	"math"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/gate"
	"vaq/internal/topo"
)

func uniformQ5(e float64) *device.Device {
	tp := topo.IBMQ5()
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = e
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.02
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	return device.MustNew(tp, s)
}

func TestAnalyticPSTSingleCNOT(t *testing.T) {
	d := uniformQ5(0.1)
	c := circuit.New("one", 2).CX(0, 1)
	got := AnalyticPST(d, c, Config{DisableCoherence: true})
	if math.Abs(got-0.9) > 1e-12 {
		t.Fatalf("analytic PST = %v, want 0.9", got)
	}
}

func TestAnalyticPSTProductOfOps(t *testing.T) {
	d := uniformQ5(0.1)
	c := circuit.New("p", 2).H(0).CX(0, 1).Measure(0, 0).Measure(1, 1)
	want := 0.999 * 0.9 * 0.98 * 0.98
	got := AnalyticPST(d, c, Config{DisableCoherence: true})
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("analytic PST = %v, want %v", got, want)
	}
}

func TestMonteCarloMatchesAnalytic(t *testing.T) {
	d := uniformQ5(0.05)
	c := circuit.New("mc", 3).H(0).CX(0, 1).CX(1, 2).Swap(0, 1).MeasureAll()
	cfg := Config{Trials: 200000, Seed: 1}
	analytic := AnalyticPST(d, c, cfg)
	out := Run(d, c, cfg)
	if math.Abs(out.PST-analytic) > 4*out.StdErr+1e-4 {
		t.Fatalf("MC PST %v vs analytic %v (stderr %v)", out.PST, analytic, out.StdErr)
	}
}

func TestMonteCarloDeterministicPerSeed(t *testing.T) {
	d := uniformQ5(0.05)
	c := circuit.New("det", 2).CX(0, 1).MeasureAll()
	a := Run(d, c, Config{Trials: 5000, Seed: 3})
	b := Run(d, c, Config{Trials: 5000, Seed: 3})
	if a.Successes != b.Successes {
		t.Fatal("same seed, different outcomes")
	}
	diff := Run(d, c, Config{Trials: 5000, Seed: 4})
	if a.Successes == diff.Successes && a.PST == diff.PST {
		// Extremely unlikely to coincide exactly for different seeds.
		t.Log("warning: different seeds coincided; acceptable but suspicious")
	}
}

func TestPerfectDeviceAlwaysSucceeds(t *testing.T) {
	tp := topo.IBMQ5()
	s := calib.NewSnapshot(tp)
	for q := 0; q < 5; q++ {
		s.T1Us[q], s.T2Us[q] = 1e9, 1e9 // effectively no decoherence
	}
	d := device.MustNew(tp, s)
	c := circuit.New("perfect", 2).H(0).CX(0, 1).MeasureAll()
	out := Run(d, c, Config{Trials: 2000, Seed: 1})
	if out.PST != 1 {
		t.Fatalf("PST on perfect device = %v, want 1", out.PST)
	}
	if out.GateFailures+out.ReadoutFailures+out.CoherenceFailures != 0 {
		t.Fatal("failures recorded on a perfect device")
	}
}

func TestFailureAttribution(t *testing.T) {
	// All error mass on readout: failures must be attributed to readout.
	tp := topo.IBMQ5()
	s := calib.NewSnapshot(tp)
	for q := 0; q < 5; q++ {
		s.T1Us[q], s.T2Us[q] = 1e9, 1e9
		s.Readout[q] = 0.5
	}
	d := device.MustNew(tp, s)
	c := circuit.New("r", 1).Measure(0, 0)
	out := Run(d, c, Config{Trials: 4000, Seed: 2})
	if out.ReadoutFailures == 0 || out.GateFailures != 0 || out.CoherenceFailures != 0 {
		t.Fatalf("attribution = %+v", out)
	}
	if math.Abs(out.PST-0.5) > 0.05 {
		t.Fatalf("PST = %v, want ≈0.5", out.PST)
	}
}

func TestCoherenceChargedOnlyWhenIdle(t *testing.T) {
	d := uniformQ5(0.0)
	// Qubit 2 idles for a long stretch between its first and last use;
	// qubits staying busy accumulate nothing.
	c := circuit.New("idle", 3)
	c.H(2)
	for i := 0; i < 50; i++ {
		c.H(0).H(1)
	}
	c.CX(1, 2)
	idle := IdleTimes(c)
	if idle[2] == 0 {
		t.Fatal("qubit 2 should accumulate idle time")
	}
	if idle[0] != 0 {
		t.Fatalf("busy qubit 0 accumulated idle %v", idle[0])
	}
	withCoh := AnalyticPST(d, c, Config{})
	noCoh := AnalyticPST(d, c, Config{DisableCoherence: true})
	if !(withCoh < noCoh) {
		t.Fatalf("coherence should reduce PST: %v vs %v", withCoh, noCoh)
	}
}

func TestIdleBeforeFirstGateNotCharged(t *testing.T) {
	c := circuit.New("late", 2)
	for i := 0; i < 30; i++ {
		c.H(0)
	}
	c.H(1) // qubit 1's first and last gate: no idle inside its window
	idle := IdleTimes(c)
	if idle[1] != 0 {
		t.Fatalf("qubit idle before first use charged: %v", idle[1])
	}
}

func TestOutcomeTiming(t *testing.T) {
	d := uniformQ5(0.02)
	c := circuit.New("t", 2).H(0).CX(0, 1).MeasureAll()
	out := Run(d, c, Config{Trials: 1000, Seed: 1})
	// h, cx, then both measures in parallel.
	if want := gate.H.Duration() + gate.CX.Duration() + gate.Measure.Duration(); out.Duration != want {
		t.Fatalf("duration = %v, want %v", out.Duration, want)
	}
	if out.TrialLatency != out.Duration+DefaultResetOverhead {
		t.Fatalf("latency = %v", out.TrialLatency)
	}
	wantRate := out.PST / out.TrialLatency.Seconds()
	if math.Abs(out.SuccessesPerSecond-wantRate) > 1e-9 {
		t.Fatalf("rate = %v, want %v", out.SuccessesPerSecond, wantRate)
	}
}

func TestRunPanicsOnOversizedCircuit(t *testing.T) {
	d := uniformQ5(0.05)
	c := circuit.New("big", 9).H(8)
	defer func() {
		if recover() == nil {
			t.Fatal("oversized circuit accepted")
		}
	}()
	Run(d, c, Config{Trials: 10})
}

func TestDefaultTrials(t *testing.T) {
	if (Config{}).trials() != 100000 {
		t.Fatal("default trials wrong")
	}
	if (Config{Trials: 7}).trials() != 7 {
		t.Fatal("explicit trials ignored")
	}
}

func TestIdleTimesEmptyCircuit(t *testing.T) {
	c := circuit.New("e", 3)
	for _, v := range IdleTimes(c) {
		if v != 0 {
			t.Fatal("empty circuit accumulated idle time")
		}
	}
}
