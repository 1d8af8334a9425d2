package sim

import (
	"math"
	"testing"

	"vaq/internal/alloc"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/route"
	"vaq/internal/workloads"
)

// q20Compiled returns a realistically deep physical circuit (bv-16 under
// the baseline policy — its single greedy × hop-cost A* candidate — on
// the synthetic IBM-Q20) for determinism tests. It calls alloc and route
// directly: core imports sim, so this internal test cannot import core.
func q20Compiled(t testing.TB) (*device.Device, *circuit.Circuit) {
	t.Helper()
	arch := calib.Generate(calib.DefaultQ20Config(2019))
	d := device.MustNew(arch.Topo, arch.MustMean())
	prog := workloads.BV(16)
	m, err := alloc.Greedy{}.Allocate(d, prog)
	if err != nil {
		t.Fatal(err)
	}
	res, err := route.AStar{Cost: route.CostHops, MAH: -1}.Route(d, prog, m)
	if err != nil {
		t.Fatal(err)
	}
	return d, res.Physical
}

// TestWorkerCountInvariance is the determinism regression test: the same
// Config.Seed must yield a byte-identical Outcome — including the
// failure-attribution counts — at every worker count, because the RNG is
// derived per trial block, never per worker.
func TestWorkerCountInvariance(t *testing.T) {
	d, phys := q20Compiled(t)
	trials := 50000
	if testing.Short() {
		trials = 20000
	}
	base := Run(d, phys, Config{Trials: trials, Seed: 99, Workers: -1}) // serial reference
	for _, workers := range []int{1, 2, 3, 8} {
		got := Run(d, phys, Config{Trials: trials, Seed: 99, Workers: workers})
		if got != base {
			t.Fatalf("Workers=%d: outcome %+v != serial %+v", workers, got, base)
		}
	}
}

// TestParallelMatchesAnalytic extends the MC-vs-analytic cross-check to
// the parallel path: the sharded estimator must stay within 3 standard
// errors of the closed form.
func TestParallelMatchesAnalytic(t *testing.T) {
	d := uniformQ5(0.05)
	c := circuit.New("mc-par", 3).H(0).CX(0, 1).CX(1, 2).Swap(0, 1).MeasureAll()
	cfg := Config{Trials: 200000, Seed: 1, Workers: 8}
	analytic := AnalyticPST(d, c, cfg)
	out := Run(d, c, cfg)
	if math.Abs(out.PST-analytic) > 3*out.StdErr+1e-4 {
		t.Fatalf("parallel MC PST %v vs analytic %v (stderr %v)", out.PST, analytic, out.StdErr)
	}
}

func TestPrepareReuseIsIdentical(t *testing.T) {
	d, phys := q20Compiled(t)
	cfg := Config{Trials: 30000, Seed: 7, Workers: 4}
	p := Prepare(d, phys, cfg)
	a := p.Run(cfg)
	b := p.Run(cfg)
	if a != b {
		t.Fatalf("repeated Run on one Prepared diverged: %+v vs %+v", a, b)
	}
	if direct := Run(d, phys, cfg); direct != a {
		t.Fatalf("Run = %+v, Prepared.Run = %+v", direct, a)
	}
}

func TestPrepareAnalyticMatchesAnalyticPST(t *testing.T) {
	d, phys := q20Compiled(t)
	for _, cfg := range []Config{{}, {DisableCoherence: true}} {
		want := AnalyticPST(d, phys, cfg)
		got := Prepare(d, phys, cfg).AnalyticPST()
		if got != want {
			t.Fatalf("cfg %+v: Prepared analytic %v, AnalyticPST %v", cfg, got, want)
		}
	}
}

// TestEstimateFallbackBoundary pins the reported-PST rule at its
// threshold: a run observing minMCSuccesses−1 successes reports the
// analytic value, one observing minMCSuccesses reports the MC estimate.
// The empty circuit makes every trial succeed, and the analytic value is
// overwritten with a marker so the two answers are distinguishable.
func TestEstimateFallbackBoundary(t *testing.T) {
	p := Prepare(uniformQ5(0.05), circuit.New("empty", 1), Config{})
	p.analytic = 0.25
	for _, tc := range []struct {
		trials int
		want   float64
	}{{minMCSuccesses - 1, 0.25}, {minMCSuccesses, 1}} {
		cfg := Config{Trials: tc.trials, Seed: 3}
		pst, out := p.Estimate(cfg)
		if out != p.Run(cfg) {
			t.Fatalf("trials=%d: Estimate outcome %+v differs from Run", tc.trials, out)
		}
		if out.Successes != tc.trials {
			t.Fatalf("trials=%d: %d successes, want every trial", tc.trials, out.Successes)
		}
		if pst != tc.want {
			t.Fatalf("trials=%d (%d successes): reported PST %v, want %v", tc.trials, out.Successes, pst, tc.want)
		}
	}
}

// TestDegenerateConfigs guards the clamping rules: tiny trial counts
// (below one block), absurd worker counts, and negative workers must all
// produce the same outcome as the serial reference.
func TestDegenerateConfigs(t *testing.T) {
	d := uniformQ5(0.05)
	c := circuit.New("tiny", 2).CX(0, 1).MeasureAll()
	for _, trials := range []int{1, 5, BlockSize - 1, BlockSize, BlockSize + 1} {
		ref := Run(d, c, Config{Trials: trials, Seed: 5, Workers: -1})
		if ref.Trials != trials {
			t.Fatalf("trials = %d, want %d", ref.Trials, trials)
		}
		for _, workers := range []int{0, 1, 64} {
			got := Run(d, c, Config{Trials: trials, Seed: 5, Workers: workers})
			if got != ref {
				t.Fatalf("trials=%d workers=%d: %+v != %+v", trials, workers, got, ref)
			}
		}
	}
}

func TestBlockSeedsDecorrelated(t *testing.T) {
	seen := map[int64]int{}
	for b := 0; b < 1000; b++ {
		seen[blockSeed(42, b)] = b
	}
	if len(seen) != 1000 {
		t.Fatalf("only %d distinct block seeds out of 1000", len(seen))
	}
	if blockSeed(1, 0) == blockSeed(2, 0) {
		t.Fatal("different run seeds share block-0 seed")
	}
}

// TestBlockSeedKnownAnswers pins the per-block seed derivation: every
// Monte-Carlo success count rests on these values.
func TestBlockSeedKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		b    int
		want int64
	}{
		{0, 0, -2152535657050944081},
		{1, 0, -7995527694508729151},
		{2019, 3, -7398761459539803555},
		{-7, 1000, 7040069683143917062},
	} {
		if got := blockSeed(tc.seed, tc.b); got != tc.want {
			t.Errorf("blockSeed(%d, %d) = %d, want %d", tc.seed, tc.b, got, tc.want)
		}
	}
}
