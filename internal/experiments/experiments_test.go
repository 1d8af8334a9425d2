package experiments

import (
	"fmt"
	"strings"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/metrics"
)

// fastCfg keeps experiment tests quick while exercising the full paths.
func fastCfg() Config {
	return Config{
		Seed:          2019,
		Trials:        30000,
		NativeConfigs: 6,
		NativeTrials:  4000,
		Q5Trials:      4096,
	}
}

func TestFig5(t *testing.T) {
	r := Fig5CoherenceDistributions(fastCfg())
	if r.T1Summary.Mean < 60 || r.T1Summary.Mean > 105 {
		t.Errorf("T1 mean = %v, want ≈80.32", r.T1Summary.Mean)
	}
	if r.T2Summary.Mean < 30 || r.T2Summary.Mean > 55 {
		t.Errorf("T2 mean = %v, want ≈42.13", r.T2Summary.Mean)
	}
	if r.T1Summary.N != 20*104 {
		t.Errorf("T1 samples = %d, want 2080", r.T1Summary.N)
	}
	if s := r.Table().String(); !strings.Contains(s, "Figure 5") {
		t.Error("table rendering broken")
	}
}

func TestFig6(t *testing.T) {
	r := Fig6SingleQubitErrors(fastCfg())
	if r.FractionBelow1Pct < 0.8 {
		t.Errorf("below-1%% fraction = %v, want most", r.FractionBelow1Pct)
	}
	if r.Summary.Max > 0.06 {
		t.Errorf("1Q max = %v, implausibly high", r.Summary.Max)
	}
}

func TestFig7(t *testing.T) {
	r := Fig7TwoQubitErrors(fastCfg())
	if r.Links != 76 {
		t.Errorf("links = %d, want 76", r.Links)
	}
	if r.Summary.Mean < 0.03 || r.Summary.Mean > 0.056 {
		t.Errorf("2Q mean = %v, want ≈0.043", r.Summary.Mean)
	}
	if r.Summary.Std < 0.015 || r.Summary.Std > 0.045 {
		t.Errorf("2Q std = %v, want ≈0.0302", r.Summary.Std)
	}
}

func TestFig8(t *testing.T) {
	r := Fig8TemporalVariation(fastCfg())
	if len(r.Links) != 3 {
		t.Fatalf("tracked links = %d, want 3", len(r.Links))
	}
	for _, l := range r.Links {
		if len(l.Series) != 104 {
			t.Fatalf("%s series length = %d, want 104", l.Name, len(l.Series))
		}
	}
	if r.StrongStaysStrongFraction < 0.6 {
		t.Errorf("strong-stays-strong = %v, want clear persistence", r.StrongStaysStrongFraction)
	}
}

func TestFig9(t *testing.T) {
	r := Fig9SpatialVariation(fastCfg())
	if len(r.MeanRates) != 38 {
		t.Fatalf("mean rates for %d couplings, want 38", len(r.MeanRates))
	}
	if r.Spread < 3 {
		t.Errorf("spatial spread = %vx, want several x (paper 7.5x)", r.Spread)
	}
	// The paper's weakest link is Q14-Q18 (pinned by the generator).
	if !(r.Weakest.A == 14 && r.Weakest.B == 18) {
		t.Errorf("weakest link = Q%d-Q%d, want Q14-Q18", r.Weakest.A, r.Weakest.B)
	}
	if r.MaxRate < 0.10 {
		t.Errorf("worst rate = %v, want ≈0.15", r.MaxRate)
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1Benchmarks(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.SwapInst < 0 {
			t.Errorf("%s negative swaps", r.Name)
		}
	}
	// Communication structure must show through the SWAP counts: bv-16's
	// star pattern needs fewer SWAPs than qft-12's all-to-all.
	if byName["bv-16"].SwapInst >= byName["qft-12"].SwapInst {
		t.Errorf("bv-16 swaps (%d) should be below qft-12 swaps (%d)",
			byName["bv-16"].SwapInst, byName["qft-12"].SwapInst)
	}
	// rnd-LD needs more movement than rnd-SD (long vs short distances).
	if byName["rnd-LD"].SwapInst <= byName["rnd-SD"].SwapInst {
		t.Errorf("rnd-LD swaps (%d) should exceed rnd-SD swaps (%d)",
			byName["rnd-LD"].SwapInst, byName["rnd-SD"].SwapInst)
	}
	if s := Table1Table(rows).String(); !strings.Contains(s, "bv-20") {
		t.Error("table rendering broken")
	}
}

func TestFig12Shape(t *testing.T) {
	cfg := fastCfg()
	rows, err := Fig12VQM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	improved := 0
	for _, r := range rows {
		if r.BaselinePST <= 0 || r.BaselinePST >= 1 {
			t.Errorf("%s baseline PST = %v", r.Name, r.BaselinePST)
		}
		if r.RelVQM > 1.02 {
			improved++
		}
		// Hop-limited should be in the same ballpark as unlimited.
		if r.RelVQMHop < 0.75*r.RelVQM {
			t.Errorf("%s: hop-limited %v far below unlimited %v", r.Name, r.RelVQMHop, r.RelVQM)
		}
	}
	if improved < 4 {
		t.Errorf("only %d/7 workloads improved under VQM, want most", improved)
	}
}

func TestFig13Shape(t *testing.T) {
	rows, err := Fig13Policies(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(rows))
	}
	fullBeatsNative := 0
	for _, r := range rows {
		if r.NativeMin > r.NativeAvg || r.NativeAvg > r.NativeMax {
			t.Errorf("%s: native stats disordered: %v %v %v", r.Name, r.NativeMin, r.NativeAvg, r.NativeMax)
		}
		// Baseline should dominate the randomized native compiler.
		if r.NativeAvg > 1.0 {
			t.Errorf("%s: native average %v above baseline", r.Name, r.NativeAvg)
		}
		if r.RelVQAVQM > r.NativeAvg {
			fullBeatsNative++
		}
	}
	if fullBeatsNative != 7 {
		t.Errorf("VQA+VQM beat native on %d/7 workloads, want all", fullBeatsNative)
	}
	if s := Fig13Table(rows).String(); !strings.Contains(s, "VQA+VQM") {
		t.Error("table rendering broken")
	}
}

func TestFig14Shape(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 40000 // per-day trials = /4
	r, err := Fig14PerDay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != 52 {
		t.Fatalf("points = %d, want 52 days", len(r.Points))
	}
	if r.Average < 1.0 {
		t.Errorf("average per-day benefit = %v, want ≥ 1", r.Average)
	}
	for _, p := range r.Points {
		if p.BaselinePST <= 0 {
			t.Fatalf("day %d: zero baseline PST", p.Day)
		}
		if p.LinkErrorCoV <= 0 {
			t.Fatalf("day %d: zero CoV", p.Day)
		}
	}
}

// TestFig14SkipsEmptyDays drops one day from a six-day archive: the
// series keeps the other five days, in order, and averages only them.
func TestFig14SkipsEmptyDays(t *testing.T) {
	arch := calib.Generate(calib.DefaultQ20Config(2019))
	var kept []*calib.Snapshot
	for _, s := range arch.Snapshots {
		if s.Day < 6 && s.Day != 2 {
			kept = append(kept, s)
		}
	}
	cfg := fastCfg()
	cfg.Archive = &calib.Archive{Topo: arch.Topo, Snapshots: kept}
	r, err := Fig14PerDay(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var days []int
	var rels []float64
	for _, p := range r.Points {
		days = append(days, p.Day)
		rels = append(rels, p.Relative)
	}
	if fmt.Sprint(days) != "[0 1 3 4 5]" {
		t.Fatalf("days = %v, want [0 1 3 4 5]", days)
	}
	if r.Average != metrics.Mean(rels) {
		t.Fatalf("average %v, want the mean of the kept days %v", r.Average, metrics.Mean(rels))
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2ErrorScaling(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	// The paper's trend: doubling the relative variation at 10x-lower
	// errors increases the benefit versus same-CoV scaling.
	if rows[2].Relative < rows[1].Relative {
		t.Errorf("2*CoV benefit %v below Cov-Base benefit %v, want ≥ (paper: 2.59x vs 2.02x)",
			rows[2].Relative, rows[1].Relative)
	}
	for _, r := range rows {
		if r.Relative < 0.95 {
			t.Errorf("%s: benefit %v, want ≥ ~1", r.Label, r.Relative)
		}
	}
}

func TestTable3Shape(t *testing.T) {
	r, err := Table3IBMQ5(fastCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	if r.GeoMean < 1.0 {
		t.Errorf("geomean = %v, want ≥ 1 (paper: 1.36x)", r.GeoMean)
	}
	var triswap, ghz Table3Row
	for _, row := range r.Rows {
		if row.BaselinePST <= 0 || row.BaselinePST > 1 {
			t.Errorf("%s baseline PST = %v", row.Name, row.BaselinePST)
		}
		switch row.Name {
		case "TriSwap":
			triswap = row
		case "GHZ-3":
			ghz = row
		}
	}
	// The SWAP-heavy kernel should gain at least as much as the short GHZ
	// chain (the paper's 1.90x vs 1.35x ordering).
	if triswap.Relative < ghz.Relative*0.9 {
		t.Errorf("TriSwap benefit %v well below GHZ-3 %v; expected SWAP-heavy kernel to gain most",
			triswap.Relative, ghz.Relative)
	}
}

func TestFig16Shape(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 40000
	rows, err := Fig16Partitioning(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(rows))
	}
	for _, r := range rows {
		if r.TwoCopiesNorm != 1 {
			t.Errorf("%s: two-copy normalization %v, want 1", r.Name, r.TwoCopiesNorm)
		}
		if r.OneStrongNorm <= 0 {
			t.Errorf("%s: one-strong normalized STPT %v", r.Name, r.OneStrongNorm)
		}
		if (r.Winner == 0) != (r.OneStrongNorm >= 1) && (r.Winner == 1) != (r.OneStrongNorm < 1) {
			t.Errorf("%s: winner %v inconsistent with norm %v", r.Name, r.Winner, r.OneStrongNorm)
		}
	}
	if s := Fig16Table(rows).String(); !strings.Contains(s, "one strong copy") {
		t.Error("table rendering broken")
	}
}

// TestFanOutWorkerCountInvariance pins the concurrency contract at the
// experiment level: the whole fan-out (per-workload Map, per-config
// native sweep, block-sharded Monte Carlo) must produce identical rows at
// any worker count. Runs in short mode so scripts/check.sh exercises the
// concurrent path under the race detector.
func TestFanOutWorkerCountInvariance(t *testing.T) {
	cfg := fastCfg()
	cfg.Trials = 10000
	cfg.NativeConfigs = 3
	cfg.NativeTrials = 2000

	serial := cfg
	serial.Workers = -1
	fanned := cfg
	fanned.Workers = 4

	a, err := Fig12VQM(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fig12VQM(fanned)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("row counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("row %d differs: serial %+v, workers=4 %+v", i, a[i], b[i])
		}
	}

	t3a, err := Table3IBMQ5(serial)
	if err != nil {
		t.Fatal(err)
	}
	t3b, err := Table3IBMQ5(fanned)
	if err != nil {
		t.Fatal(err)
	}
	if t3a.GeoMean != t3b.GeoMean {
		t.Fatalf("Table 3 geomean differs: %v vs %v", t3a.GeoMean, t3b.GeoMean)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	d := DefaultConfig()
	if c != d {
		t.Fatalf("withDefaults = %+v, want %+v", c, d)
	}
	c2 := Config{Trials: 5}.withDefaults()
	if c2.Trials != 5 || c2.Seed != d.Seed {
		t.Fatal("partial override broken")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := Table{
		Title:   "T",
		Header:  []string{"a", "long-header"},
		Rows:    [][]string{{"xxxxx", "1"}},
		Caption: "cap",
	}
	s := tbl.String()
	for _, want := range []string{"== T ==", "long-header", "xxxxx", "cap", "-----"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig9Layout(t *testing.T) {
	r := Fig9SpatialVariation(fastCfg())
	layout := r.Layout()
	for _, want := range []string{"Q0 ", "Q19", "diagonals:", "--"} {
		if !strings.Contains(layout, want) {
			t.Fatalf("layout missing %q:\n%s", want, layout)
		}
	}
	// Every coupling's rate appears somewhere (grid or diagonal list).
	if strings.Count(layout, ".") < 38 {
		t.Fatalf("layout seems to be missing link rates:\n%s", layout)
	}
}
