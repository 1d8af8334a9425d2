// Package bench holds the benchmark harness: one testing.B benchmark per
// table and figure of the paper, plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark runs the corresponding
// experiment end to end (archive generation → compilation → fault
// injection) and reports the headline number via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the whole evaluation. Trial budgets are reduced relative to
// cmd/repro; use cmd/repro -full for the paper's budgets.
package bench

import (
	"fmt"
	"runtime"
	"testing"

	"vaq/internal/alloc"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/experiments"
	"vaq/internal/metrics"
	"vaq/internal/route"
	"vaq/internal/sim"
	"vaq/internal/workloads"
)

// benchCfg keeps per-iteration cost manageable; the experiments fall back
// to the analytic PST estimator when the MC budget is too small for a
// deep circuit, so the reported ratios stay meaningful.
func benchCfg() experiments.Config {
	return experiments.Config{
		Seed:          2019,
		Trials:        50000,
		NativeConfigs: 8,
		NativeTrials:  4000,
		Q5Trials:      4096,
	}
}

func BenchmarkFig5CoherenceDistributions(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5CoherenceDistributions(benchCfg())
		mean = r.T1Summary.Mean
	}
	b.ReportMetric(mean, "T1-mean-us")
}

func BenchmarkFig6SingleQubitErrors(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = experiments.Fig6SingleQubitErrors(benchCfg()).FractionBelow1Pct
	}
	b.ReportMetric(100*frac, "pct-below-1pct")
}

func BenchmarkFig7TwoQubitErrors(b *testing.B) {
	var mean float64
	for i := 0; i < b.N; i++ {
		mean = experiments.Fig7TwoQubitErrors(benchCfg()).Summary.Mean
	}
	b.ReportMetric(100*mean, "mean-2q-error-pct")
}

func BenchmarkFig8TemporalVariation(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		frac = experiments.Fig8TemporalVariation(benchCfg()).StrongStaysStrongFraction
	}
	b.ReportMetric(100*frac, "strong-stays-strong-pct")
}

func BenchmarkFig9SpatialVariation(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		spread = experiments.Fig9SpatialVariation(benchCfg()).Spread
	}
	b.ReportMetric(spread, "spatial-spread-x")
}

func BenchmarkTable1Benchmarks(b *testing.B) {
	var swaps int
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1Benchmarks(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		swaps = 0
		for _, r := range rows {
			swaps += r.SwapInst
		}
	}
	b.ReportMetric(float64(swaps), "total-swaps")
}

func BenchmarkFig12VQM(b *testing.B) {
	var rel []float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig12VQM(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rel = rel[:0]
		for _, r := range rows {
			rel = append(rel, r.RelVQM)
		}
	}
	b.ReportMetric(metrics.GeoMean(rel), "geomean-rel-pst")
}

func BenchmarkFig13Policies(b *testing.B) {
	var rel []float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig13Policies(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		rel = rel[:0]
		for _, r := range rows {
			rel = append(rel, r.RelVQAVQM)
		}
	}
	b.ReportMetric(metrics.GeoMean(rel), "geomean-rel-pst")
}

func BenchmarkFig14PerDay(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig14PerDay(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		avg = res.Average
	}
	b.ReportMetric(avg, "avg-daily-benefit-x")
}

func BenchmarkTable2ErrorScaling(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2ErrorScaling(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last = rows[len(rows)-1].Relative
	}
	b.ReportMetric(last, "rel-pst-2cov-x")
}

func BenchmarkTable3IBMQ5(b *testing.B) {
	var gm float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3IBMQ5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		gm = res.GeoMean
	}
	b.ReportMetric(gm, "geomean-rel-pst")
}

func BenchmarkFig16Partitioning(b *testing.B) {
	var oneWins float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig16Partitioning(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		oneWins = 0
		for _, r := range rows {
			if r.OneStrongNorm >= 1 {
				oneWins++
			}
		}
	}
	b.ReportMetric(oneWins, "one-strong-wins")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

func benchDevice() *device.Device {
	arch := calib.Generate(calib.DefaultQ20Config(2019))
	return device.MustNew(arch.Topo, arch.MustMean())
}

// BenchmarkAblationCostFunction compares the routing cost function (hop
// count vs −log reliability) at fixed allocation: the core baseline→VQM
// delta.
func BenchmarkAblationCostFunction(b *testing.B) {
	d := benchDevice()
	prog := workloads.BV(16)
	for _, tc := range []struct {
		name   string
		policy core.Policy
	}{{"hops", core.Baseline}, {"reliability", core.VQM}} {
		b.Run(tc.name, func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				comp, err := core.Compile(d, prog, core.Options{Policy: tc.policy})
				if err != nil {
					b.Fatal(err)
				}
				p = sim.AnalyticPST(d, comp.Routed.Physical, sim.Config{})
			}
			b.ReportMetric(p, "analytic-pst")
		})
	}
}

// BenchmarkAblationMAH sweeps the Maximum Additional Hops limit.
func BenchmarkAblationMAH(b *testing.B) {
	d := benchDevice()
	prog := workloads.QFT(12)
	for _, mah := range []int{0, 2, 4, 8} {
		b.Run(route.AStar{Cost: route.CostReliability, MAH: mah}.Name(), func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				comp, err := core.Compile(d, prog, core.Options{Policy: core.VQMHop, MAH: mah})
				if err != nil {
					b.Fatal(err)
				}
				p = sim.AnalyticPST(d, comp.Routed.Physical, sim.Config{})
			}
			b.ReportMetric(p*1e6, "analytic-pst-ppm")
		})
	}
}

// BenchmarkAblationAllocation compares allocation policies at fixed
// (reliability) routing.
func BenchmarkAblationAllocation(b *testing.B) {
	d := benchDevice()
	prog := workloads.BV(16)
	for _, tc := range []struct {
		name   string
		policy core.Policy
	}{{"random+naive", core.Native}, {"greedy", core.VQM}, {"vqa", core.VQAVQM}} {
		b.Run(tc.name, func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				comp, err := core.Compile(d, prog, core.Options{Policy: tc.policy, Seed: int64(i)})
				if err != nil {
					b.Fatal(err)
				}
				p = sim.AnalyticPST(d, comp.Routed.Physical, sim.Config{})
			}
			b.ReportMetric(p, "analytic-pst")
		})
	}
}

// BenchmarkAblationActivityWindow sweeps VQA's first-t-layers activity
// estimation window: the VQA+VQM candidates with every VQA allocator
// swapped for one with that window.
func BenchmarkAblationActivityWindow(b *testing.B) {
	d := benchDevice()
	prog := workloads.QFT(12)
	for _, window := range []int{1, 4, 16, 0} {
		name := "all-layers"
		if window > 0 {
			name = fmt.Sprintf("first-%d", window)
		}
		cands, err := core.Candidates(core.Options{Policy: core.VQAVQM})
		if err != nil {
			b.Fatal(err)
		}
		for i := range cands {
			if _, ok := cands[i].Alloc.(alloc.VQA); ok {
				cands[i].Alloc = alloc.VQA{ActivityLayers: window}
			}
		}
		b.Run(name, func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				comp, err := core.Best(d, prog, core.VQAVQM, cands)
				if err != nil {
					b.Fatal(err)
				}
				p = sim.AnalyticPST(d, comp.Routed.Physical, sim.Config{})
			}
			b.ReportMetric(p*1e6, "analytic-pst-ppm")
		})
	}
}

// BenchmarkAblationReadoutWeight sweeps the readout-aware VQA extension:
// weight 0 is the paper-faithful policy; a positive weight adds the
// readout-aware VQA allocation under the reliability router as one more
// VQA+VQM candidate.
func BenchmarkAblationReadoutWeight(b *testing.B) {
	d := benchDevice()
	prog := workloads.BV(16)
	for _, w := range []float64{0, 0.5, 1, 3} {
		cands, err := core.Candidates(core.Options{Policy: core.VQAVQM})
		if err != nil {
			b.Fatal(err)
		}
		if w > 0 {
			cands = append(cands, core.Candidate{
				Alloc:  alloc.VQA{ReadoutWeight: w},
				Router: route.AStar{Cost: route.CostReliability, MAH: -1},
			})
		}
		b.Run(fmt.Sprintf("w=%g", w), func(b *testing.B) {
			var p float64
			for i := 0; i < b.N; i++ {
				comp, err := core.Best(d, prog, core.VQAVQM, cands)
				if err != nil {
					b.Fatal(err)
				}
				p = sim.AnalyticPST(d, comp.Routed.Physical, sim.Config{})
			}
			b.ReportMetric(p, "analytic-pst")
		})
	}
}

// BenchmarkCompilePipeline measures raw compilation throughput per policy
// (no simulation) on the largest Table 1 workload.
func BenchmarkCompilePipeline(b *testing.B) {
	d := benchDevice()
	prog := workloads.QFT(14)
	for _, p := range core.AllPolicies() {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Compile(d, prog, core.Options{Policy: p, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// mcCompiled compiles the shared Monte-Carlo benchmark workload
// (bv-16 under the baseline policy, as in the determinism tests).
func mcCompiled(b *testing.B) (*device.Device, *sim.Prepared) {
	b.Helper()
	d := benchDevice()
	comp, err := core.Compile(d, workloads.BV(16), core.Options{Policy: core.Baseline})
	if err != nil {
		b.Fatal(err)
	}
	return d, sim.Prepare(d, comp.Routed.Physical, sim.Config{})
}

// reportTrials attaches the uniform MC throughput metric: real trials/sec
// from the measured elapsed time. Every MC benchmark reports it (as does
// internal/sim's BenchmarkMonteCarloScalar) so the BENCH snapshots stay
// comparable across kernels and worker counts.
func reportTrials(b *testing.B, trials int) {
	b.Helper()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(trials)*float64(b.N)/secs, "trials/sec")
	}
}

// BenchmarkMonteCarlo measures the packed fault-injection kernel's trial
// throughput on the serial path. The trial budget spans 16 full blocks so
// per-run setup (plan lookup, partial summation) amortizes and the number
// reported is the kernel's steady-state rate.
func BenchmarkMonteCarlo(b *testing.B) {
	_, prep := mcCompiled(b)
	const trials = 16 * sim.BlockSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep.Run(sim.Config{Trials: trials, Seed: int64(i), Workers: -1})
	}
	reportTrials(b, trials)
}

// BenchmarkMonteCarloPrepare measures Prepare itself (error-model
// derivation, ASAP schedule, idle windows, hazards, packed-plan
// construction) — the fixed cost a caller pays before the first trial,
// and the scoring step of every compile. q20-bv16 is bv-16 under the
// baseline policy on the synthetic IBM-Q20; hh399-bv48 is bv-48 routed
// with SABRE on heavy-hex-399, where the per-qubit work scales with 399
// physical qubits.
func BenchmarkMonteCarloPrepare(b *testing.B) {
	hh399, err := calib.ZooArchive("heavy-hex-399", 2019)
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		d    *device.Device
		prog *circuit.Circuit
		opts core.Options
	}{
		{"q20-bv16", benchDevice(), workloads.BV(16), core.Options{Policy: core.Baseline}},
		{"hh399-bv48", device.MustNew(hh399.Topo, hh399.MustMean()), workloads.BV(48), core.Options{Policy: core.Baseline, Movement: "sabre"}},
	} {
		comp, err := core.Compile(tc.d, tc.prog, tc.opts)
		if err != nil {
			b.Fatal(err)
		}
		phys := comp.Routed.Physical
		b.Run(tc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sim.Prepare(tc.d, phys, sim.Config{})
			}
		})
	}
}

// BenchmarkMonteCarloParallel sweeps the worker count over the sharded
// simulator on a single prepared circuit. The trial budget spans 256
// blocks so per-block work dominates pool dispatch even at packed-kernel
// speeds. The worker list is deduplicated (on a 1-CPU machine GOMAXPROCS
// collides with the literal 1) so every sub-benchmark name is unique and
// BENCH snapshot keys stay unambiguous.
func BenchmarkMonteCarloParallel(b *testing.B) {
	_, prep := mcCompiled(b)
	const trials = 256 * sim.BlockSize
	seen := map[int]bool{}
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prep.Run(sim.Config{Trials: trials, Seed: int64(i), Workers: workers})
			}
			reportTrials(b, trials)
		})
	}
}
