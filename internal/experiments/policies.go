package experiments

import (
	"context"
	"fmt"
	"math"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/metrics"
	"vaq/internal/parallel"
	"vaq/internal/sim"
	"vaq/internal/workloads"
)

// runLegacy adapts a Runner-based experiment to the original
// (Config) -> (rows, error) signature: no cancellation, no checkpoint,
// and any quarantined unit surfaces as an error alongside the
// surviving rows.
func runLegacy[T any](cfg Config, fn func(*Runner) (T, error)) (T, error) {
	r := NewRunner(context.Background(), cfg, nil)
	v, err := fn(r)
	if err == nil {
		err = r.Report().Err()
	}
	return v, err
}

// compactRows drops the slots of skipped or quarantined units, keeping
// the survivors in unit order.
func compactRows[T any](rows []*T) []T {
	out := make([]T, 0, len(rows))
	for _, p := range rows {
		if p != nil {
			out = append(out, *p)
		}
	}
	return out
}

// Table1Row is one benchmark's characteristics (paper Table 1).
type Table1Row struct {
	Name        string
	Description string
	Qubits      int
	TotalInst   int
	SwapInst    int // SWAPs inserted by the baseline compiler on IBM-Q20
}

// Table1Benchmarks reproduces Table 1: for each workload, its qubit count,
// instruction count, and the SWAPs the baseline compiler inserts on the
// IBM-Q20 model.
func Table1Benchmarks(cfg Config) ([]Table1Row, error) {
	return runLegacy(cfg, Table1BenchmarksCtx)
}

// Table1BenchmarksCtx is Table1Benchmarks decomposed into per-workload
// units under r's cancellation, quarantine, and checkpoint discipline.
func Table1BenchmarksCtx(r *Runner) ([]Table1Row, error) {
	cfg := r.Config().withDefaults()
	d := cfg.meanQ20()
	suite := workloads.Table1Suite()
	rows := make([]*Table1Row, len(suite))
	err := r.collectUnits(len(suite), func(i int) {
		spec := suite[i]
		key := UnitKey{Experiment: "table1", Workload: spec.Name, Day: -1, Policy: "baseline"}
		if row, ok := RunUnit(r, key, func() (Table1Row, error) {
			comp, err := core.Compile(d, spec.Circuit, core.Options{Policy: core.Baseline})
			if err != nil {
				return Table1Row{}, fmt.Errorf("table1 %s: %w", spec.Name, err)
			}
			return Table1Row{
				Name:        spec.Name,
				Description: spec.Description,
				Qubits:      spec.Circuit.NumQubits,
				TotalInst:   spec.Circuit.Stats().Total,
				SwapInst:    comp.Swaps(),
			}, nil
		}); ok {
			rows[i] = &row
		}
	})
	return compactRows(rows), err
}

// Table1Table renders Table 1.
func Table1Table(rows []Table1Row) Table {
	t := Table{
		Title:   "Table 1: benchmark characteristics",
		Header:  []string{"workload", "description", "qubits", "total inst", "swap inst"},
		Caption: "paper swap counts: alu 19, bv-16 7, bv-20 10, qft-12 35, qft-14 53, rnd-SD 24, rnd-LD 35",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, r.Description, fmt.Sprint(r.Qubits), fmt.Sprint(r.TotalInst), fmt.Sprint(r.SwapInst),
		})
	}
	return t
}

// Fig12Row is one workload's relative PST under the movement policies.
type Fig12Row struct {
	Name        string
	BaselinePST float64
	RelVQM      float64 // VQM / baseline
	RelVQMHop   float64 // hop-limited VQM (MAH=4) / baseline
}

// Fig12VQM reproduces Figure 12: the PST of Variation-Aware Qubit Movement
// and its hop-limited variant, normalized to the SWAP-minimizing baseline,
// over the seven Table 1 workloads on the IBM-Q20 model.
func Fig12VQM(cfg Config) ([]Fig12Row, error) {
	return runLegacy(cfg, Fig12VQMCtx)
}

// Fig12VQMCtx is Fig12VQM decomposed into per-workload units.
func Fig12VQMCtx(r *Runner) ([]Fig12Row, error) {
	cfg := r.Config().withDefaults()
	d := cfg.meanQ20()
	suite := workloads.Table1Suite()
	rows := make([]*Fig12Row, len(suite))
	err := r.collectUnits(len(suite), func(i int) {
		spec := suite[i]
		key := UnitKey{Experiment: "fig12", Workload: spec.Name, Day: -1, Policy: "vqm"}
		if row, ok := RunUnit(r, key, func() (Fig12Row, error) {
			base, _, err := cfg.pst(d, spec.Circuit, core.Baseline, cfg.Trials, cfg.Seed)
			if err != nil {
				return Fig12Row{}, fmt.Errorf("fig12 %s: %w", spec.Name, err)
			}
			vqm, _, err := cfg.pst(d, spec.Circuit, core.VQM, cfg.Trials, cfg.Seed)
			if err != nil {
				return Fig12Row{}, err
			}
			hop, _, err := cfg.pst(d, spec.Circuit, core.VQMHop, cfg.Trials, cfg.Seed)
			if err != nil {
				return Fig12Row{}, err
			}
			return Fig12Row{
				Name:        spec.Name,
				BaselinePST: base,
				RelVQM:      metrics.Relative(vqm, base),
				RelVQMHop:   metrics.Relative(hop, base),
			}, nil
		}); ok {
			rows[i] = &row
		}
	})
	return compactRows(rows), err
}

// Fig12Table renders Figure 12.
func Fig12Table(rows []Fig12Row) Table {
	t := Table{
		Title:   "Figure 12: relative PST of VQM (normalized to baseline)",
		Header:  []string{"workload", "baseline PST", "VQM", "VQM (MAH=4)"},
		Caption: "paper: all workloads improve; qft/rnd-LD gain most; hop-limited ≈ unlimited",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, f3(r.BaselinePST), x2(r.RelVQM), x2(r.RelVQMHop)})
	}
	return t
}

// Fig13Row is one workload's relative PST across all policies.
type Fig13Row struct {
	Name        string
	BaselinePST float64
	// Native statistics over cfg.NativeConfigs random configurations,
	// normalized to the baseline.
	NativeAvg, NativeMin, NativeMax float64
	RelVQM                          float64
	RelVQAVQM                       float64
}

// Fig13Policies reproduces Figure 13: PST of the IBM-native-style
// compiler (32 random configurations; avg and min–max), the baseline, VQM,
// and VQA+VQM, normalized to the baseline.
func Fig13Policies(cfg Config) ([]Fig13Row, error) {
	return runLegacy(cfg, Fig13PoliciesCtx)
}

// Fig13PoliciesCtx is Fig13Policies decomposed into per-workload units.
func Fig13PoliciesCtx(r *Runner) ([]Fig13Row, error) {
	cfg := r.Config().withDefaults()
	d := cfg.meanQ20()
	suite := workloads.Table1Suite()
	rows := make([]*Fig13Row, len(suite))
	err := r.collectUnits(len(suite), func(i int) {
		spec := suite[i]
		key := UnitKey{Experiment: "fig13", Workload: spec.Name, Day: -1, Policy: "all"}
		if row, ok := RunUnit(r, key, func() (Fig13Row, error) {
			base, _, err := cfg.pst(d, spec.Circuit, core.Baseline, cfg.Trials, cfg.Seed)
			if err != nil {
				return Fig13Row{}, fmt.Errorf("fig13 %s: %w", spec.Name, err)
			}
			vqm, _, err := cfg.pst(d, spec.Circuit, core.VQM, cfg.Trials, cfg.Seed)
			if err != nil {
				return Fig13Row{}, err
			}
			full, _, err := cfg.pst(d, spec.Circuit, core.VQAVQM, cfg.Trials, cfg.Seed)
			if err != nil {
				return Fig13Row{}, err
			}
			// The native comparator's random configurations are independent,
			// so they fan out too; Map keeps them in configuration order.
			natives, err := parallel.Map(cfg.Workers, cfg.NativeConfigs, func(n int) (float64, error) {
				p, _, err := cfg.pst(d, spec.Circuit, core.Native, cfg.NativeTrials, cfg.Seed+int64(n))
				if err != nil {
					return 0, err
				}
				return metrics.Relative(p, base), nil
			})
			if err != nil {
				return Fig13Row{}, err
			}
			lo, hi := metrics.MinMax(natives)
			return Fig13Row{
				Name:        spec.Name,
				BaselinePST: base,
				NativeAvg:   metrics.Mean(natives),
				NativeMin:   lo,
				NativeMax:   hi,
				RelVQM:      metrics.Relative(vqm, base),
				RelVQAVQM:   metrics.Relative(full, base),
			}, nil
		}); ok {
			rows[i] = &row
		}
	})
	return compactRows(rows), err
}

// Fig13Table renders Figure 13.
func Fig13Table(rows []Fig13Row) Table {
	t := Table{
		Title:   "Figure 13: relative PST by policy (normalized to baseline)",
		Header:  []string{"workload", "native avg", "native min-max", "baseline", "VQM", "VQA+VQM"},
		Caption: "paper: VQA+VQM up to 1.7x over baseline; baseline ≈4x over native",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, x2(r.NativeAvg),
			fmt.Sprintf("%.2f-%.2f", r.NativeMin, r.NativeMax),
			"1.00x", x2(r.RelVQM), x2(r.RelVQAVQM),
		})
	}
	return t
}

// Fig14Point is one day's relative PST for bv-16.
type Fig14Point struct {
	Day         int
	BaselinePST float64
	VQAVQMPST   float64
	Relative    float64
	// LinkErrorCoV is the day's coefficient of variation of link errors —
	// the paper's "high variation days see higher benefit" x-axis proxy.
	LinkErrorCoV float64
}

// Fig14Result holds the 52-day series and its average.
type Fig14Result struct {
	Points  []Fig14Point
	Average float64
}

// Fig14PerDay reproduces Figure 14: the relative PST improvement of
// VQA+VQM for bv-16 recompiled against each day's characterization data.
func Fig14PerDay(cfg Config) (Fig14Result, error) {
	return runLegacy(cfg, Fig14PerDayCtx)
}

// Fig14PerDayCtx is Fig14PerDay decomposed into per-day units — the
// widest fan-out in the suite (52 days, each recompiled independently),
// and the main beneficiary of checkpointed resume.
func Fig14PerDayCtx(r *Runner) (Fig14Result, error) {
	cfg := r.Config().withDefaults()
	arch := cfg.archive()
	prog := workloads.BV(16)
	trials := cfg.Trials / 4
	if trials < 20000 {
		trials = 20000
	}
	var res Fig14Result
	points := make([]*Fig14Point, arch.Days())
	err := r.collectUnits(arch.Days(), func(day int) {
		key := UnitKey{Experiment: "fig14", Workload: "bv-16", Day: day, Policy: "vqa+vqm"}
		if p, ok := RunUnit(r, key, func() (*Fig14Point, error) {
			snaps := arch.DaySnapshots(day)
			if len(snaps) == 0 {
				return nil, nil
			}
			d, err := device.New(arch.Topo, snaps[0])
			if err != nil {
				return nil, err
			}
			base, _, err := cfg.pst(d, prog, core.Baseline, trials, cfg.Seed+int64(day))
			if err != nil {
				return nil, fmt.Errorf("fig14 day %d: %w", day, err)
			}
			full, _, err := cfg.pst(d, prog, core.VQAVQM, trials, cfg.Seed+int64(day))
			if err != nil {
				return nil, err
			}
			return &Fig14Point{
				Day:          day,
				BaselinePST:  base,
				VQAVQMPST:    full,
				Relative:     metrics.Relative(full, base),
				LinkErrorCoV: summaryOfLinkRates(snaps[0].LinkRates()),
			}, nil
		}); ok {
			points[day] = p
		}
	})
	for _, p := range points {
		if p != nil {
			res.Points = append(res.Points, *p)
		}
	}
	rels := make([]float64, len(res.Points))
	for i, p := range res.Points {
		rels[i] = p.Relative
	}
	res.Average = metrics.Mean(rels)
	return res, err
}

func summaryOfLinkRates(rates []float64) float64 {
	m := metrics.Mean(rates)
	if m == 0 {
		return 0
	}
	varSum := 0.0
	for _, r := range rates {
		d := r - m
		varSum += d * d
	}
	return math.Sqrt(varSum/float64(len(rates))) / m
}

// Fig14Table renders the Figure 14 summary (first/last days plus the
// average; full series in the result).
func Fig14Table(r Fig14Result) Table {
	t := Table{
		Title:   "Figure 14: per-day relative PST of VQA+VQM for bv-16",
		Header:  []string{"day", "baseline PST", "VQA+VQM PST", "relative", "link-error CoV"},
		Caption: fmt.Sprintf("average benefit across %d days: %.2fx (paper: benefit tracks daily variation)", len(r.Points), r.Average),
	}
	for _, p := range r.Points {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(p.Day + 1), f3(p.BaselinePST), f3(p.VQAVQMPST), x2(p.Relative), f2(p.LinkErrorCoV),
		})
	}
	return t
}

// Table2Row is one error-scaling configuration (paper Table 2).
type Table2Row struct {
	Label      string
	MeanFactor float64
	CovFactor  float64
	Relative   float64
}

// Table2ErrorScaling reproduces Table 2: the relative PST benefit of
// VQA+VQM for bv-16 as error rates scale down 10× with the base and
// doubled coefficient of variation.
//
// Methodology notes: (1) coherence errors are not part of the scaled
// error population (the paper scales gate error rates), so they are
// disabled — otherwise the unscaled decoherence floor dominates once gate
// errors drop 10x; (2) PSTs are computed analytically because at
// 10x-lower errors the policies differ by fractions of a percent, far
// below Monte-Carlo resolution at any practical trial budget; (3) each
// row is the geometric mean over several archive seeds, because a single
// archive realization does not expose the variation trend.
func Table2ErrorScaling(cfg Config) ([]Table2Row, error) {
	return runLegacy(cfg, Table2ErrorScalingCtx)
}

// Table2ErrorScalingCtx is Table2ErrorScaling decomposed into one unit
// per scaling configuration (the unit's scope spans its seven archive
// realizations).
func Table2ErrorScalingCtx(r *Runner) ([]Table2Row, error) {
	cfg := r.Config().withDefaults()
	prog := workloads.BV(16)
	configs := []Table2Row{
		{Label: "1x, Cov-Base", MeanFactor: 1, CovFactor: 1},
		{Label: "10x lower, Cov-Base", MeanFactor: 0.1, CovFactor: 1},
		{Label: "10x lower, 2*Cov-Base", MeanFactor: 0.1, CovFactor: 2},
	}
	const archives = 7
	scfg := sim.Config{DisableCoherence: true}
	rows := make([]*Table2Row, len(configs))
	err := r.collectUnits(len(configs), func(i int) {
		key := UnitKey{Experiment: "table2", Workload: "bv-16", Day: -1, Policy: configs[i].Label}
		if rel, ok := RunUnit(r, key, func() (float64, error) {
			// The archive realizations are independent; fan them out and keep
			// seed order so the geomean sees a stable sequence.
			rels, err := parallel.Map(cfg.Workers, archives, func(a int) (float64, error) {
				arch := calib.Generate(calib.DefaultQ20Config(cfg.Seed + int64(a)))
				d := device.MustNew(arch.Topo, arch.MustMean())
				if configs[i].MeanFactor != 1 || configs[i].CovFactor != 1 {
					d = d.Scale(configs[i].MeanFactor, configs[i].CovFactor)
				}
				baseComp, err := core.Compile(d, prog, core.Options{Policy: core.Baseline})
				if err != nil {
					return 0, fmt.Errorf("table2 %s: %w", configs[i].Label, err)
				}
				fullComp, err := core.Compile(d, prog, core.Options{Policy: core.VQAVQM})
				if err != nil {
					return 0, err
				}
				basePST := sim.AnalyticPST(d, baseComp.Routed.Physical, scfg)
				fullPST := sim.AnalyticPST(d, fullComp.Routed.Physical, scfg)
				return metrics.Relative(fullPST, basePST), nil
			})
			if err != nil {
				return 0, err
			}
			return metrics.GeoMean(rels), nil
		}); ok {
			row := configs[i]
			row.Relative = rel
			rows[i] = &row
		}
	})
	return compactRows(rows), err
}

// Table2Table renders Table 2.
func Table2Table(rows []Table2Row) Table {
	t := Table{
		Title:   "Table 2: sensitivity of VQA+VQM to error scaling (bv-16)",
		Header:  []string{"error rate", "CoV", "relative PST benefit"},
		Caption: "paper: 1.43x / 2.02x / 2.59x — benefit grows with relative variation",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Label, fmt.Sprintf("%gx", r.CovFactor), x2(r.Relative)})
	}
	return t
}

// Table3Row is one IBM-Q5 kernel (paper Table 3).
type Table3Row struct {
	Name        string
	BaselinePST float64
	VQAVQMPST   float64
	Relative    float64
}

// Table3Result holds the Table 3 rows and geomean.
type Table3Result struct {
	Rows    []Table3Row
	GeoMean float64
}

// Table3IBMQ5 reproduces Table 3 under the documented substitution: the
// physical IBM-Q5 is replaced by the fault-injection simulator configured
// with the Tenerife topology and the paper's quoted error figures (mean 2Q
// error 4.2%, worst link 12%), 4096 trials per program as in the paper.
func Table3IBMQ5(cfg Config) (Table3Result, error) {
	return runLegacy(cfg, Table3IBMQ5Ctx)
}

// Table3IBMQ5Ctx is Table3IBMQ5 decomposed into per-kernel units.
func Table3IBMQ5Ctx(r *Runner) (Table3Result, error) {
	cfg := r.Config().withDefaults()
	d := cfg.q5()
	var res Table3Result
	suite := workloads.Q5Suite()
	rows := make([]*Table3Row, len(suite))
	err := r.collectUnits(len(suite), func(i int) {
		spec := suite[i]
		key := UnitKey{Experiment: "table3", Workload: spec.Name, Day: -1, Policy: "vqa+vqm"}
		if row, ok := RunUnit(r, key, func() (Table3Row, error) {
			base, _, err := cfg.pst(d, spec.Circuit, core.Baseline, cfg.Q5Trials, cfg.Seed)
			if err != nil {
				return Table3Row{}, fmt.Errorf("table3 %s: %w", spec.Name, err)
			}
			full, _, err := cfg.pst(d, spec.Circuit, core.VQAVQM, cfg.Q5Trials, cfg.Seed)
			if err != nil {
				return Table3Row{}, err
			}
			return Table3Row{
				Name: spec.Name, BaselinePST: base, VQAVQMPST: full,
				Relative: metrics.Relative(full, base),
			}, nil
		}); ok {
			rows[i] = &row
		}
	})
	res.Rows = compactRows(rows)
	rels := make([]float64, len(res.Rows))
	for i, row := range res.Rows {
		rels[i] = row.Relative
	}
	res.GeoMean = metrics.GeoMean(rels)
	return res, err
}

// Table3Table renders Table 3.
func Table3Table(r Table3Result) Table {
	t := Table{
		Title:   "Table 3: PST on the IBM-Q5 model (4096 trials)",
		Header:  []string{"benchmark", "PST (baseline)", "PST (VQA+VQM)", "relative"},
		Caption: fmt.Sprintf("geomean: %.2fx (paper: 1.36x; up to 1.9x on TriSwap)", r.GeoMean),
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Name, f2(row.BaselinePST), f2(row.VQAVQMPST), x2(row.Relative)})
	}
	return t
}
