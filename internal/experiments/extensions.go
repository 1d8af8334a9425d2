package experiments

import (
	"fmt"

	"vaq/internal/alloc"
	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/metrics"
	"vaq/internal/parallel"
	"vaq/internal/qvolume"
	"vaq/internal/route"
	"vaq/internal/sim"
	"vaq/internal/topo"
	"vaq/internal/transpile"
	"vaq/internal/workloads"
)

// The extension experiments go beyond the paper's evaluation along the
// axes its discussion points at: the MAH knob's full range, readout-error
// variation, classical pre-optimization, and the cost of restricted
// connectivity. cmd/repro exposes them as ext-mah, ext-readout,
// ext-optimizer and ext-topology.

// ExtMAHRow is one (workload, MAH) point.
type ExtMAHRow struct {
	Workload string
	MAH      int // -1 = unlimited
	Swaps    int
	Relative float64 // PST vs the hop-cost baseline
}

// ExtMAHSweep sweeps the Maximum Additional Hops limit across
// representative workloads (the paper evaluates only MAH=4 and unlimited).
func ExtMAHSweep(cfg Config) ([]ExtMAHRow, error) {
	cfg = cfg.withDefaults()
	d := cfg.meanQ20()
	var scfg sim.Config
	specs := []workloads.Spec{
		{Name: "bv-16", Circuit: workloads.BV(16)},
		{Name: "qft-12", Circuit: workloads.QFT(12)},
		{Name: "rnd-LD", Circuit: workloads.RandLD(1)},
	}
	perSpec, err := parallel.Map(cfg.Workers, len(specs), func(i int) ([]ExtMAHRow, error) {
		spec := specs[i]
		baseComp, err := core.Compile(d, spec.Circuit, core.Options{Policy: core.Baseline})
		if err != nil {
			return nil, fmt.Errorf("ext-mah %s: %w", spec.Name, err)
		}
		basePST := sim.AnalyticPST(d, baseComp.Routed.Physical, scfg)
		var rows []ExtMAHRow
		for _, mah := range []int{0, 1, 2, 4, 8, -1} {
			opts := core.Options{Policy: core.VQMHop, MAH: mah}
			if mah < 0 {
				opts = core.Options{Policy: core.VQM}
			}
			comp, err := core.Compile(d, spec.Circuit, opts)
			if err != nil {
				return nil, err
			}
			rows = append(rows, ExtMAHRow{
				Workload: spec.Name,
				MAH:      mah,
				Swaps:    comp.Swaps(),
				Relative: metrics.Relative(sim.AnalyticPST(d, comp.Routed.Physical, scfg), basePST),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return flatten(perSpec), nil
}

// flatten concatenates per-item row slices in item order — the glue
// between parallel.Map and experiments that emit several rows per unit
// of fanned-out work.
func flatten[T any](groups [][]T) []T {
	var out []T
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// ExtMAHTable renders the MAH sweep.
func ExtMAHTable(rows []ExtMAHRow) Table {
	t := Table{
		Title:   "Extension: MAH sweep (relative PST vs baseline, analytic)",
		Header:  []string{"workload", "MAH", "swaps", "relative PST"},
		Caption: "paper evaluates MAH=4 only; the sweep shows where the hop budget binds",
	}
	for _, r := range rows {
		mah := fmt.Sprint(r.MAH)
		if r.MAH < 0 {
			mah = "unlimited"
		}
		t.Rows = append(t.Rows, []string{r.Workload, mah, fmt.Sprint(r.Swaps), x2(r.Relative)})
	}
	return t
}

// ExtReadoutRow is one (kernel, readout-weight) point on the IBM-Q5 model.
type ExtReadoutRow struct {
	Workload string
	Weight   float64
	PST      float64
}

// ExtReadoutAware evaluates the readout-aware VQA extension on the IBM-Q5
// kernels: weight 0 is the paper-faithful VQA+VQM; a positive weight
// adds one more VQA+VQM candidate, the readout-aware allocation under
// the reliability router.
func ExtReadoutAware(cfg Config) ([]ExtReadoutRow, error) {
	cfg = cfg.withDefaults()
	d := cfg.q5()
	suite := workloads.Q5Suite()
	perSpec, err := parallel.Map(cfg.Workers, len(suite), func(i int) ([]ExtReadoutRow, error) {
		spec := suite[i]
		var rows []ExtReadoutRow
		for _, w := range []float64{0, 1, 3} {
			cands, err := core.Candidates(core.Options{Policy: core.VQAVQM})
			if err != nil {
				return nil, err
			}
			if w > 0 {
				cands = append(cands, core.Candidate{
					Alloc:  alloc.VQA{ReadoutWeight: w},
					Router: route.AStar{Cost: route.CostReliability, MAH: -1},
				})
			}
			comp, err := core.Best(d, spec.Circuit, core.VQAVQM, cands)
			if err != nil {
				return nil, fmt.Errorf("ext-readout %s: %w", spec.Name, err)
			}
			rows = append(rows, ExtReadoutRow{
				Workload: spec.Name,
				Weight:   w,
				PST:      sim.AnalyticPST(d, comp.Routed.Physical, sim.Config{}),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return flatten(perSpec), nil
}

// ExtReadoutTable renders the readout extension.
func ExtReadoutTable(rows []ExtReadoutRow) Table {
	t := Table{
		Title:   "Extension: readout-aware VQA on the IBM-Q5 model (analytic PST)",
		Header:  []string{"workload", "readout weight", "PST"},
		Caption: "weight 0 = paper-faithful VQA+VQM; higher weights steer measured qubits to good readout",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Workload, fmt.Sprintf("%g", r.Weight), fmt.Sprintf("%.4f", r.PST)})
	}
	return t
}

// ExtOptimizerRow reports the transpile passes' effect on one workload.
type ExtOptimizerRow struct {
	Workload     string
	GatesBefore  int
	GatesAfter   int
	SwapsBefore  int
	SwapsAfter   int
	RelativePlus float64 // optimized PST / unoptimized PST (baseline policy)
}

// ExtOptimizer measures classical pre-optimization (inverse cancellation,
// rotation merging) across the Table 1 suite. The generators emit lean
// circuits, so reductions are modest — the experiment quantifies exactly
// how much slack the benchmarks contain.
func ExtOptimizer(cfg Config) ([]ExtOptimizerRow, error) {
	cfg = cfg.withDefaults()
	d := cfg.meanQ20()
	var scfg sim.Config
	suite := workloads.Table1Suite()
	return parallel.Map(cfg.Workers, len(suite), func(i int) (ExtOptimizerRow, error) {
		spec := suite[i]
		plain, err := core.Compile(d, spec.Circuit, core.Options{Policy: core.Baseline})
		if err != nil {
			return ExtOptimizerRow{}, fmt.Errorf("ext-optimizer %s: %w", spec.Name, err)
		}
		opt, err := core.Compile(d, spec.Circuit, core.Options{Policy: core.Baseline, Optimize: true})
		if err != nil {
			return ExtOptimizerRow{}, err
		}
		optimized, _ := transpile.Optimize(spec.Circuit)
		return ExtOptimizerRow{
			Workload:    spec.Name,
			GatesBefore: len(spec.Circuit.Gates),
			GatesAfter:  len(optimized.Gates),
			SwapsBefore: plain.Swaps(),
			SwapsAfter:  opt.Swaps(),
			RelativePlus: metrics.Relative(
				sim.AnalyticPST(d, opt.Routed.Physical, scfg),
				sim.AnalyticPST(d, plain.Routed.Physical, scfg)),
		}, nil
	})
}

// ExtOptimizerTable renders the optimizer experiment.
func ExtOptimizerTable(rows []ExtOptimizerRow) Table {
	t := Table{
		Title:   "Extension: transpile optimization before mapping (baseline policy)",
		Header:  []string{"workload", "gates", "gates (opt)", "swaps", "swaps (opt)", "PST gain"},
		Caption: "generators emit lean circuits; gains quantify residual slack",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Workload, fmt.Sprint(r.GatesBefore), fmt.Sprint(r.GatesAfter),
			fmt.Sprint(r.SwapsBefore), fmt.Sprint(r.SwapsAfter), x2(r.RelativePlus),
		})
	}
	return t
}

// ExtQVRow is one (policy, width) point of the Quantum Volume study.
type ExtQVRow struct {
	Policy   string
	M        int
	MeanPST  float64
	NoisyHOP float64
	Pass     bool
}

// ExtQVResult reports the achievable log2 quantum volume per policy.
type ExtQVResult struct {
	Rows          []ExtQVRow
	BaselineLog2  int
	VariationLog2 int
}

// ExtQuantumVolume quantifies the Related-Work discussion: Quantum Volume
// is a machine metric, yet the compilation policy changes the measured
// value on identical hardware. The study scans widths 2..6 under the
// baseline and VQA+VQM.
func ExtQuantumVolume(cfg Config) (ExtQVResult, error) {
	cfg = cfg.withDefaults()
	d := cfg.meanQ20()
	var res ExtQVResult
	policies := []core.Policy{core.Baseline, core.VQAVQM}
	type qvOutcome struct {
		rows []ExtQVRow
		best int
	}
	outcomes, err := parallel.Map(cfg.Workers, len(policies), func(i int) (qvOutcome, error) {
		pol := policies[i]
		qcfg := qvolume.Config{Circuits: 6, Seed: cfg.Seed, Policy: pol, Workers: cfg.Workers}
		best, all, err := qvolume.Achievable(d, 6, qcfg)
		if err != nil {
			return qvOutcome{}, fmt.Errorf("ext-qv %v: %w", pol, err)
		}
		o := qvOutcome{best: best}
		for _, r := range all {
			o.rows = append(o.rows, ExtQVRow{
				Policy: pol.String(), M: r.M, MeanPST: r.MeanPST, NoisyHOP: r.NoisyHOP, Pass: r.Pass,
			})
		}
		return o, nil
	})
	if err != nil {
		return res, err
	}
	res.BaselineLog2 = outcomes[0].best
	res.VariationLog2 = outcomes[1].best
	for _, o := range outcomes {
		res.Rows = append(res.Rows, o.rows...)
	}
	return res, nil
}

// ExtQVTable renders the QV study.
func ExtQVTable(r ExtQVResult) Table {
	t := Table{
		Title:  "Extension: Quantum Volume under different compilation policies (IBM-Q20 model)",
		Header: []string{"policy", "width m", "mean PST", "noisy HOP", "pass (>2/3)"},
		Caption: fmt.Sprintf("achievable log2(QV): baseline %d, VQA+VQM %d — same hardware, different measured volume",
			r.BaselineLog2, r.VariationLog2),
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Policy, fmt.Sprint(row.M), f3(row.MeanPST), f3(row.NoisyHOP), fmt.Sprint(row.Pass),
		})
	}
	return t
}

// ExtTopologyRow compares one workload across coupling topologies.
type ExtTopologyRow struct {
	Workload string
	Topology string
	Swaps    int
	PST      float64
}

// ExtTopology quantifies the cost of restricted connectivity (the paper's
// Section 2.4 motivation): the same workloads, same uniform error rates,
// on the IBM-Q20 map, the 16-qubit ladder, and an idealized all-to-all
// machine where routing is free.
func ExtTopology(cfg Config) ([]ExtTopologyRow, error) {
	cfg = cfg.withDefaults()
	mean := calib.Summarize(cfg.archive().MustMean().LinkRates()).Mean
	makeDevice := func(t *topo.Topology) (*device.Device, error) {
		s := calib.NewSnapshot(t)
		for _, c := range t.Couplings {
			s.TwoQubit[c] = mean
		}
		for q := 0; q < t.NumQubits; q++ {
			s.OneQubit[q] = 0.002
			s.Readout[q] = 0.04
			s.T1Us[q], s.T2Us[q] = 80, 42
		}
		return device.New(t, s)
	}
	topos := []*topo.Topology{topo.IBMQ20(), topo.IBMQ16(), topo.FullyConnected(16)}
	specs := []workloads.Spec{
		{Name: "bv-10", Circuit: workloads.BV(10)},
		{Name: "qft-10", Circuit: workloads.QFT(10)},
		{Name: "alu", Circuit: workloads.ALU()},
	}
	perSpec, err := parallel.Map(cfg.Workers, len(specs), func(i int) ([]ExtTopologyRow, error) {
		spec := specs[i]
		var rows []ExtTopologyRow
		for _, tp := range topos {
			d, err := makeDevice(tp)
			if err != nil {
				return nil, err
			}
			comp, err := core.Compile(d, spec.Circuit, core.Options{Policy: core.Baseline})
			if err != nil {
				return nil, fmt.Errorf("ext-topology %s/%s: %w", spec.Name, tp.Name, err)
			}
			rows = append(rows, ExtTopologyRow{
				Workload: spec.Name,
				Topology: tp.Name,
				Swaps:    comp.Swaps(),
				PST:      sim.AnalyticPST(d, comp.Routed.Physical, sim.Config{}),
			})
		}
		return rows, nil
	})
	if err != nil {
		return nil, err
	}
	return flatten(perSpec), nil
}

// ExtTopologyTable renders the topology comparison.
func ExtTopologyTable(rows []ExtTopologyRow) Table {
	t := Table{
		Title:   "Extension: cost of restricted connectivity (uniform errors, baseline policy)",
		Header:  []string{"workload", "topology", "swaps", "analytic PST"},
		Caption: "all-to-all needs no SWAPs; the gap to the NISQ meshes is the connectivity tax (Section 2.4)",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Workload, r.Topology, fmt.Sprint(r.Swaps), fmt.Sprintf("%.2e", r.PST)})
	}
	return t
}
