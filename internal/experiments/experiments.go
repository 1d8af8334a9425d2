// Package experiments regenerates every table and figure of the paper's
// evaluation. Each experiment is a function taking a Config and returning
// typed rows plus a formatted table, so the same code backs the cmd/repro
// binary, the benchmark harness in bench_test.go, and EXPERIMENTS.md.
//
// Experiment index (see DESIGN.md for the full mapping):
//
//	Fig5CoherenceDistributions — T1/T2 histograms
//	Fig6SingleQubitErrors      — 1Q gate error histogram
//	Fig7TwoQubitErrors         — 2Q gate error histogram
//	Fig8TemporalVariation      — per-cycle error series of three links
//	Fig9SpatialVariation       — mean per-link failure rates on the layout
//	Table1Benchmarks           — workload characteristics
//	Fig12VQM                   — relative PST of VQM / hop-limited VQM
//	Fig13Policies              — native vs baseline vs VQM vs VQA+VQM
//	Fig14PerDay                — per-day relative PST of bv-16 over 52 days
//	Table2ErrorScaling         — sensitivity to scaled error rates
//	Table3IBMQ5                — IBM-Q5 kernels (simulated hardware model)
//	Fig16Partitioning          — two weak copies vs one strong copy (STPT)
//
// Beyond the paper:
//
//	PortfolioPolicies          — best-of-grid portfolio vs fixed policies
//	ExtMAHSweep                — full range of the MAH knob
//	ExtReadoutAware            — readout-error-aware allocation
//	ExtOptimizer               — classical pre-optimization before mapping
//	ExtTopology                — cost of restricted connectivity
//	ExtQuantumVolume           — measured quantum volume by policy
//	ScaleSweep                 — heavy-hex fleets from 20 to 1000 qubits
//	QVTimeSweep                — stale mapping vs drift-triggered recompile
//	VQASweep                   — variational loop, aware vs naive mapping
//
// Every experiment is a plain function of its Config. Those that compile
// or simulate return (rows, error) and fan their rows out with
// parallel.Map: rows keep item order, the lowest-index error wins, and a
// panicking row becomes an error.
package experiments

import (
	"fmt"
	"strings"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/sim"
)

// Config parameterizes every experiment.
type Config struct {
	// Seed drives the synthetic characterization archive; everything
	// downstream is deterministic given it.
	Seed int64
	// Trials per Monte-Carlo PST estimate. The paper uses 1M for IBM-Q20
	// studies; the default is 200k, which keeps the full suite fast while
	// holding the PST standard error near 1e-3.
	Trials int
	// NativeConfigs and NativeTrials configure the IBM-native comparator:
	// the paper evaluates 32 random configurations with 10000 trials each.
	NativeConfigs int
	NativeTrials  int
	// Q5Trials matches the paper's 4096 trials per IBM-Q5 experiment.
	Q5Trials int
	// Workers bounds the goroutines used for the experiment fan-out and
	// the trial-level Monte-Carlo sharding: > 0 is taken literally, 0 (the
	// default) uses one worker per CPU, < 0 forces serial execution. All
	// results are identical at every setting (see DESIGN.md, "Concurrency
	// and determinism").
	Workers int
	// Archive, when non-nil, replaces the synthetic characterization
	// archive with an externally loaded one (repro -calib). Callers should
	// validate it first (calib.Archive.Validate or calib.ReadJSONLenient).
	Archive *calib.Archive
}

// DefaultConfig returns the paper-faithful settings (except MC trial
// counts, reduced from 1M to 200k; set Trials explicitly to reproduce the
// paper's exact budget).
func DefaultConfig() Config {
	return Config{
		Seed:          2019,
		Trials:        200000,
		NativeConfigs: 32,
		NativeTrials:  10000,
		Q5Trials:      4096,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	if c.Trials <= 0 {
		c.Trials = d.Trials
	}
	if c.NativeConfigs <= 0 {
		c.NativeConfigs = d.NativeConfigs
	}
	if c.NativeTrials <= 0 {
		c.NativeTrials = d.NativeTrials
	}
	if c.Q5Trials <= 0 {
		c.Q5Trials = d.Q5Trials
	}
	return c
}

// archive returns the characterization archive driving every IBM-Q20
// experiment: the externally loaded one when set, else the 52-day
// synthetic archive generated from the seed.
func (c Config) archive() *calib.Archive {
	if c.Archive != nil {
		return c.Archive
	}
	return calib.Generate(calib.DefaultQ20Config(c.Seed))
}

// meanQ20 returns the IBM-Q20 device under the archive's mean snapshot —
// the machine model of the paper's main evaluations.
func (c Config) meanQ20() *device.Device {
	arch := c.archive()
	return device.MustNew(arch.Topo, arch.MustMean())
}

// q5 returns the simulated IBM-Q5 device (Section 7 substitution): the
// fixed Tenerife-like snapshot with the paper's quoted error figures.
func (c Config) q5() *device.Device {
	s := calib.TenerifeSnapshot()
	return device.MustNew(s.Topo, s)
}

// pst compiles prog under the policy and estimates its PST with the Monte
// Carlo fault injector. Deep circuits (qft-14, rnd-LD) have PSTs of 1e-4
// and below, where a finite trial budget observes a handful of successes
// or none; since the MC converges to the analytic product-of-successes
// estimate by construction (errors are independent events), the harness
// switches to the analytic value whenever fewer than minMCSuccesses
// successes were observed, keeping relative-PST ratios well-defined.
func (c Config) pst(d *device.Device, prog *circuit.Circuit, policy core.Policy, trials int, seed int64) (float64, *core.Compiled, error) {
	return c.pstWith(d, prog, core.Options{Policy: policy, Seed: seed}, sim.Config{Trials: trials, Seed: seed + 7777})
}

const minMCSuccesses = 50

// measure estimates the PST of an already-compiled physical circuit
// under the exact protocol of cfg.pst — same simulator seed derivation,
// same analytic fallback — so a circuit measured here compares exactly
// with one measured through cfg.pst. The portfolio experiment relies on
// this: identical circuits must yield identical PSTs for its ≥-fixed
// guarantee to hold.
func (c Config) measure(d *device.Device, phys *circuit.Circuit, trials int, seed int64) float64 {
	scfg := sim.Config{Trials: trials, Seed: seed + 7777, Workers: c.Workers}
	prep := sim.Prepare(d, phys, scfg)
	out := prep.Run(scfg)
	if out.Successes < minMCSuccesses {
		return prep.AnalyticPST()
	}
	return out.PST
}

func (c Config) pstWith(d *device.Device, prog *circuit.Circuit, copts core.Options, scfg sim.Config) (float64, *core.Compiled, error) {
	if scfg.Workers == 0 {
		scfg.Workers = c.Workers
	}
	comp, err := core.Compile(d, prog, copts)
	if err != nil {
		return 0, nil, err
	}
	prep := sim.Prepare(d, comp.Routed.Physical, scfg)
	out := prep.Run(scfg)
	if out.Successes < minMCSuccesses {
		return prep.AnalyticPST(), comp, nil
	}
	return out.PST, comp, nil
}

// Table renders rows with aligned columns for terminal output.
type Table struct {
	Title   string
	Header  []string
	Rows    [][]string
	Caption string
}

// String renders the table.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s ==\n", t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func x2(v float64) string { return fmt.Sprintf("%.2fx", v) }
