// Command repro regenerates every table and figure of the paper's
// evaluation and prints them in order. Use -experiment to run one, -full
// for the paper's 1M-trial budget, -seed to vary the synthetic
// characterization archive, and -format csv/json for machine-readable
// output. CSV takes one experiment at a time: the tables differ in
// width, so a stream of all of them would not parse as one CSV.
//
// Each experiment fans its rows out over -workers goroutines, and the
// output is byte-identical at any worker count. The first experiment
// that fails stops the run: repro prints `repro: <experiment>: <error>`
// and exits 1. Usage errors exit 2.
//
// Usage:
//
//	repro [-experiment all|fig5|fig6|fig7|fig8|fig9|table1|fig12|fig13|fig14|table2|table3|portfolio|fig16|ext-mah|ext-readout|ext-optimizer|ext-topology|ext-qv|scale|qvtime|vqa]
//	      [-seed N] [-trials N] [-full] [-workers N] [-format text|csv|json]
//	      [-calib archive.json] [-cpuprofile f.pprof] [-memprofile f.pprof]
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"vaq/internal/calib"
	"vaq/internal/cliutil"
	"vaq/internal/experiments"
	"vaq/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes the tables to stdout
// and diagnostics to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("repro", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		which   = fs.String("experiment", "all", "experiment to run (all, fig5..fig16, table1..table3, portfolio, ext-*, scale, qvtime, vqa)")
		seed    = fs.Int64("seed", 2019, "seed for the synthetic characterization archive (non-zero)")
		trials  = fs.Int("trials", 200000, "Monte-Carlo trials per PST estimate")
		full    = fs.Bool("full", false, "use the paper's budgets (1M trials, 32 native configs); an explicit -trials wins")
		workers = fs.Int("workers", 0, "worker goroutines for experiment fan-out and trial sharding (0: one per CPU, <0: serial); results are identical at any setting")
		format  = fs.String("format", "text", "output format: text (tables+charts), csv (one experiment), json")
		calibP  = fs.String("calib", "", "replace the synthetic archive with a calgen-style JSON archive (invalid cycles are quarantined)")
		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write a heap profile to this file on exit")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, err error) int {
		fmt.Fprintln(stderr, "repro:", err)
		return code
	}

	if err := cliutil.All(
		cliutil.Trials("trials", *trials),
		cliutil.Workers("workers", *workers),
	); err != nil {
		return fail(2, err)
	}
	// The experiments read seed 0 as "unset" and would run seed 2019.
	if *seed == 0 {
		return fail(2, errors.New("-seed must be non-zero (0 would silently run the default seed 2019)"))
	}
	if *format == "csv" && *which == "all" {
		return fail(2, errors.New("-format csv needs a single -experiment: the tables differ in width, so their concatenation is not one CSV"))
	}

	explicit := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	cfg := experiments.Config{Seed: *seed, Trials: *trials, Workers: *workers}
	cfg = applyFullBudget(cfg, *full, explicit)
	if *calibP != "" {
		arch, err := loadCalibArchive(*calibP, stderr)
		if err != nil {
			return fail(1, err)
		}
		cfg.Archive = arch
	}

	var stopCPU func() error
	if *cpuProf != "" {
		var err error
		if stopCPU, err = startCPUProfile(*cpuProf); err != nil {
			return fail(1, err)
		}
	}
	err := runList(stdout, cfg, experimentList(), *which, *format)
	// Profiles are written on error exits too.
	if stopCPU != nil {
		err = errors.Join(err, stopCPU())
	}
	if *memProf != "" {
		err = errors.Join(err, writeHeapProfile(*memProf))
	}
	if err != nil {
		return fail(1, err)
	}
	return 0
}

// startCPUProfile starts a CPU profile into path; stop flushes it and
// closes the file.
func startCPUProfile(path string) (stop func() error, err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// writeHeapProfile writes the heap profile after a GC, so it reflects
// retained memory.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// applyFullBudget upgrades cfg to the paper's budgets without stomping
// flags the user set explicitly: -full used to silently overwrite an
// explicit -trials, so `repro -full -trials 50000` ran 1M trials.
func applyFullBudget(cfg experiments.Config, full bool, explicit map[string]bool) experiments.Config {
	if !full {
		return cfg
	}
	if !explicit["trials"] {
		cfg.Trials = 1000000
	}
	cfg.NativeConfigs = 32
	cfg.NativeTrials = 10000
	cfg.Q5Trials = 4096
	return cfg
}

// loadCalibArchive reads a calgen-style JSON archive leniently: invalid
// cycles are quarantined (reported to w) instead of failing the run, and
// the surviving archive drives every IBM-Q20 experiment.
func loadCalibArchive(path string, w io.Writer) (*calib.Archive, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	arch, quarantined, err := calib.ReadJSONLenient(f)
	if err != nil {
		return nil, err
	}
	for _, q := range quarantined {
		fmt.Fprintf(w, "repro: calib: quarantined %v\n", q)
	}
	return arch, nil
}

// rendering is one experiment's output: the paper-style table plus an
// optional ASCII chart for text mode.
type rendering struct {
	table experiments.Table
	chart string
}

// experiment is one runnable entry of the suite.
type experiment struct {
	name string
	fn   func(experiments.Config) (rendering, error)
}

// entry builds an experiment from its cfg → result function, its table
// renderer and an optional chart renderer.
func entry[T any](name string, x func(experiments.Config) (T, error), table func(T) experiments.Table, chart func(T) string) experiment {
	return experiment{name, func(cfg experiments.Config) (rendering, error) {
		v, err := x(cfg)
		if err != nil {
			return rendering{}, err
		}
		r := rendering{table: table(v)}
		if chart != nil {
			r.chart = chart(v)
		}
		return r, nil
	}}
}

// infallible adapts the characterization experiments, which cannot fail.
func infallible[T any](x func(experiments.Config) T) func(experiments.Config) (T, error) {
	return func(cfg experiments.Config) (T, error) { return x(cfg), nil }
}

// bars charts one value per row against the 1.0 reference.
func bars[T any](title string, value func(T) (string, float64)) func([]T) string {
	return func(rows []T) string {
		labels := make([]string, len(rows))
		vals := make([]float64, len(rows))
		for i, row := range rows {
			labels[i], vals[i] = value(row)
		}
		return report.Bars(title, labels, vals, 50, 1)
	}
}

func experimentList() []experiment {
	return []experiment{
		entry("fig5", infallible(experiments.Fig5CoherenceDistributions), experiments.Fig5Result.Table, nil),
		entry("fig6", infallible(experiments.Fig6SingleQubitErrors), experiments.Fig6Result.Table, nil),
		entry("fig7", infallible(experiments.Fig7TwoQubitErrors), experiments.Fig7Result.Table, nil),
		entry("fig8", infallible(experiments.Fig8TemporalVariation), experiments.Fig8Result.Table, func(res experiments.Fig8Result) string {
			chart := ""
			for _, l := range res.Links {
				chart += fmt.Sprintf("%-8s %s\n", l.Name, report.Sparkline(l.Series))
			}
			return chart
		}),
		entry("fig9", infallible(experiments.Fig9SpatialVariation), experiments.Fig9Result.Table, experiments.Fig9Result.Layout),
		entry("table1", experiments.Table1Benchmarks, experiments.Table1Table, nil),
		entry("fig12", experiments.Fig12VQM, experiments.Fig12Table,
			bars("relative PST, VQM vs baseline (| = 1.0x)", func(r experiments.Fig12Row) (string, float64) { return r.Name, r.RelVQM })),
		entry("fig13", experiments.Fig13Policies, experiments.Fig13Table,
			bars("relative PST, VQA+VQM vs baseline (| = 1.0x)", func(r experiments.Fig13Row) (string, float64) { return r.Name, r.RelVQAVQM })),
		entry("fig14", experiments.Fig14PerDay, experiments.Fig14Table, func(res experiments.Fig14Result) string {
			series := make([]float64, len(res.Points))
			for i, p := range res.Points {
				series[i] = p.Relative
			}
			return "per-day relative PST (day 1 → 52): " + report.Sparkline(series) + "\n"
		}),
		entry("table2", experiments.Table2ErrorScaling, experiments.Table2Table, nil),
		entry("table3", experiments.Table3IBMQ5, experiments.Table3Table, nil),
		entry("portfolio", experiments.PortfolioPolicies, experiments.PortfolioTable,
			bars("portfolio PST over best fixed policy (| = parity)", func(r experiments.PortfolioRow) (string, float64) { return r.Name, r.Headroom })),
		entry("fig16", experiments.Fig16Partitioning, experiments.Fig16Table,
			bars("one-strong-copy STPT, normalized to two copies (| = parity)", func(r experiments.Fig16Row) (string, float64) { return r.Name, r.OneStrongNorm })),
		entry("ext-mah", experiments.ExtMAHSweep, experiments.ExtMAHTable, nil),
		entry("ext-readout", experiments.ExtReadoutAware, experiments.ExtReadoutTable, nil),
		entry("ext-optimizer", experiments.ExtOptimizer, experiments.ExtOptimizerTable, nil),
		entry("ext-topology", experiments.ExtTopology, experiments.ExtTopologyTable, nil),
		entry("ext-qv", experiments.ExtQuantumVolume, experiments.ExtQVTable, nil),
		entry("scale", experiments.ScaleSweep, experiments.ScaleTable, nil),
		entry("qvtime", experiments.QVTimeSweep, experiments.QVTimeTable, nil),
		entry("vqa", experiments.VQASweep, experiments.VQATable, nil),
	}
}

// runList runs the selected experiments in order, writing each table to
// w as soon as it is computed. The first experiment error stops the run
// and is returned as `<experiment>: <error>`.
func runList(w io.Writer, cfg experiments.Config, list []experiment, which, format string) error {
	switch format {
	case "text", "csv", "json":
	default:
		return fmt.Errorf("unknown format %q (want text, csv or json)", format)
	}
	ran := false
	for _, e := range list {
		if which != "all" && which != e.name {
			continue
		}
		ran = true
		rend, err := e.fn(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		switch format {
		case "text":
			fmt.Fprintln(w, rend.table.String())
			if rend.chart != "" {
				fmt.Fprintln(w, rend.chart)
			}
		case "csv":
			err = report.WriteCSV(w, rend.table.Header, rend.table.Rows)
		case "json":
			err = report.WriteJSON(w, rend.table)
		}
		if err != nil {
			return err
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}
