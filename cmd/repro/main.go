// Command repro regenerates every table and figure of the paper's
// evaluation and prints them in order. Use -experiment to run one, -full
// for the paper's 1M-trial budget, -seed to vary the synthetic
// characterization archive, and -format csv/json for machine-readable
// output.
//
// The harness is fault-isolated, cancellable, and resumable: each
// experiment is decomposed into units (one workload row, one day, one
// configuration), a failing or panicking unit is quarantined into a
// failure report while its siblings keep running, SIGINT/SIGTERM or
// -timeout stop the run cleanly after the in-flight units finish, and
// -checkpoint/-resume persist completed units so an interrupted sweep
// picks up where it left off with bit-identical results.
//
// Usage:
//
//	repro [-experiment all|fig5|fig6|fig7|fig8|fig9|table1|fig12|fig13|fig14|table2|table3|portfolio|fig16|scale|qvtime|vqa]
//	      [-seed N] [-trials N] [-full] [-workers N] [-format text|csv|json]
//	      [-checkpoint dir] [-resume] [-timeout 10m] [-calib archive.json]
//	      [-cpuprofile f.pprof] [-memprofile f.pprof]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"syscall"

	"vaq/internal/calib"
	"vaq/internal/checkpoint"
	"vaq/internal/cliutil"
	"vaq/internal/experiments"
	"vaq/internal/parallel"
	"vaq/internal/report"
)

func main() {
	var (
		which   = flag.String("experiment", "all", "experiment to run (all, fig5..fig16, table1..table3, ext-*, scale, qvtime, vqa)")
		seed    = flag.Int64("seed", 2019, "seed for the synthetic characterization archive")
		trials  = flag.Int("trials", 200000, "Monte-Carlo trials per PST estimate")
		full    = flag.Bool("full", false, "use the paper's budgets (1M trials, 32 native configs); an explicit -trials wins")
		workers = flag.Int("workers", 0, "worker goroutines for experiment fan-out and trial sharding (0: one per CPU, <0: serial); results are identical at any setting")
		format  = flag.String("format", "text", "output format: text (tables+charts), csv, json")
		ckDir   = flag.String("checkpoint", "", "directory for per-unit result checkpoints (written atomically)")
		resume  = flag.Bool("resume", false, "serve completed units from the -checkpoint directory instead of recomputing them")
		timeout = flag.Duration("timeout", 0, "cancel the run after this duration (0: no limit); completed units are kept")
		calibP  = flag.String("calib", "", "replace the synthetic archive with a calgen-style JSON archive (invalid cycles are quarantined)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if err := cliutil.All(
		cliutil.Trials("trials", *trials),
		cliutil.Workers("workers", *workers),
		cliutil.Timeout("timeout", *timeout),
	); err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(2)
	}

	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })

	cfg := experiments.Config{Seed: *seed, Trials: *trials, Workers: *workers}
	cfg = applyFullBudget(cfg, *full, explicit)

	if *resume && *ckDir == "" {
		fmt.Fprintln(os.Stderr, "repro: -resume requires -checkpoint")
		os.Exit(2)
	}
	var store *checkpoint.Store
	if *ckDir != "" {
		var err error
		store, err = checkpoint.Open(*ckDir, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
	}
	if *calibP != "" {
		arch, err := loadCalibArchive(*calibP, os.Stderr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		cfg.Archive = arch
	}

	// SIGINT/SIGTERM cancel the context: in-flight units finish, their
	// results are checkpointed, the surviving tables and the failure
	// report are printed, and the exit status is non-zero.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var cpuFile *os.File
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			os.Exit(1)
		}
		cpuFile = f
	}

	runner := experiments.NewRunner(ctx, cfg, store)
	err := runList(os.Stdout, runner, experimentList(), *which, *format)

	// Flush profiles before any error exit (os.Exit skips defers).
	if cpuFile != nil {
		pprof.StopCPUProfile()
		cpuFile.Close()
	}
	if *memProf != "" {
		f, mErr := os.Create(*memProf)
		if mErr != nil {
			fmt.Fprintln(os.Stderr, "repro:", mErr)
			os.Exit(1)
		}
		runtime.GC() // settle the heap so the profile reflects retained memory
		if mErr := pprof.WriteHeapProfile(f); mErr != nil {
			fmt.Fprintln(os.Stderr, "repro:", mErr)
			os.Exit(1)
		}
		f.Close()
	}

	if store != nil {
		hits, misses, puts, corrupt := store.Stats()
		fmt.Fprintf(os.Stderr, "repro: checkpoint: %d served, %d missed, %d written, %d corrupt\n",
			hits, misses, puts, corrupt)
	}
	code := 0
	if rep := runner.Report(); !rep.Empty() {
		fmt.Fprint(os.Stderr, rep.String())
		code = 1
	}
	if cerr := ctx.Err(); cerr != nil {
		fmt.Fprintf(os.Stderr, "repro: run cut short (%v); completed units above, rerun with -resume to continue\n", cerr)
		code = 1
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		code = 1
	}
	os.Exit(code)
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

// run keeps the text-mode entry point used by tests.
func run(which string, cfg experiments.Config) error {
	return runFormat(which, cfg, "text")
}

// runFormat keeps the pre-harness entry point: background context, no
// checkpointing, quarantined units surfaced as an error.
func runFormat(which string, cfg experiments.Config, format string) error {
	runner := experiments.NewRunner(context.Background(), cfg, nil)
	if err := runList(os.Stdout, runner, experimentList(), which, format); err != nil {
		return err
	}
	return runner.Report().Err()
}

// rendering is one experiment's output: the paper-style table plus an
// optional ASCII chart for text mode.
type rendering struct {
	table experiments.Table
	chart string
}

// experiment is one runnable entry of the suite. fn returns whatever
// rows survived quarantine; err is reserved for truncation
// (context cancellation) and hard failures that produced no table.
type experiment struct {
	name string
	fn   func(*experiments.Runner) (rendering, error)
}

func experimentList() []experiment {
	return []experiment{
		{"fig5", func(r *experiments.Runner) (rendering, error) {
			return rendering{table: experiments.Fig5CoherenceDistributions(r.Config()).Table()}, nil
		}},
		{"fig6", func(r *experiments.Runner) (rendering, error) {
			return rendering{table: experiments.Fig6SingleQubitErrors(r.Config()).Table()}, nil
		}},
		{"fig7", func(r *experiments.Runner) (rendering, error) {
			return rendering{table: experiments.Fig7TwoQubitErrors(r.Config()).Table()}, nil
		}},
		{"fig8", func(r *experiments.Runner) (rendering, error) {
			res := experiments.Fig8TemporalVariation(r.Config())
			chart := ""
			for _, l := range res.Links {
				chart += fmt.Sprintf("%-8s %s\n", l.Name, report.Sparkline(l.Series))
			}
			return rendering{table: res.Table(), chart: chart}, nil
		}},
		{"fig9", func(r *experiments.Runner) (rendering, error) {
			res := experiments.Fig9SpatialVariation(r.Config())
			return rendering{table: res.Table(), chart: res.Layout()}, nil
		}},
		{"table1", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.Table1BenchmarksCtx(r)
			return rendering{table: experiments.Table1Table(rows)}, err
		}},
		{"fig12", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.Fig12VQMCtx(r)
			labels := make([]string, len(rows))
			vals := make([]float64, len(rows))
			for i, row := range rows {
				labels[i], vals[i] = row.Name, row.RelVQM
			}
			chart := report.Bars("relative PST, VQM vs baseline (| = 1.0x)", labels, vals, 50, 1)
			return rendering{table: experiments.Fig12Table(rows), chart: chart}, err
		}},
		{"fig13", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.Fig13PoliciesCtx(r)
			labels := make([]string, len(rows))
			vals := make([]float64, len(rows))
			for i, row := range rows {
				labels[i], vals[i] = row.Name, row.RelVQAVQM
			}
			chart := report.Bars("relative PST, VQA+VQM vs baseline (| = 1.0x)", labels, vals, 50, 1)
			return rendering{table: experiments.Fig13Table(rows), chart: chart}, err
		}},
		{"fig14", func(r *experiments.Runner) (rendering, error) {
			res, err := experiments.Fig14PerDayCtx(r)
			series := make([]float64, len(res.Points))
			for i, p := range res.Points {
				series[i] = p.Relative
			}
			chart := "per-day relative PST (day 1 → 52): " + report.Sparkline(series) + "\n"
			return rendering{table: experiments.Fig14Table(res), chart: chart}, err
		}},
		{"table2", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.Table2ErrorScalingCtx(r)
			return rendering{table: experiments.Table2Table(rows)}, err
		}},
		{"table3", func(r *experiments.Runner) (rendering, error) {
			res, err := experiments.Table3IBMQ5Ctx(r)
			return rendering{table: experiments.Table3Table(res)}, err
		}},
		{"portfolio", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.PortfolioPoliciesCtx(r)
			labels := make([]string, len(rows))
			vals := make([]float64, len(rows))
			for i, row := range rows {
				labels[i], vals[i] = row.Name, row.Headroom
			}
			chart := report.Bars("portfolio PST over best fixed policy (| = parity)", labels, vals, 50, 1)
			return rendering{table: experiments.PortfolioTable(rows), chart: chart}, err
		}},
		{"fig16", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.Fig16PartitioningCtx(r)
			labels := make([]string, len(rows))
			vals := make([]float64, len(rows))
			for i, row := range rows {
				labels[i], vals[i] = row.Name, row.OneStrongNorm
			}
			chart := report.Bars("one-strong-copy STPT, normalized to two copies (| = parity)", labels, vals, 50, 1)
			return rendering{table: experiments.Fig16Table(rows), chart: chart}, err
		}},
		{"ext-mah", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.ExtMAHSweep(r.Config())
			if err != nil {
				return rendering{}, err
			}
			return rendering{table: experiments.ExtMAHTable(rows)}, nil
		}},
		{"ext-readout", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.ExtReadoutAware(r.Config())
			if err != nil {
				return rendering{}, err
			}
			return rendering{table: experiments.ExtReadoutTable(rows)}, nil
		}},
		{"ext-optimizer", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.ExtOptimizer(r.Config())
			if err != nil {
				return rendering{}, err
			}
			return rendering{table: experiments.ExtOptimizerTable(rows)}, nil
		}},
		{"ext-topology", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.ExtTopology(r.Config())
			if err != nil {
				return rendering{}, err
			}
			return rendering{table: experiments.ExtTopologyTable(rows)}, nil
		}},
		{"ext-qv", func(r *experiments.Runner) (rendering, error) {
			res, err := experiments.ExtQuantumVolume(r.Config())
			if err != nil {
				return rendering{}, err
			}
			return rendering{table: experiments.ExtQVTable(res)}, nil
		}},
		{"scale", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.ScaleSweep(r.Config())
			if err != nil {
				return rendering{}, err
			}
			return rendering{table: experiments.ScaleTable(rows)}, nil
		}},
		{"qvtime", func(r *experiments.Runner) (rendering, error) {
			rows, err := experiments.QVTimeSweep(r.Config())
			if err != nil {
				return rendering{}, err
			}
			return rendering{table: experiments.QVTimeTable(rows)}, nil
		}},
		{"vqa", func(r *experiments.Runner) (rendering, error) {
			res, err := experiments.VQASweep(r.Config())
			if err != nil {
				return rendering{}, err
			}
			return rendering{table: experiments.VQATable(res)}, nil
		}},
	}
}

// runList runs the selected experiments in order, writing every
// renderable table to w. An experiment that fails or panics whole
// (outside the unit layer) is quarantined into the runner's report and
// the remaining experiments still run — `-experiment all` always emits
// every computable result. Only unknown experiment/format selections and
// write errors are returned.
func runList(w io.Writer, runner *experiments.Runner, list []experiment, which, format string) error {
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
		if runner.Context().Err() != nil && which == "all" {
			// Cancelled: stop starting experiments; already-rendered
			// tables stand.
			continue
		}
		rend, err := runExperiment(runner, e)
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			runner.Quarantine(experiments.UnitKey{Experiment: e.name, Day: -1}, err)
			continue
		}
		// Truncated-but-partial tables still print: a cancelled sweep
		// shows every unit that completed.
		if len(rend.table.Rows) == 0 && err != nil {
			continue
		}
		switch format {
		case "text":
			fmt.Fprintln(w, rend.table.String())
			if rend.chart != "" {
				fmt.Fprintln(w, rend.chart)
			}
		case "csv":
			if werr := report.WriteCSV(w, rend.table.Header, rend.table.Rows); werr != nil {
				return werr
			}
		case "json":
			if werr := report.WriteJSON(w, rend.table); werr != nil {
				return werr
			}
		}
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", which)
	}
	return nil
}

// runExperiment shields one experiment: a panic that escapes the unit
// layer (archive construction, table rendering) is captured with its
// stack instead of killing the whole run.
func runExperiment(runner *experiments.Runner, e experiment) (rend rendering, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = &parallel.PanicError{Value: rec, Stack: debug.Stack()}
		}
	}()
	return e.fn(runner)
}
