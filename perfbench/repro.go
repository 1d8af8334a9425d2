package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/experiments"
	"vaq/internal/partition"
	"vaq/internal/route"
	"vaq/internal/sim"
	"vaq/internal/workloads"
)

// reproRegenSeconds is the nominal wall time of one cold `repro
// -experiment all` regeneration on the reference machine; --seconds buys
// round(seconds / reproRegenSeconds) regenerations, at least four.
const reproRegenSeconds = 8.0

// reproSetupProbes is the number of extra set-up-only children per run:
// repro's set-up takes milliseconds, so a single scheduling hiccup would
// otherwise move the median.
const reproSetupProbes = 8

// reproGoldenDir holds the committed qvtime and vqa goldens, relative to
// the repository root the benchmark runs from.
const reproGoldenDir = "internal/experiments/testdata/golden"

// reproExperiment is one entry of `repro -experiment all`, in cmd/repro's
// order, rendering the same table.
type reproExperiment struct {
	name string
	fn   func(*experiments.Runner) (experiments.Table, error)
}

func reproExperiments() []reproExperiment {
	plain := func(t experiments.Table) (experiments.Table, error) { return t, nil }
	return []reproExperiment{
		{"fig5", func(r *experiments.Runner) (experiments.Table, error) {
			return plain(experiments.Fig5CoherenceDistributions(r.Config()).Table())
		}},
		{"fig6", func(r *experiments.Runner) (experiments.Table, error) {
			return plain(experiments.Fig6SingleQubitErrors(r.Config()).Table())
		}},
		{"fig7", func(r *experiments.Runner) (experiments.Table, error) {
			return plain(experiments.Fig7TwoQubitErrors(r.Config()).Table())
		}},
		{"fig8", func(r *experiments.Runner) (experiments.Table, error) {
			return plain(experiments.Fig8TemporalVariation(r.Config()).Table())
		}},
		{"fig9", func(r *experiments.Runner) (experiments.Table, error) {
			return plain(experiments.Fig9SpatialVariation(r.Config()).Table())
		}},
		{"table1", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.Table1BenchmarksCtx(r)
			return experiments.Table1Table(rows), err
		}},
		{"fig12", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.Fig12VQMCtx(r)
			return experiments.Fig12Table(rows), err
		}},
		{"fig13", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.Fig13PoliciesCtx(r)
			return experiments.Fig13Table(rows), err
		}},
		{"fig14", func(r *experiments.Runner) (experiments.Table, error) {
			res, err := experiments.Fig14PerDayCtx(r)
			return experiments.Fig14Table(res), err
		}},
		{"table2", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.Table2ErrorScalingCtx(r)
			return experiments.Table2Table(rows), err
		}},
		{"table3", func(r *experiments.Runner) (experiments.Table, error) {
			res, err := experiments.Table3IBMQ5Ctx(r)
			return experiments.Table3Table(res), err
		}},
		{"portfolio", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.PortfolioPoliciesCtx(r)
			return experiments.PortfolioTable(rows), err
		}},
		{"fig16", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.Fig16PartitioningCtx(r)
			return experiments.Fig16Table(rows), err
		}},
		{"ext-mah", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.ExtMAHSweep(r.Config())
			return experiments.ExtMAHTable(rows), err
		}},
		{"ext-readout", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.ExtReadoutAware(r.Config())
			return experiments.ExtReadoutTable(rows), err
		}},
		{"ext-optimizer", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.ExtOptimizer(r.Config())
			return experiments.ExtOptimizerTable(rows), err
		}},
		{"ext-topology", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.ExtTopology(r.Config())
			return experiments.ExtTopologyTable(rows), err
		}},
		{"ext-qv", func(r *experiments.Runner) (experiments.Table, error) {
			res, err := experiments.ExtQuantumVolume(r.Config())
			return experiments.ExtQVTable(res), err
		}},
		{"scale", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.ScaleSweep(r.Config())
			return experiments.ScaleTable(rows), err
		}},
		{"qvtime", func(r *experiments.Runner) (experiments.Table, error) {
			rows, err := experiments.QVTimeSweep(r.Config())
			return experiments.QVTimeTable(rows), err
		}},
		{"vqa", func(r *experiments.Runner) (experiments.Table, error) {
			res, err := experiments.VQASweep(r.Config())
			return experiments.VQATable(res), err
		}},
	}
}

// regenReport is what one regeneration child reports.
type regenReport struct {
	SetupS      float64            `json:"setup_s"`
	Experiments []string           `json:"experiments"`
	Seconds     []float64          `json:"seconds"`
	ReadyS      []float64          `json:"ready_s"` // spawn to each table rendered
	Digest      string             `json:"digest"`
	Tables      map[string]string  `json:"tables"` // the golden-pinned ones
	AllocBytes  float64            `json:"alloc_bytes"`
	GCShare     float64            `json:"gc_share"`
	RouteHits   uint64             `json:"route_hits"`
	RouteMisses uint64             `json:"route_misses"`
	Layers      map[string]float64 `json:"layers,omitempty"` // traced regenerations
}

// reproSetup is what `repro -calib` does before its first experiment:
// load the IBM-Q20 characterization archive (generated here at repro's
// seed, so every table is the default one), then build the mean-snapshot
// device and, by compiling a small program under every policy, the route
// cost tables the experiments share. It returns repro's default
// configuration (seed 2019, 200k trials, one worker per CPU) carrying
// that archive.
func reproSetup() (experiments.Config, error) {
	cfg := experiments.Config{Seed: 2019, Trials: 200000}
	cfg.Archive = calib.Generate(calib.DefaultQ20Config(cfg.Seed))
	mean, err := cfg.Archive.Mean()
	if err != nil {
		return cfg, err
	}
	d, err := device.New(cfg.Archive.Topo, mean)
	if err != nil {
		return cfg, err
	}
	prog, err := workloads.ByName("bv-4")
	if err != nil {
		return cfg, err
	}
	for _, p := range core.AllPolicies() {
		if _, err := core.Compile(d, prog, core.Options{Policy: p, Seed: cfg.Seed}); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}

// childRegen is one cold regeneration: repro's set-up, then every
// experiment of `repro -experiment all`, each table rendered and
// digested.
func childRegen(opts options) error {
	cfg, err := reproSetup()
	if err != nil {
		return err
	}
	rep := regenReport{SetupS: sinceSpawn(opts), Tables: map[string]string{}}
	var tr *tracer
	if opts.trace {
		tr = newTracer()
	}
	runner := experiments.NewRunner(context.Background(), cfg, nil)
	h := sha256.New()
	for i, e := range reproExperiments() {
		start := time.Now()
		var tab experiments.Table
		tr.do("experiments."+e.name, i, 0, func() { tab, err = e.fn(runner) })
		rep.Experiments = append(rep.Experiments, e.name)
		rep.Seconds = append(rep.Seconds, time.Since(start).Seconds())
		if err != nil {
			return fmt.Errorf("%s: %w", e.name, err)
		}
		s := tab.String()
		rep.ReadyS = append(rep.ReadyS, sinceSpawn(opts))
		h.Write([]byte(s))
		if e.name == "qvtime" || e.name == "vqa" {
			rep.Tables[e.name] = s
		}
	}
	if err := runner.Report().Err(); err != nil {
		return err
	}
	rep.Digest = hex.EncodeToString(h.Sum(nil))
	rt := readRuntime()
	rep.AllocBytes, rep.GCShare = rt.allocBytes, rt.gcCPU/rt.totalCPU
	rc := route.CacheStats()
	rep.RouteHits, rep.RouteMisses = rc.Hits, rc.Misses
	if tr != nil {
		if rep.Layers, err = tracePartition(tr); err != nil {
			return err
		}
		if err := tr.write(opts.tracePath()); err != nil {
			return err
		}
	}
	printJSONLine(rep)
	return nil
}

// tracePartition replays Figure 16's partition.Evaluate calls (the
// experiment's dominant layer) under spans and returns the median call.
func tracePartition(tr *tracer) (map[string]float64, error) {
	d, _, err := buildDevice("q20")
	if err != nil {
		return nil, err
	}
	opts := partition.Options{
		Compile:    core.Options{Policy: core.VQAVQM},
		Sim:        sim.Config{Trials: 200000 / 4, Seed: 2019},
		Candidates: 10,
	}
	for i, w := range workloads.TenQubitSuite() {
		tr.do("partition.evaluate", 1000+i, 0, func() { _, err = partition.Evaluate(d, w.Circuit, opts) })
		if err != nil {
			return nil, err
		}
	}
	return map[string]float64{"partition.evaluate_ms": median(msOf(tr.durations("partition.evaluate")))}, nil
}

// sinceSpawn is the time since the parent started this child process.
func sinceSpawn(opts options) float64 {
	return float64(time.Now().UnixNano()-opts.spawned) / 1e9
}

// reproGolden is the recorded digest of every rendered table.
//
//go:embed testdata/repro_tables.sha256
var reproGolden string

func writeReproGolden(path string) error {
	var rep regenReport
	if _, err := childRun(&rep, "--child", "regen", "--spawned", strconv.FormatInt(time.Now().UnixNano(), 10)); err != nil {
		return err
	}
	return os.WriteFile(path, []byte(rep.Digest+"\n"), 0o644)
}

// regen runs one regeneration child and returns its report, wall time,
// CPU time and peak RSS.
func regen(opts options) (*regenReport, float64, float64, float64, error) {
	var rep regenReport
	args := []string{"--child", "regen", "--workload", opts.workload, "--seed", strconv.FormatInt(opts.seed, 10),
		"--spawned", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if opts.trace {
		args = append(args, "--trace", "1")
	}
	start := time.Now()
	ru, err := childRun(&rep, args...)
	wall := time.Since(start).Seconds()
	if err != nil {
		return nil, 0, 0, 0, err
	}
	return &rep, wall, rusageCPU(ru).Seconds(), float64(ru.Maxrss) / 1024, nil
}

func runPaperRepro(opts options) (*outcome, error) {
	golden := strings.TrimSpace(reproGolden)
	pinned := map[string]string{}
	for _, name := range []string{"qvtime", "vqa"} {
		b, err := os.ReadFile(filepath.Join(reproGoldenDir, name+".txt"))
		if err != nil {
			return nil, fmt.Errorf("read golden: %w", err)
		}
		pinned[name] = string(b)
	}

	out := newOutcome()
	n := max(4, int(math.Round(float64(opts.seconds)/reproRegenSeconds)))
	if opts.trace {
		n = 1
	}
	untraced := opts
	untraced.trace = false
	var readyMS, walls, cpus, rss, setups []float64
	lastSum := 0.0
	for i := 0; i < n; i++ {
		rep, wall, cpu, maxRSS, err := regen(untraced)
		if err != nil {
			return nil, err
		}
		out.attempted += len(rep.Experiments)
		for _, s := range rep.ReadyS {
			readyMS = append(readyMS, s*1e3)
		}
		if rep.Digest != golden {
			out.fail("regeneration %d: tables digest %s, recorded %s", i, rep.Digest, golden)
		}
		for name, want := range pinned {
			if rep.Tables[name] != want {
				out.fail("regeneration %d: %s table differs from %s/%s.txt", i, name, reproGoldenDir, name)
			}
		}
		lastSum = sum(rep.Seconds)
		walls, cpus, rss, setups = append(walls, wall), append(cpus, cpu), append(rss, maxRSS), append(setups, rep.SetupS)
		if i == n-1 {
			ops := float64(len(rep.Experiments))
			out.layers["runtime.alloc_kb_per_op"] = metric{rep.AllocBytes / 1024 / ops, "KiB"}
			out.layers["runtime.gc_cpu_share"] = metric{rep.GCShare, "ratio"}
			if t := rep.RouteHits + rep.RouteMisses; t > 0 {
				out.layers["route.cache_hit_ratio"] = metric{float64(rep.RouteHits) / float64(t), "ratio"}
			}
		}
	}
	cpuTotal := sum(cpus)
	out.e2e["p50_ms"] = metric{median(readyMS), "ms"}
	out.e2e["p99_ms"] = metric{tailPercentile(readyMS), "ms"}
	out.e2e["cpu_ms_per_op"] = metric{cpuTotal * 1e3 / float64(len(readyMS)), "ms"}
	out.e2e["regen_s"] = metric{median(walls), "s"}
	out.e2e["regen_cpu_s"] = metric{median(cpus), "s"}
	probes, err := setupProbes(opts, reproSetupProbes)
	if err != nil {
		return nil, err
	}
	out.e2e["setup_s"] = metric{median(append(setups, probes...)), "s"}
	out.e2e["peak_rss_mb"] = metric{median(rss), "MiB"}
	out.layers["parallel.utilization"] = metric{median(cpus) / (median(walls) * float64(gomaxprocs())), "ratio"}
	out.note("paper-repro: %d regenerations of %d experiments; wall %v s", n, len(readyMS)/n, walls)

	if opts.trace {
		rep, _, _, _, err := regen(opts)
		if err != nil {
			return nil, err
		}
		groups := map[string]string{"fig16": "experiments.fig16_s", "scale": "experiments.scale_s",
			"portfolio": "experiments.portfolio_s", "fig13": "experiments.fig13_s"}
		rest := 0.0
		for i, name := range rep.Experiments {
			if m, ok := groups[name]; ok {
				out.layers[m] = metric{rep.Seconds[i], "s"}
			} else {
				rest += rep.Seconds[i]
			}
		}
		out.layers["experiments.rest_s"] = metric{rest, "s"}
		out.layers["partition.evaluate_ms"] = metric{rep.Layers["partition.evaluate_ms"], "ms"}
		traced := sum(rep.Seconds)
		out.note("tracing overhead (paper-repro experiment wall s): untraced %.4f, traced %.4f, overhead %+.2f%%; spans in %s",
			lastSum, traced, 100*(traced-lastSum)/lastSum, opts.tracePath())
	}
	return out, nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
