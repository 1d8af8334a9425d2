// Command vaqbench is the repository's end-to-end benchmark. It drives
// the vaq compile pipeline, the nisqd service and the paper-reproduction
// harness through their public Go functions, from one process, and
// prints one JSON result line:
//
//	vaqbench --workload compile-suite|serve-mixed|paper-repro --seed N --seconds S --trace 0|1
//
// Each run is a fixed-count sequence of operations generated from --seed;
// --seconds scales that count (see README.md), never a wall-clock cut-off,
// so two runs with the same arguments do identical work. --trace 0 prints
// the end-to-end metrics; --trace 1 additionally replays the same inputs
// with spans around the calls into each layer and prints the per-layer
// metrics. The command exits non-zero when any output check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

// options are the command-line settings shared by every workload.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spawned  int64 // child process: the parent's spawn time, Unix ns
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// outcome is what a workload returns: ops attempted and failed, every
// end-to-end and per-layer metric it measured, failed-check messages,
// and free-form report lines (tracing overhead and the like).
type outcome struct {
	attempted, failed int
	e2e, layers       map[string]metric
	problems          []string
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var runners = map[string]func(options) (*outcome, error){
	"compile-suite": runCompileSuite,
	"serve-mixed":   runServeMixed,
	"paper-repro":   runPaperRepro,
}

// layerUnits lists every per-layer metric a traced run reports (the
// per_layer list of BENCHMARK.json) with its unit.
var layerUnits = map[string]string{
	"alloc.greedy_us": "us", "alloc.vqa_us": "us", "alloc.random_us": "us",
	"route.astar_us": "us", "route.sabre_us": "us", "route.naive_us": "us",
	"core.compile_us": "us", "core.candidates_per_op": "count", "route.swaps_per_op": "count",
	"route.verify_us": "us", "sim.analytic_us": "us", "qasm.parse_us": "us", "transpile.optimize_us": "us",
	"route.cache_hit_ratio": "ratio", "graphx.tables_ms": "ms",
	"sim.mc_us": "us", "sim.trials_per_cpu_s": "1/s",
	"serve.decode_us": "us", "serve.encode_us": "us", "serve.handler_us": "us",
	"serve.resp_bytes_per_op": "bytes", "serve.cache_hit_ratio": "ratio",
	"param.rebind_us": "us", "core.compile_parametric_us": "us", "portfolio.run_ms": "ms",
	"jobs.done_ms": "ms", "caldrift.append_ms": "ms", "caldrift.canary_runs": "count",
	"experiments.fig16_s": "s", "experiments.scale_s": "s", "experiments.portfolio_s": "s",
	"experiments.fig13_s": "s", "experiments.rest_s": "s", "partition.evaluate_ms": "ms",
	"parallel.utilization": "ratio", "runtime.alloc_kb_per_op": "KiB", "runtime.gc_cpu_share": "ratio",
}

func main() {
	var opts options
	var traceFlag int
	var child string
	flag.StringVar(&opts.workload, "workload", "", "workload: compile-suite, serve-mixed or paper-repro")
	flag.Int64Var(&opts.seed, "seed", 1, "input-generation seed")
	flag.IntVar(&opts.seconds, "seconds", 20, "run length budget; scales the fixed op count")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced per-layer replay instead of end-to-end metrics")
	flag.Int64Var(&opts.spawned, "spawned", 0, "internal: spawn time of a regeneration child (Unix ns)")
	flag.StringVar(&child, "child", "", "internal: run as a child process (setup probe or repro regeneration)")
	flag.Parse()
	opts.trace = traceFlag == 1

	if child != "" {
		os.Exit(runChild(child, opts))
	}
	run, ok := runners[opts.workload]
	if !ok || opts.seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "vaqbench: bad arguments (workload %q, seconds %d, trace %d)\n", opts.workload, opts.seconds, traceFlag)
		os.Exit(2)
	}
	env := startEnv()
	out, err := run(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaqbench:", err)
		os.Exit(1)
	}
	printJSONLine(map[string]any{"env": env.finish()})
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "vaqbench: check failed:", p)
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed}
	res.Metrics = out.e2e
	if opts.trace {
		// A layer the workload does not exercise reads 0.
		for name, unit := range layerUnits {
			if _, ok := out.layers[name]; !ok {
				out.layers[name] = metric{0, unit}
			}
		}
		res.Metrics = out.layers
	}
	if res.Attempted < 1 {
		res.Correct = false
	}
	printJSONLine(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// tracePath is where a traced run writes its spans, as JSON lines.
func (o options) tracePath() string {
	return fmt.Sprintf(".bench_build/trace-%s-%d.jsonl", o.workload, o.seed)
}

func printJSONLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vaqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// sortedKeys returns m's keys in order, for deterministic reports.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// gomaxprocs is the load bound: never more client threads or
// connections than the scheduler's processors.
func gomaxprocs() int { return runtime.GOMAXPROCS(0) }
