package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	_ "embed"
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"vaq/internal/alloc"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/qasm"
	"vaq/internal/route"
	"vaq/internal/serve"
	"vaq/internal/sim"
	"vaq/internal/transpile"
)

// compilePassSeconds is the nominal wall time of one compile-suite pass
// (every catalog entry once) on the reference machine; --seconds buys
// round(seconds / compilePassSeconds) passes.
const compilePassSeconds = 0.6

//go:embed testdata/compile_digest.txt
var compileGolden string

// compileDigest is what an op must reproduce exactly: the SWAP count and
// the analytic PST's bits.
type compileDigest struct {
	swaps int
	pst   float64
}

func (d compileDigest) String() string {
	return fmt.Sprintf("%d %s", d.swaps, strconv.FormatFloat(d.pst, 'g', -1, 64))
}

// compileState is everything the compile-suite set-up produces.
type compileState struct {
	catalog []compileEntry
	devices map[string]*device.Device
	golden  map[string]string
	// first holds each entry's warm-pass result: timed ops must match it.
	first []*serve.Result
}

func compileSpec(e compileEntry) serve.Spec {
	return serve.Spec{
		Policy:         e.Policy,
		Seed:           deviceSeed,
		Workers:        1,
		Optimize:       e.Optimize,
		SkipMonteCarlo: true,
		Movement:       e.Movement,
	}
}

// compileOp is one compile-suite operation: parse the QASM text and run
// the nisqc pipeline without Monte-Carlo (compile → verify → analytic).
func compileOp(st *compileState, i int) (*serve.Result, error) {
	e := st.catalog[i]
	prog, err := qasm.Parse(e.QASM)
	if err != nil {
		return nil, err
	}
	return serve.Run(st.devices[e.Device], prog, compileSpec(e))
}

// setupCompile builds the catalog and device models and runs the warm
// pass, which compiles every entry once: it fills the route cost-table
// cache, so the timed phase reads that cache.
func setupCompile() (*compileState, time.Duration, error) {
	start := time.Now()
	catalog, err := compileCatalog()
	if err != nil {
		return nil, 0, err
	}
	st := &compileState{catalog: catalog, devices: map[string]*device.Device{}, golden: parseGolden(compileGolden)}
	for _, e := range catalog {
		if st.devices[e.Device] == nil {
			if st.devices[e.Device], _, err = buildDevice(e.Device); err != nil {
				return nil, 0, err
			}
		}
	}
	st.first = make([]*serve.Result, len(catalog))
	for i := range catalog {
		if st.first[i], err = compileOp(st, i); err != nil {
			return nil, 0, fmt.Errorf("warm pass %s: %w", catalog[i].Key, err)
		}
	}
	return st, time.Since(start), nil
}

func parseGolden(text string) map[string]string {
	m := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		if key, val, ok := strings.Cut(sc.Text(), " "); ok {
			m[key] = val
		}
	}
	return m
}

// checkCompile compares one op's output with the warm pass and with the
// digest recorded for its entry.
func checkCompile(out *outcome, st *compileState, i int, res *serve.Result) {
	e, ref := st.catalog[i], st.first[i]
	got := compileDigest{res.Swaps, res.AnalyticPST}
	if want, ok := st.golden[e.Key]; !ok || got.String() != want {
		out.fail("%s: digest %q, recorded %q", e.Key, got, want)
		return
	}
	if res.Report != ref.Report || !slices.Equal(res.InitialMapping, ref.InitialMapping) {
		out.fail("%s: output differs from the warm pass", e.Key)
	}
}

func runCompileSuite(opts options) (*outcome, error) {
	st, setup, err := setupCompile()
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	passes := max(1, int(math.Round(float64(opts.seconds)/compilePassSeconds)))
	if opts.trace {
		passes = min(passes, 3)
	}
	seq := compileSequence(opts.seed, len(st.catalog), passes)

	var lat []float64
	var passWall, passCPU []float64
	routeBefore := route.CacheStats()
	rt0 := readRuntime()
	cpu0 := cpuTime()
	digest := sha256.New()
	for _, pass := range seq {
		pw, pc := time.Now(), cpuTime()
		for _, i := range pass {
			t := time.Now()
			res, err := compileOp(st, i)
			lat = append(lat, float64(time.Since(t).Nanoseconds())/1e6)
			out.attempted++
			if err != nil {
				out.fail("%s: %v", st.catalog[i].Key, err)
				continue
			}
			checkCompile(out, st, i, res)
			fmt.Fprintf(digest, "%s %d %x\n", st.catalog[i].Key, res.Swaps, math.Float64bits(res.AnalyticPST))
		}
		passWall = append(passWall, time.Since(pw).Seconds())
		passCPU = append(passCPU, (cpuTime() - pc).Seconds())
	}
	cpu := cpuTime() - cpu0
	rt1 := readRuntime()
	routeAfter := route.CacheStats()

	checkClifford(out, st)
	out.note("compile-suite: %d ops in %d passes of %d entries; sequence digest %x", len(lat), passes, len(st.catalog), digest.Sum(nil)[:8])

	probes, err := setupProbes(opts, 4)
	if err != nil {
		return nil, err
	}
	out.e2e["p50_ms"] = metric{median(lat), "ms"}
	out.e2e["p99_ms"] = metric{tailPercentile(lat), "ms"}
	out.e2e["cpu_ms_per_op"] = metric{cpu.Seconds() * 1e3 / float64(len(lat)), "ms"}
	out.e2e["regen_s"] = metric{median(passWall), "s"}
	out.e2e["regen_cpu_s"] = metric{median(passCPU), "s"}
	out.e2e["setup_s"] = metric{median(append(probes, setup.Seconds())), "s"}
	out.e2e["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}

	runtimeLayers(out, rt0, rt1, len(lat))
	hits, misses := routeAfter.Hits-routeBefore.Hits, routeAfter.Misses-routeBefore.Misses
	if hits+misses > 0 {
		out.layers["route.cache_hit_ratio"] = metric{float64(hits) / float64(hits+misses), "ratio"}
	}
	if opts.trace {
		if err := traceCompile(opts, out, st, seq, median(lat)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// checkClifford recompiles every catalog entry through core.Compile,
// confirms it is the mapping serve.Run produced, and verifies Clifford
// programs at the quantum-state level (route.VerifyClifford). Outputs are
// deterministic and every timed op matched its warm-pass result, so
// this covers every compiled op.
func checkClifford(out *outcome, st *compileState) {
	for i, e := range st.catalog {
		d := st.devices[e.Device]
		comp, err := compileCore(st, i)
		if err != nil {
			out.fail("%s: core.Compile: %v", e.Key, err)
			continue
		}
		if comp.Swaps() != st.first[i].Swaps || !slices.Equal(comp.Routed.Initial, st.first[i].InitialMapping) {
			out.fail("%s: core.Compile and serve.Run disagree", e.Key)
			continue
		}
		if err := comp.VerifyClifford(d); err != nil && !errors.Is(err, route.ErrNotClifford) {
			out.fail("%s: %v", e.Key, err)
		}
	}
}

func compileCore(st *compileState, i int) (*core.Compiled, error) {
	e := st.catalog[i]
	prog, err := qasm.Parse(e.QASM)
	if err != nil {
		return nil, err
	}
	policy, _ := core.PolicyByName(e.Policy)
	return core.Compile(st.devices[e.Device], prog, core.Options{Policy: policy, Seed: deviceSeed, Optimize: e.Optimize, Movement: e.Movement})
}

// candidate is one (allocator, router) pair a policy races.
type candidate struct {
	a alloc.Policy
	r route.Router
}

// policyCandidates mirrors core.Compile's candidate sets, so the traced
// replay can time Allocate and Route separately through their public
// methods.
func policyCandidates(e compileEntry) ([]candidate, error) {
	policy, _ := core.PolicyByName(e.Policy)
	if e.Movement != "" {
		r, err := route.ByName(e.Movement, 0)
		if err != nil {
			return nil, err
		}
		switch policy {
		case core.Native:
			return []candidate{{alloc.NewRandom(deviceSeed), r}}, nil
		case core.VQAVQM:
			return []candidate{{alloc.VQA{}, r}, {alloc.Greedy{}, r}}, nil
		}
		return []candidate{{alloc.Greedy{}, r}}, nil
	}
	reliability := route.AStar{Cost: route.CostReliability, MAH: -1}
	hopLimited := route.AStar{Cost: route.CostReliability, MAH: 4}
	hops := route.AStar{Cost: route.CostHops, MAH: -1}
	switch policy {
	case core.Native:
		return []candidate{{alloc.NewRandom(deviceSeed), route.Naive{}}}, nil
	case core.Baseline:
		return []candidate{{alloc.Greedy{}, hops}}, nil
	case core.VQM:
		return []candidate{{alloc.Greedy{}, reliability}, {alloc.Greedy{}, hops}}, nil
	case core.VQMHop:
		return []candidate{{alloc.Greedy{}, hopLimited}, {alloc.Greedy{}, hops}}, nil
	}
	return []candidate{{alloc.VQA{}, reliability}, {alloc.Greedy{}, reliability}, {alloc.VQA{}, hops}, {alloc.Greedy{}, hops}}, nil
}

func allocSpan(a alloc.Policy) string {
	switch a.(type) {
	case alloc.VQA:
		return "alloc.vqa"
	case *alloc.Random:
		return "alloc.random"
	}
	return "alloc.greedy"
}

func routeSpan(r route.Router) string {
	switch r.(type) {
	case route.AStar:
		return "route.astar"
	case route.Naive:
		return "route.naive"
	}
	return "route.sabre"
}

// traceCompile replays the run's sequence with spans: each op is timed
// layer by layer (parse, optimize, core.Compile, verify, analytic), then
// its policy's candidates are replayed through Allocate and Route.
func traceCompile(opts options, out *outcome, st *compileState, seq [][]int, untracedP50 float64) error {
	tr := newTracer()
	ops, swaps, cands := 0, 0, 0
	for _, pass := range seq {
		for _, i := range pass {
			e := st.catalog[i]
			d := st.devices[e.Device]
			policy, _ := core.PolicyByName(e.Policy)
			root := tr.begin("op", ops, 0)
			var prog *circuit.Circuit
			var comp *core.Compiled
			var err error
			tr.do("qasm.parse", ops, root, func() { prog, err = qasm.Parse(e.QASM) })
			if err != nil {
				return err
			}
			if e.Optimize {
				tr.do("transpile.optimize", ops, root, func() { prog, _ = transpile.Optimize(prog) })
			}
			tr.do("core.compile", ops, root, func() {
				comp, err = core.Compile(d, prog, core.Options{Policy: policy, Seed: deviceSeed, Movement: e.Movement})
			})
			if err != nil {
				return err
			}
			tr.do("route.verify", ops, root, func() { err = comp.Verify(d) })
			if err != nil {
				return err
			}
			tr.do("sim.analytic", ops, root, func() {
				scfg := sim.Config{Seed: deviceSeed, Workers: 1}
				sim.Prepare(d, comp.Routed.Physical, scfg).AnalyticPST()
				sim.AnalyticBreakdown(d, comp.Routed.Physical, scfg)
			})
			tr.end(root)
			swaps += comp.Swaps()

			cs, err := policyCandidates(e)
			if err != nil {
				return err
			}
			replay := tr.begin("replay", ops, 0)
			for _, c := range cs {
				var m alloc.Mapping
				tr.do(allocSpan(c.a), ops, replay, func() { m, err = c.a.Allocate(d, prog) })
				if err != nil {
					return err
				}
				tr.do(routeSpan(c.r), ops, replay, func() { _, err = c.r.Route(d, prog, m) })
				if err != nil {
					return err
				}
			}
			tr.end(replay)
			cands += len(cs)
			ops++
		}
	}

	tables := time.Duration(0)
	for _, name := range sortedKeys(st.devices) {
		d := st.devices[name]
		t := time.Now()
		d.HopGraph().CSR().AllPairsHops()
		d.CostGraph().CSR().AllPairsDijkstra()
		tables += time.Since(t)
	}

	self, _ := tr.selfTimes()
	selfUS(out, self, ops, map[string]string{
		"alloc.greedy_us": "alloc.greedy", "alloc.vqa_us": "alloc.vqa", "alloc.random_us": "alloc.random",
		"route.astar_us": "route.astar", "route.sabre_us": "route.sabre", "route.naive_us": "route.naive",
		"core.compile_us": "core.compile", "route.verify_us": "route.verify", "sim.analytic_us": "sim.analytic",
		"qasm.parse_us": "qasm.parse", "transpile.optimize_us": "transpile.optimize",
	})
	out.layers["core.candidates_per_op"] = metric{float64(cands) / float64(ops), "count"}
	out.layers["route.swaps_per_op"] = metric{float64(swaps) / float64(ops), "count"}
	out.layers["graphx.tables_ms"] = metric{float64(tables.Nanoseconds()) / 1e6, "ms"}

	split := 0.0
	for _, n := range []string{"alloc.greedy", "alloc.vqa", "alloc.random", "route.astar", "route.sabre", "route.naive"} {
		split += float64(self[n].Nanoseconds())
	}
	out.note("layer split: Allocate+Route %.1f us/op vs core.compile %.1f us/op (%.1f%%)",
		split/1e3/float64(ops), float64(self["core.compile"].Nanoseconds())/1e3/float64(ops),
		100*split/float64(self["core.compile"].Nanoseconds()))
	return finishTrace(out, tr, opts.tracePath(), untracedP50, median(msOf(tr.durations("op"))), "compile-suite op p50 ms")
}

func msOf(ns []float64) []float64 {
	for i := range ns {
		ns[i] /= 1e6
	}
	return ns
}

// writeCompileGolden records every catalog entry's digest (run once at
// the commit the benchmark is defined on).
func writeCompileGolden(path string) error {
	st, _, err := setupCompile()
	if err != nil {
		return err
	}
	var b bytes.Buffer
	for i, e := range st.catalog {
		fmt.Fprintf(&b, "%s %s\n", e.Key, compileDigest{st.first[i].Swaps, st.first[i].AnalyticPST})
	}
	return os.WriteFile(path, b.Bytes(), 0o644)
}
