// Package portfolio implements speculative portfolio compilation: the
// production-shaped answer to the paper's central observation that qubit
// quality varies across space and time, so no single fixed compilation
// policy is best for every circuit on every calibration cycle.
//
// A portfolio run enumerates a deterministic grid of compilation
// candidates — allocation policy × movement policy × optimizer on/off ×
// a window of recent calibration cycles — compiles every candidate in
// parallel through the existing pipeline (reusing the memoized routing
// cost tables), ranks the results by the cheap analytic expected success
// probability (ESP), refines the leaders with the block-sharded
// Monte-Carlo simulator, and returns the ranked portfolio. Candidates
// are compiled against their own cycle's device model (diverse cost
// landscapes produce diverse mappings) but all are scored on the single
// reference device the caller supplies, so ranks are comparable.
//
// Every per-candidate seed derives SplitMix64-style from one root seed
// and the candidate's grid position, and every tie in the ranking breaks
// on the candidate ID, so the same root seed yields a byte-identical
// ranking at any worker count. A failing or panicking candidate is
// quarantined into the result's failure list — it never aborts its
// siblings.
package portfolio

import (
	"context"
	"fmt"
	"sort"
	"time"

	"vaq/internal/alloc"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/parallel"
	"vaq/internal/route"
	"vaq/internal/sim"
	"vaq/internal/splitmix"
	"vaq/internal/transpile"
)

// Allocation and movement axis labels. The movement names follow the
// paper's policy vocabulary via the route package registry: "baseline"
// is the SWAP-minimizing hop-cost A*, "vqm" the reliability-cost A*,
// "vqm-hop" its MAH=4 variant, "sabre" the scalable SABRE-style
// reliability router.
const (
	AllocGreedy = "greedy"
	AllocVQA    = "vqa"
	AllocRandom = "random"

	MoverBaseline = route.MovementBaseline
	MoverVQM      = route.MovementVQM
	MoverVQMHop   = route.MovementVQMHop
	MoverSabre    = route.MovementSabre
)

// gridMovers is the movement axis of the candidate grid. sabre-hops is
// resolvable by name but intentionally off the grid: on the small
// devices the portfolio targets it duplicates baseline's objective at
// worse quality, so it would only dilute the ESP ranking.
func gridMovers() []string {
	return []string{MoverBaseline, MoverVQM, MoverVQMHop, MoverSabre}
}

// MeanCycle is the Cycle value of candidates compiled against the
// reference device (the archive-mean snapshot) rather than one specific
// calibration cycle.
const MeanCycle = -1

// Spec parameterizes a portfolio run. The zero value (normalized by
// withDefaults) compiles the full allocation × movement × optimize grid
// on the reference device plus the DefaultCycles most recent cycles.
type Spec struct {
	// RootSeed is the single seed every per-candidate seed derives from
	// (default 2019).
	RootSeed int64
	// Cycles is the calibration window: the K most recent cycles of the
	// archive each get their own grid slice, in addition to the
	// reference (mean) device. 0 means DefaultCycles; negative means
	// reference only. Clamped to the archive length.
	Cycles int
	// RandomStarts is the number of seeded-random multi-start
	// allocation candidates per (mover, optimize, cycle) point
	// (default DefaultRandomStarts; negative means none).
	RandomStarts int
	// TopK bounds the Monte-Carlo refinement stage (default DefaultTopK).
	TopK int
	// Trials is the Monte-Carlo budget per refined candidate (default
	// DefaultTrials).
	Trials int
	// Workers bounds the candidate fan-out goroutines (0: one per CPU,
	// <0: serial). The ranking is bit-identical at any setting.
	Workers int

	// normalized marks a spec that already passed through withDefaults.
	// The zero-vs-negative sentinels are only meaningful on raw input:
	// a second pass must not reinterpret a normalized "none" (0) as
	// "use the default".
	normalized bool
}

// Spec defaults.
const (
	DefaultRootSeed     = 2019
	DefaultCycles       = 2
	DefaultRandomStarts = 2
	DefaultTopK         = 8
	DefaultTrials       = 20000
)

func (s Spec) withDefaults() Spec {
	if s.normalized {
		return s
	}
	s.normalized = true
	if s.RootSeed == 0 {
		s.RootSeed = DefaultRootSeed
	}
	if s.Cycles == 0 {
		s.Cycles = DefaultCycles
	}
	if s.Cycles < 0 {
		s.Cycles = 0
	}
	if s.RandomStarts == 0 {
		s.RandomStarts = DefaultRandomStarts
	}
	if s.RandomStarts < 0 {
		s.RandomStarts = 0
	}
	if s.TopK <= 0 {
		s.TopK = DefaultTopK
	}
	if s.Trials <= 0 {
		s.Trials = DefaultTrials
	}
	return s
}

// CandidateSpec pins one grid point before compilation: the policy
// tuple, the calibration cycle it compiles against, and the derived
// seed. ID is the candidate's position in grid-enumeration order — the
// deterministic tie-breaker of the final ranking.
type CandidateSpec struct {
	ID       int    `json:"id"`
	Alloc    string `json:"alloc"`
	Start    int    `json:"start,omitempty"` // random multi-start index (0 otherwise)
	Mover    string `json:"mover"`
	Optimize bool   `json:"optimize"`
	Cycle    int    `json:"cycle"` // archive snapshot index; MeanCycle for the reference device
	Seed     int64  `json:"seed"`
}

// Label renders the policy tuple compactly for tables and errors, e.g.
// "vqa/vqm-hop+O@c103" or "random#1/baseline@mean".
func (c CandidateSpec) Label() string {
	a := c.Alloc
	if c.Alloc == AllocRandom {
		a = fmt.Sprintf("%s#%d", c.Alloc, c.Start)
	}
	opt := ""
	if c.Optimize {
		opt = "+O"
	}
	cyc := "mean"
	if c.Cycle != MeanCycle {
		cyc = fmt.Sprintf("c%d", c.Cycle)
	}
	return fmt.Sprintf("%s/%s%s@%s", a, c.Mover, opt, cyc)
}

// Grid enumerates the deterministic candidate grid for spec over the
// archive's calibration window: cycle (reference first, then the K most
// recent cycles oldest-first) × allocation (greedy, vqa, then the
// random starts) × movement (baseline, vqm, vqm-hop, sabre) × optimize
// (off, on). arch may be nil, which restricts the grid to the reference
// device. Candidate seeds derive SplitMix64-style from spec.RootSeed
// and the candidate ID.
func Grid(spec Spec, arch *calib.Archive) []CandidateSpec {
	spec = spec.withDefaults()
	cycles := []int{MeanCycle}
	if arch != nil {
		k := spec.Cycles
		if k > len(arch.Snapshots) {
			k = len(arch.Snapshots)
		}
		for i := len(arch.Snapshots) - k; i < len(arch.Snapshots); i++ {
			cycles = append(cycles, i)
		}
	}
	type allocPoint struct {
		name  string
		start int
	}
	allocs := []allocPoint{{AllocGreedy, 0}, {AllocVQA, 0}}
	for s := 0; s < spec.RandomStarts; s++ {
		allocs = append(allocs, allocPoint{AllocRandom, s})
	}
	movers := gridMovers()

	var grid []CandidateSpec
	for _, cyc := range cycles {
		for _, al := range allocs {
			for _, mv := range movers {
				for _, opt := range []bool{false, true} {
					id := len(grid)
					grid = append(grid, CandidateSpec{
						ID:       id,
						Alloc:    al.name,
						Start:    al.start,
						Mover:    mv,
						Optimize: opt,
						Cycle:    cyc,
						Seed:     deriveSeed(spec.RootSeed, compileStream, id),
					})
				}
			}
		}
	}
	return grid
}

// GridSize reports the number of candidates Run would compile, without
// enumerating them — the bound request validators check.
func GridSize(spec Spec, availableCycles int) int {
	spec = spec.withDefaults()
	k := spec.Cycles
	if k > availableCycles {
		k = availableCycles
	}
	return (1 + k) * (2 + spec.RandomStarts) * len(gridMovers()) * 2
}

// Seed-stream salts keeping compilation and Monte-Carlo refinement on
// decorrelated SplitMix64 streams of the same root seed.
const (
	compileStream uint64 = 0x706F7274666F6C69 // "portfoli"
	mcStream      uint64 = 0x6573702D72616E6B // "esp-rank"
)

// deriveSeed mixes (root, stream, i) through the SplitMix64 finalizer —
// the same derivation discipline as the simulator's per-block streams,
// a pure function of its inputs so the grid is reproducible anywhere.
func deriveSeed(root int64, stream uint64, i int) int64 {
	return int64(splitmix.At(uint64(root)^stream, uint64(i)+1))
}

// MC is a candidate's Monte-Carlo refinement: PST with its binomial
// standard error at the refinement trial budget.
type MC struct {
	PST    float64 `json:"pst"`
	StdErr float64 `json:"std_err"`
	Trials int     `json:"trials"`
}

// Candidate is one ranked portfolio entry: the grid point it came from
// plus per-candidate diagnostics.
type Candidate struct {
	Rank int `json:"rank"` // 1-based position in the ranking
	CandidateSpec
	Swaps        int     `json:"swaps"`
	Instructions int     `json:"instructions"` // physical instruction count
	Depth        int     `json:"depth"`
	AnalyticPST  float64 `json:"analytic_pst"`
	// MCResult is set only for candidates that reached the Monte-Carlo
	// refinement stage (the analytic top-k).
	MCResult *MC `json:"monte_carlo,omitempty"`
	// CompileNs is the candidate's wall-clock compile latency. It is
	// diagnostic only: never part of the ranking, and zeroed by
	// ClearTimings for byte-identical comparisons.
	CompileNs int64 `json:"compile_ns"`

	// Compiled is the full compilation, for callers that need the
	// physical circuit (the winner is typically re-estimated or
	// executed). Not serialized.
	Compiled *core.Compiled `json:"-"`
}

// Failure is one quarantined candidate: the grid point and why it
// failed. The underlying error is preserved for errors.Is/As; Reason is
// its rendered form for serialization.
type Failure struct {
	CandidateSpec
	Reason string `json:"reason"`
	Err    error  `json:"-"`
}

// Result is a ranked portfolio. Candidates are ordered best-first:
// Monte-Carlo-refined candidates (by MC PST, then analytic PST, then
// ID) ahead of analytic-only ones (by analytic PST, then ID).
type Result struct {
	RootSeed   int64       `json:"root_seed"`
	Device     string      `json:"device"`
	DeviceFP   string      `json:"device_fingerprint"`
	Program    string      `json:"program"`
	Candidates []Candidate `json:"candidates"`
	Failures   []Failure   `json:"failures,omitempty"`
	// TotalNs is the wall-clock duration of the whole portfolio run
	// (diagnostic only; see Candidate.CompileNs).
	TotalNs int64 `json:"total_ns"`
}

// Best returns the top-ranked candidate, or nil when every candidate
// failed.
func (r *Result) Best() *Candidate {
	if len(r.Candidates) == 0 {
		return nil
	}
	return &r.Candidates[0]
}

// ClearTimings zeroes every wall-clock diagnostic, leaving exactly the
// deterministic portfolio: equality tests and golden files compare
// results after calling it.
func (r *Result) ClearTimings() {
	r.TotalNs = 0
	for i := range r.Candidates {
		r.Candidates[i].CompileNs = 0
	}
}

// compileHook, when set, observes every candidate before it compiles.
// Tests use it to inject failures into specific grid points.
var compileHook func(CandidateSpec)

// candidate materializes a grid point as a core.Candidate. Stateful
// allocators (random) are constructed fresh per candidate, which is what
// makes the concurrent fan-out race-free (see alloc.Policy); movers
// resolve through the route registry, so the grid axis and the
// CLI/service `movement` knob accept exactly the same names.
func (c CandidateSpec) candidate() (core.Candidate, error) {
	var a alloc.Policy
	switch c.Alloc {
	case AllocGreedy:
		a = alloc.Greedy{}
	case AllocVQA:
		a = alloc.VQA{}
	case AllocRandom:
		a = alloc.NewRandom(c.Seed)
	default:
		return core.Candidate{}, fmt.Errorf("portfolio: unknown allocation policy %q", c.Alloc)
	}
	r, err := route.ByName(c.Mover, 0)
	if err != nil {
		return core.Candidate{}, fmt.Errorf("portfolio: %w", err)
	}
	return core.Candidate{Alloc: a, Router: r}, nil
}

// cycleDevices builds the per-cycle device models the grid references:
// MeanCycle maps to the reference device, every other cycle to a device
// over that archive snapshot. A cycle whose snapshot cannot back a
// device carries its error, failing that cycle's candidates
// individually rather than the portfolio.
func cycleDevices(ref *device.Device, arch *calib.Archive, grid []CandidateSpec) map[int]cycleDevice {
	out := map[int]cycleDevice{MeanCycle: {dev: ref}}
	for _, c := range grid {
		if _, ok := out[c.Cycle]; ok {
			continue
		}
		if arch == nil || c.Cycle < 0 || c.Cycle >= len(arch.Snapshots) {
			out[c.Cycle] = cycleDevice{err: fmt.Errorf("portfolio: cycle %d not in archive", c.Cycle)}
			continue
		}
		d, err := device.New(arch.Topo, arch.Snapshots[c.Cycle])
		out[c.Cycle] = cycleDevice{dev: d, err: err}
	}
	return out
}

type cycleDevice struct {
	dev *device.Device
	err error
}

// Run compiles the candidate grid for prog, scores every candidate on
// the reference device d, and returns the ranked portfolio. arch may be
// nil (reference-only grid). Per-candidate failures are quarantined
// into Result.Failures; Run itself fails only when the context is
// cancelled before the portfolio completes, or when every single
// candidate failed (a portfolio with no survivors has no winner to
// serve).
func Run(ctx context.Context, d *device.Device, arch *calib.Archive, prog *circuit.Circuit, spec Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	spec = spec.withDefaults()
	start := time.Now()
	grid := Grid(spec, arch)
	devs := cycleDevices(d, arch, grid)

	// The logical program is optimized at most once, shared by every
	// Optimize candidate (transpile.Optimize is deterministic).
	optimized, _ := transpile.Optimize(prog)

	// Stage 1: compile + analytic ESP for every candidate. Failures are
	// collected, never fatal. Inner Monte-Carlo parallelism is off (the
	// grid is the parallel axis), which the pool guarantees is
	// outcome-neutral.
	cands := make([]*Candidate, len(grid))
	preps := make([]*sim.Prepared, len(grid))
	err := parallel.Collect(ctx, spec.Workers, len(grid), func(i int) error {
		cs := grid[i]
		if compileHook != nil {
			compileHook(cs)
		}
		cd := devs[cs.Cycle]
		if cd.err != nil {
			return cd.err
		}
		p := prog
		if cs.Optimize {
			p = optimized
		}
		cand, err := cs.candidate()
		if err != nil {
			return err
		}
		t0 := time.Now()
		comp, err := cand.Compile(cd.dev, p)
		if err != nil {
			return fmt.Errorf("%s: %w", cs.Label(), err)
		}
		if err := comp.Verify(cd.dev); err != nil {
			return fmt.Errorf("%s: verification: %w", cs.Label(), err)
		}
		prep := sim.Prepare(d, comp.Routed.Physical, sim.Config{Trials: spec.Trials})
		stats := comp.Routed.Physical.Stats()
		cands[i] = &Candidate{
			CandidateSpec: cs,
			Swaps:         comp.Swaps(),
			Instructions:  stats.Total,
			Depth:         stats.Depth,
			AnalyticPST:   prep.AnalyticPST(),
			CompileNs:     time.Since(t0).Nanoseconds(),
			Compiled:      comp,
		}
		preps[i] = prep
		return nil
	})
	failures := quarantine(grid, cands, err)
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("portfolio: run cancelled: %w", cerr)
	}

	// Stage 2: rank survivors by analytic ESP (ties on ID) and refine
	// the top k with the Monte-Carlo simulator, each candidate on its
	// own derived seed stream.
	survivors := make([]*Candidate, 0, len(cands))
	for _, c := range cands {
		if c != nil {
			survivors = append(survivors, c)
		}
	}
	if len(survivors) == 0 {
		res := &Result{RootSeed: spec.RootSeed, Failures: failures}
		fillResultMeta(res, d, prog, start)
		return res, fmt.Errorf("portfolio: all %d candidates failed", len(grid))
	}
	sort.SliceStable(survivors, func(i, j int) bool {
		if survivors[i].AnalyticPST != survivors[j].AnalyticPST {
			return survivors[i].AnalyticPST > survivors[j].AnalyticPST
		}
		return survivors[i].ID < survivors[j].ID
	})
	k := spec.TopK
	if k > len(survivors) {
		k = len(survivors)
	}
	err = parallel.Collect(ctx, spec.Workers, k, func(i int) error {
		c := survivors[i]
		out := preps[c.ID].Run(sim.Config{
			Trials:  spec.Trials,
			Seed:    deriveSeed(spec.RootSeed, mcStream, c.ID),
			Workers: -1, // the refinement set is the parallel axis
		})
		c.MCResult = &MC{PST: out.PST, StdErr: out.StdErr, Trials: out.Trials}
		return nil
	})
	if err != nil && ctx.Err() == nil {
		// A refinement failure demotes the candidate to analytic-only
		// ranking; the failure itself is preserved.
		for _, pe := range parallel.Errors(err) {
			c := survivors[pe.Index]
			c.MCResult = nil
			failures = append(failures, Failure{CandidateSpec: c.CandidateSpec, Reason: pe.Err.Error(), Err: pe.Err})
		}
	}
	if cerr := ctx.Err(); cerr != nil {
		return nil, fmt.Errorf("portfolio: run cancelled: %w", cerr)
	}

	// Final order: the refined set by (MC PST, analytic, ID) ahead of
	// the analytic tail, which keeps its analytic order.
	refined := survivors[:k:k]
	sort.SliceStable(refined, func(i, j int) bool {
		mi, mj := refined[i].MCResult, refined[j].MCResult
		pi, pj := -1.0, -1.0
		if mi != nil {
			pi = mi.PST
		}
		if mj != nil {
			pj = mj.PST
		}
		if pi != pj {
			return pi > pj
		}
		if refined[i].AnalyticPST != refined[j].AnalyticPST {
			return refined[i].AnalyticPST > refined[j].AnalyticPST
		}
		return refined[i].ID < refined[j].ID
	})

	res := &Result{RootSeed: spec.RootSeed, Failures: failures}
	for _, c := range survivors {
		c.Rank = len(res.Candidates) + 1
		res.Candidates = append(res.Candidates, *c)
	}
	fillResultMeta(res, d, prog, start)
	return res, nil
}

// quarantine maps a parallel.Collect error tree back onto the grid,
// producing one Failure per failed candidate in grid order.
func quarantine(grid []CandidateSpec, cands []*Candidate, err error) []Failure {
	if err == nil {
		return nil
	}
	var failures []Failure
	for _, pe := range parallel.Errors(err) {
		if pe.Index < len(grid) && cands[pe.Index] == nil {
			failures = append(failures, Failure{
				CandidateSpec: grid[pe.Index],
				Reason:        pe.Err.Error(),
				Err:           pe.Err,
			})
		}
	}
	sort.SliceStable(failures, func(i, j int) bool { return failures[i].ID < failures[j].ID })
	return failures
}

func fillResultMeta(res *Result, d *device.Device, prog *circuit.Circuit, start time.Time) {
	res.Device = d.Topology().Name
	res.DeviceFP = fmt.Sprintf("%016x", d.Fingerprint())
	res.Program = prog.Name
	res.TotalNs = time.Since(start).Nanoseconds()
}
