// Package core assembles allocation and movement into the five
// compilation policies the paper evaluates:
//
//	Native      — randomized initial mapping + per-gate shortest-path
//	              routing (the "IBM native compiler" comparator).
//	Baseline    — interaction-aware greedy allocation + layer A* SWAP
//	              search minimizing SWAP count (Zulehner et al.).
//	VQM         — baseline allocation + reliability-cost A* movement
//	              (Variation-Aware Qubit Movement, Algorithm 1).
//	VQMHop      — VQM with the Maximum Additional Hops limit (MAH=4).
//	VQAVQM      — Variation-Aware Qubit Allocation (Algorithm 2) on top of
//	              VQM movement: the paper's full proposal.
//
// Compile is the single entry point; it returns the physical circuit, the
// mapping trace, and SWAP accounting for one program on one device.
package core

import (
	"fmt"

	"vaq/internal/alloc"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/route"
	"vaq/internal/transpile"
)

// Policy names one of the paper's compilation strategies.
type Policy int

const (
	Native Policy = iota
	Baseline
	VQM
	VQMHop
	VQAVQM
	numPolicies
)

var policyNames = [...]string{
	Native:   "native",
	Baseline: "baseline",
	VQM:      "vqm",
	VQMHop:   "vqm-hop",
	VQAVQM:   "vqa+vqm",
}

// String returns the short policy name used in tables and CLI flags.
func (p Policy) String() string {
	if p < 0 || p >= numPolicies {
		return fmt.Sprintf("Policy(%d)", int(p))
	}
	return policyNames[p]
}

// PolicyByName resolves a CLI-style policy name.
func PolicyByName(name string) (Policy, bool) {
	for p, n := range policyNames {
		if n == name {
			return Policy(p), true
		}
	}
	return 0, false
}

// AllPolicies lists every policy in evaluation order.
func AllPolicies() []Policy {
	return []Policy{Native, Baseline, VQM, VQMHop, VQAVQM}
}

// Options tunes a compilation.
type Options struct {
	Policy Policy
	// MAH is the Maximum Additional Hops for VQMHop (default 4, the
	// paper's setting). Ignored by other policies.
	MAH int
	// ActivityLayers is VQA's activity window t (≤ 0: whole program).
	ActivityLayers int
	// ReadoutWeight, when > 0, adds a readout-aware VQA candidate to the
	// VQAVQM portfolio (an extension beyond the paper; see alloc.VQA).
	ReadoutWeight float64
	// Optimize runs the transpile passes (inverse cancellation, rotation
	// merging) on the program before allocation; the Compiled.Logical
	// field then holds the optimized circuit.
	Optimize bool
	// Seed drives Native's randomized initial mapping.
	Seed int64
	// Movement, when non-empty, replaces the policy's routing pass with
	// the named movement policy (route.MovementNames lists the valid
	// names; "sabre" is the scalable choice past ~100 qubits). The
	// policy's allocation behavior is preserved: VQAVQM still picks the
	// best-scoring allocation candidate, only routed by the override.
	Movement string
}

// Compiled is the result of one compilation.
type Compiled struct {
	Policy  Policy
	Logical *circuit.Circuit
	// Routed holds the physical circuit, initial/final mappings, and the
	// SWAP count.
	Routed *route.Result
	// Allocator and Router record which components produced the result.
	Allocator string
	Router    string
}

// Swaps returns the number of SWAPs the compilation inserted.
func (c *Compiled) Swaps() int { return c.Routed.Swaps }

// Compile maps and routes the program onto the device under the policy.
//
// VQAVQM compiles two allocation candidates — the variation-aware
// subgraph placement and the locality-greedy placement — through the
// reliability router and keeps the one the analytic reliability model
// scores higher. The paper reports that VQA+VQM never falls below VQM
// standalone; candidate selection by predicted fidelity is how that
// guarantee is realized here (the same move noise-adaptive layout tools
// make when scoring candidate layouts).
func Compile(d *device.Device, prog *circuit.Circuit, opts Options) (*Compiled, error) {
	if opts.Optimize {
		prog, _ = transpile.Optimize(prog)
	}
	if opts.Movement != "" {
		return compileWithMovement(d, prog, opts)
	}
	switch opts.Policy {
	case VQM, VQMHop, VQAVQM:
		return compileBestCandidate(d, prog, opts)
	}
	allocator, router, err := components(opts)
	if err != nil {
		return nil, err
	}
	return CompileWith(d, prog, opts, allocator, router)
}

// compileWithMovement routes with an explicit movement-policy override
// while keeping the policy's allocation behavior: Native keeps its
// randomized mapping, VQAVQM still races its allocation candidates and
// keeps the analytic winner, everything else allocates greedily.
func compileWithMovement(d *device.Device, prog *circuit.Circuit, opts Options) (*Compiled, error) {
	router, err := route.ByName(opts.Movement, 0)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	switch opts.Policy {
	case Native:
		return CompileWith(d, prog, opts, alloc.NewRandom(opts.Seed), router)
	case VQAVQM:
		allocs := []alloc.Policy{alloc.VQA{ActivityLayers: opts.ActivityLayers}, alloc.Greedy{}}
		if opts.ReadoutWeight > 0 {
			allocs = append(allocs, alloc.VQA{ActivityLayers: opts.ActivityLayers, ReadoutWeight: opts.ReadoutWeight})
		}
		var best *Compiled
		bestScore := -1.0
		for _, a := range allocs {
			c, err := CompileWith(d, prog, opts, a, router)
			if err != nil {
				return nil, err
			}
			if s := analyticScore(d, c); s > bestScore {
				best, bestScore = c, s
			}
		}
		best.Policy = opts.Policy
		return best, nil
	default:
		return CompileWith(d, prog, opts, alloc.Greedy{}, router)
	}
}

// compileBestCandidate compiles the variation-aware policies. Each policy
// defines a set of (allocator, router) candidates that all respect its
// definition; the candidate the analytic reliability model scores highest
// wins. In particular the hop-cost route with the policy's allocation is
// always a candidate, which realizes the ≥-baseline property the paper
// reports (a layer-local reliability search can otherwise lose globally
// on deep circuits).
func compileBestCandidate(d *device.Device, prog *circuit.Circuit, opts Options) (*Compiled, error) {
	mah := opts.MAH
	if mah <= 0 {
		mah = 4
	}
	type candidate struct {
		a alloc.Policy
		r route.Router
	}
	reliability := route.AStar{Cost: route.CostReliability, MAH: -1}
	hopLimited := route.AStar{Cost: route.CostReliability, MAH: mah}
	hops := route.AStar{Cost: route.CostHops, MAH: -1}
	var cands []candidate
	switch opts.Policy {
	case VQM:
		cands = []candidate{{alloc.Greedy{}, reliability}, {alloc.Greedy{}, hops}}
	case VQMHop:
		cands = []candidate{{alloc.Greedy{}, hopLimited}, {alloc.Greedy{}, hops}}
	case VQAVQM:
		vqa := alloc.VQA{ActivityLayers: opts.ActivityLayers}
		cands = []candidate{
			{vqa, reliability},
			{alloc.Greedy{}, reliability},
			{vqa, hops},
			{alloc.Greedy{}, hops},
		}
		if opts.ReadoutWeight > 0 {
			vqar := alloc.VQA{ActivityLayers: opts.ActivityLayers, ReadoutWeight: opts.ReadoutWeight}
			cands = append(cands, candidate{vqar, reliability})
		}
	}
	var best *Compiled
	bestScore := -1.0
	for _, cand := range cands {
		c, err := CompileWith(d, prog, opts, cand.a, cand.r)
		if err != nil {
			return nil, err
		}
		if s := analyticScore(d, c); s > bestScore {
			best, bestScore = c, s
		}
	}
	best.Policy = opts.Policy
	return best, nil
}

// CompileWith maps and routes prog with an explicit (allocator, router)
// pair, bypassing the fixed policy definitions. It is the primitive the
// named policies are assembled from, exported for callers — the
// portfolio compiler — that enumerate their own candidate grids.
// opts.Policy only labels the result; opts.Optimize is NOT applied here
// (grid generators decide per candidate whether to pre-optimize).
//
// Stateful allocators (alloc.Random) must not be shared across
// concurrent CompileWith calls; construct one per call (see the
// concurrency contract on alloc.Policy).
func CompileWith(d *device.Device, prog *circuit.Circuit, opts Options, allocator alloc.Policy, router route.Router) (*Compiled, error) {
	m, err := allocator.Allocate(d, prog)
	if err != nil {
		return nil, fmt.Errorf("core(%s): %w", opts.Policy, err)
	}
	res, err := router.Route(d, prog, m)
	if err != nil {
		return nil, fmt.Errorf("core(%s): %w", opts.Policy, err)
	}
	return &Compiled{
		Policy:    opts.Policy,
		Logical:   prog,
		Routed:    res,
		Allocator: allocator.Name(),
		Router:    router.Name(),
	}, nil
}

// analyticScore is the closed-form success probability of every gate in
// the compiled circuit (readout and coherence apply equally to any
// mapping's measured qubits only through placement, which is part of the
// score via the per-qubit rates).
func analyticScore(d *device.Device, c *Compiled) float64 {
	p := 1.0
	phys := c.Routed.Physical
	for _, g := range phys.Gates {
		p *= d.GateSuccess(g.Kind, g.Qubits)
	}
	return p
}

// Verify checks the compiled program against the logical circuit (see
// route.Verify).
func (c *Compiled) Verify(d *device.Device) error {
	return route.Verify(d, c.Logical, c.Routed)
}

// VerifyClifford additionally checks quantum-state equivalence for
// Clifford programs (see route.VerifyClifford); it returns
// route.ErrNotClifford for programs outside the stabilizer formalism.
func (c *Compiled) VerifyClifford(d *device.Device) error {
	return route.VerifyClifford(d, c.Logical, c.Routed)
}

// components resolves the single-candidate policies; the variation-aware
// policies go through compileBestCandidate instead.
func components(opts Options) (alloc.Policy, route.Router, error) {
	switch opts.Policy {
	case Native:
		return alloc.NewRandom(opts.Seed), route.Naive{}, nil
	case Baseline:
		return alloc.Greedy{}, route.AStar{Cost: route.CostHops, MAH: -1}, nil
	default:
		return nil, nil, fmt.Errorf("core: unknown policy %d", int(opts.Policy))
	}
}
