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
// A policy is a list of (allocator, router) Candidates; Best compiles
// them and keeps the highest-scoring one. Compile chains the two.
package core

import (
	"fmt"

	"vaq/internal/alloc"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/route"
	"vaq/internal/sim"
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
	// Optimize runs the transpile passes (inverse cancellation, rotation
	// merging) on the program before allocation; the Compiled.Logical
	// field then holds the optimized circuit.
	Optimize bool
	// Seed drives Native's randomized initial mapping.
	Seed int64
	// Movement, when non-empty, names a movement policy (see
	// route.MovementNames; "sabre" scales past ~100 qubits) that replaces
	// the policy's router list but keeps its allocator list.
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

// Candidate is one (allocator, router) pair a policy tries.
type Candidate struct {
	Alloc  alloc.Policy
	Router route.Router
}

// Candidates lists the (allocator, router) pairs opts.Policy tries,
// router-major: every allocator under the first router, then under the
// next. The order is Best's tie-break.
//
//	native   random           × naive
//	baseline greedy           × hops
//	vqm      greedy           × {reliability, hops}
//	vqm-hop  greedy           × {reliability with MAH, hops}
//	vqa+vqm  {vqa, greedy}    × {reliability, hops}
//
// The hop-cost route with the policy's allocation is always a candidate
// of the variation-aware policies, which realizes the ≥-baseline
// property the paper reports (a layer-local reliability search can
// otherwise lose globally on deep circuits); racing the VQA and greedy
// allocations is how VQA+VQM never falls below VQM. A non-empty
// opts.Movement replaces the router list.
//
// Stateful allocators (alloc.Random) are constructed fresh per call;
// the returned candidates must not be compiled concurrently with each
// other (see the concurrency contract on alloc.Policy).
func Candidates(opts Options) ([]Candidate, error) {
	greedy := []alloc.Policy{alloc.Greedy{}}
	reliability := route.AStar{Cost: route.CostReliability, MAH: -1}
	hops := route.AStar{Cost: route.CostHops, MAH: -1}
	var allocs []alloc.Policy
	var routers []route.Router
	switch opts.Policy {
	case Native:
		allocs, routers = []alloc.Policy{alloc.NewRandom(opts.Seed)}, []route.Router{route.Naive{}}
	case Baseline:
		allocs, routers = greedy, []route.Router{hops}
	case VQM:
		allocs, routers = greedy, []route.Router{reliability, hops}
	case VQMHop:
		if opts.MAH <= 0 {
			opts.MAH = 4
		}
		allocs, routers = greedy, []route.Router{route.AStar{Cost: route.CostReliability, MAH: opts.MAH}, hops}
	case VQAVQM:
		allocs, routers = []alloc.Policy{alloc.VQA{}, alloc.Greedy{}}, []route.Router{reliability, hops}
	default:
		return nil, fmt.Errorf("core: unknown policy %d", int(opts.Policy))
	}
	if opts.Movement != "" {
		r, err := route.ByName(opts.Movement, 0)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		routers = []route.Router{r}
	}
	cands := make([]Candidate, 0, len(allocs)*len(routers))
	for _, r := range routers {
		for _, a := range allocs {
			cands = append(cands, Candidate{Alloc: a, Router: r})
		}
	}
	return cands, nil
}

// Compile maps and routes prog with this candidate. A candidate does not
// know its policy, so the result's Policy is zero and errors carry no
// policy label (Best sets both); the transpile passes are not applied.
func (c Candidate) Compile(d *device.Device, prog *circuit.Circuit) (*Compiled, error) {
	m, err := c.Alloc.Allocate(d, prog)
	if err != nil {
		return nil, err
	}
	res, err := c.Router.Route(d, prog, m)
	if err != nil {
		return nil, err
	}
	return &Compiled{Logical: prog, Routed: res, Allocator: c.Alloc.Name(), Router: c.Router.Name()}, nil
}

// gatesOnly is the scoring model of Best and Bound.ESP: the closed-form
// product of every gate's and readout's success probability, without
// the schedule-dependent coherence term.
var gatesOnly = sim.Config{DisableCoherence: true}

// Best compiles every candidate and returns the one gatesOnly scores
// highest, labelled with policy; ties keep the earlier candidate. The
// first failing candidate fails the whole call.
func Best(d *device.Device, prog *circuit.Circuit, policy Policy, cands []Candidate) (*Compiled, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("core(%s): no candidates", policy)
	}
	var best *Compiled
	bestScore := 0.0
	for i, cand := range cands {
		c, err := cand.Compile(d, prog)
		if err != nil {
			return nil, fmt.Errorf("core(%s): %w", policy, err)
		}
		if s := sim.AnalyticPST(d, c.Routed.Physical, gatesOnly); i == 0 || s > bestScore {
			best, bestScore = c, s
		}
	}
	best.Policy = policy
	return best, nil
}

// Compile maps and routes the program onto the device under the policy:
// the optional transpile passes, then Best over the policy's Candidates.
func Compile(d *device.Device, prog *circuit.Circuit, opts Options) (*Compiled, error) {
	cands, err := Candidates(opts)
	if err != nil {
		return nil, err
	}
	if opts.Optimize {
		prog, _ = transpile.Optimize(prog)
	}
	return Best(d, prog, opts.Policy, cands)
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
