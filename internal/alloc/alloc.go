// Package alloc implements Qubit-Allocation policies: the mapping of
// program qubits to physical qubits that a compiled NISQ program starts
// from. Three policies are provided:
//
//   - Greedy: the baseline's interaction-aware placement, which minimizes
//     expected SWAP distance while assuming every link is equally reliable.
//   - VQA: the paper's Variation-Aware Qubit Allocation (Algorithm 2),
//     which selects the connected subgraph with the highest aggregate node
//     strength and maps the most active program qubits onto it.
//   - Random: seeded random placement, modeling the IBM native compiler's
//     randomized initial mapping.
package alloc

import (
	"fmt"
	"math/rand"
	"sort"

	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/graphx"
)

// Mapping assigns each program qubit to a physical qubit:
// Mapping[p] = physical location of program qubit p.
type Mapping []int

// Clone returns a copy of the mapping.
func (m Mapping) Clone() Mapping {
	c := make(Mapping, len(m))
	copy(c, m)
	return c
}

// Inverse returns the physical→program view over numPhysical qubits;
// unoccupied physical qubits map to −1.
func (m Mapping) Inverse(numPhysical int) []int {
	return m.InverseInto(make([]int, numPhysical))
}

// InverseInto fills inv — whose length is the physical qubit count — with
// the physical→program view and returns it; unoccupied physical qubits
// map to −1. The allocation-free form of Inverse for callers (the routing
// search) that own a reusable buffer.
func (m Mapping) InverseInto(inv []int) []int {
	for i := range inv {
		inv[i] = -1
	}
	for p, phys := range m {
		inv[phys] = p
	}
	return inv
}

// Validate checks that the mapping is injective and within range.
func (m Mapping) Validate(numPhysical int) error {
	seen := make(map[int]int, len(m))
	for p, phys := range m {
		if phys < 0 || phys >= numPhysical {
			return fmt.Errorf("alloc: program qubit %d mapped to %d, out of [0,%d)", p, phys, numPhysical)
		}
		if prev, dup := seen[phys]; dup {
			return fmt.Errorf("alloc: program qubits %d and %d share physical qubit %d", prev, p, phys)
		}
		seen[phys] = p
	}
	return nil
}

// Policy produces an initial program→physical mapping for a circuit on a
// device.
//
// Concurrency contract: Allocate may be called from concurrent
// goroutines only on implementations that carry no mutable state.
// Greedy and VQA are stateless and safe to share. Random carries a
// mutable RNG stream, so concurrent callers (the portfolio compiler's
// candidate fan-out) must construct one instance per goroutine — either
// NewRandom with a per-worker derived seed, or Clone of a prototype.
type Policy interface {
	Name() string
	Allocate(d *device.Device, c *circuit.Circuit) (Mapping, error)
}

// checkFit verifies the program fits on the machine.
func checkFit(d *device.Device, c *circuit.Circuit) error {
	if c.NumQubits > d.NumQubits() {
		return fmt.Errorf("alloc: program needs %d qubits, device %q has %d",
			c.NumQubits, d.Topology().Name, d.NumQubits())
	}
	return nil
}

// Greedy is the baseline allocation: program qubits are placed in
// descending order of total interaction count; the first goes to the
// physical qubit with the lowest total hop distance to the rest of the
// machine (the most central), and each subsequent qubit goes to the free
// physical qubit minimizing the interaction-weighted hop distance to its
// already-placed partners. All links are treated as equal, per the
// baseline's uniform-SWAP-cost assumption.
type Greedy struct{}

func (Greedy) Name() string { return "greedy" }

func (Greedy) Allocate(d *device.Device, c *circuit.Circuit) (Mapping, error) {
	if err := checkFit(d, c); err != nil {
		return nil, err
	}
	inter := c.InteractionCounts()
	order := qubitOrder(interactionTotals(inter))
	n := d.NumQubits()
	hops := d.HopMatrix()
	// centrality[phys] is phys's mean hop distance to every site: the
	// score of a program qubit with no placed partners, which prefers
	// central qubits.
	centrality := d.HopCentrality()

	free := make([]bool, n)
	for i := range free {
		free[i] = true
	}
	m := make(Mapping, c.NumQubits)
	for i := range m {
		m[i] = -1
	}

	// partners holds p's placed partners as (weight, hop row from the
	// partner's site), in ascending partner order. Hop counts are exact
	// integers and BFS distances symmetric, so reading the partner's row
	// at phys gives the same bits as phys's row at the partner, and only
	// the placed sites' rows are ever built.
	type partner struct {
		w   float64
		row []float64
	}
	var partners []partner
	for _, p := range order {
		partners = partners[:0]
		for q, w := range inter[p] {
			if w != 0 && m[q] != -1 {
				partners = append(partners, partner{float64(w), hops.Row(m[q])})
			}
		}
		best, bestCost := -1, 0.0
		for phys := 0; phys < n; phys++ {
			if !free[phys] {
				continue
			}
			cost := 0.0
			for _, pt := range partners {
				cost += pt.w * pt.row[phys]
			}
			if len(partners) == 0 {
				cost = centrality[phys]
			}
			if best == -1 || cost < bestCost {
				best, bestCost = phys, cost
			}
		}
		m[p] = best
		free[best] = false
	}
	return m, nil
}

// VQA implements Variation-Aware Qubit Allocation (Algorithm 2):
//
//  1. Find the k-node connected subgraph with the highest aggregate node
//     strength on the CNOT-reliability graph (k = number of program
//     qubits), seeded by the k-core structure of the machine.
//  2. Rank program qubits by activity (two-qubit gate participation) over
//     the first ActivityLayers dependency layers.
//  3. Place high-activity program qubits on the strong subgraph,
//     prioritizing strong nodes, while preserving locality by minimizing
//     the interaction-weighted reliability distance to placed partners.
type VQA struct {
	// ActivityLayers is the window t of Algorithm 2 step 2; ≤ 0 means the
	// whole program.
	ActivityLayers int
	// ReadoutWeight extends Algorithm 2 beyond the paper: measured program
	// qubits are additionally steered away from physical qubits with poor
	// readout fidelity, weighted by this factor (0, the default, is the
	// paper-faithful policy; ~1 weighs a readout error like a routing
	// hazard). Readout errors vary severalfold across qubits on real
	// machines, so this is the natural next variation to exploit.
	ReadoutWeight float64
}

func (v VQA) Name() string {
	if v.ReadoutWeight > 0 {
		return "vqa+readout"
	}
	return "vqa"
}

func (v VQA) Allocate(d *device.Device, c *circuit.Circuit) (Mapping, error) {
	if err := checkFit(d, c); err != nil {
		return nil, err
	}
	rel := d.ReliabilityGraph()
	if v.ReadoutWeight > 0 {
		// Fold readout fidelity into the strength landscape so the
		// strongest-subgraph selection also avoids poor-readout qubits.
		snap := d.Snapshot()
		rel = graphmap(rel, func(u, w int, weight float64) float64 {
			penalty := v.ReadoutWeight * (snap.Readout[u] + snap.Readout[w]) / 2
			adjusted := weight - penalty
			if adjusted < 0.01 {
				adjusted = 0.01
			}
			return adjusted
		})
	}
	sub, _ := rel.StrongestSubgraph(c.NumQubits)
	if sub == nil {
		// Disconnected machine or pathological k: fall back to all qubits.
		sub = make([]int, d.NumQubits())
		for i := range sub {
			sub[i] = i
		}
	}
	inSub := make(map[int]bool, len(sub))
	for _, v := range sub {
		inSub[v] = true
	}

	// Node strength within the chosen subgraph: prefer the strongest
	// physical sites for the most active program qubits.
	strength := make([]float64, d.NumQubits())
	for _, u := range sub {
		for _, nb := range rel.Neighbors(u) {
			if inSub[nb] {
				w, _ := rel.Weight(u, nb)
				strength[u] += w
			}
		}
	}

	dist := d.CostMatrix()
	activity := c.ActivityCounts(v.ActivityLayers)
	order := qubitOrder(activity)
	inter := c.InteractionCounts()
	measured := c.MeasuredQubits()

	free := make([]bool, d.NumQubits())
	for i := range free {
		free[i] = true
	}
	m := make(Mapping, c.NumQubits)
	for i := range m {
		m[i] = -1
	}

	for _, p := range order {
		best, bestScore := -1, 0.0
		for phys := 0; phys < d.NumQubits(); phys++ {
			if !free[phys] {
				continue
			}
			// Restrict to the strong subgraph while it has room.
			if !inSub[phys] && anyFree(free, sub) {
				continue
			}
			// Score: low reliability-distance to placed partners
			// (weighted by interaction count), tie-broken by site
			// strength; measured qubits optionally avoid poor readout.
			// Dijkstra sums are not bitwise symmetric, so read phys's own
			// row: only the strong subgraph's rows are built.
			cost := 0.0
			var row []float64
			for q, w := range inter[p] {
				if w == 0 || m[q] == -1 {
					continue
				}
				if row == nil {
					row = dist.Row(phys)
				}
				cost += float64(w) * row[m[q]]
			}
			if v.ReadoutWeight > 0 && measured[p] {
				cost += v.ReadoutWeight * (1 - d.ReadoutSuccess(phys))
			}
			score := -cost + 1e-3*strength[phys]
			if best == -1 || score > bestScore {
				best, bestScore = phys, score
			}
		}
		m[p] = best
		free[best] = false
	}
	return m, nil
}

func anyFree(free []bool, nodes []int) bool {
	for _, v := range nodes {
		if free[v] {
			return true
		}
	}
	return false
}

// Random places program qubits uniformly at random (without replacement),
// modeling the IBM native compiler's randomized initial mapping. Each
// Allocate call consumes the next permutation from the seeded stream, so
// repeated calls model the paper's 32 random configurations.
//
// A Random is NOT safe for concurrent use: Allocate advances the seeded
// stream. Give each concurrent worker its own instance (NewRandom or
// Clone) — see the Policy concurrency contract.
type Random struct {
	seed  int64
	draws []int // permutation sizes consumed so far, for Clone replay
	rng   *rand.Rand
}

// NewRandom returns a Random policy with its own deterministic stream.
func NewRandom(seed int64) *Random {
	return &Random{seed: seed, rng: rand.New(rand.NewSource(seed))}
}

// Clone returns an independent Random at the same stream position: the
// clone and the receiver produce identical future placements without
// sharing RNG state, which is what makes per-worker clones race-free
// AND deterministic. The clone replays the consumed draw prefix from
// the seed (each Allocate's draw count depends only on the machine
// size, which is recorded per call).
//
// Clone is not itself safe to call concurrently with Allocate on the
// same receiver; clone first, then hand the clones out.
func (r *Random) Clone() *Random {
	c := NewRandom(r.seed)
	for _, n := range r.draws {
		c.rng.Perm(n)
	}
	c.draws = append([]int(nil), r.draws...)
	return c
}

func (*Random) Name() string { return "random" }

func (r *Random) Allocate(d *device.Device, c *circuit.Circuit) (Mapping, error) {
	if err := checkFit(d, c); err != nil {
		return nil, err
	}
	perm := r.rng.Perm(d.NumQubits())
	r.draws = append(r.draws, d.NumQubits())
	m := make(Mapping, c.NumQubits)
	copy(m, perm[:c.NumQubits])
	return m, nil
}

// graphmap rebuilds a graph with per-edge transformed weights (the
// transform sees both endpoints, unlike graphx.Graph.Map).
func graphmap(g *graphx.Graph, f func(u, v int, w float64) float64) *graphx.Graph {
	out := graphx.New(g.N())
	for _, e := range g.Edges() {
		out.AddEdge(e.U, e.V, f(e.U, e.V, e.W))
	}
	return out
}

// interactionTotals sums each qubit's row of the interaction matrix.
func interactionTotals(inter [][]int) []int {
	totals := make([]int, len(inter))
	for p, row := range inter {
		for _, w := range row {
			totals[p] += w
		}
	}
	return totals
}

// qubitOrder returns qubit indices sorted by descending score, ties broken
// by ascending index for determinism.
func qubitOrder(score []int) []int {
	order := make([]int, len(score))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool {
		return score[order[i]] > score[order[j]]
	})
	return order
}
