package graphx_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"vaq/internal/graphx"
	"vaq/internal/topo"
)

// rescanGreedyExpand is the full-rescan expansion StrongestSubgraph used
// before it kept frontier gains: at every step it recomputes the gain of
// every frontier node from scratch and takes the highest gain, lowest
// node id on ties.
func rescanGreedyExpand(g *graphx.Graph, seed, k int) ([]int, bool) {
	in := make([]bool, g.N())
	set := []int{seed}
	in[seed] = true
	for len(set) < k {
		bestV, bestGain := -1, -1.0
		for _, u := range set {
			for _, v := range g.Neighbors(u) {
				if in[v] {
					continue
				}
				gain := 0.0
				for _, x := range g.Neighbors(v) {
					if in[x] {
						w, _ := g.Weight(v, x)
						gain += w
					}
				}
				if gain > bestGain || (gain == bestGain && v < bestV) {
					bestGain = gain
					bestV = v
				}
			}
		}
		if bestV == -1 {
			return nil, false
		}
		in[bestV] = true
		set = append(set, bestV)
	}
	return set, true
}

// rescanStrongestSubgraph is StrongestSubgraph over rescanGreedyExpand.
func rescanStrongestSubgraph(g *graphx.Graph, k int) ([]int, float64) {
	if k <= 0 || k > g.N() {
		return nil, 0
	}
	bestANS := -1.0
	var best []int
	for seed := 0; seed < g.N(); seed++ {
		set, ok := rescanGreedyExpand(g, seed, k)
		if !ok {
			continue
		}
		if s := g.AggregateNodeStrength(set); s > bestANS {
			bestANS, best = s, set
		}
	}
	if best == nil {
		return nil, 0
	}
	slices.Sort(best)
	return best, bestANS
}

// TestStrongestSubgraphMatchesRescan: the incremental frontier expansion
// must return the same set and bit-identical ANS as the full rescan, on
// every zoo family (heavy-hex up to 399 qubits and its -holes8 defect
// variant included) and the named machines, under seeded continuous
// weights and under coarse weights that make gain ties common.
func TestStrongestSubgraphMatchesRescan(t *testing.T) {
	names := []string{
		"heavy-hex-20", "heavy-hex-127", "heavy-hex-399", "heavy-hex-399-holes8",
		"grid-25", "grid-100-holes5", "ring-64", "full-20",
	}
	topos := []*topo.Topology{topo.IBMQ5(), topo.IBMQ16(), topo.IBMQ20()}
	for _, name := range names {
		tp, err := topo.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, tp)
	}
	for ti, tp := range topos {
		n := tp.NumQubits
		for _, coarse := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(1000*ti + n)))
			g := tp.Graph(1)
			for _, c := range tp.Couplings {
				w := 0.9 + 0.1*rng.Float64()
				if coarse {
					w = []float64{0.9, 0.95, 0.99}[rng.Intn(3)]
				}
				g.AddEdge(c.A, c.B, w)
			}
			for _, k := range []int{1, 2, 5, 10, 24, 48, n} {
				if k > n {
					continue
				}
				t.Run(fmt.Sprintf("%s/coarse=%v/k=%d", tp.Name, coarse, k), func(t *testing.T) {
					got, gotANS := g.StrongestSubgraph(k)
					want, wantANS := rescanStrongestSubgraph(g, k)
					if !slices.Equal(got, want) || math.Float64bits(gotANS) != math.Float64bits(wantANS) {
						t.Fatalf("incremental %v (ANS %v), rescan %v (ANS %v)", got, gotANS, want, wantANS)
					}
				})
			}
		}
	}
}
