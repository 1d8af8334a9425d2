package graphx

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// clique returns a complete graph on nodes ids within a graph of size n.
func clique(n int, ids []int, w float64) *Graph {
	g := New(n)
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			g.AddEdge(ids[i], ids[j], w)
		}
	}
	return g
}

func TestAggregateNodeStrength(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 0.9)
	g.AddEdge(1, 2, 0.8)
	g.AddEdge(0, 3, 0.5)
	// ANS of {0,1,2}: edges 0-1 and 1-2 counted from both sides.
	got := g.AggregateNodeStrength([]int{0, 1, 2})
	want := 2 * (0.9 + 0.8)
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("ANS = %v, want %v", got, want)
	}
}

func TestStrongestSubgraphPicksStrongCorner(t *testing.T) {
	// Two triangles joined by a weak bridge; one triangle has weight-3
	// edges, the other weight-1. The strongest 3-subgraph must be the
	// heavy triangle.
	g := New(6)
	g.AddEdge(0, 1, 3)
	g.AddEdge(1, 2, 3)
	g.AddEdge(0, 2, 3)
	g.AddEdge(2, 3, 0.1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(3, 5, 1)
	nodes, ans := g.StrongestSubgraph(3)
	if !reflect.DeepEqual(nodes, []int{0, 1, 2}) {
		t.Fatalf("strongest 3-subgraph = %v, want [0 1 2]", nodes)
	}
	if want := 2 * 9.0; ans != want {
		t.Fatalf("ANS = %v, want %v", ans, want)
	}
}

func TestStrongestSubgraphConnected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(10)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v, rng.Float64())
				}
			}
		}
		k := 1 + rng.Intn(n)
		nodes, _ := g.StrongestSubgraph(k)
		if nodes == nil {
			return true // no connected k-subgraph from any seed
		}
		return len(nodes) == k && g.Connected(nodes)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStrongestSubgraphEdgeCases(t *testing.T) {
	g := path(4)
	if nodes, _ := g.StrongestSubgraph(0); nodes != nil {
		t.Fatal("k=0 should return nil")
	}
	if nodes, _ := g.StrongestSubgraph(5); nodes != nil {
		t.Fatal("k>n should return nil")
	}
	nodes, _ := g.StrongestSubgraph(4)
	sort.Ints(nodes)
	if !reflect.DeepEqual(nodes, []int{0, 1, 2, 3}) {
		t.Fatalf("k=n should return all nodes, got %v", nodes)
	}
	// Disconnected graph where no component has k nodes.
	d := New(4)
	d.AddEdge(0, 1, 1)
	d.AddEdge(2, 3, 1)
	if nodes, _ := d.StrongestSubgraph(3); nodes != nil {
		t.Fatalf("expected nil for impossible k, got %v", nodes)
	}
}

func TestStrongestSubgraphMatchesExhaustiveSmall(t *testing.T) {
	// Compare the greedy search against exhaustive enumeration on small
	// random graphs. The greedy multi-seed search may in principle be
	// suboptimal, but for the dense small graphs we use it should find the
	// optimum; treat a mismatch > 15% as a bug.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(3)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.6 {
					g.AddEdge(u, v, rng.Float64())
				}
			}
		}
		k := 2 + rng.Intn(3)
		_, got := g.StrongestSubgraph(k)
		best := exhaustiveBest(g, k)
		if best < 0 {
			continue
		}
		if got < best*0.85 {
			t.Fatalf("trial %d: greedy ANS %v < 85%% of exhaustive %v", trial, got, best)
		}
	}
}

func exhaustiveBest(g *Graph, k int) float64 {
	n := g.N()
	best := -1.0
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(cur) == k {
			if g.Connected(cur) {
				if s := g.AggregateNodeStrength(cur); s > best {
					best = s
				}
			}
			return
		}
		for v := start; v < n; v++ {
			rec(v+1, append(cur, v))
		}
	}
	rec(0, nil)
	return best
}
