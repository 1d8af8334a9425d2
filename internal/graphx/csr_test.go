package graphx

import (
	"math/rand"
	"testing"
)

// randomConnectedGraph builds a seeded random weighted graph: a spanning
// chain (so it is connected) plus extra random edges.
func randomConnectedGraph(n, extra int, seed int64) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 0.1+rng.Float64())
	}
	for i := 0; i < extra; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if _, dup := g.Weight(u, v); u != v && !dup {
			g.AddEdge(u, v, 0.1+rng.Float64())
		}
	}
	return g
}

// TestCSRMatchesGraphDijkstra: the CSR all-pairs matrix must be
// bit-identical (not just approximately equal) to per-source
// Graph.Dijkstra — the routing determinism contract depends on the two
// producing the same float64 values, which requires the same relaxation
// order.
func TestCSRMatchesGraphDijkstra(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20, 40} {
		g := randomConnectedGraph(n, n, int64(n))
		got := g.CSR().AllPairsDijkstra()
		for src := 0; src < n; src++ {
			want, _ := g.Dijkstra(src)
			for v := 0; v < n; v++ {
				if got[src][v] != want[v] {
					t.Fatalf("n=%d dist[%d][%d]: CSR %v, Graph %v", n, src, v, got[src][v], want[v])
				}
			}
		}
	}
}

// TestCSRMatchesGraphHops: same contract for the BFS hop matrices, against
// per-source Graph.Dijkstra over unit weights (sums of 1.0 are exact).
func TestCSRMatchesGraphHops(t *testing.T) {
	for _, n := range []int{1, 2, 5, 20, 40} {
		g := randomConnectedGraph(n, n/2, int64(n)+100)
		got := g.CSR().AllPairsHops()
		unit := New(n)
		for _, e := range g.Edges() {
			unit.AddEdge(e.U, e.V, 1)
		}
		for u := 0; u < n; u++ {
			want, _ := unit.Dijkstra(u)
			for v := 0; v < n; v++ {
				if got[u][v] != want[v] {
					t.Fatalf("n=%d hops[%d][%d]: CSR %v, Graph %v", n, u, v, got[u][v], want[v])
				}
			}
		}
	}
}

// TestCSRScratchReuse: DijkstraInto with reused scratch buffers must give
// the same answers as a fresh run — the all-pairs builders reuse one heap
// and done slice across every source.
func TestCSRScratchReuse(t *testing.T) {
	g := randomConnectedGraph(15, 10, 7)
	c := g.CSR()
	dist := make([]float64, c.N())
	done := make([]bool, c.N())
	h := make([]pqItem, 0, c.N())
	for pass := 0; pass < 2; pass++ { // second pass runs on dirty scratch
		for src := 0; src < c.N(); src++ {
			c.DijkstraInto(src, dist, done, &h)
			want, _ := g.Dijkstra(src)
			for v := range dist {
				if dist[v] != want[v] {
					t.Fatalf("pass %d src %d node %d: %v vs %v", pass, src, v, dist[v], want[v])
				}
			}
		}
	}
}

// TestCSRDisconnected: unreachable nodes must read Inf in both builders.
func TestCSRDisconnected(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(2, 3, 1)
	c := g.CSR()
	d := c.AllPairsDijkstra()
	hp := c.AllPairsHops()
	if d[0][2] != Inf || d[3][1] != Inf || hp[0][3] != Inf {
		t.Fatalf("expected Inf across components, got d02=%v d31=%v h03=%v", d[0][2], d[3][1], hp[0][3])
	}
	if d[0][1] != 1 || hp[2][3] != 1 {
		t.Fatalf("within-component distances wrong: %v %v", d[0][1], hp[2][3])
	}
}
