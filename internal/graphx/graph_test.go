package graphx

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestNewEmptyGraph(t *testing.T) {
	g := New(5)
	if g.N() != 5 {
		t.Fatalf("N() = %d, want 5", g.N())
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges() = %d, want 0", g.NumEdges())
	}
	if len(g.Edges()) != 0 {
		t.Fatalf("Edges() non-empty on fresh graph")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestAddEdgeSymmetric(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 2, 1.5)
	w, ok := g.Weight(2, 0)
	if !ok || w != 1.5 {
		t.Fatalf("Weight(2,0) = %v,%v; want 1.5,true", w, ok)
	}
	if w, ok := g.Weight(0, 2); !ok || w != 1.5 {
		t.Fatal("edge not symmetric")
	}
}

func TestAddEdgeOverwrites(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 9)
	if w, _ := g.Weight(0, 1); w != 9 {
		t.Fatalf("weight = %v, want 9 after overwrite", w)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	New(2).AddEdge(1, 1, 1)
}

func TestHasEdgeOutOfRange(t *testing.T) {
	g := New(2)
	for _, uv := range [][2]int{{-1, 0}, {0, 5}, {7, 0}} {
		if _, ok := g.Weight(uv[0], uv[1]); ok {
			t.Fatalf("out-of-range Weight%v returned ok", uv)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := New(5)
	g.AddEdge(2, 4, 1)
	g.AddEdge(2, 0, 1)
	g.AddEdge(2, 3, 1)
	want := []int{0, 3, 4}
	if got := g.Neighbors(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(2) = %v, want %v", got, want)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g := New(4)
	g.AddEdge(3, 1, 0.3)
	g.AddEdge(0, 2, 0.1)
	g.AddEdge(0, 1, 0.2)
	want := []Edge{{0, 1, 0.2}, {0, 2, 0.1}, {1, 3, 0.3}}
	if got := g.Edges(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Edges() = %v, want %v", got, want)
	}
}

func TestConnected(t *testing.T) {
	g := New(5)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	if g.Connected(nil) {
		t.Fatal("whole graph reported connected despite two components")
	}
	if !g.Connected([]int{0, 1, 2}) {
		t.Fatal("{0,1,2} should be connected")
	}
	if g.Connected([]int{0, 1, 3}) {
		t.Fatal("{0,1,3} should be disconnected")
	}
	if !g.Connected([]int{}) || !g.Connected([]int{2}) {
		t.Fatal("empty and singleton sets should be connected")
	}
}

func TestConnectedEmptyGraph(t *testing.T) {
	if !New(0).Connected(nil) {
		t.Fatal("empty graph should be connected")
	}
}

func path(n int) *Graph {
	g := New(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, 1)
	}
	return g
}

func TestHopDistancesPath(t *testing.T) {
	g := path(5)
	d := g.CSR().AllPairsHops()[0]
	for i := 0; i < 5; i++ {
		if d[i] != float64(i) {
			t.Fatalf("hop dist to %d = %v, want %d", i, d[i], i)
		}
	}
}

func TestHopDistancesUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	d := g.CSR().AllPairsHops()[0]
	if !math.IsInf(d[2], 1) {
		t.Fatalf("unreachable node distance = %v, want +Inf", d[2])
	}
}

func TestAllPairsHopsSymmetric(t *testing.T) {
	g := path(6)
	m := g.CSR().AllPairsHops()
	for u := 0; u < 6; u++ {
		for v := 0; v < 6; v++ {
			if m[u][v] != m[v][u] {
				t.Fatalf("hop matrix asymmetric at (%d,%d)", u, v)
			}
		}
	}
}

func TestDijkstraPrefersCheaperLongerRoute(t *testing.T) {
	// Figure 1 of the paper: direct 2-hop route A-B-C is worse than the
	// 3-hop route A-E-D-C when weights encode failure cost.
	g := New(5) // A=0 B=1 C=2 D=3 E=4
	g.AddEdge(0, 1, 5)
	g.AddEdge(1, 2, 5)
	g.AddEdge(0, 4, 1)
	g.AddEdge(4, 3, 1)
	g.AddEdge(3, 2, 1)
	pathN, w, ok := g.ShortestPath(0, 2)
	if !ok {
		t.Fatal("no path found")
	}
	if w != 3 {
		t.Fatalf("weight = %v, want 3", w)
	}
	if want := []int{0, 4, 3, 2}; !reflect.DeepEqual(pathN, want) {
		t.Fatalf("path = %v, want %v", pathN, want)
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	if _, _, ok := g.ShortestPath(0, 3); ok {
		t.Fatal("found path to unreachable node")
	}
	dist, prev := g.Dijkstra(0)
	if !math.IsInf(dist[3], 1) || prev[3] != -1 {
		t.Fatal("unreachable node has finite dist or predecessor")
	}
}

func TestDijkstraNegativeWeightPanics(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, -1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative weight did not panic")
		}
	}()
	g.Dijkstra(0)
}

func TestDijkstraSelfDistanceZero(t *testing.T) {
	g := path(3)
	dist, _ := g.Dijkstra(1)
	if dist[1] != 0 {
		t.Fatalf("dist[src] = %v, want 0", dist[1])
	}
}

func TestConstrainedDijkstraRespectsHopLimit(t *testing.T) {
	// Cheap route needs 3 hops; expensive direct route needs 1.
	g := New(4)
	g.AddEdge(0, 3, 10)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)

	dist, paths := g.ConstrainedDijkstra(0, 3)
	if dist[3] != 3 {
		t.Fatalf("maxHops=3: dist = %v, want 3 (cheap route)", dist[3])
	}
	if want := []int{0, 1, 2, 3}; !reflect.DeepEqual(paths[3], want) {
		t.Fatalf("maxHops=3: path = %v, want %v", paths[3], want)
	}

	dist, paths = g.ConstrainedDijkstra(0, 1)
	if dist[3] != 10 {
		t.Fatalf("maxHops=1: dist = %v, want 10 (forced direct)", dist[3])
	}
	if want := []int{0, 3}; !reflect.DeepEqual(paths[3], want) {
		t.Fatalf("maxHops=1: path = %v, want %v", paths[3], want)
	}

	dist, _ = g.ConstrainedDijkstra(0, 0)
	if !math.IsInf(dist[3], 1) {
		t.Fatalf("maxHops=0: dist = %v, want Inf", dist[3])
	}
	if dist[0] != 0 {
		t.Fatalf("maxHops=0: self dist = %v, want 0", dist[0])
	}
}

func TestConstrainedDijkstraMatchesUnconstrainedWhenLoose(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 6 + rng.Intn(6)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.45 {
					g.AddEdge(u, v, 0.1+rng.Float64())
				}
			}
		}
		free, _ := g.Dijkstra(0)
		limited, _ := g.ConstrainedDijkstra(0, n) // n hops can never bind
		for v := 0; v < n; v++ {
			if math.Abs(free[v]-limited[v]) > 1e-9 &&
				!(math.IsInf(free[v], 1) && math.IsInf(limited[v], 1)) {
				t.Fatalf("trial %d node %d: unconstrained %v != loose-constrained %v",
					trial, v, free[v], limited[v])
			}
		}
	}
}

func TestDijkstraTriangleInequalityProperty(t *testing.T) {
	// Property: for random graphs, dist(a,c) ≤ dist(a,b) + dist(b,c).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(8)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(u, v, rng.Float64()+0.01)
				}
			}
		}
		m := g.CSR().AllPairsDijkstra()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					if m[a][c] > m[a][b]+m[b][c]+1e-9 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDijkstraSymmetryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(9)
		g := New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < 0.4 {
					g.AddEdge(u, v, rng.Float64())
				}
			}
		}
		m := g.CSR().AllPairsDijkstra()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				du, dv := m[u][v], m[v][u]
				if math.IsInf(du, 1) != math.IsInf(dv, 1) {
					return false
				}
				if !math.IsInf(du, 1) && math.Abs(du-dv) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestShortestPathEndpoints(t *testing.T) {
	g := path(4)
	p, w, ok := g.ShortestPath(0, 3)
	if !ok || w != 3 {
		t.Fatalf("ShortestPath = %v,%v,%v", p, w, ok)
	}
	if p[0] != 0 || p[len(p)-1] != 3 {
		t.Fatalf("path endpoints wrong: %v", p)
	}
	p, w, ok = g.ShortestPath(2, 2)
	if !ok || w != 0 || len(p) != 1 || p[0] != 2 {
		t.Fatalf("trivial path = %v,%v,%v", p, w, ok)
	}
}

// TestStrengthSumsAreBitStable: 1 + 1e-16 + 1e-16 rounds to 1 when the 1
// comes first and to 1+2⁻⁵² when it comes last, so a strength summed in
// map-iteration order changed bits from call to call. Sums now run in
// ascending neighbour order and must repeat exactly.
func TestStrengthSumsAreBitStable(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1e-16)
	g.AddEdge(0, 3, 1e-16)
	all := []int{0, 1, 2, 3}
	a0 := math.Float64bits(g.AggregateNodeStrength(all))
	for i := 0; i < 500; i++ {
		if a := math.Float64bits(g.AggregateNodeStrength(all)); a != a0 {
			t.Fatalf("call %d: AggregateNodeStrength bits %#x, first call %#x", i, a, a0)
		}
	}
}

// TestNeighborsViewIsReadOnly: Neighbors returns the graph's own sorted
// adjacency, so appending to the result must copy instead of writing into
// the graph's spare capacity (where a second view, or the next AddEdge,
// would see it).
func TestNeighborsViewIsReadOnly(t *testing.T) {
	g := New(6)
	g.AddEdge(2, 4, 1)
	g.AddEdge(2, 0, 2)
	g.AddEdge(2, 3, 3) // three inserts leave spare capacity behind
	before := g.Edges()
	a := append(g.Neighbors(2), 5)
	b := append(g.Neighbors(2), 1)
	if a[3] != 5 || b[3] != 1 {
		t.Fatalf("appends to two views alias: %v %v", a, b)
	}
	if got := g.Neighbors(2); !reflect.DeepEqual(got, []int{0, 3, 4}) {
		t.Fatalf("Neighbors(2) = %v after appending to views", got)
	}
	if got := g.Edges(); !reflect.DeepEqual(got, before) {
		t.Fatalf("Edges() = %v after appending to views, want %v", got, before)
	}
	g.AddEdge(2, 5, 4)
	if a[3] != 5 || !reflect.DeepEqual(g.Neighbors(2), []int{0, 3, 4, 5}) {
		t.Fatalf("AddEdge after appends: view %v, Neighbors(2) %v", a, g.Neighbors(2))
	}
}
