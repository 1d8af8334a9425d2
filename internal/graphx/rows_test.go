package graphx_test

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vaq/internal/graphx"
	"vaq/internal/topo"
)

// weightedHeavyHex is heavy-hex-399 with seeded continuous edge weights,
// so Dijkstra rows exercise real floating-point sums.
func weightedHeavyHex(t testing.TB) *graphx.CSR {
	t.Helper()
	tp, err := topo.ByName("heavy-hex-399-holes8")
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	g := graphx.New(tp.NumQubits)
	for _, c := range tp.Couplings {
		g.AddEdge(c.A, c.B, 0.05+rng.Float64())
	}
	return g.CSR()
}

// sameBits reports whether two rows are bitwise equal.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestRowsFirstTouchConcurrent: GOMAXPROCS×4 goroutines first-touch the
// same rows at once, in different orders. Every row must be built once
// (all readers see the same backing array, and Filled counts each row
// once) and match the eager table bit for bit. Run under -race this is
// the check that the per-row sync.Once publishes rows safely.
func TestRowsFirstTouchConcurrent(t *testing.T) {
	c := weightedHeavyHex(t)
	n := c.N()
	want := map[bool][][]float64{false: c.AllPairsDijkstra(), true: c.AllPairsHops()}
	for _, hops := range []bool{false, true} {
		rows := c.DijkstraRows()
		if hops {
			rows = c.HopRows()
		}
		touched := []int{0, 1, n / 2, n - 1, 17, 200}
		workers := 4 * runtime.GOMAXPROCS(0)
		got := make([][][]float64, workers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				<-start
				got[w] = make([][]float64, len(touched))
				for i := range touched {
					j := (i + w) % len(touched) // staggered order
					got[w][j] = rows.Row(touched[j])
				}
			}(w)
		}
		close(start)
		wg.Wait()
		if rows.Filled() != len(touched) {
			t.Fatalf("hops=%v: Filled = %d after touching %d rows", hops, rows.Filled(), len(touched))
		}
		for j, src := range touched {
			if !sameBits(got[0][j], want[hops][src]) {
				t.Fatalf("hops=%v: lazy row %d differs from the eager table", hops, src)
			}
			for w := 1; w < workers; w++ {
				if &got[w][j][0] != &got[0][j][0] {
					t.Fatalf("hops=%v: row %d was built more than once", hops, src)
				}
			}
		}
	}
}

// TestRowsFilledCountsOnlyTouchedRows: a fresh table has built nothing,
// and re-reading a row does not rebuild it.
func TestRowsFilledCountsOnlyTouchedRows(t *testing.T) {
	c := weightedHeavyHex(t)
	rows := c.DijkstraRows()
	if rows.Filled() != 0 {
		t.Fatalf("fresh table: Filled = %d, want 0", rows.Filled())
	}
	first := rows.Row(5)
	if again := rows.Row(5); &again[0] != &first[0] || rows.Filled() != 1 {
		t.Fatalf("re-read rebuilt the row: Filled = %d", rows.Filled())
	}
}

// BenchmarkRowsFirstTouch compares building the k rows a heavy-hex-1000
// compile reads (k = 16, a BV-16 placement) lazily against the eager
// all-pairs Dijkstra table it replaces.
func BenchmarkRowsFirstTouch(b *testing.B) {
	tp, err := topo.ByName("heavy-hex-1000")
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	g := graphx.New(tp.NumQubits)
	for _, c := range tp.Couplings {
		g.AddEdge(c.A, c.B, 0.05+rng.Float64())
	}
	c := g.CSR()
	const k = 16
	b.Run("lazy-k16", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rows := c.DijkstraRows()
			for src := 0; src < k; src++ {
				rows.Row(src * (c.N() / k))
			}
		}
	})
	b.Run("all-pairs", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.AllPairsDijkstra()
		}
	})
}
