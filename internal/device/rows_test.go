package device

import (
	"math"
	"testing"

	"vaq/internal/calib"
)

// rowsTestDevices are the machines the lazy-row tests cover: the paper's
// IBM-Q20 and two heavy-hex zoo devices, one with coupler holes. -short
// skips the 1000-qubit one, whose eager Dijkstra table dominates a
// race-detector run.
func rowsTestDevices(t *testing.T) []*Device {
	t.Helper()
	q20 := calib.Generate(calib.DefaultQ20Config(2019))
	out := []*Device{MustNew(q20.Topo, q20.MustMean())}
	names := []string{"heavy-hex-399-holes8-mid", "heavy-hex-1000-mid"}
	if testing.Short() {
		names = names[:1]
	}
	for _, name := range names {
		arch, err := calib.ZooArchive(name, 2019)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, MustNew(arch.Topo, arch.MustMean()))
	}
	return out
}

// TestLazyRowsMatchEagerTables: every row of HopMatrix and CostMatrix
// equals the eager CSR.AllPairsHops / AllPairsDijkstra table bit for bit.
// It also pins what Greedy relies on: hop counts are exactly symmetric
// (Greedy reads the partner's row at phys, not phys's row), and
// HopCentrality equals the row-mean formula it replaced.
func TestLazyRowsMatchEagerTables(t *testing.T) {
	for _, d := range rowsTestDevices(t) {
		n := d.NumQubits()
		hops := d.HopGraph().CSR().AllPairsHops()
		cost := d.CostGraph().CSR().AllPairsDijkstra()
		for a := 0; a < n; a++ {
			lh, lc := d.HopMatrix().Row(a), d.CostMatrix().Row(a)
			for b := 0; b < n; b++ {
				if math.Float64bits(lh[b]) != math.Float64bits(hops[a][b]) {
					t.Fatalf("%s: HopMatrix().Row(%d)[%d] = %v, eager %v", d.Topology().Name, a, b, lh[b], hops[a][b])
				}
				if math.Float64bits(lc[b]) != math.Float64bits(cost[a][b]) {
					t.Fatalf("%s: CostMatrix().Row(%d)[%d] = %v, eager %v", d.Topology().Name, a, b, lc[b], cost[a][b])
				}
				if math.Float64bits(hops[a][b]) != math.Float64bits(hops[b][a]) {
					t.Fatalf("%s: hops[%d][%d] = %v but hops[%d][%d] = %v", d.Topology().Name, a, b, hops[a][b], b, a, hops[b][a])
				}
			}
		}
		centrality := d.HopCentrality()
		for phys, row := range hops {
			sum := 0.0
			for _, h := range row {
				sum += h
			}
			if want := sum / float64(n); math.Float64bits(centrality[phys]) != math.Float64bits(want) {
				t.Fatalf("%s: HopCentrality()[%d] = %v, row-mean formula %v", d.Topology().Name, phys, centrality[phys], want)
			}
		}
	}
}
