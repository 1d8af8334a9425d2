package graphx_test

import (
	"fmt"
	"math"
	"testing"

	"vaq/internal/topo"
)

// TestUnitDijkstraEqualsHops pins the identity the routing cost tables
// rely on: on a unit-weight coupling graph, the all-pairs Dijkstra matrix
// is bit-for-bit the BFS hop matrix (sums of 1.0 are exact integers, and
// unreachable pairs are +Inf in both). The hop cost model therefore
// reuses the device's hop matrix as its distance table instead of running
// Dijkstra. Covered: the named IBM machines and every zoo family across
// its size range up to 1000 qubits, with and without coupler holes.
// -short skips the lattices above 399 qubits and the dense all-to-all
// ones, whose O(n·|E|) Dijkstra dominates a race-detector run.
func TestUnitDijkstraEqualsHops(t *testing.T) {
	tops := []*topo.Topology{topo.IBMQ5(), topo.IBMQ16(), topo.IBMQ20()}
	var names []string
	for _, f := range topo.Families() {
		for _, n := range []int{f.MinQubits, 20, 100, 399, 1000, f.MaxQubits} {
			if n < f.MinQubits || n > f.MaxQubits || n > 1000 {
				continue
			}
			base := fmt.Sprintf("%s-%d", f.Name, n)
			names = append(names, base, base+"-holes1", base+"-holes5")
		}
	}
	for _, name := range names {
		tp, err := topo.ByName(name)
		if err != nil {
			continue // a lattice that cannot spare that many couplers (a ring)
		}
		tops = append(tops, tp)
	}
	for _, tp := range tops {
		if testing.Short() && (tp.NumQubits > 399 || len(tp.Couplings) > 8*tp.NumQubits) {
			continue
		}
		c := tp.Graph(1).CSR()
		dist, hops := c.AllPairsDijkstra(), c.AllPairsHops()
		for a := range dist {
			for b := range dist[a] {
				if math.Float64bits(dist[a][b]) != math.Float64bits(hops[a][b]) {
					t.Fatalf("%s: unit Dijkstra [%d][%d] = %v, hops %v", tp.Name, a, b, dist[a][b], hops[a][b])
				}
			}
		}
	}
}
