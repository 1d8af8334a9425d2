package route

import (
	"container/heap"
	"math"
	"slices"
	"testing"

	"vaq/internal/device"
	"vaq/internal/graphx"
	"vaq/internal/topo"
)

// refDijkstra is the reference search the path walk must agree with: a
// textbook Dijkstra from src whose heap pops (distance, node) in
// ascending order, relaxing neighbours in ascending order and only on
// strict improvement. It returns the predecessor of every node (-1 for
// src and unreachable nodes).
func refDijkstra(g *graphx.Graph, src int) []int {
	n := g.N()
	dist := make([]float64, n)
	prev := make([]int, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i], prev[i] = math.Inf(1), -1
	}
	dist[src] = 0
	q := &refQueue{{0, src}}
	for q.Len() > 0 {
		u := heap.Pop(q).(refItem).node
		if done[u] {
			continue
		}
		done[u] = true
		for _, v := range g.Neighbors(u) {
			w, _ := g.Weight(u, v)
			if nd := dist[u] + w; nd < dist[v] {
				dist[v], prev[v] = nd, u
				heap.Push(q, refItem{nd, v})
			}
		}
	}
	return prev
}

type refItem struct {
	dist float64
	node int
}

// refQueue is a container/heap min-heap of refItems by (dist, node).
type refQueue []refItem

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].dist != q[j].dist {
		return q[i].dist < q[j].dist
	}
	return q[i].node < q[j].node
}
func (q refQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)   { *q = append(*q, x.(refItem)) }
func (q *refQueue) Pop() any {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// reconstruct follows prev back from dst and returns the src→dst path,
// both endpoints included.
func reconstruct(prev []int, src, dst int) []int {
	path := []int{dst}
	for v := dst; v != src; v = prev[v] {
		path = append(path, prev[v])
	}
	slices.Reverse(path)
	return path
}

// TestWalkMatchesDijkstra: the path walk over the cached distance rows
// returns, for every (src, dst) pair, the path a Dijkstra search from
// src records, under both cost models. Under CostHops the reference runs
// on the device's unit-weight hop graph; under CostReliability on the
// swap-cost graph. The devices mix calibrated lattices with a uniform
// 300-qubit line, where every weight ties.
func TestWalkMatchesDijkstra(t *testing.T) {
	devices := []*device.Device{
		goldenQ20(),
		goldenZoo("heavy-hex-127-mid")(),
		goldenZoo("heavy-hex-399-holes8-mid")(),
		goldenZoo("grid-100-high")(),
		goldenZoo("ring-64")(),
		uniformDevice(topo.Linear(300), 0.01),
	}
	for _, d := range devices {
		for _, model := range []CostModel{CostHops, CostReliability} {
			cm := cachedCosts(d, model)
			ref := cm.graph
			if model == CostHops {
				ref = d.HopGraph()
			}
			// -short checks every eighth source on the large devices,
			// which keeps the race-detector pass to a few seconds.
			stride := 1
			if testing.Short() && cm.n > 128 {
				stride = 8
			}
			var buf []int
			pairs := 0
			for src := 0; src < cm.n; src += stride {
				prev := refDijkstra(ref, src)
				for dst := 0; dst < cm.n; dst++ {
					buf = cm.path(src, dst, buf)
					want := reconstruct(prev, src, dst)
					if !slices.Equal(buf, want) {
						t.Fatalf("%s/%v: path %d→%d = %v, Dijkstra records %v", d.Topology().Name, model, src, dst, buf, want)
					}
					if buf[0] != src || buf[len(buf)-1] != dst || (src == dst && len(buf) != 1) {
						t.Fatalf("%s/%v: path %d→%d = %v has wrong endpoints", d.Topology().Name, model, src, dst, buf)
					}
					pairs++
				}
			}
			t.Logf("%s/%v: %d pairs agree", d.Topology().Name, model, pairs)
		}
	}
}
