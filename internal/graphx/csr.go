package graphx

// CSR is an immutable compressed-sparse-row snapshot of a Graph: for each
// node u, its neighbors (ascending) and edge weights live in
// dst[off[u]:off[u+1]] / wts[off[u]:off[u+1]]. It packs the Graph's
// per-node sorted slices into three flat arrays with int32 indices, so the
// all-pairs builders walk contiguous memory with zero allocations.
// Because it is immutable it is safe to share across goroutines.
//
// The traversal order (neighbors ascending, heap ties broken by node
// index) is that of the textbook Dijkstra the tests keep as a reference,
// so every distance here is bit-identical to its — a property the
// routing determinism tests rely on.
type CSR struct {
	n   int
	off []int32
	dst []int32
	wts []float64
}

// CSR builds the compressed snapshot of the graph's current adjacency.
func (g *Graph) CSR() *CSR {
	m := 2 * g.NumEdges()
	c := &CSR{n: g.n, off: make([]int32, g.n+1), dst: make([]int32, 0, m), wts: make([]float64, 0, m)}
	for u := 0; u < g.n; u++ {
		for _, v := range g.nbr[u] {
			c.dst = append(c.dst, int32(v))
		}
		c.wts = append(c.wts, g.wts[u]...)
		c.off[u+1] = int32(len(c.dst))
	}
	return c
}

// N returns the number of nodes.
func (c *CSR) N() int { return c.n }

// DijkstraInto computes the minimum total edge weight from src to every
// node into dist (len N), reusing done and heap as scratch. It pops
// nodes in (distance, node) order and relaxes only on strict
// improvement, neighbours ascending.
func (c *CSR) DijkstraInto(src int, dist []float64, done []bool, h *[]pqItem) {
	for i := range dist {
		dist[i] = Inf
		done[i] = false
	}
	dist[src] = 0
	*h = (*h)[:0]
	pqPush(h, pqItem{node: int32(src)})
	for len(*h) > 0 {
		u := pqPop(h).node
		if done[u] {
			continue
		}
		done[u] = true
		for i := c.off[u]; i < c.off[u+1]; i++ {
			v := c.dst[i]
			if nd := dist[u] + c.wts[i]; nd < dist[v] {
				dist[v] = nd
				pqPush(h, pqItem{node: v, dist: nd})
			}
		}
	}
}

// AllPairsDijkstra returns the full weighted distance matrix. The rows
// share one flat backing array (n²+n allocations become 2).
func (c *CSR) AllPairsDijkstra() [][]float64 {
	out, flat := flatMatrix(c.n)
	done := make([]bool, c.n)
	h := make([]pqItem, 0, c.n)
	for u := 0; u < c.n; u++ {
		c.DijkstraInto(u, flat[u*c.n:(u+1)*c.n], done, &h)
	}
	return out
}

// HopsInto computes minimum hop counts from src into dist (len N) by
// breadth-first search, reusing queue as scratch.
func (c *CSR) HopsInto(src int, dist []float64, queue *[]int32) {
	for i := range dist {
		dist[i] = Inf
	}
	dist[src] = 0
	q := (*queue)[:0]
	q = append(q, int32(src))
	for head := 0; head < len(q); head++ {
		u := q[head]
		for i := c.off[u]; i < c.off[u+1]; i++ {
			v := c.dst[i]
			if dist[v] == Inf {
				dist[v] = dist[u] + 1
				q = append(q, v)
			}
		}
	}
	*queue = q
}

// AllPairsHops returns the matrix of minimum hop counts, flat-backed.
func (c *CSR) AllPairsHops() [][]float64 {
	out, flat := flatMatrix(c.n)
	queue := make([]int32, 0, c.n)
	for u := 0; u < c.n; u++ {
		c.HopsInto(u, flat[u*c.n:(u+1)*c.n], &queue)
	}
	return out
}

// flatMatrix returns an n×n matrix whose rows view one backing slice.
func flatMatrix(n int) ([][]float64, []float64) {
	flat := make([]float64, n*n)
	out := make([][]float64, n)
	for i := range out {
		out[i] = flat[i*n : (i+1)*n]
	}
	return out, flat
}
