package graphx

import "fmt"

// pqItem is an entry in the Dijkstra priority queues (Graph and CSR),
// ordered by distance, then node index, then hop count; hops is 0 outside
// the hop-constrained search.
type pqItem struct {
	dist       float64
	node, hops int32
}

func pqLess(a, b pqItem) bool {
	if a.dist != b.dist {
		return a.dist < b.dist
	}
	if a.node != b.node {
		return a.node < b.node
	}
	return a.hops < b.hops
}

func pqPush(h *[]pqItem, it pqItem) {
	*h = append(*h, it)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !pqLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func pqPop(h *[]pqItem) pqItem {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old = old[:n]
	*h = old
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < n && pqLess(old[l], old[s]) {
			s = l
		}
		if r < n && pqLess(old[r], old[s]) {
			s = r
		}
		if s == i {
			break
		}
		old[i], old[s] = old[s], old[i]
		i = s
	}
	return top
}

// Dijkstra returns the minimum total edge weight from src to every node and
// a predecessor array for path reconstruction (prev[src] == -1; prev[v] ==
// -1 also marks unreachable nodes). Edge weights must be non-negative.
func (g *Graph) Dijkstra(src int) (dist []float64, prev []int) {
	g.check(src)
	dist = make([]float64, g.n)
	prev = make([]int, g.n)
	done := make([]bool, g.n)
	for i := range dist {
		dist[i] = Inf
		prev[i] = -1
	}
	dist[src] = 0
	q := []pqItem{{node: int32(src)}}
	for len(q) > 0 {
		u := int(pqPop(&q).node)
		if done[u] {
			continue
		}
		done[u] = true
		for i, v := range g.nbr[u] {
			w := g.wts[u][i]
			if w < 0 {
				panic(fmt.Sprintf("graphx: negative edge weight %v on %d-%d", w, u, v))
			}
			if nd := dist[u] + w; nd < dist[v] {
				dist[v] = nd
				prev[v] = u
				pqPush(&q, pqItem{node: int32(v), dist: nd})
			}
		}
	}
	return dist, prev
}

// ShortestPath returns the minimum-weight path from src to dst as a node
// sequence including both endpoints, and its total weight. ok is false when
// dst is unreachable.
func (g *Graph) ShortestPath(src, dst int) (path []int, weight float64, ok bool) {
	dist, prev := g.Dijkstra(src)
	if dist[dst] == Inf {
		return nil, Inf, false
	}
	return reconstruct(prev, src, dst), dist[dst], true
}

func reconstruct(prev []int, src, dst int) []int {
	var rev []int
	for v := dst; v != -1; v = prev[v] {
		rev = append(rev, v)
		if v == src {
			break
		}
	}
	// Reverse in place.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// ConstrainedDijkstra returns, for every node v, the minimum total edge
// weight of a src→v path using at most maxHops edges (Inf when no such path
// exists), together with one witness path per reachable node. The search
// state is (node, hops), so a longer-hop but cheaper prefix is explored
// independently of a shorter-hop costlier one.
//
// This is the engine behind the paper's hop-limited VQM: route reliability
// is maximized subject to "extra hops ≤ MAH".
func (g *Graph) ConstrainedDijkstra(src, maxHops int) (dist []float64, paths [][]int) {
	g.check(src)
	if maxHops < 0 {
		maxHops = 0
	}
	// best[v][h] = cheapest cost to reach v using exactly ≤ indexed hops.
	best := make([][]float64, g.n)
	prevNode := make([][]int, g.n)
	for v := range best {
		best[v] = make([]float64, maxHops+1)
		prevNode[v] = make([]int, maxHops+1)
		for h := 0; h <= maxHops; h++ {
			best[v][h] = Inf
			prevNode[v][h] = -1
		}
	}
	best[src][0] = 0
	q := []pqItem{{node: int32(src)}}
	for len(q) > 0 {
		it := pqPop(&q)
		u, h := int(it.node), int(it.hops)
		if it.dist > best[u][h] {
			continue
		}
		if h == maxHops {
			continue
		}
		for i, v := range g.nbr[u] {
			if nd := it.dist + g.wts[u][i]; nd < best[v][h+1] {
				best[v][h+1] = nd
				prevNode[v][h+1] = u
				pqPush(&q, pqItem{node: int32(v), hops: int32(h + 1), dist: nd})
			}
		}
	}
	dist = make([]float64, g.n)
	paths = make([][]int, g.n)
	for v := 0; v < g.n; v++ {
		bestH, bestD := -1, Inf
		for h := 0; h <= maxHops; h++ {
			if best[v][h] < bestD {
				bestD = best[v][h]
				bestH = h
			}
		}
		dist[v] = bestD
		if bestH >= 0 {
			// Walk back through (node, hop) states.
			rev := []int{v}
			node, h := v, bestH
			for node != src || h != 0 {
				p := prevNode[node][h]
				if p == -1 {
					break
				}
				rev = append(rev, p)
				node, h = p, h-1
			}
			for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
				rev[i], rev[j] = rev[j], rev[i]
			}
			paths[v] = rev
		}
	}
	return dist, paths
}
