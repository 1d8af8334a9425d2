// Package graphx provides the weighted-graph machinery that underpins every
// qubit-allocation and qubit-movement policy in this repository: shortest
// paths by hop count and by arbitrary edge weight, hop-constrained shortest
// paths (for the Maximum Additional Hops limit of VQM), all-pairs distance
// matrices, and search for the connected k-subgraph with the highest
// aggregate node strength.
//
// Graphs range from the paper's 5- and 20-qubit machines to zoo lattices
// of up to 2048 qubits. Adjacency is kept as per-node slices sorted by
// node id, so traversals walk neighbours in a fixed order without
// allocating; everything is deterministic, down to the bits of every
// float sum.
package graphx

import (
	"fmt"
	"math"
	"slices"
)

// Graph is an undirected graph with float64 edge weights. Nodes are the
// integers [0, N). Parallel edges are not allowed; re-adding an edge
// overwrites its weight. The zero Graph is not usable; construct with New.
//
// Each node keeps its neighbours in a slice sorted by node id, with the
// matching edge weights in a parallel slice, so every traversal visits
// neighbours in ascending order without sorting or allocating, and every
// float sum over a neighbourhood is taken in one fixed order.
type Graph struct {
	n   int
	nbr [][]int     // nbr[u]: neighbours of u, ascending
	wts [][]float64 // wts[u][i]: weight of the edge u–nbr[u][i]
}

// New returns an empty graph with n nodes and no edges.
func New(n int) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graphx: negative node count %d", n))
	}
	return &Graph{n: n, nbr: make([][]int, n), wts: make([][]float64, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// AddEdge inserts (or updates) the undirected edge u–v with weight w.
// Self-loops are rejected.
func (g *Graph) AddEdge(u, v int, w float64) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graphx: self-loop on node %d", u))
	}
	g.link(u, v, w)
	g.link(v, u, w)
}

// link sets the weight of v in u's neighbour list, inserting v in order
// when absent.
func (g *Graph) link(u, v int, w float64) {
	i, ok := slices.BinarySearch(g.nbr[u], v)
	if ok {
		g.wts[u][i] = w
		return
	}
	if g.nbr[u] == nil {
		// Coupling maps rarely exceed degree 8 (IBM-Q20 peaks at 6): one
		// allocation per slice covers a node instead of growing through
		// capacities 1, 2, 4 and 8.
		g.nbr[u], g.wts[u] = make([]int, 0, 8), make([]float64, 0, 8)
	}
	g.nbr[u] = slices.Insert(g.nbr[u], i, v)
	g.wts[u] = slices.Insert(g.wts[u], i, w)
}

// Weight returns the weight of edge u–v and whether the edge exists.
func (g *Graph) Weight(u, v int) (float64, bool) {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return 0, false
	}
	if i, ok := slices.BinarySearch(g.nbr[u], v); ok {
		return g.wts[u][i], true
	}
	return 0, false
}

// Neighbors returns the neighbors of u in ascending order. The slice is a
// read-only view of the graph's own adjacency, valid until the graph is
// next modified; its capacity is capped, so appending to it copies rather
// than writing into the graph.
func (g *Graph) Neighbors(u int) []int {
	g.check(u)
	return g.nbr[u][:len(g.nbr[u]):len(g.nbr[u])]
}

// Edge is an undirected edge with U < V and its weight.
type Edge struct {
	U, V int
	W    float64
}

// Edges returns every undirected edge exactly once (U < V), ordered by
// (U, V) for determinism.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for u := 0; u < g.n; u++ {
		for i, v := range g.nbr[u] {
			if u < v {
				out = append(out, Edge{U: u, V: v, W: g.wts[u][i]})
			}
		}
	}
	return out
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int {
	total := 0
	for _, nb := range g.nbr {
		total += len(nb)
	}
	return total / 2
}

// Connected reports whether the subgraph induced by nodes (or the whole
// graph when nodes is nil) is connected. An empty node set is considered
// connected.
func (g *Graph) Connected(nodes []int) bool {
	var in []bool
	start, want := 0, g.n
	if nodes != nil {
		in = make([]bool, g.n)
		for _, u := range nodes {
			g.check(u)
			in[u] = true
		}
		want = len(nodes)
		if want > 0 {
			start = nodes[0]
		}
	}
	if want == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []int{start}
	seen[start] = true
	count := 0
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, v := range g.nbr[u] {
			if seen[v] || (in != nil && !in[v]) {
				continue
			}
			seen[v] = true
			stack = append(stack, v)
		}
	}
	return count == want
}

// Inf is the distance reported between disconnected node pairs.
var Inf = math.Inf(1)

func (g *Graph) check(u int) {
	if u < 0 || u >= g.n {
		panic(fmt.Sprintf("graphx: node %d out of range [0,%d)", u, g.n))
	}
}
