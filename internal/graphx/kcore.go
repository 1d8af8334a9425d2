package graphx

import "slices"

// CoreNumbers computes the k-core decomposition of the graph using the
// O(m) bucket algorithm of Batagelj and Zaversnik (the algorithm the paper
// cites for VQA's strongest-subgraph selection). The returned slice maps
// each node to its core number: the largest k such that the node belongs to
// a maximal subgraph where every node has degree ≥ k.
func (g *Graph) CoreNumbers() []int {
	n := g.n
	core := make([]int, n)
	if n == 0 {
		return core
	}
	deg := make([]int, n)
	maxDeg := 0
	for v := 0; v < n; v++ {
		deg[v] = len(g.nbr[v])
		if deg[v] > maxDeg {
			maxDeg = deg[v]
		}
	}
	// Bucket sort nodes by degree.
	bin := make([]int, maxDeg+2) // bin[d] = start index of degree-d block
	for v := 0; v < n; v++ {
		bin[deg[v]+1]++
	}
	for d := 1; d < len(bin); d++ {
		bin[d] += bin[d-1]
	}
	pos := make([]int, n)  // pos[v] = index of v in vert
	vert := make([]int, n) // nodes sorted by current degree
	fill := make([]int, maxDeg+1)
	copy(fill, bin[:maxDeg+1])
	for v := 0; v < n; v++ {
		pos[v] = fill[deg[v]]
		vert[pos[v]] = v
		fill[deg[v]]++
	}

	for i := 0; i < n; i++ {
		v := vert[i]
		core[v] = deg[v]
		for _, u := range g.nbr[v] {
			if deg[u] > deg[v] {
				// Move u one bucket down: swap it with the first node of
				// its current degree block, then shrink the block.
				du := deg[u]
				pu := pos[u]
				pw := bin[du]
				w := vert[pw]
				if u != w {
					pos[u], pos[w] = pw, pu
					vert[pu], vert[pw] = w, u
				}
				bin[du]++
				deg[u]--
			}
		}
	}
	return core
}

// KCore returns the nodes whose core number is at least k, in ascending
// order.
func (g *Graph) KCore(k int) []int {
	core := g.CoreNumbers()
	var out []int
	for v, c := range core {
		if c >= k {
			out = append(out, v)
		}
	}
	return out
}

// StrongestSubgraph finds a connected induced subgraph with exactly k nodes
// that (approximately) maximizes the Aggregate Node Strength: the sum over
// member nodes of the induced-subgraph node strength (Σ_i Σ_j∈SG w_ij).
// This is the selection step of Variation-Aware Qubit Allocation.
//
// Exact maximization is NP-hard, so the search is a deterministic greedy
// expansion seeded from every node: repeatedly add the outside node that
// contributes the largest total edge weight into the current set. The best
// candidate across all seeds is returned along with its aggregate strength.
// On small random graphs it reaches at least 85% of the exhaustive optimum
// (TestStrongestSubgraphMatchesExhaustiveSmall); on zoo lattices of
// hundreds of qubits, where exhaustive search is out of reach, each seed
// costs O(k·(frontier + degree²)), so all n seeds stay cheap.
//
// The nodes slice is nil when the graph has fewer than k nodes reachable
// from any seed.
func (g *Graph) StrongestSubgraph(k int) (nodes []int, ans float64) {
	if k <= 0 || k > g.n {
		return nil, 0
	}
	bestANS := -1.0
	var best []int
	in, queued, gain := make([]bool, g.n), make([]bool, g.n), make([]float64, g.n)
	for seed := 0; seed < g.n; seed++ {
		clear(in)
		clear(queued)
		set, ok := g.greedyExpand(seed, k, in, queued, gain)
		if !ok {
			continue
		}
		s := g.AggregateNodeStrength(set)
		if s > bestANS {
			bestANS = s
			best = set
		}
	}
	if best == nil {
		return nil, 0
	}
	slices.Sort(best)
	return best, bestANS
}

// greedyExpand grows a connected set from seed to size k by adding, at each
// step, the frontier node with the largest total edge weight into the set
// (ties broken by node id for determinism). in, queued (both cleared) and
// gain are scratch of length N. Joining a node changes only its
// neighbours' gains; each is resummed in ascending neighbour order, the
// same float sum a full rescan takes, and the argmax is order-free.
func (g *Graph) greedyExpand(seed, k int, in, queued []bool, gain []float64) ([]int, bool) {
	set := make([]int, 0, k)
	var front []int
	for v := seed; ; {
		in[v] = true
		set = append(set, v)
		if len(set) == k {
			return set, true
		}
		for _, x := range g.nbr[v] {
			if in[x] {
				continue
			}
			if !queued[x] {
				queued[x] = true
				front = append(front, x)
			}
			s := 0.0
			for i, y := range g.nbr[x] {
				if in[y] {
					s += g.wts[x][i]
				}
			}
			gain[x] = s
		}
		bestI, bestV, bestGain := -1, -1, -1.0
		for i, x := range front {
			if gain[x] > bestGain || (gain[x] == bestGain && x < bestV) {
				bestI, bestV, bestGain = i, x, gain[x]
			}
		}
		if bestI == -1 {
			return nil, false // component exhausted before reaching k
		}
		v = bestV
		front[bestI] = front[len(front)-1]
		front = front[:len(front)-1]
	}
}

// AggregateNodeStrength returns Σ_{i∈nodes} Σ_{j∈nodes, j≠i} w_ij — twice
// the total induced edge weight, matching the paper's ANS definition
// (each edge counted from both endpoints). Terms are added in the order of
// nodes, each node's neighbours ascending.
func (g *Graph) AggregateNodeStrength(nodes []int) float64 {
	in := make([]bool, g.n)
	for _, u := range nodes {
		in[u] = true
	}
	total := 0.0
	for _, u := range nodes {
		for i, v := range g.nbr[u] {
			if in[v] {
				total += g.wts[u][i]
			}
		}
	}
	return total
}
