package graphx

import "slices"

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
