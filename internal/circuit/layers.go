package circuit

import "vaq/internal/gate"

// Layers partitions the circuit into dependency layers using an ASAP
// (as-soon-as-possible) schedule: gate i goes into layer
// 1 + max(layer of the latest preceding gate touching any of its qubits).
// Each returned layer is a list of indices into c.Gates whose operations
// are mutually independent and can execute in parallel. Barriers occupy no
// layer themselves but force every later gate on their qubits into deeper
// layers.
//
// This is step 3 of the baseline compiler (Zulehner et al.): the mapper
// works layer by layer, finding a SWAP set between consecutive layers.
func (c *Circuit) Layers() [][]int {
	var layers [][]int
	c.eachLayer(func(gi, layer int) {
		for len(layers) <= layer {
			layers = append(layers, nil)
		}
		layers[layer] = append(layers[layer], gi)
	})
	return layers
}

// depth returns the number of dependency layers of Layers, without
// building the layer lists.
func (c *Circuit) depth() int {
	n := 0
	c.eachLayer(func(_, layer int) { n = max(n, layer+1) })
	return n
}

// eachLayer calls visit(gi, layer) for every non-barrier gate in circuit
// order with the dependency layer Layers puts it in.
func (c *Circuit) eachLayer(visit func(gi, layer int)) {
	qubitLayer := make([]int, c.NumQubits) // next free layer per qubit
	for i, g := range c.Gates {
		earliest := 0
		for _, q := range g.Qubits {
			if qubitLayer[q] > earliest {
				earliest = qubitLayer[q]
			}
		}
		if g.Kind == gate.Barrier {
			for _, q := range g.Qubits {
				qubitLayer[q] = earliest
			}
			continue
		}
		visit(i, earliest)
		for _, q := range g.Qubits {
			qubitLayer[q] = earliest + 1
		}
	}
}

// InteractionCounts returns a NumQubits×NumQubits symmetric matrix whose
// (i,j) entry is the number of two-qubit gates acting on logical qubits i
// and j. Allocation policies use it to keep frequently entangled qubits
// adjacent.
func (c *Circuit) InteractionCounts() [][]int {
	m := make([][]int, c.NumQubits)
	for i := range m {
		m[i] = make([]int, c.NumQubits)
	}
	for _, g := range c.Gates {
		if g.Kind.TwoQubit() {
			a, b := g.Qubits[0], g.Qubits[1]
			m[a][b]++
			m[b][a]++
		}
	}
	return m
}

// ActivityCounts returns the number of two-qubit gates each logical qubit
// participates in, restricted to the first maxLayers dependency layers
// (all layers when maxLayers ≤ 0). This is the "qubit activity" statistic
// of Variation-Aware Qubit Allocation, which estimates the most frequently
// entangled qubits by analyzing the first-N instructions of the program.
func (c *Circuit) ActivityCounts(maxLayers int) []int {
	act := make([]int, c.NumQubits)
	layers := c.Layers()
	if maxLayers <= 0 || maxLayers > len(layers) {
		maxLayers = len(layers)
	}
	for _, layer := range layers[:maxLayers] {
		for _, gi := range layer {
			g := c.Gates[gi]
			if g.Kind.TwoQubit() {
				act[g.Qubits[0]]++
				act[g.Qubits[1]]++
			}
		}
	}
	return act
}

// MeasuredQubits reports, per qubit, whether the circuit measures it.
func (c *Circuit) MeasuredQubits() []bool {
	out := make([]bool, c.NumQubits)
	for _, g := range c.Gates {
		if g.Kind == gate.Measure {
			out[g.Qubits[0]] = true
		}
	}
	return out
}
