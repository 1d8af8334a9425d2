// Package topo defines the coupling topologies of the machines studied in
// the paper — the 20-qubit IBM-Q20 "Tokyo" and the 5-qubit IBM-Q5
// "Tenerife" — together with generic generators (linear chains, 2D grids)
// and the small teaching machines from the paper's figures. A Topology is
// purely structural: which qubit pairs share a coupling link. Error rates
// live in the calibration layer (package calib) and are combined with a
// Topology by package device.
package topo

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"vaq/internal/graphx"
)

// Coupling is an undirected physical link between two qubits, A < B.
type Coupling struct {
	A, B int
}

// Topology is a named coupling graph over NumQubits physical qubits.
type Topology struct {
	Name      string
	NumQubits int
	Couplings []Coupling // sorted by (A, B); Adjacent searches it
}

// New builds a topology after normalizing (A < B) and validating the
// coupling list: indices in range, no self-loops, no duplicates.
func New(name string, numQubits int, couplings []Coupling) (*Topology, error) {
	seen := make(map[Coupling]bool, len(couplings))
	norm := make([]Coupling, 0, len(couplings))
	for _, c := range couplings {
		if c.A == c.B {
			return nil, fmt.Errorf("topo %q: self-coupling on qubit %d", name, c.A)
		}
		if c.A > c.B {
			c.A, c.B = c.B, c.A
		}
		if c.A < 0 || c.B >= numQubits {
			return nil, fmt.Errorf("topo %q: coupling %d-%d out of range [0,%d)", name, c.A, c.B, numQubits)
		}
		if seen[c] {
			return nil, fmt.Errorf("topo %q: duplicate coupling %d-%d", name, c.A, c.B)
		}
		seen[c] = true
		norm = append(norm, c)
	}
	sort.Slice(norm, func(i, j int) bool {
		if norm[i].A != norm[j].A {
			return norm[i].A < norm[j].A
		}
		return norm[i].B < norm[j].B
	})
	return &Topology{Name: name, NumQubits: numQubits, Couplings: norm}, nil
}

// MustNew is New for statically known topologies; it panics on error.
func MustNew(name string, numQubits int, couplings []Coupling) *Topology {
	t, err := New(name, numQubits, couplings)
	if err != nil {
		panic(err)
	}
	return t
}

// NumLinks returns the number of directed links (each coupling counted in
// both directions), matching how the paper counts IBM-Q20's "76 links".
func (t *Topology) NumLinks() int { return 2 * len(t.Couplings) }

// Graph returns the coupling graph with every edge weight set to w.
func (t *Topology) Graph(w float64) *graphx.Graph {
	g := graphx.New(t.NumQubits)
	for _, c := range t.Couplings {
		g.AddEdge(c.A, c.B, w)
	}
	return g
}

// Adjacent reports whether qubits a and b share a coupling link, by
// binary search of the coupling list (New keeps it sorted).
func (t *Topology) Adjacent(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	_, ok := slices.BinarySearchFunc(t.Couplings, Coupling{a, b}, func(c, want Coupling) int {
		return cmp.Or(cmp.Compare(c.A, want.A), cmp.Compare(c.B, want.B))
	})
	return ok
}

// IBMQ20 returns the 20-qubit IBM-Q20 "Tokyo" model used throughout the
// paper's simulation study. Qubits are numbered row-major on a 4×5 grid
// (row 0 = qubits 0–4, …, row 3 = qubits 15–19). The map contains all 31
// horizontal/vertical grid couplings plus 7 diagonal couplings, for 38
// couplings = 76 directed links, matching the paper's link count. The
// diagonal set includes every link the paper names (5–11, 13–19, 14–18,
// and the 5–6 / 6–5 pair is a grid link).
func IBMQ20() *Topology {
	var c []Coupling
	const rows, cols = 4, 5
	id := func(r, col int) int { return r*cols + col }
	for r := 0; r < rows; r++ {
		for col := 0; col < cols; col++ {
			if col+1 < cols {
				c = append(c, Coupling{id(r, col), id(r, col+1)})
			}
			if r+1 < rows {
				c = append(c, Coupling{id(r, col), id(r+1, col)})
			}
		}
	}
	diagonals := []Coupling{
		{1, 7},   // row0 col1 ↘ row1 col2
		{2, 6},   // row0 col2 ↙ row1 col1
		{5, 11},  // row1 col0 ↘ row2 col1 (paper link CX5_11)
		{8, 12},  // row1 col3 ↙ row2 col2
		{7, 13},  // row1 col2 ↘ row2 col3
		{13, 19}, // row2 col3 ↘ row3 col4 (paper link CX19_13)
		{14, 18}, // row2 col4 ↙ row3 col3 (paper's weakest link)
	}
	c = append(c, diagonals...)
	return MustNew("ibmq20", 20, c)
}

// IBMQ5 returns the 5-qubit IBM-Q5 "Tenerife" coupling map used in the
// paper's real-system evaluation (Section 7): a bow-tie with Q2 at the
// center.
func IBMQ5() *Topology {
	return MustNew("ibmq5", 5, []Coupling{
		{0, 1}, {0, 2}, {1, 2}, {2, 3}, {2, 4}, {3, 4},
	})
}

// IBMQ16 returns a 16-qubit IBM "Rüschlikon"-class model: a 2×8 ladder
// (22 couplings), the machine used for the 16-qubit demonstrations the
// paper cites. Qubits are row-major: 0–7 top row, 8–15 bottom row.
func IBMQ16() *Topology {
	t := Grid("ibmq16", 2, 8)
	return t
}

// Ring5 returns the paper's Figure 1 teaching machine: five qubits
// A–E (0–4) in a ring.
func Ring5() *Topology {
	return MustNew("ring5", 5, []Coupling{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4},
	})
}

// Mesh2x3 returns the 6-qubit 2×3 mesh from the paper's Figures 3, 11 and
// 15. Qubits are row-major: row 0 = A,D,E (0,1,2)… we number them 0–5 with
// 0–2 the top row and 3–5 the bottom row.
func Mesh2x3() *Topology {
	return Grid("mesh2x3", 2, 3)
}

// Grid returns an r×c nearest-neighbor mesh with row-major numbering.
func Grid(name string, r, c int) *Topology {
	var cp []Coupling
	id := func(i, j int) int { return i*c + j }
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if j+1 < c {
				cp = append(cp, Coupling{id(i, j), id(i, j+1)})
			}
			if i+1 < r {
				cp = append(cp, Coupling{id(i, j), id(i+1, j)})
			}
		}
	}
	return MustNew(name, r*c, cp)
}

// Linear returns an n-qubit chain 0–1–…–(n−1).
func Linear(n int) *Topology {
	var cp []Coupling
	for i := 0; i+1 < n; i++ {
		cp = append(cp, Coupling{i, i + 1})
	}
	return MustNew(fmt.Sprintf("linear%d", n), n, cp)
}

// FullyConnected returns the idealized all-to-all machine (the O(N²)-link
// organization the paper notes is impractical); useful as a no-routing
// control in experiments.
func FullyConnected(n int) *Topology {
	var cp []Coupling
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cp = append(cp, Coupling{i, j})
		}
	}
	return MustNew(fmt.Sprintf("full%d", n), n, cp)
}
