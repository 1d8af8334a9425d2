// Parametric topology generators — the "device zoo". Where the named
// machines in topo.go model specific IBM systems, the zoo families are
// valid at any size from a handful of qubits to 1000+, so the paper's
// variability question ("does variation-aware compilation still win at
// 500 qubits?") can be asked on machines that do not exist yet.
//
// Naming scheme: every zoo topology is "<family>-<n>" with n the exact
// qubit count — heavy-hex-399, grid-100, ring-64, full-20. ByName
// parses that form; Families enumerates the generators with their size
// bounds. An optional "-holes<k>" suffix (grid-100-holes5) knocks out k
// couplers deterministically, modeling fabrication defects (WithHoles).
// The calibration layer (package calib) extends the scheme with a
// variance-tier suffix: heavy-hex-399-mid names a calibrated fleet
// over the heavy-hex-399 lattice.
package topo

import (
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"

	"vaq/internal/graphx"
	"vaq/internal/splitmix"
)

// Family is one parametric generator of the device zoo.
type Family struct {
	// Name is the family prefix of the zoo naming scheme.
	Name string
	// Description is a one-line summary for device listings.
	Description string
	// MinQubits and MaxQubits bound the sizes ByName accepts. The
	// all-to-all family caps much lower than the sparse ones: its link
	// count grows quadratically.
	MinQubits, MaxQubits int
	// Build constructs the family member with exactly n qubits.
	Build func(n int) *Topology
}

// Families enumerates the zoo generators in listing order.
func Families() []Family {
	return []Family{
		{
			Name:        "heavy-hex",
			Description: "IBM-style heavy-hexagon lattice (degree ≤ 3, bridge qubits between rows)",
			MinQubits:   5, MaxQubits: 2048,
			Build: HeavyHex,
		},
		{
			Name:        "grid",
			Description: "near-square 2D nearest-neighbor mesh",
			MinQubits:   5, MaxQubits: 2048,
			Build: SquareGrid,
		},
		{
			Name:        "ring",
			Description: "single cycle 0–1–…–(n−1)–0",
			MinQubits:   5, MaxQubits: 2048,
			Build: Ring,
		},
		{
			Name:        "full",
			Description: "idealized all-to-all coupling (O(n²) links; no-routing control)",
			MinQubits:   5, MaxQubits: 256,
			Build: AllToAll,
		},
	}
}

// ByName resolves a zoo topology name of the form "<family>-<n>", e.g.
// "heavy-hex-399", or its defect variant "<family>-<n>-holes<k>", e.g.
// "heavy-hex-399-holes8" (the base lattice with k couplers knocked out
// by WithHoles). Unknown families and out-of-range sizes are errors
// that list the valid families and bounds.
func ByName(name string) (*Topology, error) {
	if base, k, ok := splitHoles(name); ok {
		t, err := ByName(base)
		if err != nil {
			return nil, err
		}
		return WithHoles(t, k)
	}
	for _, f := range Families() {
		prefix := f.Name + "-"
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimPrefix(name, prefix))
		if err != nil {
			return nil, fmt.Errorf("topo: bad zoo size in %q (want %s-<qubits>)", name, f.Name)
		}
		if n < f.MinQubits || n > f.MaxQubits {
			return nil, fmt.Errorf("topo: %s size %d out of range [%d, %d]", f.Name, n, f.MinQubits, f.MaxQubits)
		}
		return f.Build(n), nil
	}
	names := make([]string, len(Families()))
	for i, f := range Families() {
		names[i] = f.Name
	}
	return nil, fmt.Errorf("topo: unknown zoo topology %q (families: %s; form <family>-<qubits>)",
		name, strings.Join(names, ", "))
}

// splitHoles parses the "-holes<k>" defect suffix: "grid-25-holes3" →
// ("grid-25", 3, true). k must be a positive integer; anything else is
// left for the family parser to reject.
func splitHoles(name string) (base string, k int, ok bool) {
	i := strings.LastIndex(name, "-holes")
	if i < 0 {
		return "", 0, false
	}
	k, err := strconv.Atoi(name[i+len("-holes"):])
	if err != nil || k < 1 {
		return "", 0, false
	}
	return name[:i], k, true
}

// WithHoles returns t with k couplers removed — the defect model for
// fabrication dropouts and disabled two-qubit gates that real lattices
// accumulate. Removal is deterministic (the candidate order is a
// SplitMix64 shuffle seeded from the base topology's name, so a given
// name always loses the same couplers) and connectivity-preserving: a
// coupler whose removal would disconnect the machine is skipped. Asking
// for more holes than the lattice can spare — a tree has zero removable
// edges — is an error rather than a silently shallower knockout. The
// result is named "<base>-holes<k>".
func WithHoles(t *Topology, k int) (*Topology, error) {
	if k < 1 {
		return nil, fmt.Errorf("topo: holes count must be ≥ 1, got %d", k)
	}
	// Fisher–Yates over the coupling indices, driven by the SplitMix64
	// finalizer seeded from the lattice name.
	order := make([]int, len(t.Couplings))
	for i := range order {
		order[i] = i
	}
	h := fnv.New64a()
	h.Write([]byte(t.Name))
	seed := h.Sum64()
	for i := len(order) - 1; i > 0; i-- {
		j := int(splitmix.At(seed, uint64(len(order)-i)) % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}

	removed := make([]bool, len(t.Couplings))
	connected := func() bool {
		g := graphx.New(t.NumQubits)
		for i, c := range t.Couplings {
			if !removed[i] {
				g.AddEdge(c.A, c.B, 1)
			}
		}
		return g.Connected(nil)
	}
	holes := 0
	for _, i := range order {
		if holes == k {
			break
		}
		removed[i] = true
		if connected() {
			holes++
		} else {
			removed[i] = false
		}
	}
	if holes < k {
		return nil, fmt.Errorf("topo: %s has only %d removable couplers, cannot knock out %d", t.Name, holes, k)
	}
	keep := make([]Coupling, 0, len(t.Couplings)-k)
	for i, c := range t.Couplings {
		if !removed[i] {
			keep = append(keep, c)
		}
	}
	return New(fmt.Sprintf("%s-holes%d", t.Name, k), t.NumQubits, keep)
}

// HeavyHex returns an IBM-style heavy-hexagon lattice with exactly n
// qubits, named "heavy-hex-<n>". Chain rows of width ~√(0.8n) alternate
// with rows of degree-2 bridge qubits; bridges sit every 4 columns with
// the offset alternating between 0 and 2, which is what closes the
// 12-link heavy hexagons and keeps every qubit at degree ≤ 3. Qubits
// are numbered in emission order, chosen so that every qubit couples to
// at least one lower-numbered qubit — truncating the lattice at any n
// therefore always yields a connected machine.
func HeavyHex(n int) *Topology {
	if n < 2 {
		panic(fmt.Sprintf("topo: heavy-hex needs ≥ 2 qubits, got %d", n))
	}
	w := int(math.Round(math.Sqrt(0.8 * float64(n))))
	if w < 4 {
		w = 4
	}
	var cp []Coupling
	link := func(a, b int) { cp = append(cp, Coupling{A: a, B: b}) }
	id := 0
	emit := func() int { q := id; id++; return q }

	prev := make([]int, w) // previous chain row, by column
	cur := make([]int, w)
	bridge := make([]int, w)
	// Chain row 0, left to right.
	for j := 0; j < w && id < n; j++ {
		cur[j] = emit()
		if j > 0 {
			link(cur[j-1], cur[j])
		}
	}
	for gap := 0; id < n; gap++ {
		// A gap iteration only starts with id < n, which means the chain
		// row above completed in full — every prev[j] is valid.
		copy(prev, cur)
		off := 0
		if gap%2 == 1 {
			off = 2
		}
		for j := range bridge {
			bridge[j] = -1
		}
		for j := off; j < w && id < n; j += 4 {
			bridge[j] = emit()
			link(prev[j], bridge[j])
		}
		if id >= n {
			break
		}
		// Next chain row, emitted outward from the first bridge so a
		// truncated row stays connected: the column under the bridge
		// first, then leftward, then rightward.
		cur[off] = emit()
		link(bridge[off], cur[off])
		for j := off - 1; j >= 0 && id < n; j-- {
			cur[j] = emit()
			link(cur[j], cur[j+1])
		}
		for j := off + 1; j < w && id < n; j++ {
			cur[j] = emit()
			link(cur[j-1], cur[j])
			if bridge[j] != -1 {
				link(bridge[j], cur[j])
			}
		}
	}
	return MustNew(fmt.Sprintf("heavy-hex-%d", n), n, cp)
}

// SquareGrid returns a near-square 2D mesh with exactly n qubits, named
// "grid-<n>": ⌈√n⌉ columns, row-major numbering, the last row truncated
// to reach n exactly (every qubit couples left and up, so truncation
// preserves connectivity).
func SquareGrid(n int) *Topology {
	if n < 1 {
		panic(fmt.Sprintf("topo: grid needs ≥ 1 qubit, got %d", n))
	}
	c := int(math.Ceil(math.Sqrt(float64(n))))
	var cp []Coupling
	for q := 0; q < n; q++ {
		if q%c > 0 {
			cp = append(cp, Coupling{A: q - 1, B: q})
		}
		if q >= c {
			cp = append(cp, Coupling{A: q - c, B: q})
		}
	}
	return MustNew(fmt.Sprintf("grid-%d", n), n, cp)
}

// Ring returns the n-qubit cycle 0–1–…–(n−1)–0, named "ring-<n>"; the
// parametric generalization of the paper's Figure 1 teaching machine.
func Ring(n int) *Topology {
	if n < 3 {
		panic(fmt.Sprintf("topo: ring needs ≥ 3 qubits, got %d", n))
	}
	cp := make([]Coupling, 0, n)
	for i := 0; i+1 < n; i++ {
		cp = append(cp, Coupling{A: i, B: i + 1})
	}
	cp = append(cp, Coupling{A: 0, B: n - 1})
	return MustNew(fmt.Sprintf("ring-%d", n), n, cp)
}

// AllToAll returns the idealized fully connected machine under the zoo
// naming scheme ("full-<n>"; compare FullyConnected, whose "full<n>"
// names predate the zoo).
func AllToAll(n int) *Topology {
	var cp []Coupling
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			cp = append(cp, Coupling{A: i, B: j})
		}
	}
	return MustNew(fmt.Sprintf("full-%d", n), n, cp)
}
