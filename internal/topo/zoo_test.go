package topo

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// TestZooFamiliesConnectedAtEverySize builds each family at a spread of
// sizes across its range and checks the invariants the rest of the stack
// leans on: exact qubit count, connectivity, and canonical naming.
func TestZooFamiliesConnectedAtEverySize(t *testing.T) {
	sizes := []int{5, 6, 7, 9, 16, 20, 27, 50, 100, 127, 256, 399, 1000}
	for _, f := range Families() {
		for _, n := range sizes {
			if n < f.MinQubits || n > f.MaxQubits {
				continue
			}
			name := fmt.Sprintf("%s-%d", f.Name, n)
			tp, err := ByName(name)
			if err != nil {
				t.Fatalf("ByName(%q): %v", name, err)
			}
			if tp.NumQubits != n {
				t.Errorf("%s: %d qubits, want %d", name, tp.NumQubits, n)
			}
			if tp.Name != name {
				t.Errorf("%s: topology named %q", name, tp.Name)
			}
			if !tp.Graph(1).Connected(nil) {
				t.Errorf("%s: disconnected coupling graph", name)
			}
		}
	}
}

// TestHeavyHexDegreeBound: the defining property of a heavy-hexagon
// lattice is that no qubit couples to more than three neighbours.
func TestHeavyHexDegreeBound(t *testing.T) {
	for _, n := range []int{5, 12, 20, 65, 127, 399, 1000} {
		tp := HeavyHex(n)
		deg := make([]int, n)
		for _, c := range tp.Couplings {
			deg[c.A]++
			deg[c.B]++
		}
		for q, d := range deg {
			if d > 3 {
				t.Fatalf("heavy-hex-%d: qubit %d has degree %d (> 3)", n, q, d)
			}
			if d == 0 {
				t.Fatalf("heavy-hex-%d: qubit %d isolated", n, q)
			}
		}
	}
}

// TestRingAndGridShape: rings are 2-regular cycles; grids have n links on
// a c-column row-major lattice.
func TestRingAndGridShape(t *testing.T) {
	tp := Ring(64)
	if len(tp.Couplings) != 64 {
		t.Errorf("ring-64: %d couplings, want 64", len(tp.Couplings))
	}
	deg := make([]int, 64)
	for _, c := range tp.Couplings {
		deg[c.A]++
		deg[c.B]++
	}
	for q, d := range deg {
		if d != 2 {
			t.Errorf("ring-64: qubit %d degree %d, want 2", q, d)
		}
	}

	g := SquareGrid(100)
	// 10×10 grid: 2·10·9 = 180 undirected links.
	if len(g.Couplings) != 180 {
		t.Errorf("grid-100: %d couplings, want 180", len(g.Couplings))
	}
}

// TestByNameErrors pins the error contract: unknown families list the
// valid ones, and out-of-range sizes name the family's range.
func TestByNameErrors(t *testing.T) {
	cases := []struct {
		name string
		want string
	}{
		{"hexagon-20", "unknown"},
		{"heavy-hex-4", "5"},
		{"heavy-hex-4096", "2048"},
		{"full-512", "256"},
		{"grid-abc", ""},
		{"", ""},
	}
	for _, tc := range cases {
		if _, err := ByName(tc.name); err == nil {
			t.Errorf("ByName(%q): want error", tc.name)
		} else if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ByName(%q) error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	if _, err := ByName("hexagon-20"); err == nil || !strings.Contains(err.Error(), "heavy-hex") {
		t.Errorf("unknown-family error should list families, got %v", err)
	}
}

// TestZooDeterminism: two independent builds of the same name yield
// identical coupling lists in identical order.
func TestZooDeterminism(t *testing.T) {
	for _, name := range []string{"heavy-hex-399", "grid-100", "ring-33", "full-12"} {
		a, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Couplings) != len(b.Couplings) {
			t.Fatalf("%s: coupling count differs across builds", name)
		}
		for i := range a.Couplings {
			if a.Couplings[i] != b.Couplings[i] {
				t.Fatalf("%s: coupling %d differs: %v vs %v", name, i, a.Couplings[i], b.Couplings[i])
			}
		}
	}
}

// TestWithHoles: the defect variant removes exactly k couplers, stays
// connected, is deterministic, and refuses impossible knockouts.
func TestWithHoles(t *testing.T) {
	for _, tc := range []struct {
		name  string
		holes int
	}{
		{"ring-16", 1},
		{"grid-25", 5},
		{"full-8", 10},
		{"heavy-hex-399", 8},
	} {
		full, err := ByName(tc.name)
		if err != nil {
			t.Fatal(err)
		}
		holed, err := ByName(fmt.Sprintf("%s-holes%d", tc.name, tc.holes))
		if err != nil {
			t.Fatalf("%s-holes%d: %v", tc.name, tc.holes, err)
		}
		if want := fmt.Sprintf("%s-holes%d", tc.name, tc.holes); holed.Name != want {
			t.Errorf("name %q, want %q", holed.Name, want)
		}
		if got, want := len(holed.Couplings), len(full.Couplings)-tc.holes; got != want {
			t.Errorf("%s: %d couplings after %d holes, want %d", holed.Name, got, tc.holes, want)
		}
		if holed.NumQubits != full.NumQubits {
			t.Errorf("%s: qubit count changed: %d vs %d", holed.Name, holed.NumQubits, full.NumQubits)
		}
		if !holed.Graph(1).Connected(nil) {
			t.Errorf("%s: knockout disconnected the machine", holed.Name)
		}
		// Every surviving coupling existed in the base lattice.
		for _, c := range holed.Couplings {
			if !full.Adjacent(c.A, c.B) {
				t.Errorf("%s: coupling %v not in base lattice", holed.Name, c)
			}
		}
		again, err := ByName(holed.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := range holed.Couplings {
			if holed.Couplings[i] != again.Couplings[i] {
				t.Fatalf("%s: knockout is not deterministic at coupling %d", holed.Name, i)
			}
		}
	}

	// A ring is one hole away from a tree: the second knockout must
	// fail rather than silently under-deliver.
	if _, err := WithHoles(Ring(8), 2); err == nil {
		t.Error("ring-8 with 2 holes should be impossible (tree after 1)")
	}
	if _, err := ByName("ring-8-holes3"); err == nil {
		t.Error("ByName ring-8-holes3 should fail: only 1 removable edge")
	}
	if _, err := ByName("grid-25-holes0"); err == nil {
		t.Error("holes0 should not parse as a defect variant")
	}
	if _, err := WithHoles(Ring(8), 0); err == nil {
		t.Error("WithHoles k=0 should be rejected")
	}
}

// TestAdjacentMatchesLinearScan: Adjacent's binary search over the
// sorted coupling list answers every ordered pair exactly as a scan of
// the list does, on each zoo family with and without holes and on the
// paper's machines.
func TestAdjacentMatchesLinearScan(t *testing.T) {
	names := []string{"heavy-hex-20", "heavy-hex-127", "heavy-hex-399-holes8", "grid-25", "grid-100-holes5", "ring-64", "ring-16-holes1", "full-8", "full-8-holes10"}
	tops := []*Topology{IBMQ20(), IBMQ5(), IBMQ16(), Linear(1)}
	for _, name := range names {
		tp, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tops = append(tops, tp)
	}
	for _, tp := range tops {
		linear := func(a, b int) bool {
			for _, c := range tp.Couplings {
				if (c.A == a && c.B == b) || (c.A == b && c.B == a) {
					return true
				}
			}
			return false
		}
		for a := 0; a < tp.NumQubits; a++ {
			for b := 0; b < tp.NumQubits; b++ {
				if got, want := tp.Adjacent(a, b), linear(a, b); got != want {
					t.Fatalf("%s: Adjacent(%d, %d) = %v, linear scan %v", tp.Name, a, b, got, want)
				}
			}
		}
	}
}

// TestWithHolesKnownAnswer pins which couplers heavy-hex-399-holes8
// loses, and so the shuffle order seeded from the lattice name.
func TestWithHolesKnownAnswer(t *testing.T) {
	full, err := ByName("heavy-hex-399")
	if err != nil {
		t.Fatal(err)
	}
	holed, err := ByName("heavy-hex-399-holes8")
	if err != nil {
		t.Fatal(err)
	}
	var removed []Coupling
	for _, c := range full.Couplings {
		if !holed.Adjacent(c.A, c.B) {
			removed = append(removed, c)
		}
	}
	want := []Coupling{{29, 42}, {48, 49}, {93, 94}, {96, 97}, {199, 207}, {211, 212}, {347, 348}, {383, 384}}
	if !slices.Equal(removed, want) {
		t.Errorf("removed couplers %v, want %v", removed, want)
	}
}
