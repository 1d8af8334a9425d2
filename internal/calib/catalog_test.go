package calib

import "testing"

func TestNamedResolvesBuiltinsThenZoo(t *testing.T) {
	for _, b := range Builtins() {
		arch, err := Named(b.Name, 7)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if want := b.Archive(7); arch.Topo.Name != want.Topo.Name || len(arch.Snapshots) != len(want.Snapshots) {
			t.Errorf("%s: got %s with %d cycles, want %s with %d", b.Name,
				arch.Topo.Name, len(arch.Snapshots), want.Topo.Name, len(want.Snapshots))
		}
	}
	arch, err := Named("grid-16-low", 7)
	if err != nil {
		t.Fatal(err)
	}
	if arch.Topo.NumQubits != 16 || len(arch.Snapshots) != ZooDays*ZooCyclesPerDay {
		t.Errorf("grid-16-low: %d qubits, %d cycles", arch.Topo.NumQubits, len(arch.Snapshots))
	}
	for _, bad := range []string{"", "bogus", "q21", "grid-16-extreme"} {
		if _, err := Named(bad, 7); err == nil {
			t.Errorf("Named(%q) accepted", bad)
		}
	}
}
