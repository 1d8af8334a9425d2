package device

import (
	"testing"

	"vaq/internal/calib"
)

func q20ForRestrict(t *testing.T) *Device {
	t.Helper()
	arch := calib.Generate(calib.DefaultQ20Config(2))
	return MustNew(arch.Topo, arch.MustMean())
}

func TestRestrictBasics(t *testing.T) {
	d := q20ForRestrict(t)
	sub, orig, err := d.Restrict([]int{0, 1, 2, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	if sub.NumQubits() != 5 {
		t.Fatalf("sub qubits = %d, want 5", sub.NumQubits())
	}
	if len(orig) != 5 || orig[0] != 0 || orig[4] != 6 {
		t.Fatalf("orig = %v", orig)
	}
	// Carried-over calibration: link 0-1 exists on both devices with the
	// same error rate.
	if got, want := sub.Snapshot().MustTwoQubitError(0, 1), d.Snapshot().MustTwoQubitError(0, 1); got != want {
		t.Fatalf("restricted link error = %v, want %v", got, want)
	}
	// Qubit figures carried by original index: sub qubit 3 is original 5.
	if got, want := sub.Snapshot().T1Us[3], d.Snapshot().T1Us[5]; got != want {
		t.Fatalf("restricted T1 = %v, want %v", got, want)
	}
}

func TestRestrictDropsCrossCouplings(t *testing.T) {
	d := q20ForRestrict(t)
	sub, _, err := d.Restrict([]int{0, 1}) // original coupling 0-1 only
	if err != nil {
		t.Fatal(err)
	}
	if len(sub.Topology().Couplings) != 1 {
		t.Fatalf("couplings = %v", sub.Topology().Couplings)
	}
}

func TestRestrictUnsortedInput(t *testing.T) {
	d := q20ForRestrict(t)
	sub, orig, err := d.Restrict([]int{6, 0, 5, 1})
	if err != nil {
		t.Fatal(err)
	}
	if orig[0] != 0 || orig[3] != 6 {
		t.Fatalf("orig not sorted: %v", orig)
	}
	if sub.NumQubits() != 4 {
		t.Fatal("size wrong")
	}
}

func TestRestrictErrors(t *testing.T) {
	d := q20ForRestrict(t)
	if _, _, err := d.Restrict(nil); err == nil {
		t.Fatal("empty restriction accepted")
	}
	if _, _, err := d.Restrict([]int{0, 25}); err == nil {
		t.Fatal("out-of-range qubit accepted")
	}
	if _, _, err := d.Restrict([]int{3, 3}); err == nil {
		t.Fatal("duplicate qubit accepted")
	}
}

func TestRestrictIsolatedSubsetStillValid(t *testing.T) {
	// Qubits 0 and 19 share no coupling: the sub-device exists but is
	// disconnected (routing will reject it later).
	d := q20ForRestrict(t)
	sub, _, err := d.Restrict([]int{0, 19})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Topology().Graph(1).Connected(nil) {
		t.Fatal("0/19 subset should be disconnected")
	}
}
