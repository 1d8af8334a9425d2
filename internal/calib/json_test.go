package calib

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	orig := Generate(DefaultQ5Config(3))
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Topo.Name != orig.Topo.Name || back.Topo.NumQubits != orig.Topo.NumQubits {
		t.Fatalf("topology mismatch: %s/%d", back.Topo.Name, back.Topo.NumQubits)
	}
	if len(back.Snapshots) != len(orig.Snapshots) {
		t.Fatalf("snapshots = %d, want %d", len(back.Snapshots), len(orig.Snapshots))
	}
	for i := range orig.Snapshots {
		a, b := orig.Snapshots[i], back.Snapshots[i]
		if a.Cycle != b.Cycle || a.Day != b.Day {
			t.Fatalf("snapshot %d metadata mismatch", i)
		}
		for _, c := range orig.Topo.Couplings {
			if a.TwoQubit[c] != b.TwoQubit[c] {
				t.Fatalf("snapshot %d link %v rate mismatch", i, c)
			}
		}
		for q := range a.OneQubit {
			if a.OneQubit[q] != b.OneQubit[q] || a.T1Us[q] != b.T1Us[q] {
				t.Fatalf("snapshot %d qubit %d figures mismatch", i, q)
			}
		}
	}
}

func TestJSONRoundTripQ20Archive(t *testing.T) {
	orig := Generate(DefaultQ20Config(1))
	var buf bytes.Buffer
	if err := orig.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Means must agree exactly.
	om, bm := orig.MustMean(), back.MustMean()
	for _, c := range orig.Topo.Couplings {
		if om.TwoQubit[c] != bm.TwoQubit[c] {
			t.Fatalf("mean rate for %v differs after round trip", c)
		}
	}
}

func TestReadJSONErrors(t *testing.T) {
	cases := map[string]string{
		"garbage":       "{not json",
		"no snapshots":  `{"topology":{"name":"t","num_qubits":2,"couplings":[[0,1]]},"snapshots":[]}`,
		"bad topology":  `{"topology":{"name":"t","num_qubits":2,"couplings":[[0,5]]},"snapshots":[]}`,
		"short links":   `{"topology":{"name":"t","num_qubits":2,"couplings":[[0,1]]},"snapshots":[{"two_qubit":[],"one_qubit":[0,0],"readout":[0,0],"t1_us":[1,1],"t2_us":[1,1]}]}`,
		"short readout": `{"topology":{"name":"t","num_qubits":2,"couplings":[[0,1]]},"snapshots":[{"two_qubit":[0.1],"one_qubit":[0,0],"readout":[0],"t1_us":[1,1],"t2_us":[1,1]}]}`,
		"invalid rates": `{"topology":{"name":"t","num_qubits":2,"couplings":[[0,1]]},"snapshots":[{"two_qubit":[7.5],"one_qubit":[0,0],"readout":[0,0],"t1_us":[1,1],"t2_us":[1,1]}]}`,
	}
	for name, src := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadJSON(strings.NewReader(src)); err == nil {
				t.Fatalf("ReadJSON accepted %s", name)
			}
		})
	}
}

// leniencyArchive builds a 2-qubit wire archive with three snapshots, the
// middle one invalid (error rate out of range).
const leniencyArchive = `{
 "topology":{"name":"t","num_qubits":2,"couplings":[[0,1]]},
 "snapshots":[
  {"cycle":0,"day":0,"two_qubit":[0.1],"one_qubit":[0,0],"readout":[0,0],"t1_us":[1,1],"t2_us":[1,1]},
  {"cycle":1,"day":0,"two_qubit":[7.5],"one_qubit":[0,0],"readout":[0,0],"t1_us":[1,1],"t2_us":[1,1]},
  {"cycle":2,"day":1,"two_qubit":[0.2],"one_qubit":[0,0],"readout":[0,0],"t1_us":[1,1],"t2_us":[1,1]}
 ]}`

func TestReadJSONLenientQuarantinesBadCycles(t *testing.T) {
	arch, quarantined, err := ReadJSONLenient(strings.NewReader(leniencyArchive))
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.Snapshots) != 2 {
		t.Fatalf("%d surviving snapshots, want 2", len(arch.Snapshots))
	}
	if arch.Snapshots[0].Cycle != 0 || arch.Snapshots[1].Cycle != 2 {
		t.Fatalf("wrong survivors: cycles %d, %d", arch.Snapshots[0].Cycle, arch.Snapshots[1].Cycle)
	}
	if len(quarantined) != 1 || quarantined[0].Index != 1 || quarantined[0].Cycle != 1 {
		t.Fatalf("quarantined = %v, want snapshot 1 / cycle 1", quarantined)
	}
	// The strict reader rejects the same stream outright.
	if _, err := ReadJSON(strings.NewReader(leniencyArchive)); err == nil {
		t.Fatal("strict ReadJSON accepted an archive with an invalid cycle")
	}
}

func TestReadJSONLenientDuplicateCycle(t *testing.T) {
	src := `{
 "topology":{"name":"t","num_qubits":2,"couplings":[[0,1]]},
 "snapshots":[
  {"cycle":3,"day":0,"two_qubit":[0.1],"one_qubit":[0,0],"readout":[0,0],"t1_us":[1,1],"t2_us":[1,1]},
  {"cycle":3,"day":0,"two_qubit":[0.1],"one_qubit":[0,0],"readout":[0,0],"t1_us":[1,1],"t2_us":[1,1]}
 ]}`
	arch, quarantined, err := ReadJSONLenient(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.Snapshots) != 1 || len(quarantined) != 1 {
		t.Fatalf("dup cycle: %d kept, %d quarantined, want 1/1", len(arch.Snapshots), len(quarantined))
	}
	if !strings.Contains(quarantined[0].Error(), "duplicate cycle") {
		t.Fatalf("quarantine reason = %v", quarantined[0])
	}
}

func TestReadJSONLenientAllBadIsEmptyArchive(t *testing.T) {
	src := `{
 "topology":{"name":"t","num_qubits":2,"couplings":[[0,1]]},
 "snapshots":[
  {"cycle":0,"day":0,"two_qubit":[7.5],"one_qubit":[0,0],"readout":[0,0],"t1_us":[1,1],"t2_us":[1,1]}
 ]}`
	_, quarantined, err := ReadJSONLenient(strings.NewReader(src))
	if !errors.Is(err, ErrEmptyArchive) {
		t.Fatalf("err = %v, want ErrEmptyArchive", err)
	}
	if len(quarantined) != 1 {
		t.Fatalf("%d quarantined, want 1", len(quarantined))
	}
}
