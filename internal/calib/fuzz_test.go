package calib

import (
	"bytes"
	"testing"
)

// FuzzReadJSON drives the archive readers with arbitrary bytes. The
// invariants: neither reader may panic; an archive the lenient reader
// accepts must be non-empty, pass Validate, and survive a write/read
// round trip under the strict reader.
func FuzzReadJSON(f *testing.F) {
	var valid bytes.Buffer
	if err := Generate(DefaultQ5Config(1)).WriteJSON(&valid); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add([]byte(`{not json`))
	f.Add([]byte(`{"topology":{"name":"t","num_qubits":2,"couplings":[[0,1]]},"snapshots":[]}`))
	f.Add([]byte(`{"topology":{"name":"t","num_qubits":2,"couplings":[[0,5]]},"snapshots":[]}`))
	f.Add([]byte(leniencyArchive))
	f.Add([]byte(`{"topology":{"name":"t","num_qubits":1,"couplings":[]},"snapshots":[{"two_qubit":[],"one_qubit":[0.5],"readout":[0.5],"t1_us":[1],"t2_us":[1]}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := ReadJSON(bytes.NewReader(data)); err != nil {
			_ = err // strict rejection is fine; it just must not panic
		}
		arch, _, err := ReadJSONLenient(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(arch.Snapshots) == 0 {
			t.Fatal("lenient read accepted an empty archive")
		}
		var out bytes.Buffer
		if werr := arch.WriteJSON(&out); werr != nil {
			t.Fatalf("accepted archive does not serialize: %v", werr)
		}
		back, rerr := ReadJSON(&out)
		if rerr != nil {
			t.Fatalf("round trip rejected: %v", rerr)
		}
		if len(back.Snapshots) != len(arch.Snapshots) {
			t.Fatalf("round trip changed snapshot count: %d -> %d", len(arch.Snapshots), len(back.Snapshots))
		}
	})
}
