package route

import (
	"testing"

	"vaq/internal/alloc"
	"vaq/internal/circuit"
	"vaq/internal/topo"
)

// TestPackerNoTruncationCollision pins the fix for the latent stateKey
// truncation bug: the old encoding wrote each mapping entry as byte(v), so
// on a machine with more than 256 physical qubits the mappings {1, 258}
// and {1, 2} produced the same search key (byte(258) == byte(2)) and A*
// could merge distinct states. The packed encoding sizes its field width
// from the physical qubit count, so those keys must differ.
func TestPackerNoTruncationCollision(t *testing.T) {
	p := newPacker(2, 300)
	if p.kw != 1 {
		t.Fatalf("2 program qubits on 300 physical must pack into one word, got %d", p.kw)
	}
	aliased := 258
	if byte(aliased) != byte(2) {
		t.Fatal("test premise: byte truncation aliases 258 and 2")
	}
	if p.pack(nil, []int{1, 258})[0] == p.pack(nil, []int{1, 2})[0] {
		t.Fatal("packed keys collide for mappings {1,258} and {1,2}")
	}
	// Every pair of distinct placements of one qubit must key distinctly.
	seen := make(map[uint64]int)
	for v := 0; v < 300; v++ {
		k := p.pack(nil, []int{v, 299 - v})[0]
		if prev, dup := seen[k]; dup {
			t.Fatalf("packed key collision: mappings with v=%d and v=%d", prev, v)
		}
		seen[k] = v
	}
}

// TestRouteBeyond255Qubits routes across physical index 256 on a 300-qubit
// line — the exact regime where the old byte-truncated state keys aliased.
// The pair starts 12 links apart (250 and 262), so a correct search inserts
// exactly 11 SWAPs; a key collision would merge distinct frontier states
// and could corrupt the plan.
func TestRouteBeyond255Qubits(t *testing.T) {
	d := uniformDevice(topo.Linear(300), 0.01)
	c := circuit.New("far", 2).CX(0, 1).MeasureAll()
	init := alloc.Mapping{250, 262}
	for _, r := range []Router{
		AStar{Cost: CostHops, MAH: -1},
		AStar{Cost: CostReliability, MAH: -1},
	} {
		res, err := r.Route(d, c, init)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if res.Swaps != 11 {
			t.Fatalf("%s: inserted %d swaps, want 11 (distance 12 on a line)", r.Name(), res.Swaps)
		}
		if err := Verify(d, c, res); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
	}
}

// TestRouteWideKey routes with keys wider than four words: 30 program
// qubits on a 300-qubit line need 9 bits per entry, 7 entries per word,
// so 5 words per key. The search once keyed such mappings by strings;
// it must route correctly on its one key encoding.
func TestRouteWideKey(t *testing.T) {
	const k, n = 30, 300
	if kw := newPacker(k, n).kw; kw <= 4 {
		t.Fatalf("test premise: %d entries × 9 bits must take more than 4 key words, got %d", k, kw)
	}
	d := line300()
	c := goldenChain(k)
	init := gappedInit(d, c) // every CNOT pair starts one link short of adjacency
	res, err := AStar{Cost: CostReliability, MAH: -1}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Fatal("expected movement for gapped placements")
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
}
