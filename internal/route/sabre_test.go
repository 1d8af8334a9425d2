package route

import (
	"runtime"
	"strings"
	"sync"
	"testing"

	"vaq/internal/circuit"
	"vaq/internal/workloads"
)

// TestSabreConcurrentDeterminism routes the same input from many
// goroutines at GOMAXPROCS 1, 2 and the machine default, sharing one
// warm cost cache, and requires every result to hash identically. This
// is the bit-determinism contract: no map iteration, no scratch-state
// leakage, no dependence on scheduling.
func TestSabreConcurrentDeterminism(t *testing.T) {
	d := goldenQ20()
	c := workloads.QFT(10)
	init := permInit(7)(d, c)
	r := Sabre{Cost: CostReliability}

	ref, err := r.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	want := resultHash(ref)

	for _, procs := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		prev := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		hashes := make([]uint64, 8)
		for i := range hashes {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := r.Route(d, c, init)
				if err != nil {
					t.Error(err)
					return
				}
				hashes[i] = resultHash(res)
			}(i)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i, h := range hashes {
			if h != want {
				t.Fatalf("GOMAXPROCS=%d goroutine %d: hash 0x%016x, want 0x%016x", procs, i, h, want)
			}
		}
	}
}

// TestSabreHeavyHex399 routes a 60-qubit QFT slice on the 399-qubit
// heavy-hex fleet and verifies the output — the large-device smoke the
// A* router cannot attempt (its adjacency build alone is O(n²·|E|)).
// Kept -short-friendly: one route, no Monte-Carlo.
func TestSabreHeavyHex399(t *testing.T) {
	d := goldenZoo("heavy-hex-399-mid")()
	c := workloads.BV(60)
	init := permInit(5)(d, c)
	r := Sabre{Cost: CostHops}
	res, err := r.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Error("expected a scattered 60-qubit BV to need swaps on heavy-hex-399")
	}
}

// TestSabreBarriers: barriers gate ordering inside the dependency DAG
// but are never emitted, matching the A* routers' treatment.
func TestSabreBarriers(t *testing.T) {
	d := goldenQ5()
	c := circuit.New("barrier", 3)
	c.H(0).CX(0, 1).Barrier().CX(1, 2).MeasureAll()
	res, err := Sabre{Cost: CostReliability}.Route(d, c, identity(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Physical.Gates {
		if g.Kind.String() == "barrier" {
			t.Fatal("barrier leaked into physical circuit")
		}
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
}

// TestSabreAdjacentNeedsNoSwaps: a program already conformant with the
// coupling map routes swap-free.
func TestSabreAdjacentNeedsNoSwaps(t *testing.T) {
	d := ring5Fig1()
	c := circuit.New("adj", 2).H(0).CX(0, 1).MeasureAll()
	res, err := Sabre{Cost: CostHops}.Route(d, c, identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 0 {
		t.Fatalf("adjacent CX routed with %d swaps", res.Swaps)
	}
}

// TestMovementByName pins the movement-policy registry: every published
// name resolves, and unknown names fail with an error that lists the
// valid policies (the nisqc/nisqd UX contract).
func TestMovementByName(t *testing.T) {
	wantRouters := map[string]string{
		MovementBaseline:  "astar-hops",
		MovementVQM:       "astar-reliability",
		MovementVQMHop:    "astar-reliability-mah4",
		MovementSabre:     "sabre-reliability",
		MovementSabreHops: "sabre-hops",
	}
	names := MovementNames()
	if len(names) != len(wantRouters) {
		t.Fatalf("MovementNames() = %v, want %d entries", names, len(wantRouters))
	}
	for _, name := range names {
		r, err := ByName(name, 4)
		if err != nil {
			t.Fatalf("ByName(%q): %v", name, err)
		}
		if r.Name() != wantRouters[name] {
			t.Errorf("ByName(%q) → router %q, want %q", name, r.Name(), wantRouters[name])
		}
	}
	_, err := ByName("teleport", 0)
	if err == nil {
		t.Fatal("ByName(\"teleport\"): want error")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-policy error %q does not list %q", err, name)
		}
	}
}
