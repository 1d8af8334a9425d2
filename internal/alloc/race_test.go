package alloc

import (
	"fmt"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/device"
	"vaq/internal/parallel"
	"vaq/internal/workloads"
)

// The regression suite for the Policy concurrency contract: stateless
// policies shared across goroutines, stateful Random used one instance
// per worker (the portfolio generator's construction discipline). Run
// under -race by scripts/check.sh.

func raceDevice(t testing.TB) *device.Device {
	t.Helper()
	arch := calib.Generate(calib.DefaultQ20Config(3))
	d, err := device.New(arch.Topo, arch.MustMean())
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestStatelessPoliciesSharedConcurrently: one Greedy and one VQA value
// serve many goroutines at once — the safe side of the contract.
func TestStatelessPoliciesSharedConcurrently(t *testing.T) {
	d := raceDevice(t)
	prog := workloads.BV(8)
	for _, p := range []Policy{Greedy{}, VQA{}} {
		want, err := p.Allocate(d, prog)
		if err != nil {
			t.Fatal(err)
		}
		maps, err := parallel.Map(8, 32, func(i int) (Mapping, error) {
			return p.Allocate(d, prog)
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		for i, m := range maps {
			if fmt.Sprint(m) != fmt.Sprint(want) {
				t.Fatalf("%s: concurrent call %d returned %v, want %v", p.Name(), i, m, want)
			}
		}
	}
}

// TestRandomPerWorkerInstances: concurrent allocation with per-worker
// Random instances (fresh seeds) is race-free and deterministic — the
// construction contract the portfolio generator enforces.
func TestRandomPerWorkerInstances(t *testing.T) {
	d := raceDevice(t)
	prog := workloads.BV(8)
	const workers = 16
	serial := make([]Mapping, workers)
	for i := range serial {
		m, err := NewRandom(int64(i+1)).Allocate(d, prog)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = m
	}
	got, err := parallel.Map(8, workers, func(i int) (Mapping, error) {
		return NewRandom(int64(i+1)).Allocate(d, prog)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if fmt.Sprint(got[i]) != fmt.Sprint(serial[i]) {
			t.Fatalf("worker %d: parallel %v != serial %v", i, got[i], serial[i])
		}
	}
}
