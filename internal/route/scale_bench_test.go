package route

import (
	"fmt"
	"testing"
	"time"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/workloads"
)

// scaleDevice materializes the mid-variance heavy-hex fleet of size n.
func scaleDevice(b testing.TB, n int) *device.Device {
	b.Helper()
	arch, err := calib.ZooArchive(fmt.Sprintf("heavy-hex-%d-mid", n), 2019)
	if err != nil {
		b.Fatal(err)
	}
	return device.MustNew(arch.Topo, arch.MustMean())
}

// BenchmarkRouteScale is the headline scaling artifact: route workloads
// on heavy-hex devices from 20 to 1000 qubits. Two workload shapes:
//
//   - bv: a Bernstein–Vazirani program spanning half the machine — wide
//     and shallow, stresses placement spread.
//   - qft16: a fixed 16-qubit QFT scattered across the device — dense
//     layers of simultaneous CX pairs, the shape that blows up A*'s
//     joint search (seconds at 100 qubits, unbounded beyond).
//
// SABRE runs at every size; A* runs only to 100 qubits, where its
// multi-pair search is still affordable.
// Cost tables are warmed outside the timer at each size, so the numbers
// compare search + emission, the steady state of a portfolio sweep.
func BenchmarkRouteScale(b *testing.B) {
	sizes := []int{20, 100, 399, 1000}
	workload := []struct {
		name string
		prog func(n int) *circuit.Circuit
	}{
		{"bv", func(n int) *circuit.Circuit { return workloads.BV(n / 2) }},
		{"qft16", func(int) *circuit.Circuit { return workloads.QFT(16) }},
	}
	routers := []struct {
		name string
		r    Router
		maxN int // largest device this router is benched at
	}{
		{"sabre", Sabre{Cost: CostReliability}, 1000},
		{"astar", AStar{Cost: CostReliability, MAH: -1}, 100},
	}
	for _, wl := range workload {
		for _, rt := range routers {
			for _, n := range sizes {
				if n > rt.maxN {
					continue
				}
				b.Run(fmt.Sprintf("%s/%s/hh%d", wl.name, rt.name, n), func(b *testing.B) {
					d := scaleDevice(b, n)
					c := wl.prog(n)
					init := permInit(int64(n))(d, c)
					if _, err := rt.r.Route(d, c, init); err != nil { // warm tables
						b.Fatal(err)
					}
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := rt.r.Route(d, c, init); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// TestSabre1000UnderOneSecond pins the acceptance bound directly: one
// SABRE route of a 500-qubit BV program on the 1000-qubit heavy-hex
// fleet completes in under a second (cost tables warm). Under the race
// detector, which slows the route several-fold, the route and Verify
// still run but the bound is not asserted.
func TestSabre1000UnderOneSecond(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-qubit route skipped in -short")
	}
	d := scaleDevice(t, 1000)
	c := workloads.BV(500)
	init := permInit(1000)(d, c)
	r := Sabre{Cost: CostReliability}
	if _, err := r.Route(d, c, init); err != nil { // warm tables
		t.Fatal(err)
	}
	start := time.Now()
	res, err := r.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > time.Second && !raceEnabled {
		t.Fatalf("1000-qubit SABRE route took %v, want < 1s", elapsed)
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
	t.Logf("1000-qubit route: %v, %d swaps", elapsed, res.Swaps)
}
