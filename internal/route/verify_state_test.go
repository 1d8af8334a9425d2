package route

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vaq/internal/alloc"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/gate"
	"vaq/internal/statevec"
	"vaq/internal/topo"
	"vaq/internal/workloads"
)

// VerifyState checks a routing result with the dense state-vector
// simulator: the routed physical circuit, un-permuted by the residual
// mapping, must prepare the same quantum state (fidelity ≈ 1) as the
// logical circuit applied at the initial physical locations. This covers
// the non-Clifford programs (QFT, ALU) that VerifyClifford cannot, at the
// cost of 2^n amplitudes — ErrTooLarge is returned beyond maxQubits
// (default 16 when maxQubits ≤ 0).
func VerifyState(d *device.Device, logical *circuit.Circuit, res *Result, maxQubits int) error {
	if maxQubits <= 0 {
		maxQubits = 16
	}
	n := d.NumQubits()
	if n > maxQubits || n > statevec.MaxQubits {
		return ErrTooLarge
	}

	got := statevec.New(n)
	for _, g := range res.Physical.Gates {
		if err := got.Apply(g); err != nil {
			return fmt.Errorf("verify-state: physical circuit: %w", err)
		}
	}
	for _, sw := range permutationSwaps(res.Initial, res.Final, n) {
		got.Swap(sw.U, sw.V)
	}

	want := statevec.New(n)
	for _, g := range logical.Gates {
		if g.Kind == gate.Measure || g.Kind == gate.Barrier {
			continue
		}
		mapped := circuit.Gate{Kind: g.Kind, Param: g.Param, CBit: g.CBit}
		mapped.Qubits = make([]int, len(g.Qubits))
		for i, q := range g.Qubits {
			mapped.Qubits[i] = res.Initial[q]
		}
		if err := want.Apply(mapped); err != nil {
			return fmt.Errorf("verify-state: logical circuit: %w", err)
		}
	}

	if f := statevec.Fidelity(got, want); math.Abs(f-1) > 1e-6 {
		return fmt.Errorf("verify-state: compiled circuit fidelity %v, want 1", f)
	}
	return nil
}

// ErrTooLarge marks devices whose state vector would not fit; callers
// fall back to VerifyClifford or the structural Verify.
var ErrTooLarge = fmt.Errorf("route: device too large for state-vector verification")

func TestVerifyStateQFTThroughEveryRouter(t *testing.T) {
	// QFT is the paper's hardest communication pattern AND non-Clifford:
	// only the state-vector check can validate it exactly.
	d := uniformDevice(topo.IBMQ5(), 0.04)
	prog := workloads.QFT(5)
	init := alloc.Mapping{3, 0, 4, 1, 2}
	for _, r := range []Router{
		AStar{Cost: CostHops, MAH: -1},
		AStar{Cost: CostReliability, MAH: -1},
		AStar{Cost: CostReliability, MAH: 4},
		Naive{},
	} {
		res, err := r.Route(d, prog, init)
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if err := VerifyState(d, prog, res, 0); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
	}
}

func TestVerifyStateALU(t *testing.T) {
	// The 10-qubit Toffoli-decomposed adder on a 16-qubit ladder.
	d := uniformDevice(topo.IBMQ16(), 0.04)
	prog := workloads.ALU()
	init := make(alloc.Mapping, 10)
	copy(init, rand.New(rand.NewSource(2)).Perm(16)[:10])
	res, err := AStar{Cost: CostReliability, MAH: -1}.Route(d, prog, init)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyState(d, prog, res, 0); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyStateCatchesTampering(t *testing.T) {
	d := uniformDevice(topo.Linear(3), 0.04)
	prog := circuit.New("p", 2).H(0).T(0).CX(0, 1)
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, prog, identity(2))
	if err != nil {
		t.Fatal(err)
	}
	bad := &Result{Physical: res.Physical.Clone().T(1), Initial: res.Initial, Final: res.Final}
	if VerifyState(d, prog, bad, 0) == nil {
		t.Fatal("extra T gate passed state verification")
	}
}

func TestVerifyStateTooLarge(t *testing.T) {
	d := uniformDevice(topo.IBMQ20(), 0.04)
	prog := workloads.BV(4)
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, prog, alloc.Mapping{0, 1, 2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyState(d, prog, res, 10); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge for a 20-qubit device at cap 10", err)
	}
	// With a loose cap the same result verifies.
	if err := VerifyState(d, prog, res, 20); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyStateRandomNonCliffordProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := uniformDevice(topo.IBMQ5(), 0.05)
		n := 2 + rng.Intn(4)
		c := circuit.New("nc", n)
		for i := 0; i < 16; i++ {
			a := rng.Intn(n)
			switch rng.Intn(5) {
			case 0:
				c.H(a)
			case 1:
				c.T(a)
			case 2:
				c.RZ(rng.Float64()*2-1, a)
			default:
				b := (a + 1 + rng.Intn(n-1)) % n
				c.CX(a, b)
			}
		}
		init := make(alloc.Mapping, n)
		copy(init, rng.Perm(5)[:n])
		r := []Router{
			AStar{Cost: CostHops, MAH: -1},
			AStar{Cost: CostReliability, MAH: -1},
			Naive{},
		}[rng.Intn(3)]
		res, err := r.Route(d, c, init)
		if err != nil {
			t.Logf("route: %v", err)
			return false
		}
		if err := VerifyState(d, c, res, 0); err != nil {
			t.Logf("%s: %v", r.Name(), err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
