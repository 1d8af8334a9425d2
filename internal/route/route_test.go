package route

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vaq/internal/alloc"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/gate"
	"vaq/internal/graphx"
	"vaq/internal/topo"
)

// uniformDevice builds a device with uniform link error e over topology tp.
func uniformDevice(tp *topo.Topology, e float64) *device.Device {
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = e
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	return device.MustNew(tp, s)
}

// ring5Fig1 builds the paper's Figure 1 machine: ring A-B-C-D-E with
// success probabilities 0.7 (A-B), 0.6 (B-C), 0.9 (A-E, E-D, D-C).
func ring5Fig1() *device.Device {
	tp := topo.Ring5()
	s := calib.NewSnapshot(tp)
	s.SetTwoQubitError(0, 1, 0.3) // A-B: success 0.7
	s.SetTwoQubitError(1, 2, 0.4) // B-C: success 0.6
	s.SetTwoQubitError(0, 4, 0.1) // A-E
	s.SetTwoQubitError(3, 4, 0.1) // E-D
	s.SetTwoQubitError(2, 3, 0.1) // D-C
	for q := 0; q < 5; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	return device.MustNew(tp, s)
}

func identity(n int) alloc.Mapping {
	m := make(alloc.Mapping, n)
	for i := range m {
		m[i] = i
	}
	return m
}

func TestAStarNoSwapsWhenAdjacent(t *testing.T) {
	d := uniformDevice(topo.Linear(3), 0.05)
	c := circuit.New("adj", 2).CX(0, 1)
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, c, identity(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 0 {
		t.Fatalf("swaps = %d, want 0", res.Swaps)
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
}

func TestAStarInsertsMinimalSwapsOnChain(t *testing.T) {
	// CX between ends of a 4-chain needs 2 swaps minimum.
	d := uniformDevice(topo.Linear(4), 0.05)
	c := circuit.New("far", 4).CX(0, 3)
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, c, identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 2 {
		t.Fatalf("swaps = %d, want 2", res.Swaps)
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
}

func TestVQMPrefersReliableDetourFigure1(t *testing.T) {
	// Paper Figure 1(b): entangle Q1 (at A=0) with Q3 (at C=2). Hop
	// baseline uses A-B-C (1 swap, success 0.7³·0.6=0.2058). VQM takes
	// A-E-D-C (2 swaps over 0.9 links, success 0.9³·0.9³·0.9 ≈ 0.478).
	d := ring5Fig1()
	c := circuit.New("fig1", 3).CX(0, 2)
	init := alloc.Mapping{0, 1, 2} // Q1→A, Q2→B, Q3→C

	base, err := AStar{Cost: CostHops, MAH: -1}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	vqm, err := AStar{Cost: CostReliability, MAH: -1}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d, c, base); err != nil {
		t.Fatal(err)
	}
	if err := Verify(d, c, vqm); err != nil {
		t.Fatal(err)
	}
	if base.Swaps != 1 {
		t.Fatalf("baseline swaps = %d, want 1 (shortest route)", base.Swaps)
	}
	if vqm.Swaps != 2 {
		t.Fatalf("VQM swaps = %d, want 2 (reliable detour)", vqm.Swaps)
	}
	// VQM's route must be strictly more reliable.
	if ps, pb := successProduct(d, vqm.Physical), successProduct(d, base.Physical); ps <= pb {
		t.Fatalf("VQM success %v not better than baseline %v", ps, pb)
	}
}

// successProduct multiplies the success probability of every gate in a
// physical circuit (ignores coherence; enough for route comparisons).
func successProduct(d *device.Device, c *circuit.Circuit) float64 {
	p := 1.0
	for _, g := range c.Gates {
		p *= d.GateSuccess(g.Kind, g.Qubits)
	}
	return p
}

func TestMAHZeroForcesShortestRoute(t *testing.T) {
	// With MAH=0, VQM may not take the longer detour: it must use a
	// minimum-swap route even though it is less reliable.
	d := ring5Fig1()
	c := circuit.New("fig1", 3).CX(0, 2)
	init := alloc.Mapping{0, 1, 2}
	res, err := AStar{Cost: CostReliability, MAH: 0}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps != 1 {
		t.Fatalf("MAH=0 swaps = %d, want 1", res.Swaps)
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
}

func TestMAHLargeMatchesUnlimited(t *testing.T) {
	d := ring5Fig1()
	c := circuit.New("fig1", 3).CX(0, 2)
	init := alloc.Mapping{0, 1, 2}
	free, _ := AStar{Cost: CostReliability, MAH: -1}.Route(d, c, init)
	capped, _ := AStar{Cost: CostReliability, MAH: 10}.Route(d, c, init)
	if free.Swaps != capped.Swaps {
		t.Fatalf("loose MAH changed route: %d vs %d swaps", capped.Swaps, free.Swaps)
	}
}

func TestRouteRejectsBadMapping(t *testing.T) {
	d := uniformDevice(topo.Linear(3), 0.05)
	c := circuit.New("c", 2).CX(0, 1)
	if _, err := (AStar{MAH: -1}).Route(d, c, alloc.Mapping{0}); err == nil {
		t.Fatal("short mapping accepted")
	}
	if _, err := (AStar{MAH: -1}).Route(d, c, alloc.Mapping{0, 0}); err == nil {
		t.Fatal("duplicate mapping accepted")
	}
	if _, err := (Naive{}).Route(d, c, alloc.Mapping{0, 9}); err == nil {
		t.Fatal("out-of-range mapping accepted")
	}
}

// TestRouteRejectsDisconnectedDevice: every router rejects a split
// device, and routes on a device with no qubits, which counts as
// connected.
func TestRouteRejectsDisconnectedDevice(t *testing.T) {
	tp := topo.MustNew("split", 4, []topo.Coupling{{A: 0, B: 1}, {A: 2, B: 3}})
	d := uniformDevice(tp, 0.05)
	c := circuit.New("c", 2).CX(0, 1)
	empty := uniformDevice(topo.MustNew("empty", 0, nil), 0.05)
	for _, r := range []Router{AStar{MAH: -1}, Naive{}, Sabre{Cost: CostReliability}} {
		if _, err := r.Route(d, c, alloc.Mapping{0, 2}); err == nil {
			t.Errorf("%s: disconnected device accepted", r.Name())
		}
		if _, err := r.Route(empty, circuit.New("e", 0), alloc.Mapping{}); err != nil {
			t.Errorf("%s: empty device: %v", r.Name(), err)
		}
	}
}

func TestNaiveRoutesCorrectly(t *testing.T) {
	d := uniformDevice(topo.Linear(5), 0.05)
	c := circuit.New("n", 3).CX(0, 2).H(1).CX(0, 1).MeasureAll()
	init := alloc.Mapping{0, 2, 4}
	res, err := Naive{}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Fatal("naive router should have inserted swaps for distance-2 pairs")
	}
}

func TestMeasuresFollowDisplacedQubits(t *testing.T) {
	// Force a swap, then measure: the measure must land on the qubit's
	// new physical location with the original classical bit.
	d := uniformDevice(topo.Linear(3), 0.05)
	c := circuit.New("m", 2).CX(0, 1).Measure(0, 0).Measure(1, 1)
	init := alloc.Mapping{0, 2} // not adjacent: needs one swap
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
	// Find the measure that reads classical bit 0 and confirm it targets
	// program qubit 0's final location.
	for _, g := range res.Physical.Gates {
		if g.Kind == gate.Measure && g.CBit == 0 {
			if g.Qubits[0] != res.Final[0] {
				t.Fatalf("measure of program qubit 0 at %d, final mapping %v", g.Qubits[0], res.Final)
			}
		}
	}
}

func TestVQMDegeneratesToBaselineOnUniformErrors(t *testing.T) {
	// The paper: "In case of no variation in error-rates, our policy
	// selects the path with the minimum number of swaps (identical as a
	// baseline)."
	d := uniformDevice(topo.IBMQ20(), 0.05)
	rng := rand.New(rand.NewSource(4))
	c := circuit.New("r", 8)
	for i := 0; i < 25; i++ {
		a := rng.Intn(8)
		b := (a + 1 + rng.Intn(7)) % 8
		c.CX(a, b)
	}
	init := identity(8)
	base, err := AStar{Cost: CostHops, MAH: -1}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	vqm, err := AStar{Cost: CostReliability, MAH: -1}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	if base.Swaps != vqm.Swaps {
		t.Fatalf("uniform errors: baseline %d swaps, VQM %d swaps — should match", base.Swaps, vqm.Swaps)
	}
}

func TestRoutersPreserveSemanticsProperty(t *testing.T) {
	devices := []*device.Device{
		uniformDevice(topo.IBMQ20(), 0.05),
		ring5Fig1(),
		uniformDevice(topo.IBMQ5(), 0.04),
	}
	routers := []Router{
		AStar{Cost: CostHops, MAH: -1},
		AStar{Cost: CostReliability, MAH: -1},
		AStar{Cost: CostReliability, MAH: 4},
		Naive{},
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := devices[rng.Intn(len(devices))]
		n := 2 + rng.Intn(d.NumQubits()-1)
		c := circuit.New("prop", n)
		for i := 0; i < 15; i++ {
			a := rng.Intn(n)
			switch rng.Intn(4) {
			case 0:
				c.H(a)
			case 1:
				c.RZ(rng.Float64(), a)
			default:
				if n > 1 {
					b := (a + 1 + rng.Intn(n-1)) % n
					c.CX(a, b)
				}
			}
		}
		c.MeasureAll()
		init := make(alloc.Mapping, n)
		perm := rng.Perm(d.NumQubits())
		copy(init, perm[:n])
		for _, r := range routers {
			res, err := r.Route(d, c, init)
			if err != nil {
				t.Logf("%s: route error: %v", r.Name(), err)
				return false
			}
			if err := Verify(d, c, res); err != nil {
				t.Logf("%s: verify error: %v", r.Name(), err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReliabilityBeatsBaselineInAggregate(t *testing.T) {
	// VQM optimizes the product of success probabilities per layer
	// transition; the search is layer-local, so an individual instance can
	// occasionally lose to the baseline, but across many random programs
	// on a skewed device VQM must win in (geometric-mean) aggregate.
	d := ring5Fig1()
	rng := rand.New(rand.NewSource(9))
	logSum := 0.0
	trials := 30
	for trial := 0; trial < trials; trial++ {
		c := circuit.New("t", 4)
		for i := 0; i < 6; i++ {
			a := rng.Intn(4)
			b := (a + 1 + rng.Intn(3)) % 4
			c.CX(a, b)
		}
		init := make(alloc.Mapping, 4)
		copy(init, rng.Perm(5)[:4])
		base, err := AStar{Cost: CostHops, MAH: -1}.Route(d, c, init)
		if err != nil {
			t.Fatal(err)
		}
		vqm, err := AStar{Cost: CostReliability, MAH: -1}.Route(d, c, init)
		if err != nil {
			t.Fatal(err)
		}
		pb, pv := successProduct(d, base.Physical), successProduct(d, vqm.Physical)
		logSum += math.Log(pv / pb)
	}
	if gain := math.Exp(logSum / float64(trials)); gain < 1.0 {
		t.Fatalf("aggregate VQM/baseline success ratio = %v, want ≥ 1", gain)
	}
}

func TestSwapCountsAccounting(t *testing.T) {
	d := uniformDevice(topo.Linear(4), 0.05)
	c := circuit.New("acc", 4).CX(0, 3).CX(0, 3)
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, c, identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Physical.Stats().Swaps; got != res.Swaps {
		t.Fatalf("Stats().Swaps = %d, Result.Swaps = %d", got, res.Swaps)
	}
}

func TestCostModelString(t *testing.T) {
	if CostHops.String() != "hops" || CostReliability.String() != "reliability" {
		t.Fatal("CostModel strings wrong")
	}
	if (AStar{Cost: CostReliability, MAH: 4}).Name() != "astar-reliability-mah4" {
		t.Fatalf("name = %s", AStar{Cost: CostReliability, MAH: 4}.Name())
	}
}

func TestGreedyFallbackUnderTinyExpansionCap(t *testing.T) {
	// With MaxExpansions=1 the A* search cannot finish; the greedy
	// fallback must still produce a correct compilation.
	d := uniformDevice(topo.IBMQ20(), 0.05)
	c := circuit.New("g", 6).CX(0, 5).CX(1, 4).CX(2, 3)
	init := alloc.Mapping{0, 4, 10, 14, 9, 19}
	res, err := AStar{Cost: CostReliability, MAH: -1, MaxExpansions: 1}.Route(d, c, init)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d, c, res); err != nil {
		t.Fatal(err)
	}
}

func TestProgramSwapsAreComputation(t *testing.T) {
	// Regression: a program that itself contains SWAP gates (the paper's
	// TriSwap kernel) must verify — the router distinguishes its inserted
	// movement SWAPs from the program's own.
	d := uniformDevice(topo.IBMQ5(), 0.04)
	prog := circuit.New("triswap", 3).X(0).Swap(0, 1).Swap(1, 2).Swap(0, 1).MeasureAll()
	for _, r := range []Router{
		AStar{Cost: CostHops, MAH: -1},
		AStar{Cost: CostReliability, MAH: -1},
		Naive{},
	} {
		// Non-adjacent initial placement forces movement SWAPs alongside
		// the program SWAPs.
		res, err := r.Route(d, prog, alloc.Mapping{0, 1, 3})
		if err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if err := Verify(d, prog, res); err != nil {
			t.Fatalf("%s: %v", r.Name(), err)
		}
		if err := VerifyClifford(d, prog, res); err != nil {
			t.Fatalf("%s clifford: %v", r.Name(), err)
		}
		// Movement accounting matches the swap counter.
		if len(res.Movement) != res.Swaps {
			t.Fatalf("%s: %d movement indices for %d swaps", r.Name(), len(res.Movement), res.Swaps)
		}
		for _, gi := range res.Movement {
			if res.Physical.Gates[gi].Kind != gate.SWAP {
				t.Fatalf("%s: movement index %d is not a SWAP", r.Name(), gi)
			}
		}
		// Physical circuit holds program swaps + movement swaps.
		if total := res.Physical.Stats().Swaps; total != 3+res.Swaps {
			t.Fatalf("%s: physical swaps = %d, want 3 program + %d movement", r.Name(), total, res.Swaps)
		}
	}
}

func TestVerifyRejectsMislabeledMovement(t *testing.T) {
	// Dropping a movement annotation must break verification: the replay
	// then treats a displacement as computation.
	d := uniformDevice(topo.Linear(3), 0.04)
	prog := circuit.New("m", 2).CX(0, 1)
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, prog, alloc.Mapping{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Swaps == 0 {
		t.Fatal("setup: expected movement")
	}
	bad := &Result{Physical: res.Physical, Initial: res.Initial, Final: res.Final, Swaps: res.Swaps}
	if Verify(d, prog, bad) == nil {
		t.Fatal("verification passed with movement annotations dropped")
	}
}

func TestVerifyRejectsOutOfRangeMovement(t *testing.T) {
	// A movement index that names no physical gate is a corrupt result,
	// not an annotation to skip.
	d := uniformDevice(topo.Linear(3), 0.04)
	prog := circuit.New("m", 2).CX(0, 1)
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, prog, alloc.Mapping{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(d, prog, res); err != nil {
		t.Fatalf("setup: %v", err)
	}
	for _, gi := range []int{-1, len(res.Physical.Gates)} {
		bad := *res
		bad.Movement = append(append([]int(nil), res.Movement...), gi)
		if Verify(d, prog, &bad) == nil {
			t.Fatalf("verification passed with movement index %d", gi)
		}
	}
}

func TestVerifyCatchesCorruptedCompilation(t *testing.T) {
	d := uniformDevice(topo.Linear(3), 0.05)
	c := circuit.New("v", 2).CX(0, 1)
	res, err := AStar{Cost: CostHops, MAH: -1}.Route(d, c, identity(2))
	if err != nil {
		t.Fatal(err)
	}
	// Tamper: drop the CX.
	bad := &Result{Physical: circuit.New("v", 3), Initial: res.Initial, Final: res.Final}
	if Verify(d, c, bad) == nil {
		t.Fatal("verify accepted a circuit with missing gates")
	}
	// Tamper: CX on non-coupled qubits.
	bad2 := &Result{Physical: circuit.New("v", 3).CX(0, 2), Initial: res.Initial, Final: res.Final}
	if Verify(d, c, bad2) == nil {
		t.Fatal("verify accepted a CX across non-coupled qubits")
	}
}

func TestHeuristicZeroForAdjacentPairs(t *testing.T) {
	d := uniformDevice(topo.Linear(3), 0.05)
	cm := newCosts(d, CostReliability)
	cm.ensureAdj()
	if h := cm.heuristic(alloc.Mapping{0, 1}, [][2]int{{0, 1}}); h != 0 {
		t.Fatalf("heuristic for adjacent pair = %v, want 0", h)
	}
	if h := cm.heuristic(alloc.Mapping{0, 2}, [][2]int{{0, 1}}); h <= 0 {
		t.Fatalf("heuristic for distant pair = %v, want > 0", h)
	}
}

func TestAdjacencyMatrixSymmetricUnderSwap(t *testing.T) {
	d := uniformDevice(topo.IBMQ20(), 0.05)
	cm := newCosts(d, CostHops)
	cm.ensureAdj()
	for a := 0; a < 20; a++ {
		for b := 0; b < 20; b++ {
			if a == b {
				continue
			}
			if math.Abs(cm.adjCost[a][b]-cm.adjCost[b][a]) > 1e-9 {
				t.Fatalf("adjCost asymmetric at (%d,%d)", a, b)
			}
		}
	}
}

// referenceAdjacency is the two-sided edge minimum the A* table is
// defined by, computed the direct way for every ordered pair: for each
// (a,b), the cheapest coupling (u,v) to place them across, both
// orientations, with a 0 diagonal.
func referenceAdjacency(edges []graphx.Edge, dist *graphx.Rows, n int) [][]float64 {
	adj := make([][]float64, n)
	for a := range adj {
		adj[a] = make([]float64, n)
		da := dist.Row(a)
		for b := 0; b < n; b++ {
			if a == b {
				continue
			}
			db := dist.Row(b)
			best := math.Inf(1)
			for _, e := range edges {
				if c := da[e.U] + db[e.V]; c < best {
					best = c
				}
				if c := da[e.V] + db[e.U]; c < best {
					best = c
				}
			}
			adj[a][b] = best
		}
	}
	return adj
}

// TestAdjacencyMatchesReference: the A* table is bit-identical to the
// two-sided edge minimum under both cost models (the hop table is read
// off the hop rows, the reliability table is built for a < b and
// mirrored), and the MAH budget's minimum-swap count equals the sum of
// the reference hop-model minimum over random mappings.
func TestAdjacencyMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *device.Device
	}{
		{"q20", goldenQ20()},
		{"ring5", ring5Fig1()},
		{"grid-25", goldenZoo("grid-25")()},
		{"heavy-hex-127-holes8", goldenZoo("heavy-hex-127-holes8")()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.d.NumQubits()
			var refHops [][]float64
			var tables []*costs
			for _, model := range []CostModel{CostHops, CostReliability} {
				cm := newCosts(tc.d, model)
				cm.ensureAdj()
				ref := referenceAdjacency(cm.edges, cm.dist, n)
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						if math.Float64bits(cm.adjCost[a][b]) != math.Float64bits(ref[a][b]) {
							t.Fatalf("model %d: adjCost[%d][%d] = %v, reference %v", model, a, b, cm.adjCost[a][b], ref[a][b])
						}
					}
				}
				if model == CostHops {
					refHops = ref
				}
				tables = append(tables, cm)
			}

			rng := rand.New(rand.NewSource(int64(n)))
			k := n
			if k > 12 {
				k = 12
			}
			for trial := 0; trial < 200; trial++ {
				m := alloc.Mapping(rng.Perm(n)[:k])
				var pairs [][2]int
				perm := rng.Perm(k)
				for i := 0; i+1 < k; i += 2 {
					pairs = append(pairs, [2]int{perm[i], perm[i+1]})
				}
				want := 0.0
				for _, pr := range pairs {
					want += refHops[m[pr[0]]][m[pr[1]]]
				}
				for _, cm := range tables {
					if got := cm.minSwapsNeeded(m, pairs); got != int(want) {
						t.Fatalf("model %d mapping %v pairs %v: minSwapsNeeded = %d, reference %d", cm.model, m, pairs, got, int(want))
					}
				}
			}
		})
	}
}
