package core

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"vaq/internal/alloc"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/route"
	"vaq/internal/sim"
	"vaq/internal/topo"
)

// skewedQ20 returns an IBM-Q20 device from the synthetic archive mean —
// realistic variation across links.
func skewedQ20() *device.Device {
	arch := calib.Generate(calib.DefaultQ20Config(17))
	return device.MustNew(arch.Topo, arch.MustMean())
}

func uniformQ20() *device.Device {
	tp := topo.IBMQ20()
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = 0.05
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.03
		s.T1Us[q], s.T2Us[q] = 80, 40
	}
	return device.MustNew(tp, s)
}

func randomProgram(seed int64, n, gates int) *circuit.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New("rand", n)
	for q := 0; q < n; q++ {
		c.H(q)
	}
	for i := 0; i < gates; i++ {
		a := rng.Intn(n)
		b := (a + 1 + rng.Intn(n-1)) % n
		c.CX(a, b)
	}
	c.MeasureAll()
	return c
}

func TestPolicyNames(t *testing.T) {
	for _, p := range AllPolicies() {
		name := p.String()
		got, ok := PolicyByName(name)
		if !ok || got != p {
			t.Fatalf("round trip failed for %v", p)
		}
	}
	if _, ok := PolicyByName("nope"); ok {
		t.Fatal("unknown policy name resolved")
	}
	if Policy(99).String() != "Policy(99)" {
		t.Fatal("out-of-range policy string")
	}
}

func TestCompileAllPoliciesVerify(t *testing.T) {
	d := skewedQ20()
	prog := randomProgram(3, 8, 20)
	for _, p := range AllPolicies() {
		c, err := Compile(d, prog, Options{Policy: p, Seed: 5})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if err := c.Verify(d); err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if c.Policy != p {
			t.Fatalf("result policy = %v, want %v", c.Policy, p)
		}
	}
}

func TestCompileUnknownPolicy(t *testing.T) {
	d := uniformQ20()
	for _, movement := range []string{"", "sabre"} {
		_, err := Compile(d, randomProgram(1, 4, 4), Options{Policy: Policy(42), Movement: movement})
		if err == nil || !strings.Contains(err.Error(), "unknown policy 42") {
			t.Fatalf("movement %q: err = %v, want unknown policy", movement, err)
		}
	}
}

// TestCandidates pins every policy's candidate list in order. The order
// is Best's tie-break, so every golden depends on it.
func TestCandidates(t *testing.T) {
	const (
		rel   = "astar-reliability"
		hops  = "astar-hops"
		sabre = "sabre-reliability"
	)
	type pair struct{ alloc, router string }
	for _, tc := range []struct {
		opts Options
		want []pair
	}{
		{Options{Policy: Native}, []pair{{"random", "naive"}}},
		{Options{Policy: Baseline}, []pair{{"greedy", hops}}},
		{Options{Policy: VQM}, []pair{{"greedy", rel}, {"greedy", hops}}},
		{Options{Policy: VQMHop}, []pair{{"greedy", "astar-reliability-mah4"}, {"greedy", hops}}},
		{Options{Policy: VQMHop, MAH: 2}, []pair{{"greedy", "astar-reliability-mah2"}, {"greedy", hops}}},
		{Options{Policy: VQAVQM}, []pair{{"vqa", rel}, {"greedy", rel}, {"vqa", hops}, {"greedy", hops}}},
		{Options{Policy: Native, Movement: "sabre"}, []pair{{"random", sabre}}},
		{Options{Policy: Baseline, Movement: "sabre"}, []pair{{"greedy", sabre}}},
		{Options{Policy: VQM, Movement: "sabre"}, []pair{{"greedy", sabre}}},
		{Options{Policy: VQMHop, Movement: "sabre"}, []pair{{"greedy", sabre}}},
		{Options{Policy: VQAVQM, Movement: "sabre"}, []pair{{"vqa", sabre}, {"greedy", sabre}}},
	} {
		cands, err := Candidates(tc.opts)
		if err != nil {
			t.Fatalf("%+v: %v", tc.opts, err)
		}
		var got []pair
		for _, c := range cands {
			got = append(got, pair{c.Alloc.Name(), c.Router.Name()})
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%+v: candidates %v, want %v", tc.opts, got, tc.want)
		}
	}
	if _, err := Candidates(Options{Policy: VQM, Movement: "nope"}); err == nil {
		t.Fatal("unknown movement accepted")
	}
}

// TestBestTieKeepsEarlier: a program with no two-qubit gates scores the
// same under every allocation of a uniform device, so the earlier
// candidate must win whichever it is.
func TestBestTieKeepsEarlier(t *testing.T) {
	d := uniformQ20()
	prog := circuit.New("flat", 3)
	prog.H(0).X(1).H(2).MeasureAll()
	hops := route.AStar{Cost: route.CostHops, MAH: -1}
	vqa, greedy := Candidate{alloc.VQA{}, hops}, Candidate{alloc.Greedy{}, hops}
	for _, cands := range [][]Candidate{{vqa, greedy}, {greedy, vqa}} {
		c, err := Best(d, prog, VQAVQM, cands)
		if err != nil {
			t.Fatal(err)
		}
		if want := cands[0].Alloc.Name(); c.Allocator != want || c.Policy != VQAVQM {
			t.Fatalf("winner %s (%v), want the earlier candidate %s (vqa+vqm)", c.Allocator, c.Policy, want)
		}
	}
	if _, err := Best(d, prog, VQM, nil); err == nil {
		t.Fatal("Best with no candidates returned no error")
	}
}

func TestCompileOversizedProgram(t *testing.T) {
	d := uniformQ20()
	prog := circuit.New("big", 25)
	if _, err := Compile(d, prog, Options{Policy: Baseline}); err == nil {
		t.Fatal("25-qubit program accepted on 20-qubit device")
	}
}

func TestBaselineEqualsVQMOnUniformDevice(t *testing.T) {
	d := uniformQ20()
	prog := randomProgram(11, 10, 30)
	base, err := Compile(d, prog, Options{Policy: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	vqm, err := Compile(d, prog, Options{Policy: VQM})
	if err != nil {
		t.Fatal(err)
	}
	if base.Swaps() != vqm.Swaps() {
		t.Fatalf("uniform device: baseline %d swaps vs VQM %d", base.Swaps(), vqm.Swaps())
	}
}

func TestVariationAwarePoliciesWinInAggregate(t *testing.T) {
	// The paper's headline: on a device with link variation, VQM improves
	// over the baseline and VQA+VQM improves over VQM (Figure 13), in
	// aggregate over workloads.
	d := skewedQ20()
	ratioVQM, ratioVQAVQM := 0.0, 0.0
	trials := 12
	for seed := int64(0); seed < int64(trials); seed++ {
		prog := randomProgram(seed, 8, 24)
		base, err := Compile(d, prog, Options{Policy: Baseline})
		if err != nil {
			t.Fatal(err)
		}
		vqm, err := Compile(d, prog, Options{Policy: VQM})
		if err != nil {
			t.Fatal(err)
		}
		full, err := Compile(d, prog, Options{Policy: VQAVQM})
		if err != nil {
			t.Fatal(err)
		}
		pb := sim.AnalyticPST(d, base.Routed.Physical, gatesOnly)
		ratioVQM += math.Log(sim.AnalyticPST(d, vqm.Routed.Physical, gatesOnly) / pb)
		ratioVQAVQM += math.Log(sim.AnalyticPST(d, full.Routed.Physical, gatesOnly) / pb)
	}
	gainVQM := math.Exp(ratioVQM / float64(trials))
	gainFull := math.Exp(ratioVQAVQM / float64(trials))
	if gainVQM < 1.0 {
		t.Errorf("VQM aggregate gain over baseline = %v, want ≥ 1", gainVQM)
	}
	if gainFull < gainVQM {
		t.Errorf("VQA+VQM gain %v below VQM gain %v, want ≥", gainFull, gainVQM)
	}
	if gainFull < 1.02 {
		t.Errorf("VQA+VQM aggregate gain = %v, want clearly above 1", gainFull)
	}
}

func TestNativeSeedVariesMappings(t *testing.T) {
	d := skewedQ20()
	prog := randomProgram(2, 6, 10)
	a, err := Compile(d, prog, Options{Policy: Native, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compile(d, prog, Options{Policy: Native, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Routed.Initial {
		if a.Routed.Initial[i] != b.Routed.Initial[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds gave identical native mappings")
	}
}

func TestVQMHopUsesDefaultMAH(t *testing.T) {
	d := skewedQ20()
	prog := randomProgram(4, 6, 12)
	c, err := Compile(d, prog, Options{Policy: VQMHop})
	if err != nil {
		t.Fatal(err)
	}
	// The winning candidate is either the MAH=4-limited reliability route
	// or the hop-cost fallback; both respect the hop budget.
	if c.Router != "astar-reliability-mah4" && c.Router != "astar-hops" {
		t.Fatalf("router = %s, want the mah4 route or its hop fallback", c.Router)
	}
	if err := c.Verify(d); err != nil {
		t.Fatal(err)
	}
}

func TestVariationAwareNeverBelowBaseline(t *testing.T) {
	// The candidate-selection design guarantees VQM, VQM-hop and VQA+VQM
	// are analytically at least as reliable as the baseline for every
	// program (the property Figures 12/13 show).
	d := skewedQ20()
	for seed := int64(0); seed < 10; seed++ {
		prog := randomProgram(seed, 9, 22)
		base, err := Compile(d, prog, Options{Policy: Baseline})
		if err != nil {
			t.Fatal(err)
		}
		pb := sim.AnalyticPST(d, base.Routed.Physical, gatesOnly)
		for _, p := range []Policy{VQM, VQMHop, VQAVQM} {
			c, err := Compile(d, prog, Options{Policy: p})
			if err != nil {
				t.Fatal(err)
			}
			if pc := sim.AnalyticPST(d, c.Routed.Physical, gatesOnly); pc < pb-1e-12 {
				t.Fatalf("seed %d: %v success %v below baseline %v", seed, p, pc, pb)
			}
		}
	}
}

func TestCompiledAccounting(t *testing.T) {
	d := uniformQ20()
	prog := randomProgram(8, 12, 25)
	c, err := Compile(d, prog, Options{Policy: Baseline})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Routed.Physical.Stats().Swaps; got != c.Swaps() {
		t.Fatalf("swap accounting mismatch: stats %d vs result %d", got, c.Swaps())
	}
	if c.Allocator != "greedy" || c.Router != "astar-hops" {
		t.Fatalf("components = %s/%s", c.Allocator, c.Router)
	}
}
