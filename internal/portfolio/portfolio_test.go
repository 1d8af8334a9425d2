package portfolio

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/parallel"
	"vaq/internal/route"
	"vaq/internal/workloads"
)

// testFixture builds the shared portfolio setup: a generated IBM-Q20
// archive with its mean device as the scoring reference.
func testFixture(t testing.TB) (*device.Device, *calib.Archive) {
	t.Helper()
	arch := calib.Generate(calib.DefaultQ20Config(11))
	d, err := device.New(arch.Topo, arch.MustMean())
	if err != nil {
		t.Fatal(err)
	}
	return d, arch
}

func testSpec(workers int) Spec {
	return Spec{
		RootSeed:     7,
		Cycles:       1,
		RandomStarts: 1,
		TopK:         3,
		Trials:       2000,
		Workers:      workers,
	}
}

func TestGridDeterministicAndSized(t *testing.T) {
	_, arch := testFixture(t)
	spec := testSpec(0)
	g1 := Grid(spec, arch)
	g2 := Grid(spec, arch)
	if len(g1) == 0 {
		t.Fatal("empty grid")
	}
	if want := GridSize(spec, len(arch.Snapshots)); len(g1) != want {
		t.Fatalf("GridSize %d != len(Grid) %d", want, len(g1))
	}
	if fmt.Sprint(g1) != fmt.Sprint(g2) {
		t.Fatal("grid enumeration is not deterministic")
	}
	// (2 greedy/vqa + 1 random) × 4 movers × 2 optimize × (mean + 1 cycle)
	if want := 3 * 4 * 2 * 2; len(g1) != want {
		t.Fatalf("grid has %d candidates, want %d", len(g1), want)
	}
	// The sabre movement axis is on the grid; sabre-hops deliberately is
	// not (it duplicates baseline's objective) but stays name-resolvable.
	movers := map[string]bool{}
	for _, c := range g1 {
		movers[c.Mover] = true
	}
	if !movers[MoverSabre] {
		t.Errorf("grid movers %v missing %q", movers, MoverSabre)
	}
	if movers[route.MovementSabreHops] {
		t.Errorf("sabre-hops should stay off the default grid")
	}
	seen := map[int64]bool{}
	for i, c := range g1 {
		if c.ID != i {
			t.Fatalf("candidate %d has ID %d", i, c.ID)
		}
		if seen[c.Seed] {
			t.Fatalf("duplicate derived seed %d at candidate %d", c.Seed, i)
		}
		seen[c.Seed] = true
	}
	// The most recent cycle, not an arbitrary one, is in the window.
	last := arch.Snapshots[len(arch.Snapshots)-1].Cycle
	found := false
	for _, c := range g1 {
		if c.Cycle == last {
			found = true
		}
	}
	if !found {
		t.Fatalf("grid does not cover the most recent cycle %d", last)
	}
}

func TestGridNilArchive(t *testing.T) {
	g := Grid(testSpec(0), nil)
	for _, c := range g {
		if c.Cycle != MeanCycle {
			t.Fatalf("nil-archive grid has cycle %d", c.Cycle)
		}
	}
	if want := 3 * 4 * 2; len(g) != want {
		t.Fatalf("nil-archive grid has %d candidates, want %d", len(g), want)
	}
}

// TestRunDeterministicAcrossWorkers pins the acceptance criterion: the
// same root seed, device, and circuit produce a byte-identical ranked
// portfolio at 1, 2, and GOMAXPROCS workers.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	d, arch := testFixture(t)
	prog := workloads.BV(8)
	var want []byte
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		res, err := Run(context.Background(), d, arch, prog, testSpec(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		res.ClearTimings()
		got, err := json.MarshalIndent(res, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
			continue
		}
		if string(got) != string(want) {
			t.Errorf("workers=%d: ranked portfolio differs from workers=1", workers)
		}
	}
}

func TestRunRankingInvariants(t *testing.T) {
	d, arch := testFixture(t)
	prog := workloads.BV(8)
	spec := testSpec(0)
	res, err := Run(context.Background(), d, arch, prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("unexpected failures: %+v", res.Failures)
	}
	if got, want := len(res.Candidates), GridSize(spec, len(arch.Snapshots)); got != want {
		t.Fatalf("ranked %d candidates, want %d", got, want)
	}
	for i, c := range res.Candidates {
		if c.Rank != i+1 {
			t.Fatalf("candidate %d has rank %d", i, c.Rank)
		}
		if refined := c.MCResult != nil; refined != (i < spec.TopK) {
			t.Fatalf("candidate rank %d refined=%v, want top-%d refined", c.Rank, refined, spec.TopK)
		}
		if c.Compiled == nil {
			t.Fatalf("candidate rank %d lost its compilation", c.Rank)
		}
		if c.AnalyticPST <= 0 || c.AnalyticPST > 1 {
			t.Fatalf("candidate rank %d analytic PST %v out of range", c.Rank, c.AnalyticPST)
		}
	}
	// The analytic tail stays analytic-sorted.
	for i := spec.TopK; i+1 < len(res.Candidates); i++ {
		a, b := res.Candidates[i], res.Candidates[i+1]
		if a.AnalyticPST < b.AnalyticPST {
			t.Fatalf("tail not analytic-sorted at rank %d: %v < %v", a.Rank, a.AnalyticPST, b.AnalyticPST)
		}
	}
	if best := res.Best(); best == nil || best.Rank != 1 {
		t.Fatalf("Best() = %+v", best)
	}
	// The portfolio's winner is at least as reliable (analytically) as
	// the plain greedy/baseline candidate on the mean device — the
	// candidate every fixed policy can also produce.
	for _, c := range res.Candidates {
		if c.Alloc == AllocGreedy && c.Mover == MoverBaseline && !c.Optimize && c.Cycle == MeanCycle {
			if res.Candidates[0].AnalyticPST < c.AnalyticPST {
				t.Fatalf("winner analytic %v below baseline candidate %v",
					res.Candidates[0].AnalyticPST, c.AnalyticPST)
			}
		}
	}
}

// TestInjectedPanicQuarantined pins the fault-isolation acceptance
// criterion: a panicking candidate lands in the failure list while
// every sibling still ranks.
func TestInjectedPanicQuarantined(t *testing.T) {
	d, arch := testFixture(t)
	prog := workloads.BV(8)
	spec := testSpec(2)
	grid := Grid(spec, arch)
	victim := grid[len(grid)/2]
	compileHook = func(c CandidateSpec) {
		if c.ID == victim.ID {
			panic("injected portfolio test panic")
		}
	}
	defer func() { compileHook = nil }()

	res, err := Run(context.Background(), d, arch, prog, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != len(grid)-1 {
		t.Fatalf("ranked %d candidates, want %d", len(res.Candidates), len(grid)-1)
	}
	if len(res.Failures) != 1 {
		t.Fatalf("got %d failures, want 1: %+v", len(res.Failures), res.Failures)
	}
	f := res.Failures[0]
	if f.ID != victim.ID {
		t.Fatalf("failure at candidate %d, want %d", f.ID, victim.ID)
	}
	if !strings.Contains(f.Reason, "injected portfolio test panic") {
		t.Fatalf("failure reason %q does not carry the panic", f.Reason)
	}
	var pe *parallel.PanicError
	if !errors.As(f.Err, &pe) {
		t.Fatalf("failure error %T does not unwrap to PanicError", f.Err)
	}
	for _, c := range res.Candidates {
		if c.ID == victim.ID {
			t.Fatal("panicked candidate still ranked")
		}
	}
}

func TestRunAllCandidatesFailed(t *testing.T) {
	d, arch := testFixture(t)
	prog := workloads.BV(8)
	compileHook = func(CandidateSpec) { panic("total failure") }
	defer func() { compileHook = nil }()
	res, err := Run(context.Background(), d, arch, prog, testSpec(0))
	if err == nil {
		t.Fatal("expected error when every candidate fails")
	}
	if res == nil || len(res.Failures) == 0 {
		t.Fatal("failure list missing from all-failed result")
	}
}

func TestRunCancelled(t *testing.T) {
	d, arch := testFixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, d, arch, workloads.BV(8), testSpec(0))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunProgramTooLarge: a program that cannot fit the device fails
// every candidate with a typed error rather than panicking, and each
// failure names its own grid point, not a policy it does not belong to.
func TestRunProgramTooLarge(t *testing.T) {
	d, arch := testFixture(t)
	res, err := Run(context.Background(), d, arch, workloads.BV(64), testSpec(0))
	if err == nil {
		t.Fatal("expected error for oversized program")
	}
	if len(res.Failures) == 0 {
		t.Fatal("no failures recorded")
	}
	for _, f := range res.Failures {
		if !strings.HasPrefix(f.Reason, f.Label()+": alloc: ") || strings.Contains(f.Reason, "core(native)") {
			t.Fatalf("failure reason %q, want %q-prefixed alloc error", f.Reason, f.Label()+": alloc: ")
		}
	}
}

// TestGridCoversFixedPolicies pins the superset claim the portfolio
// experiment rests on: every candidate of every deterministic fixed
// policy is a mean-cycle, non-optimized grid point.
func TestGridCoversFixedPolicies(t *testing.T) {
	type pair struct{ alloc, router string }
	onGrid := map[pair]bool{}
	for _, cs := range Grid(Spec{}, nil) {
		if cs.Cycle != MeanCycle || cs.Optimize {
			continue
		}
		c, err := cs.candidate()
		if err != nil {
			t.Fatal(err)
		}
		onGrid[pair{c.Alloc.Name(), c.Router.Name()}] = true
	}
	for _, p := range []core.Policy{core.Baseline, core.VQM, core.VQMHop, core.VQAVQM} {
		cands, err := core.Candidates(core.Options{Policy: p})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cands {
			if k := (pair{c.Alloc.Name(), c.Router.Name()}); !onGrid[k] {
				t.Errorf("%v candidate %v is not a mean-cycle grid point", p, k)
			}
		}
	}
}

func TestDeriveSeedStreamsDecorrelated(t *testing.T) {
	if deriveSeed(7, compileStream, 0) == deriveSeed(7, mcStream, 0) {
		t.Fatal("compile and MC streams collide")
	}
	if deriveSeed(7, compileStream, 1) == deriveSeed(8, compileStream, 1) {
		t.Fatal("root seed does not alter derived seeds")
	}
}

func TestSpecDefaults(t *testing.T) {
	s := Spec{}.withDefaults()
	if s.RootSeed != DefaultRootSeed || s.Cycles != DefaultCycles ||
		s.RandomStarts != DefaultRandomStarts || s.TopK != DefaultTopK || s.Trials != DefaultTrials {
		t.Fatalf("unexpected defaults: %+v", s)
	}
	// Negative axes mean "none", not "default".
	s = Spec{Cycles: -1, RandomStarts: -1}.withDefaults()
	if s.Cycles != 0 || s.RandomStarts != 0 {
		t.Fatalf("negative axes not normalized to zero: %+v", s)
	}
	// withDefaults is idempotent: a normalized "none" (0) must not be
	// reinterpreted as "use the default" on a second pass — Run
	// normalizes once and Grid normalizes again.
	if s2 := s.withDefaults(); s2.Cycles != 0 || s2.RandomStarts != 0 {
		t.Fatalf("withDefaults not idempotent: %+v", s2)
	}
}

func TestCandidateLabel(t *testing.T) {
	cases := []struct {
		c    CandidateSpec
		want string
	}{
		{CandidateSpec{Alloc: AllocGreedy, Mover: MoverBaseline, Cycle: MeanCycle}, "greedy/baseline@mean"},
		{CandidateSpec{Alloc: AllocRandom, Start: 1, Mover: MoverVQM, Optimize: true, Cycle: 103}, "random#1/vqm+O@c103"},
	}
	for _, tc := range cases {
		if got := tc.c.Label(); got != tc.want {
			t.Errorf("Label() = %q, want %q", got, tc.want)
		}
	}
}

// TestDeriveSeedKnownAnswers pins the grid's seed derivation on both
// streams.
func TestDeriveSeedKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		root   int64
		stream uint64
		i      int
		want   int64
	}{
		{0, compileStream, 0, -5161308643252140986},
		{2019, compileStream, 5, 6084246227982634627},
		{2019, mcStream, 0, 4257323888423685458},
		{-1, mcStream, 63, -5830339179449557485},
	} {
		if got := deriveSeed(tc.root, tc.stream, tc.i); got != tc.want {
			t.Errorf("deriveSeed(%d, %#x, %d) = %d, want %d", tc.root, tc.stream, tc.i, got, tc.want)
		}
	}
}
