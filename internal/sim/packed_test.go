package sim

import (
	"math"
	"math/bits"
	"runtime"
	"testing"
	"time"

	"vaq/internal/circuit"
	"vaq/internal/gate"
)

// firstFaultClassProbs computes the closed-form probability that a trial's
// first failure lands in each attribution class, walking the error model
// in trial order: P_c = Σ_{i: class(i)=c} pᵢ · Π_{j<i} (1−pⱼ). These are
// the exact expectations the packed kernel's coalesced counters estimate,
// and they are invariant under class-run coalescing because a run's
// internal order never moves a first failure across a class boundary.
func firstFaultClassProbs(p *Prepared) (gateP, readP, cohP float64) {
	alive := 1.0
	for i, e := range p.gateErr {
		if p.gateClass[i] == gate.Readout {
			readP += alive * e
		} else {
			gateP += alive * e
		}
		alive *= 1 - e
	}
	for _, e := range p.coh {
		cohP += alive * e
		alive *= 1 - e
	}
	return
}

// checkWithin3SE asserts an observed count of n trials is within three
// binomial standard errors of its expectation (plus a small absolute
// floor so zero-variance corners stay checkable).
func checkWithin3SE(t *testing.T, label string, got, trials int, want float64) {
	t.Helper()
	se := math.Sqrt(float64(trials) * want * (1 - want))
	if diff := math.Abs(float64(got) - float64(trials)*want); diff > 3*se+1 {
		t.Errorf("%s: got %d of %d (p̂=%v), want p=%v — off by %.1f, allowed 3·SE=%.1f",
			label, got, trials, float64(got)/float64(trials), want, diff, 3*se)
	}
}

// checkKernelAgreement runs both kernels against one prepared model and
// cross-checks PST and all per-class first-failure counts against the
// closed form within 3 standard errors.
func checkKernelAgreement(t *testing.T, label string, p *Prepared, trials int, seed int64) {
	t.Helper()
	gateP, readP, cohP := firstFaultClassProbs(p)
	runs := map[string]func(Config) Outcome{KernelPacked: p.Run, kernelScalar: p.runScalar}
	for _, kernel := range []string{KernelPacked, kernelScalar} {
		out := runs[kernel](Config{Trials: trials, Seed: seed})
		if out.Kernel != kernel {
			t.Fatalf("%s/%s: Outcome.Kernel = %q", label, kernel, out.Kernel)
		}
		checkWithin3SE(t, label+"/"+kernel+"/pst", out.Successes, trials, p.analytic)
		checkWithin3SE(t, label+"/"+kernel+"/gate", out.GateFailures, trials, gateP)
		checkWithin3SE(t, label+"/"+kernel+"/readout", out.ReadoutFailures, trials, readP)
		checkWithin3SE(t, label+"/"+kernel+"/coherence", out.CoherenceFailures, trials, cohP)
		if got := out.Successes + out.GateFailures + out.ReadoutFailures + out.CoherenceFailures; got != trials {
			t.Fatalf("%s/%s: counts sum to %d, want %d", label, kernel, got, trials)
		}
	}
}

// TestPackedMatchesScalarAndAnalytic is the statistical-equivalence
// suite: on the realistic bv-16/q20 workload and on a synthetic uniform
// device, packed and scalar PSTs and per-class failure counts both agree
// with the closed form within 3 standard errors.
func TestPackedMatchesScalarAndAnalytic(t *testing.T) {
	trials := 200000
	if testing.Short() {
		trials = 50000
	}
	d, phys := q20Compiled(t)
	checkKernelAgreement(t, "bv16-q20", Prepare(d, phys, Config{}), trials, 12345)

	d5 := uniformQ5(0.05)
	c := circuitBV5(t)
	checkKernelAgreement(t, "uniform-q5", Prepare(d5, c, Config{}), trials, 777)
	checkKernelAgreement(t, "uniform-q5-nocoh",
		Prepare(d5, c, Config{DisableCoherence: true}), trials, 778)
}

// TestPackedInterleavedClasses exercises a hand-built error model whose
// classes interleave (gate, readout, gate, coherence) with probabilities
// dense enough to force alias-table rows and heavy cross-class overlaps —
// the shape mid-circuit measurement produces, where first-fault
// attribution depends on circuit order, not a fixed class priority.
func TestPackedInterleavedClasses(t *testing.T) {
	p := &Prepared{
		gateErr: []float64{0.02, 0.3, 0.15, 0.001, 0, 0.08},
		gateClass: []gate.ErrorClass{
			gate.OneQubit, gate.OneQubit, gate.Readout,
			gate.OneQubit, gate.Readout, gate.Readout,
		},
		coh:      []float64{0.01, 0.25},
		duration: time.Microsecond,
	}
	p.analytic = 1
	for _, e := range p.gateErr {
		p.analytic *= 1 - e
	}
	for _, e := range p.coh {
		p.analytic *= 1 - e
	}
	if got := len(buildPackedPlan(p.gateErr, p.gateClass, p.coh).rows); got != 3 {
		t.Fatalf("interleaved plan has %d rows, want 3 class aggregates", got)
	}
	checkKernelAgreement(t, "interleaved", p, 200000, 31)
}

// TestBuildPackedPlanAggregation pins the plan construction rules: each
// class collapses to one row with p = 1−Π(1−pᵢ), zero-p ops vanish,
// certain failures saturate their class, and equal-probability dense rows
// share one alias table.
func TestBuildPackedPlanAggregation(t *testing.T) {
	g, r := gate.OneQubit, gate.Readout
	plan := buildPackedPlan(
		[]float64{0.1, 0, 0.1, 0.2, 0.2},
		[]gate.ErrorClass{g, g, g, r, r},
		[]float64{0.001, 0.002},
	)
	if len(plan.rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(plan.rows))
	}
	wants := []struct {
		class packedClass
		p     float64
	}{
		{classGate, 1 - 0.9*0.9},
		{classReadout, 1 - 0.8*0.8},
		{classCoherence, 1 - 0.999*0.998},
	}
	for i, w := range wants {
		row := plan.rows[i]
		if row.class != w.class || math.Abs(row.p-w.p) > 1e-12 {
			t.Errorf("row %d = {class %d, p %v}, want {class %d, p %v}",
				i, row.class, row.p, w.class, w.p)
		}
	}
	if plan.rows[0].tbl == nil || plan.rows[1].tbl == nil {
		t.Error("dense rows missing alias tables")
	}
	if plan.rows[2].tbl != nil {
		t.Error("sparse coherence row built an alias table")
	}

	// All-zero model: no rows at all.
	if empty := buildPackedPlan([]float64{0, 0}, []gate.ErrorClass{g, g}, nil); len(empty.rows) != 0 {
		t.Errorf("zero model produced %d rows", len(empty.rows))
	}

	// A certain failure saturates its class.
	sure := buildPackedPlan([]float64{0.1, 1, 0.1}, []gate.ErrorClass{g, g, g}, nil)
	if len(sure.rows) != 1 || sure.rows[0].p != 1 {
		t.Fatalf("certain-failure class = %+v, want single p=1 row", sure.rows)
	}
	out := (&Prepared{gateErr: []float64{1}, gateClass: []gate.ErrorClass{g}}).Run(Config{Trials: 10000, Seed: 3})
	if out.Successes != 0 || out.GateFailures != 10000 {
		t.Fatalf("certain-failure outcome = %+v", out)
	}

	// Equal dense probabilities share one table.
	dup := buildPackedPlan([]float64{0.3, 0.3}, []gate.ErrorClass{g, r}, nil)
	if dup.rows[0].tbl != dup.rows[1].tbl {
		t.Error("equal-probability rows did not share an alias table")
	}
}

// TestPackedWorkerDeterminismGolden pins the packed kernel's exact
// Outcome on the bv-16/q20 workload and proves it bit-identical at worker
// counts 1, 2, and GOMAXPROCS. The pinned values also guard the packed
// RNG-consumption layout: any change to sampling order re-pins them.
func TestPackedWorkerDeterminismGolden(t *testing.T) {
	d, phys := q20Compiled(t)
	cfg := Config{Trials: 50000, Seed: 99}
	want := Outcome{
		Trials:            50000,
		Successes:         2720,
		GateFailures:      33298,
		ReadoutFailures:   13466,
		CoherenceFailures: 516,
		Kernel:            KernelPacked,
	}
	workers := []int{-1, 1, 2, runtime.GOMAXPROCS(0)}
	for _, w := range workers {
		cfg.Workers = w
		got := Run(d, phys, cfg)
		got.PST, got.StdErr = 0, 0
		got.Duration, got.TrialLatency, got.SuccessesPerSecond = 0, 0, 0
		if got != want {
			t.Fatalf("workers=%d: %+v, want pinned %+v", w, got, want)
		}
	}
}

// TestScalarGoldenUnchanged pins the scalar reference kernel's Outcome on
// the same workload: the packed rewrite must leave the historical scalar
// trial streams byte-identical.
func TestScalarGoldenUnchanged(t *testing.T) {
	d, phys := q20Compiled(t)
	out := Prepare(d, phys, Config{}).runScalar(Config{Trials: 50000, Seed: 99})
	want := Outcome{
		Trials:            50000,
		Successes:         2721,
		GateFailures:      33116,
		ReadoutFailures:   13681,
		CoherenceFailures: 482,
		Kernel:            kernelScalar,
	}
	out.PST, out.StdErr = 0, 0
	out.Duration, out.TrialLatency, out.SuccessesPerSecond = 0, 0, 0
	if out != want {
		t.Fatalf("scalar outcome %+v, want pinned %+v", out, want)
	}
}

// TestSparseSkipAhead checks the geometric skip-ahead scan against exact
// binomial tail probabilities: cutting the flattened grid into 64-lane
// words, the per-word fault-free probability must match (1−p)⁶⁴, the
// ≥2-fault tail must match 1−(1−p)⁶⁴−64p(1−p)⁶³, the mean fault count
// must match 64p, and every lane offset must fire equally often (the scan
// is position-uniform).
func TestSparseSkipAhead(t *testing.T) {
	const words = 2000000
	for _, p := range []float64{1e-4, 1e-3, 5e-3} {
		r := splitmix64(0xC0FFEE)
		invLogQ := 1 / math.Log1p(-p)
		// Scan large grids (a block's worth of words at a time), slicing
		// the fault positions into per-word masks.
		const gridWords = 64
		grid := gridWords * 64
		masks := make([]uint64, gridWords)
		var zero, multi, totalFaults int
		var laneHits [64]int
		for scanned := 0; scanned < words; scanned += gridWords {
			for i := range masks {
				masks[i] = 0
			}
			for pos := sparseNext(&r, 0, grid, invLogQ); pos < grid; pos = sparseNext(&r, pos+1, grid, invLogQ) {
				masks[pos>>6] |= 1 << uint(pos&63)
				laneHits[pos&63]++
				totalFaults++
			}
			for _, m := range masks {
				switch bits.OnesCount64(m) {
				case 0:
					zero++
				case 1:
				default:
					multi++
				}
			}
		}
		q64 := math.Pow(1-p, 64)
		pZero := q64
		pMulti := 1 - q64 - 64*p*math.Pow(1-p, 63)
		checkWithin3SE(t, "p=zero-tail", zero, words, pZero)
		checkWithin3SE(t, "p=multi-tail", multi, words, pMulti)
		// Mean fault count: SE of the total is √(words·64·p·(1−p)).
		wantFaults := float64(words) * 64 * p
		seFaults := math.Sqrt(float64(words) * 64 * p * (1 - p))
		if diff := math.Abs(float64(totalFaults) - wantFaults); diff > 3*seFaults {
			t.Errorf("p=%v: %d total faults, want %.0f ± %.0f", p, totalFaults, wantFaults, 3*seFaults)
		}
		// Lane uniformity: each offset fires Binomial(words, p) times;
		// allow 4.5 SE per lane since 64 lanes × 3 rates are compared.
		seLane := math.Sqrt(float64(words) * p * (1 - p))
		for lane, hits := range laneHits {
			if diff := math.Abs(float64(hits) - float64(words)*p); diff > 4.5*seLane+1 {
				t.Errorf("p=%v lane %d: %d hits, want %.0f ± %.0f", p, lane, hits, float64(words)*p, 4.5*seLane)
			}
		}
	}
}

// TestPlaceMask checks the uniform-placement ladder across all of its
// regimes: exact popcount always, and per-lane uniformity (each lane set
// with probability n/64) in every band.
func TestPlaceMask(t *testing.T) {
	const draws = 300000
	for _, n := range []int{1, 3, 10, 11, 17, 20, 21, 27, 32, 33, 40, 44, 53, 54, 60, 63} {
		r := splitmix64(uint64(n) * 0x9E3779B97F4A7C15)
		var laneHits [64]int
		for i := 0; i < draws; i++ {
			m := placeMask(&r, n)
			if bits.OnesCount64(m) != n {
				t.Fatalf("n=%d: popcount %d", n, bits.OnesCount64(m))
			}
			for m != 0 {
				laneHits[bits.TrailingZeros64(m)]++
				m &= m - 1
			}
		}
		pLane := float64(n) / 64
		se := math.Sqrt(draws * pLane * (1 - pLane))
		for lane, hits := range laneHits {
			if diff := math.Abs(float64(hits) - draws*pLane); diff > 4.5*se {
				t.Errorf("n=%d lane %d: %d hits, want %.0f ± %.0f", n, lane, hits, draws*pLane, 4.5*se)
			}
		}
	}
	if placeMask(&[]splitmix64{1}[0], 64) != ^uint64(0) {
		t.Error("placeMask(64) != all-ones")
	}
}

// TestBinomAlias checks the alias-table count sampler against the exact
// Binomial(64, p) pmf on a few head/tail outcomes and on the mean.
func TestBinomAlias(t *testing.T) {
	const draws = 1000000
	for _, p := range []float64{1.0 / 128, 0.05, 0.3, 0.7} {
		tbl := newBinomAlias(64, p)
		r := splitmix64(uint64(math.Float64bits(p)))
		var hist [65]int
		total := 0
		for i := 0; i < draws; i++ {
			n := tbl.sample(&r)
			hist[n]++
			total += n
		}
		// Exact pmf for the checked outcomes.
		lp, lq := math.Log(p), math.Log1p(-p)
		pmf := func(k int) float64 {
			return math.Exp(lgFact[64] - lgFact[k] - lgFact[64-k] + float64(k)*lp + float64(64-k)*lq)
		}
		for _, k := range []int{0, 1, 2, 20, 32, 45} {
			checkWithin3SE(t, "binom-pmf", hist[k], draws, pmf(k))
		}
		wantMean := 64 * p
		seMean := math.Sqrt(64 * p * (1 - p) / draws)
		if gotMean := float64(total) / draws; math.Abs(gotMean-wantMean) > 3*seMean {
			t.Errorf("p=%v: mean %v, want %v ± %v", p, gotMean, wantMean, 3*seMean)
		}
	}
	// Degenerate tables never consult randomness beyond the column draw.
	sure := newBinomAlias(64, 1)
	r := splitmix64(9)
	for i := 0; i < 1000; i++ {
		if got := sure.sample(&r); got != 64 {
			t.Fatalf("p=1 sample = %d", got)
		}
	}
}

// TestBinomFamily checks the variable-n Binomial(n, q) family the overlap
// splits draw from: per-n empirical means and head probabilities against
// the exact pmf, plus the degenerate fast paths.
func TestBinomFamily(t *testing.T) {
	const draws = 200000
	fam := &binomFamily{q: 0.35}
	r := splitmix64(0xFA111)
	for _, n := range []int{1, 2, 7, 33, 64} {
		total, zeros := 0, 0
		for i := 0; i < draws; i++ {
			k := fam.sample(&r, n)
			if k < 0 || k > n {
				t.Fatalf("n=%d: sampled %d out of range", n, k)
			}
			total += k
			if k == 0 {
				zeros++
			}
		}
		wantMean := float64(n) * fam.q
		seMean := math.Sqrt(float64(n) * fam.q * (1 - fam.q) / draws)
		if gotMean := float64(total) / draws; math.Abs(gotMean-wantMean) > 3*seMean {
			t.Errorf("n=%d: mean %v, want %v ± %v", n, gotMean, wantMean, 3*seMean)
		}
		checkWithin3SE(t, "family-zero", zeros, draws, math.Pow(1-fam.q, float64(n)))
	}
	if (&binomFamily{q: 0}).sample(&r, 10) != 0 {
		t.Error("q=0 family sampled nonzero")
	}
	if (&binomFamily{q: 1}).sample(&r, 10) != 10 {
		t.Error("q=1 family did not saturate")
	}
	if fam.sample(&r, 0) != 0 {
		t.Error("n=0 sampled nonzero")
	}
}

// TestOverlapSplitBruteForce validates the Möbius-inversion split
// probabilities against exhaustive enumeration: for small ordered error
// models, every fault subset's probability is accumulated into
// P(first-fault class ∧ exact class pattern), and the plan's conditional
// split parameters must match the enumerated conditionals exactly (well
// below float tolerance).
func TestOverlapSplitBruteForce(t *testing.T) {
	type op struct {
		p float64
		c packedClass
	}
	models := []struct {
		name string
		ps   []float64
		cls  []gate.ErrorClass
		coh  []float64
	}{
		{"interleaved", []float64{0.3, 0.25, 0.2}, []gate.ErrorClass{gate.OneQubit, gate.Readout, gate.OneQubit}, []float64{0.15}},
		{"readout-first", []float64{0.5, 0.4}, []gate.ErrorClass{gate.Readout, gate.OneQubit}, []float64{0.35, 0.1}},
		{"no-coherence", []float64{0.9, 0.8, 0.7, 0.6}, []gate.ErrorClass{gate.OneQubit, gate.Readout, gate.Readout, gate.OneQubit}, nil},
		{"bench-like", []float64{0.003, 0.02, 0.1, 0.05}, []gate.ErrorClass{gate.OneQubit, gate.Readout, gate.OneQubit, gate.Readout}, []float64{0.04}},
	}
	for _, m := range models {
		plan := buildPackedPlan(m.ps, m.cls, m.coh)
		var seq []op
		for i, p := range m.ps {
			c := classGate
			if m.cls[i] == gate.Readout {
				c = classReadout
			}
			seq = append(seq, op{p, c})
		}
		for _, p := range m.coh {
			seq = append(seq, op{p, classCoherence})
		}
		// first[S][c] = P(first fault has class c ∧ faulting classes = S).
		var first [8][3]float64
		for sub := 1; sub < 1<<len(seq); sub++ {
			w := 1.0
			pattern, firstC := 0, -1
			for i, o := range seq {
				if sub&(1<<i) != 0 {
					w *= o.p
					pattern |= 1 << o.c
					if firstC < 0 {
						firstC = int(o.c)
					}
				} else {
					w *= 1 - o.p
				}
			}
			first[pattern][firstC] += w
		}
		check := func(label string, got float64, num, den float64) {
			want := 0.0
			if den > 0 {
				want = num / den
			}
			if math.Abs(got-want) > 1e-9 {
				t.Errorf("%s/%s: split q = %v, want %v (brute force)", m.name, label, got, want)
			}
		}
		const g, r, c = 1 << classGate, 1 << classReadout, 1 << classCoherence
		check("gr", plan.gr.q, first[g|r][0], first[g|r][0]+first[g|r][1])
		check("gc", plan.gc.q, first[g|c][0], first[g|c][0]+first[g|c][2])
		check("rc", plan.rc.q, first[r|c][1], first[r|c][1]+first[r|c][2])
		s := g | r | c
		check("grc1", plan.grc1.q, first[s][0], first[s][0]+first[s][1]+first[s][2])
		check("grc2", plan.grc2.q, first[s][1], first[s][1]+first[s][2])
	}
}

// TestPackedPartialWords guards the trailing-word masking: trial counts
// straddling word and block boundaries must report exactly Trials
// attributed outcomes and stay worker-invariant (the packed analogue of
// TestDegenerateConfigs, at probabilities high enough that stray phantom
// lanes would be caught).
func TestPackedPartialWords(t *testing.T) {
	p := &Prepared{
		gateErr:   []float64{0.4, 0.3},
		gateClass: []gate.ErrorClass{gate.OneQubit, gate.Readout},
		coh:       []float64{0.2},
	}
	for _, trials := range []int{1, 5, 63, 64, 65, 127, 128, BlockSize - 1, BlockSize, BlockSize + 1} {
		ref := p.Run(Config{Trials: trials, Seed: 5, Workers: -1})
		if sum := ref.Successes + ref.GateFailures + ref.ReadoutFailures + ref.CoherenceFailures; sum != trials {
			t.Fatalf("trials=%d: outcomes sum to %d", trials, sum)
		}
		for _, workers := range []int{0, 1, 64} {
			if got := p.Run(Config{Trials: trials, Seed: 5, Workers: workers}); got != ref {
				t.Fatalf("trials=%d workers=%d: %+v != %+v", trials, workers, got, ref)
			}
		}
	}
}

// circuitBV5 builds the small uniform-device test circuit shared by the
// statistical suites.
func circuitBV5(t *testing.T) *circuit.Circuit {
	t.Helper()
	return circuit.New("packed-q5", 3).H(0).CX(0, 1).CX(1, 2).Swap(0, 1).MeasureAll()
}

// BenchmarkMonteCarloKernel times the packed kernel alone on the bv-16
// q20 workload: the plan is built and its lazily filled split tables are
// warmed by one block outside the timer, and each iteration runs 16
// blocks of BlockSize trials through runBlock. The root package's
// BenchmarkMonteCarlo times the same trials through Run, plan build
// included.
func BenchmarkMonteCarloKernel(b *testing.B) {
	d, phys := q20Compiled(b)
	p := Prepare(d, phys, Config{})
	plan := buildPackedPlan(p.gateErr, p.gateClass, p.coh)
	plan.runBlock(blockSeed(0, 0), BlockSize)
	const blocks = 16
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for blk := 0; blk < blocks; blk++ {
			plan.runBlock(blockSeed(int64(i), blk), BlockSize)
		}
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(blocks*BlockSize*float64(b.N)/secs, "trials/sec")
	}
}
