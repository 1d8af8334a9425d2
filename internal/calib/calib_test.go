package calib

import (
	"errors"
	"math"
	"testing"

	"vaq/internal/topo"
)

func snap5() *Snapshot {
	s := NewSnapshot(topo.IBMQ5())
	for _, c := range s.Topo.Couplings {
		s.TwoQubit[c] = 0.05
	}
	for q := 0; q < 5; q++ {
		s.OneQubit[q] = 0.002
		s.Readout[q] = 0.03
		s.T1Us[q] = 80
		s.T2Us[q] = 40
	}
	return s
}

func TestSnapshotAccessors(t *testing.T) {
	s := snap5()
	s.SetTwoQubitError(2, 0, 0.11)
	if got := s.MustTwoQubitError(0, 2); got != 0.11 {
		t.Fatalf("TwoQubitError(0,2) = %v, want 0.11", got)
	}
	if got := s.MustTwoQubitError(2, 0); got != 0.11 {
		t.Fatal("order-insensitive lookup failed")
	}
}

func TestSnapshotMissingLinkError(t *testing.T) {
	s := snap5()
	_, err := s.TwoQubitError(0, 3) // not coupled on Tenerife
	var nce *NoCouplingError
	if !errors.As(err, &nce) || nce.A != 0 || nce.B != 3 {
		t.Fatalf("TwoQubitError(0,3) err = %v, want *NoCouplingError{0,3}", err)
	}
}

func TestMustTwoQubitErrorMissingLinkPanics(t *testing.T) {
	s := snap5()
	defer func() {
		if recover() == nil {
			t.Fatal("Must lookup of non-coupling did not panic")
		}
	}()
	s.MustTwoQubitError(0, 3)
}

func TestSetMissingLinkError(t *testing.T) {
	s := snap5()
	var nce *NoCouplingError
	if err := s.SetTwoQubitError(0, 3, 0.1); !errors.As(err, &nce) {
		t.Fatalf("SetTwoQubitError(0,3) err = %v, want *NoCouplingError", err)
	}
	if err := s.SetTwoQubitError(1, 0, 0.2); err != nil {
		t.Fatalf("set of existing coupling failed: %v", err)
	}
}

func TestValidate(t *testing.T) {
	s := snap5()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	bad := s.Clone()
	bad.SetTwoQubitError(0, 1, 1.5)
	if bad.Validate() == nil {
		t.Fatal("error rate > 1 accepted")
	}
	bad = s.Clone()
	bad.OneQubit[0] = -0.1
	if bad.Validate() == nil {
		t.Fatal("negative 1q error accepted")
	}
	bad = s.Clone()
	bad.T1Us[3] = 0
	if bad.Validate() == nil {
		t.Fatal("zero T1 accepted")
	}
	bad = s.Clone()
	bad.Readout[1] = math.NaN()
	if bad.Validate() == nil {
		t.Fatal("NaN readout accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	s := snap5()
	c := s.Clone()
	c.SetTwoQubitError(0, 1, 0.2)
	c.OneQubit[0] = 0.9
	if s.MustTwoQubitError(0, 1) != 0.05 || s.OneQubit[0] != 0.002 {
		t.Fatal("clone shares state with original")
	}
}

func TestStrongestWeakestLink(t *testing.T) {
	s := snap5()
	s.SetTwoQubitError(0, 1, 0.01)
	s.SetTwoQubitError(3, 4, 0.14)
	best, be := s.StrongestLink()
	worst, we := s.WeakestLink()
	if best != (topo.Coupling{A: 0, B: 1}) || be != 0.01 {
		t.Fatalf("strongest = %v %v", best, be)
	}
	if worst != (topo.Coupling{A: 3, B: 4}) || we != 0.14 {
		t.Fatalf("weakest = %v %v", worst, we)
	}
}

func TestScaleErrorsMeanOnly(t *testing.T) {
	s := snap5()
	s.SetTwoQubitError(0, 1, 0.02)
	s.SetTwoQubitError(3, 4, 0.10)
	scaled := s.ScaleErrors(0.1, 1)
	origMean := mean(s.LinkRates())
	newMean := mean(scaled.LinkRates())
	if math.Abs(newMean-origMean*0.1) > 1e-9 {
		t.Fatalf("scaled mean = %v, want %v", newMean, origMean*0.1)
	}
	// Cov preserved: relative ordering and ratios maintained.
	if scaled.MustTwoQubitError(0, 1) >= scaled.MustTwoQubitError(3, 4) {
		t.Fatal("scaling destroyed ordering")
	}
}

func TestScaleErrorsDoubledCov(t *testing.T) {
	// Deviations small enough that doubling them never clamps at zero,
	// so the mean is preserved exactly.
	s := snap5()
	s.SetTwoQubitError(0, 1, 0.04)
	s.SetTwoQubitError(3, 4, 0.07)
	cov1 := s.ScaleErrors(0.1, 1)
	cov2 := s.ScaleErrors(0.1, 2)
	sum1 := Summarize(cov1.LinkRates())
	sum2 := Summarize(cov2.LinkRates())
	if math.Abs(sum1.Mean-sum2.Mean) > 1e-9 {
		t.Fatalf("cov scaling changed mean: %v vs %v", sum1.Mean, sum2.Mean)
	}
	if sum2.Std <= sum1.Std {
		t.Fatalf("doubled-cov std %v not larger than base %v", sum2.Std, sum1.Std)
	}
	if err := cov2.Validate(); err != nil {
		t.Fatalf("scaled snapshot invalid: %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(DefaultQ20Config(42))
	b := Generate(DefaultQ20Config(42))
	if len(a.Snapshots) != len(b.Snapshots) {
		t.Fatal("nondeterministic snapshot count")
	}
	for i := range a.Snapshots {
		for _, c := range a.Topo.Couplings {
			if a.Snapshots[i].TwoQubit[c] != b.Snapshots[i].TwoQubit[c] {
				t.Fatalf("cycle %d link %v differs across runs", i, c)
			}
		}
	}
	diff := Generate(DefaultQ20Config(43))
	same := true
	for _, c := range a.Topo.Couplings {
		if a.Snapshots[0].TwoQubit[c] != diff.Snapshots[0].TwoQubit[c] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical archives")
	}
}

func TestGenerateArchiveShape(t *testing.T) {
	arch := Generate(DefaultQ20Config(1))
	if got := len(arch.Snapshots); got != 104 {
		t.Fatalf("snapshots = %d, want 104 (52 days × 2)", got)
	}
	if arch.Days() != 52 {
		t.Fatalf("days = %d, want 52", arch.Days())
	}
	if got := len(arch.DaySnapshots(0)); got != 2 {
		t.Fatalf("day 0 snapshots = %d, want 2", got)
	}
	for i, s := range arch.Snapshots {
		if err := s.Validate(); err != nil {
			t.Fatalf("snapshot %d invalid: %v", i, err)
		}
	}
}

func TestGenerateMatchesPaperStatistics(t *testing.T) {
	arch := Generate(DefaultQ20Config(7))

	// Figure 7: 2Q error μ=4.3%, σ=3.02% (tolerances are loose: the paper
	// itself reports one realization of a noisy process).
	link := Summarize(arch.ArchiveLinkRates())
	if link.Mean < 0.030 || link.Mean > 0.056 {
		t.Errorf("2Q mean = %v, want ≈0.043", link.Mean)
	}
	if link.Std < 0.015 || link.Std > 0.045 {
		t.Errorf("2Q std = %v, want ≈0.030", link.Std)
	}

	// Figure 9: spatial spread of mean link rates ≈ 7.5×.
	m := arch.MustMean()
	spatial := Summarize(m.LinkRates())
	if spread := spatial.Max / spatial.Min; spread < 3 {
		t.Errorf("spatial spread = %vx, want several x", spread)
	}
	if _, worstE := m.WeakestLink(); worstE < 0.10 {
		t.Errorf("worst mean link = %v, want ≳0.15-ish", worstE)
	}

	// Figure 6: most 1Q errors below 1%.
	one := arch.ArchiveOneQubitRates()
	below := 0
	for _, e := range one {
		if e < 0.01 {
			below++
		}
	}
	if frac := float64(below) / float64(len(one)); frac < 0.80 {
		t.Errorf("only %.0f%% of 1Q errors below 1%%, want most", frac*100)
	}

	// Figure 5: T1/T2 means.
	t1 := Summarize(arch.ArchiveT1s())
	t2 := Summarize(arch.ArchiveT2s())
	if t1.Mean < 60 || t1.Mean > 105 {
		t.Errorf("T1 mean = %v, want ≈80µs", t1.Mean)
	}
	if t2.Mean < 30 || t2.Mean > 55 {
		t.Errorf("T2 mean = %v, want ≈42µs", t2.Mean)
	}
	// Physics: T2 ≤ 2·T1 in every snapshot.
	for _, s := range arch.Snapshots {
		for q := range s.T1Us {
			if s.T2Us[q] > 2*s.T1Us[q]+1e-9 {
				t.Fatalf("T2 > 2·T1 on qubit %d", q)
			}
		}
	}
}

func TestGenerateTemporalPersistence(t *testing.T) {
	// Figure 8: strong links stay strong. The link pinned to the minimum
	// base rate should have a lower mean than the pinned worst link in
	// (nearly) every cycle.
	cfg := DefaultQ20Config(3)
	arch := Generate(cfg)
	worst := *cfg.WorstCoupling
	weakSeries := arch.LinkSeries(worst.A, worst.B)
	m := arch.MustMean()
	best, _ := m.StrongestLink()
	strongSeries := arch.LinkSeries(best.A, best.B)
	wins := 0
	for i := range weakSeries {
		if strongSeries[i] < weakSeries[i] {
			wins++
		}
	}
	if frac := float64(wins) / float64(len(weakSeries)); frac < 0.9 {
		t.Fatalf("strong link beat weak link only %.0f%% of cycles, want ≥90%%", frac*100)
	}
}

func TestGenerateQ5Config(t *testing.T) {
	arch := Generate(DefaultQ5Config(5))
	if len(arch.Snapshots) != 1 {
		t.Fatalf("Q5 snapshots = %d, want 1", len(arch.Snapshots))
	}
	s := arch.Snapshots[0]
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	_, worstE := s.WeakestLink()
	if worstE < 0.08 {
		t.Errorf("Q5 worst link = %v, want ≈0.12", worstE)
	}
}

func TestLinkSeriesLength(t *testing.T) {
	arch := Generate(DefaultQ20Config(9))
	series := arch.LinkSeries(5, 6)
	if len(series) != len(arch.Snapshots) {
		t.Fatalf("series length = %d, want %d", len(series), len(arch.Snapshots))
	}
}

func TestMeanOfEmptyArchive(t *testing.T) {
	_, err := (&Archive{Topo: topo.IBMQ5()}).Mean()
	if !errors.Is(err, ErrEmptyArchive) {
		t.Fatalf("Mean of empty archive err = %v, want ErrEmptyArchive", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustMean of empty archive did not panic")
		}
	}()
	(&Archive{Topo: topo.IBMQ5()}).MustMean()
}

func TestTenerifeSnapshot(t *testing.T) {
	s := TenerifeSnapshot()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	worst, e := s.WeakestLink()
	if worst != (topo.Coupling{A: 2, B: 4}) || e != 0.12 {
		t.Fatalf("worst link = %v @ %v, want Q2-Q4 @ 0.12 (paper Section 7)", worst, e)
	}
	sum := Summarize(s.LinkRates())
	if sum.Mean < 0.035 || sum.Mean > 0.055 {
		t.Fatalf("mean 2Q error = %v, want ≈0.042", sum.Mean)
	}
}

func TestDefaultQ16Config(t *testing.T) {
	arch := Generate(DefaultQ16Config(3))
	if arch.Topo.NumQubits != 16 {
		t.Fatalf("Q16 archive on %d qubits", arch.Topo.NumQubits)
	}
	for _, s := range arch.Snapshots {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
