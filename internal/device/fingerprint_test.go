package device

import (
	"testing"

	"vaq/internal/calib"
	"vaq/internal/topo"
)

func fpDevice(t *testing.T, mutate func(*calib.Snapshot)) *Device {
	t.Helper()
	tp := topo.IBMQ5()
	s := calib.NewSnapshot(tp)
	for _, c := range tp.Couplings {
		s.TwoQubit[c] = 0.03
	}
	for q := 0; q < tp.NumQubits; q++ {
		s.OneQubit[q] = 0.001
		s.Readout[q] = 0.02
		s.T1Us[q], s.T2Us[q] = 60, 30
	}
	if mutate != nil {
		mutate(s)
	}
	d, err := New(tp, s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFingerprintIdentity: the fingerprint is a pure function of the
// calibration data — two Device values wrapping equal data digest equal,
// and repeated calls are stable (it is computed once and memoized).
func TestFingerprintIdentity(t *testing.T) {
	a := fpDevice(t, nil)
	b := fpDevice(t, nil)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical calibration data produced different fingerprints")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Fatal("fingerprint not stable across calls")
	}
}

// TestFingerprintSensitivity: any calibration figure moving must move the
// fingerprint — this is what guarantees the routing cost cache can never
// serve stale tables after a recalibration.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpDevice(t, nil).Fingerprint()
	cases := []struct {
		name   string
		mutate func(*calib.Snapshot)
	}{
		{"link error", func(s *calib.Snapshot) { s.SetTwoQubitError(0, 1, 0.031) }},
		{"gate error", func(s *calib.Snapshot) { s.OneQubit[2] = 0.002 }},
		{"readout error", func(s *calib.Snapshot) { s.Readout[4] = 0.05 }},
		{"coherence", func(s *calib.Snapshot) { s.T1Us[0] = 61 }},
	}
	for _, tc := range cases {
		if fpDevice(t, tc.mutate).Fingerprint() == base {
			t.Errorf("%s change left the fingerprint unchanged", tc.name)
		}
	}
}

// TestFingerprintRestrict: a restricted sub-device is a different machine
// (own topology, subset of calibration) and must fingerprint differently.
func TestFingerprintRestrict(t *testing.T) {
	arch := calib.Generate(calib.DefaultQ20Config(3))
	d := MustNew(arch.Topo, arch.MustMean())
	sub, _, err := d.Restrict([]int{0, 1, 2, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Fingerprint() == d.Fingerprint() {
		t.Fatal("restricted device shares the full device's fingerprint")
	}
}

// TestFingerprintKnownAnswers pins the digest of three named devices at
// seed 2019: a built-in fleet, the Q5 fleet and a zoo fleet, whose seed
// also folds in the device name.
func TestFingerprintKnownAnswers(t *testing.T) {
	for _, tc := range []struct {
		name string
		want uint64
	}{
		{"q20", 0x98c23f1f8e0bfcd1},
		{"q5", 0xa7c7d9d8af91b8f5},
		{"heavy-hex-127-mid", 0x7f7d6df2f633849b},
	} {
		arch, err := calib.Named(tc.name, 2019)
		if err != nil {
			t.Fatal(err)
		}
		if got := MustNew(arch.Topo, arch.MustMean()).Fingerprint(); got != tc.want {
			t.Errorf("%s: fingerprint %#016x, want %#016x", tc.name, got, tc.want)
		}
	}
}
