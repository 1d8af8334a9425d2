package calib_test

import (
	"fmt"
	"os"
	"testing"

	"vaq/internal/calib"
	"vaq/internal/device"
)

// zooGoldenSizes is the fingerprint matrix: two sizes per family, every
// variance tier. Small enough to regenerate in seconds, broad enough
// that any drift in a generator or in the name→seed fold shows up.
var zooGoldenSizes = map[string][]int{
	"heavy-hex": {20, 399},
	"grid":      {25, 100},
	"ring":      {16, 64},
	"full":      {8, 16},
}

// zooGoldenFingerprints pins the mean-snapshot device fingerprint of
// every family × size × tier fleet at root seed 2019. Regenerate with
// GOLDEN_PRINT=1 after an intentional generator change.
var zooGoldenFingerprints = map[string]uint64{
	"full-16-high":       0xf7bd9b89cf8e6b6e,
	"full-16-low":        0xa32f193a84e6464a,
	"full-16-mid":        0x5865f6701b13211f,
	"full-8-high":        0x26357a298bd0cb26,
	"full-8-low":         0x3bcb06f3983a423f,
	"full-8-mid":         0x736eced452392a00,
	"grid-100-high":      0x1b33dc9b1539b9c1,
	"grid-100-low":       0x441ae6fccab52bb5,
	"grid-100-mid":       0x02edac2d7456a72c,
	"grid-25-high":       0x0558b39c673cee99,
	"grid-25-low":        0x12d65387a5c6b5bc,
	"grid-25-mid":        0x74ace874b15669d4,
	"heavy-hex-20-high":  0x89b35f6c939418d2,
	"heavy-hex-20-low":   0x537c4459813e7531,
	"heavy-hex-20-mid":   0x140b4283b3a5bfed,
	"heavy-hex-399-high": 0x886c2bb9b2a03f34,
	"heavy-hex-399-low":  0xc1eae00391610316,
	"heavy-hex-399-mid":  0xf92bb11943083278,
	"ring-16-high":       0x6f88f79cebcbe374,
	"ring-16-low":        0x29ab40a4b0168f90,
	"ring-16-mid":        0x182f2f9ccbdf81aa,
	"ring-64-high":       0xae973bd03d5f5cd4,
	"ring-64-low":        0x22e9d69405dce8dc,
	"ring-64-mid":        0x1bfe535a963f7d6d,
}

// TestZooFingerprintGoldens regenerates every fleet in the matrix and
// checks (a) the archive validates, (b) the mean-snapshot device
// fingerprint matches its pinned golden — the determinism contract the
// nisqd response cache and the repro harness both depend on.
func TestZooFingerprintGoldens(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") == "1"
	for family, sizes := range zooGoldenSizes {
		for _, n := range sizes {
			for _, tier := range calib.Tiers() {
				name := fmt.Sprintf("%s-%d-%s", family, n, tier)
				t.Run(name, func(t *testing.T) {
					arch, err := calib.ZooArchive(name, 2019)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range arch.Snapshots {
						if err := s.Validate(); err != nil {
							t.Fatalf("fleet fails validation: %v", err)
						}
					}
					if got, want := len(arch.Snapshots), calib.ZooDays*calib.ZooCyclesPerDay; got != want {
						t.Fatalf("%d snapshots, want %d", got, want)
					}
					d := device.MustNew(arch.Topo, arch.MustMean())
					got := d.Fingerprint()
					if print {
						fmt.Printf("\t%q: %#016x,\n", name, got)
						return
					}
					want, ok := zooGoldenFingerprints[name]
					if !ok {
						t.Fatalf("no golden for %s (rerun with GOLDEN_PRINT=1)", name)
					}
					if got != want {
						t.Fatalf("fingerprint %#016x, golden %#016x", got, want)
					}
				})
			}
		}
	}
}

// TestZooTierSpread: higher tiers produce strictly wider two-qubit error
// spreads on the same topology, which is the whole point of the tiers.
func TestZooTierSpread(t *testing.T) {
	spread := func(tier calib.VarianceTier) float64 {
		arch, err := calib.ZooArchive(fmt.Sprintf("heavy-hex-100-%s", tier), 2019)
		if err != nil {
			t.Fatal(err)
		}
		s := calib.Summarize(arch.ArchiveLinkRates())
		return s.Std
	}
	low, mid, high := spread(calib.TierLow), spread(calib.TierMid), spread(calib.TierHigh)
	if !(low < mid && mid < high) {
		t.Fatalf("tier spreads not ordered: low %.4f, mid %.4f, high %.4f", low, mid, high)
	}
}

// TestZooNameFoldDecorrelation: the same root seed must give different
// populations for different device names.
func TestZooNameFoldDecorrelation(t *testing.T) {
	a, err := calib.ZooArchive("ring-16-mid", 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := calib.ZooArchive("ring-16-high", 7)
	if err != nil {
		t.Fatal(err)
	}
	fa := device.MustNew(a.Topo, a.MustMean()).Fingerprint()
	fb := device.MustNew(b.Topo, b.MustMean()).Fingerprint()
	if fa == fb {
		t.Fatal("ring-16-mid and ring-16-high share a fingerprint at the same root seed")
	}
}

func TestParseZooDevice(t *testing.T) {
	cases := []struct {
		in       string
		wantTopo string
		wantTier calib.VarianceTier
	}{
		{"heavy-hex-399-mid", "heavy-hex-399", calib.TierMid},
		{"heavy-hex-399", "heavy-hex-399", calib.TierMid},
		{"grid-100-high", "grid-100", calib.TierHigh},
		{"ring-64-low", "ring-64", calib.TierLow},
	}
	for _, tc := range cases {
		topoName, tier, err := calib.ParseZooDevice(tc.in)
		if err != nil {
			t.Errorf("calib.ParseZooDevice(%q): %v", tc.in, err)
			continue
		}
		if topoName != tc.wantTopo || tier != tc.wantTier {
			t.Errorf("calib.ParseZooDevice(%q) = (%q, %q), want (%q, %q)",
				tc.in, topoName, tier, tc.wantTopo, tc.wantTier)
		}
	}
}

func TestZooGenConfigRejectsUnknownFamily(t *testing.T) {
	if _, err := calib.ZooGenConfig("hexagon-20", 1); err == nil {
		t.Error("calib.ZooGenConfig with unknown family: want error")
	}
}

// zooHolesGoldenFingerprints pins defect-variant fleets (topologies
// with deterministically knocked-out couplers) end to end through the
// name→topology→archive chain at root seed 2019.
var zooHolesGoldenFingerprints = map[string]uint64{
	"grid-25-holes3-mid":       0x05abfa23a25f796d,
	"ring-64-holes1-high":      0x9797d89631421cb0,
	"heavy-hex-399-holes8-low": 0x03eb441315cd1f17,
}

// TestZooHolesFingerprintGoldens: the -holes defect suffix composes
// with the tier suffix, the knockout is reproducible, and a holed
// fleet's population differs from its intact base.
func TestZooHolesFingerprintGoldens(t *testing.T) {
	print := os.Getenv("GOLDEN_PRINT") == "1"
	for name, want := range zooHolesGoldenFingerprints {
		t.Run(name, func(t *testing.T) {
			arch, err := calib.ZooArchive(name, 2019)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range arch.Snapshots {
				if err := s.Validate(); err != nil {
					t.Fatalf("fleet fails validation: %v", err)
				}
			}
			got := device.MustNew(arch.Topo, arch.MustMean()).Fingerprint()
			if print {
				fmt.Printf("\t%q: %#016x,\n", name, got)
				return
			}
			if got != want {
				t.Fatalf("fingerprint %#016x, golden %#016x", got, want)
			}
		})
	}
	if _, err := calib.ZooArchive("ring-16-holes9-mid", 2019); err == nil {
		t.Fatal("impossible knockout should fail archive generation")
	}
}
