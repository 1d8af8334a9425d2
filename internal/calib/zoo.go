package calib

import (
	"fmt"
	"hash/fnv"
	"strings"

	"vaq/internal/topo"
)

// Variance-tiered synthetic fleets for the device zoo (topo/zoo.go).
//
// A zoo device name has the form ZooNaming — heavy-hex-399-mid,
// grid-100-high, ring-64, grid-25-holes3-mid (tier defaults to mid;
// -holes<k> knocks out k couplers, see topo.WithHoles). The tier sets the
// spatial spread of the characterization populations: how unequal the
// qubits of one machine are. Population means stay fixed across tiers
// (two-qubit μ=4.3%, T1 μ=190µs, T2 μ=130µs — the coherence figures of
// the 399-qubit variance-modeled backend in the literature this scales
// toward), so a tier sweep isolates the paper's question: how much does
// variability-awareness buy as variability itself grows?
//
// Fleets are deterministic: the generator seed is the caller's seed
// folded with an FNV-1a hash of the canonical device name, so every
// family × size × tier combination draws a decorrelated but perfectly
// reproducible population.

// ZooNaming is the zoo device-name form. Listings and error hints
// substitute a family name for "<family>".
const ZooNaming = "<family>-<qubits>[-holes<k>][-<tier>]"

// VarianceTier selects the spatial-variance level of a synthetic fleet.
type VarianceTier string

const (
	TierLow  VarianceTier = "low"
	TierMid  VarianceTier = "mid"
	TierHigh VarianceTier = "high"
)

// Tiers enumerates the variance tiers in increasing-spread order.
func Tiers() []VarianceTier { return []VarianceTier{TierLow, TierMid, TierHigh} }

// ZooDays and ZooCyclesPerDay size zoo archives. Six cycles is enough
// to exercise the temporal model and Archive.Mean while keeping a
// 1000-qubit fleet cheap to generate on demand.
const (
	ZooDays         = 3
	ZooCyclesPerDay = 2
)

// ZooConfig returns the generator configuration for a synthetic fleet
// on t at the given variance tier. Seed is used as-is; callers wanting
// per-device decorrelation should fold the device name in first (see
// ZooArchive).
func ZooConfig(t *topo.Topology, tier VarianceTier, seed int64) GenConfig {
	cfg := GenConfig{
		Topo:                t,
		Seed:                seed,
		Days:                ZooDays,
		CyclesPerDay:        ZooCyclesPerDay,
		TwoQubitMean:        0.043,
		OneQubitMean:        0.0035,
		OneQubitMax:         0.04,
		T1MeanUs:            190,
		T2MeanUs:            130,
		TemporalPersistence: 0.85,
		TemporalSigma:       0.10,
	}
	switch tier {
	case TierLow:
		cfg.TwoQubitStd, cfg.TwoQubitMin, cfg.TwoQubitMax = 0.010, 0.02, 0.08
		cfg.OneQubitStd = 0.0010
		cfg.ReadoutMin, cfg.ReadoutMax = 0.02, 0.05
		cfg.T1StdUs, cfg.T2StdUs = 20, 15
	case TierHigh:
		cfg.TwoQubitStd, cfg.TwoQubitMin, cfg.TwoQubitMax = 0.065, 0.005, 0.30
		cfg.OneQubitStd = 0.0060
		cfg.ReadoutMin, cfg.ReadoutMax = 0.01, 0.12
		cfg.T1StdUs, cfg.T2StdUs = 80, 60
	default: // TierMid — the IBM-Q20-like spread of DefaultQ20Config.
		cfg.TwoQubitStd, cfg.TwoQubitMin, cfg.TwoQubitMax = 0.030, 0.01, 0.15
		cfg.OneQubitStd = 0.0030
		cfg.ReadoutMin, cfg.ReadoutMax = 0.015, 0.08
		cfg.T1StdUs, cfg.T2StdUs = 45, 35
	}
	return cfg
}

// ParseZooDevice splits a zoo device name into its topology name and
// variance tier: "heavy-hex-399-mid" → ("heavy-hex-399", TierMid);
// names without a tier suffix default to TierMid. The topology part is
// not resolved here — ZooArchive does that.
func ParseZooDevice(name string) (topoName string, tier VarianceTier, err error) {
	topoName, tier = name, TierMid
	for _, t := range Tiers() {
		if s, ok := strings.CutSuffix(name, "-"+string(t)); ok {
			topoName, tier = s, t
			break
		}
	}
	if topoName == "" {
		return "", "", fmt.Errorf("calib: empty topology in zoo device name %q", name)
	}
	return topoName, tier, nil
}

// ZooGenConfig resolves a zoo device name (ZooNaming)
// into its generator configuration. The effective generator seed folds
// the canonical device name into the caller's seed, so distinct devices
// generated from one root seed are decorrelated while each remains
// fully reproducible.
func ZooGenConfig(name string, seed int64) (GenConfig, error) {
	topoName, tier, err := ParseZooDevice(name)
	if err != nil {
		return GenConfig{}, err
	}
	t, err := topo.ByName(topoName)
	if err != nil {
		return GenConfig{}, err
	}
	h := fnv.New64a() // folds the device name into the seed
	h.Write([]byte(topoName + "-" + string(tier)))
	return ZooConfig(t, tier, seed^int64(h.Sum64())), nil
}

// ZooArchive generates the synthetic fleet named by a zoo device name.
func ZooArchive(name string, seed int64) (*Archive, error) {
	cfg, err := ZooGenConfig(name, seed)
	if err != nil {
		return nil, err
	}
	return Generate(cfg), nil
}
