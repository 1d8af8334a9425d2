// Package qvolume implements a Quantum Volume–style benchmark (Cross et
// al., the metric the paper's Related Work contrasts with PST): square
// model circuits — m qubits, m layers of a random qubit pairing followed
// by a random two-qubit block — scored by the heavy-output probability.
//
// The paper argues QV "does not capture the reliability loss due to
// variation [and] is an application-agnostic metric"; this package lets
// the repository make that argument quantitative: the achievable volume
// under the variation-aware policies exceeds the baseline's on the same
// chip, so the *compiler* changes the machine's measured QV even though
// the hardware is identical.
//
// Ideal heavy outputs come from the dense state-vector simulator; the
// noisy heavy-output probability uses the standard depolarizing estimate
// hop ≈ PST·hop_ideal + (1−PST)/2, with PST from the fault-injection
// model of package sim.
package qvolume

import (
	"fmt"
	"math/rand"
	"sort"

	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/parallel"
	"vaq/internal/sim"
	"vaq/internal/statevec"
)

// ModelCircuit builds one QV model circuit on m qubits: m layers, each a
// random perfect pairing of the qubits with a randomized two-qubit block
// (CX-sandwiched random rotations — a scrambling approximation of a Haar
// SU(4) block) on every pair. Odd m leaves one idle qubit per layer.
func ModelCircuit(m int, seed int64) *circuit.Circuit {
	if m < 2 {
		panic(fmt.Sprintf("qvolume: need ≥ 2 qubits, got %d", m))
	}
	rng := rand.New(rand.NewSource(seed))
	c := circuit.New(fmt.Sprintf("qv-%d", m), m)
	for layer := 0; layer < m; layer++ {
		perm := rng.Perm(m)
		for i := 0; i+1 < m; i += 2 {
			su4Block(c, rng, perm[i], perm[i+1])
		}
	}
	c.MeasureAll()
	return c
}

// su4Block appends a randomized entangling block on qubits a, b.
func su4Block(c *circuit.Circuit, rng *rand.Rand, a, b int) {
	rot := func(q int) {
		c.RZ(rng.Float64()*6.2832-3.1416, q)
		c.RY(rng.Float64()*6.2832-3.1416, q)
		c.RZ(rng.Float64()*6.2832-3.1416, q)
	}
	rot(a)
	rot(b)
	c.CX(a, b)
	rot(a)
	rot(b)
	c.CX(b, a)
	rot(a)
	rot(b)
}

// HeavyOutputs computes the ideal output distribution of the model
// circuit and returns the heavy set (outputs with probability above the
// median) and the ideal heavy-output probability.
func HeavyOutputs(c *circuit.Circuit) (map[int]bool, float64, error) {
	st, err := statevec.Run(c)
	if err != nil {
		return nil, 0, err
	}
	probs := st.Probabilities()
	sorted := append([]float64(nil), probs...)
	sort.Float64s(sorted)
	median := (sorted[len(sorted)/2-1] + sorted[len(sorted)/2]) / 2
	heavy := map[int]bool{}
	hop := 0.0
	for i, p := range probs {
		if p > median {
			heavy[i] = true
			hop += p
		}
	}
	return heavy, hop, nil
}

// Result reports one QV evaluation at width m.
type Result struct {
	M        int
	Circuits int
	// MeanPST is the average compiled-circuit PST across model circuits.
	MeanPST float64
	// IdealHOP and NoisyHOP are the mean ideal and noise-adjusted
	// heavy-output probabilities.
	IdealHOP float64
	NoisyHOP float64
	// Pass is NoisyHOP > 2/3, the QV threshold.
	Pass bool
}

// Config tunes an evaluation.
type Config struct {
	// Circuits per width (default 8; the spec uses 100+, overkill for a
	// simulator study).
	Circuits int
	Seed     int64
	Policy   core.Policy
	// Trials for the PST estimate (default: analytic only).
	Trials int
	// Workers bounds the goroutines evaluating model circuits (0: one per
	// CPU, < 0: serial; see package parallel).
	Workers int
}

func (c Config) circuits() int {
	if c.Circuits <= 0 {
		return 8
	}
	return c.Circuits
}

// Evaluate runs the QV protocol at width m on the device under the
// compilation policy.
func Evaluate(d *device.Device, m int, cfg Config) (Result, error) {
	res := Result{M: m, Circuits: cfg.circuits()}
	if m < 2 {
		return res, fmt.Errorf("qvolume: width %d below the 2-qubit minimum", m)
	}
	if m > d.NumQubits() {
		return res, fmt.Errorf("qvolume: width %d exceeds device size %d", m, d.NumQubits())
	}
	if m > 14 {
		return res, fmt.Errorf("qvolume: width %d beyond the exact-simulation budget", m)
	}
	// Model circuits are independent; fan them out and reduce the sums in
	// circuit order so the result is identical at any worker count.
	type sample struct{ pst, idealHOP float64 }
	samples, err := parallel.Map(cfg.Workers, res.Circuits, func(i int) (sample, error) {
		mc := ModelCircuit(m, cfg.Seed+int64(i)*101)
		_, idealHOP, err := HeavyOutputs(mc)
		if err != nil {
			return sample{}, err
		}
		comp, err := core.Compile(d, mc, core.Options{Policy: cfg.Policy, Seed: cfg.Seed + int64(i)})
		if err != nil {
			return sample{}, err
		}
		scfg := sim.Config{Trials: cfg.Trials, Seed: cfg.Seed + int64(i), Workers: cfg.Workers}
		prep := sim.Prepare(d, comp.Routed.Physical, scfg)
		pst := prep.AnalyticPST()
		if cfg.Trials > 0 {
			pst, _ = prep.Estimate(scfg)
		}
		return sample{pst: pst, idealHOP: idealHOP}, nil
	})
	if err != nil {
		return res, err
	}
	for _, s := range samples {
		res.MeanPST += s.pst / float64(res.Circuits)
		res.IdealHOP += s.idealHOP / float64(res.Circuits)
		res.NoisyHOP += (s.pst*s.idealHOP + (1-s.pst)*0.5) / float64(res.Circuits)
	}
	res.Pass = res.NoisyHOP > 2.0/3.0
	return res, nil
}

// Achievable returns the largest width m ≤ maxM whose noisy heavy-output
// probability clears the 2/3 threshold, and log2 of the quantum volume
// (= that width; 0 when even m=2 fails). Widths are scanned in order and
// the scan stops at the first failure, per the QV protocol.
func Achievable(d *device.Device, maxM int, cfg Config) (int, []Result, error) {
	best := 0
	var all []Result
	for m := 2; m <= maxM; m++ {
		r, err := Evaluate(d, m, cfg)
		if err != nil {
			return best, all, err
		}
		all = append(all, r)
		if !r.Pass {
			break
		}
		best = m
	}
	return best, all, nil
}
