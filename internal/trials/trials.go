// Package trials implements the paper's iterative computing model for
// NISQ machines (Figure 4): run the compiled program many times on the
// noisy machine, log the measured output of every trial, and analyze the
// log — the correct answer appears with non-negligible probability, and
// the Probability of a Successful Trial is the fraction of trials whose
// output is correct.
//
// Unlike package sim, which declares a trial failed the moment any error
// event fires, this package simulates the actual measurement outcomes:
// each gate error injects a random Pauli on the gate's operands into a
// stabilizer-simulator state, readout errors flip measured bits, and
// decoherence injects Paulis on idle qubits. A trial succeeds when its
// output bitstring is one the noise-free program can produce. Because
// some faults do not corrupt the measured output (a Z just before a
// Z-basis measurement, errors confined to unmeasured ancillas, …), the
// PST measured here is an upper bound on sim's event-free PST — this is
// exactly the quantity the paper measures on the real IBM-Q5, where only
// the output log is observable.
//
// Restricted to Clifford programs (BV, GHZ, TriSwap, and random Clifford
// kernels); non-Clifford programs return an error.
package trials

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/gate"
	"vaq/internal/sim"
	"vaq/internal/stabilizer"
)

// Config controls a run.
type Config struct {
	// Trials to execute (default 4096, the paper's IBM-Q5 budget).
	Trials int
	Seed   int64
}

// supportSamples bounds the noise-free sampling used to learn the set of
// correct outputs. For deterministic programs one sample suffices; for
// programs with intrinsic randomness (GHZ) the support has few elements
// and is found quickly.
const supportSamples = 128

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 4096
	}
	return c.Trials
}

// Result is the analyzed output log.
type Result struct {
	Trials int
	// Counts histograms the observed output bitstrings (classical
	// register, bit 0 leftmost).
	Counts map[string]int
	// Support is the set of outputs the noise-free program produces.
	Support map[string]bool
	// Successes counts trials whose output is in Support; PST is the
	// fraction.
	Successes int
	PST       float64
	// Inferred is the most frequent observed output; InferredCorrect
	// reports whether it lies in the noise-free support — the "can we
	// still read the answer from the log" question of the iterative
	// model.
	Inferred        string
	InferredCorrect bool
}

// Run executes the physical circuit under fault injection. The circuit
// must measure at least one classical bit.
func Run(d *device.Device, phys *circuit.Circuit, cfg Config) (*Result, error) {
	if !stabilizer.IsClifford(phys) {
		return nil, fmt.Errorf("trials: program is not Clifford; use package sim for event-level PST")
	}
	if phys.NumCBits == 0 {
		return nil, fmt.Errorf("trials: program has no measurements")
	}
	if phys.NumQubits > d.NumQubits() {
		return nil, fmt.Errorf("trials: circuit uses %d qubits, device has %d", phys.NumQubits, d.NumQubits())
	}
	for _, g := range phys.Gates {
		if g.Kind.TwoQubit() && !d.Topology().Adjacent(g.Qubits[0], g.Qubits[1]) {
			return nil, fmt.Errorf("trials: %s on non-coupled qubits %d,%d — route the circuit first",
				g.Kind, g.Qubits[0], g.Qubits[1])
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Noise-free support.
	support := map[string]bool{}
	for i := 0; i < supportSamples; i++ {
		out, err := execute(d, phys, rng, nil, false)
		if err != nil {
			return nil, err
		}
		support[out] = true
		if i >= 8 && len(support) == 1 {
			break // deterministic program: stop early
		}
	}

	res := &Result{
		Trials:  cfg.trials(),
		Counts:  map[string]int{},
		Support: support,
	}
	// Idle decoherence, as package sim models it, is the same for every
	// trial.
	coh := sim.CoherenceErrors(d, sim.IdleTimes(phys))
	for t := 0; t < res.Trials; t++ {
		out, err := execute(d, phys, rng, coh, true)
		if err != nil {
			return nil, err
		}
		res.Counts[out]++
		if support[out] {
			res.Successes++
		}
	}
	res.PST = float64(res.Successes) / float64(res.Trials)
	res.Inferred = mostFrequent(res.Counts)
	res.InferredCorrect = support[res.Inferred]
	return res, nil
}

// execute runs one trial and returns the classical register as a
// bitstring. A noisy trial injects gate and readout faults and, per qubit,
// a coherence fault with probability coh[q]; a noise-free one passes nil.
func execute(d *device.Device, phys *circuit.Circuit, rng *rand.Rand, coh []float64, noisy bool) (string, error) {
	st := stabilizer.New(maxInt(1, phys.NumQubits))
	cbits := make([]byte, phys.NumCBits)
	for i := range cbits {
		cbits[i] = '0'
	}

	// Idle decoherence is injected up front as Pauli noise on each
	// qubit's worldline; for Z-basis programs the X component is the
	// damaging one.
	for q, p := range coh {
		if p > 0 && rng.Float64() < p {
			injectPauli(st, rng, q)
		}
	}

	for _, g := range phys.Gates {
		switch g.Kind {
		case gate.Barrier:
			continue
		case gate.Measure:
			out, _ := st.MeasureZ(g.Qubits[0], rng)
			if noisy && rng.Float64() < 1-d.ReadoutSuccess(g.Qubits[0]) {
				out = 1 - out
			}
			cbits[g.CBit] = byte('0' + out)
		default:
			if err := st.Apply(g); err != nil {
				return "", err
			}
			if noisy {
				perr := 1 - d.GateSuccess(g.Kind, g.Qubits)
				if perr > 0 && rng.Float64() < perr {
					for _, q := range g.Qubits {
						injectPauli(st, rng, q)
					}
				}
			}
		}
	}
	return string(cbits), nil
}

// injectPauli applies a uniformly random non-identity Pauli on qubit q —
// the standard depolarizing fault model.
func injectPauli(st *stabilizer.State, rng *rand.Rand, q int) {
	switch rng.Intn(3) {
	case 0:
		st.X(q)
	case 1:
		st.Y(q)
	default:
		st.Z(q)
	}
}

// TopOutcomes returns the k most frequent outputs with their counts,
// sorted by descending count then lexicographically.
func (r *Result) TopOutcomes(k int) []struct {
	Output string
	Count  int
} {
	type oc struct {
		Output string
		Count  int
	}
	var all []oc
	for o, c := range r.Counts {
		all = append(all, oc{o, c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Output < all[j].Output
	})
	if len(all) > k {
		all = all[:k]
	}
	out := make([]struct {
		Output string
		Count  int
	}, len(all))
	for i, v := range all {
		out[i] = struct {
			Output string
			Count  int
		}{v.Output, v.Count}
	}
	return out
}

// Summary renders the result for CLI output.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trials %d, successes %d, PST %.4f\n", r.Trials, r.Successes, r.PST)
	fmt.Fprintf(&b, "inferred output %q (correct: %v)\n", r.Inferred, r.InferredCorrect)
	for _, oc := range r.TopOutcomes(5) {
		marker := " "
		if r.Support[oc.Output] {
			marker = "*"
		}
		fmt.Fprintf(&b, "  %s %s  %d\n", marker, oc.Output, oc.Count)
	}
	return b.String()
}

func mostFrequent(counts map[string]int) string {
	best, bestC := "", -1
	for o, c := range counts {
		if c > bestC || (c == bestC && o < best) {
			best, bestC = o, c
		}
	}
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
