package experiments

import (
	"fmt"
	"math"

	"vaq/internal/ansatz"
	"vaq/internal/core"
	"vaq/internal/parallel"
	"vaq/internal/sim"
	"vaq/internal/splitmix"
	"vaq/internal/statevec"
)

// The vqa experiment runs the workload the parametric plane exists
// for: a variational optimization loop that evaluates one ansatz at
// hundreds of parameter points on a noisy machine. Two tracks minimize
// the ring-ZZ Ising energy of an EfficientSU2 ansatz on the mean IBM-Q20
// snapshot with an SPSA-style optimizer:
//
//   - aware: compiled once with the variation-aware policy (vqa+vqm);
//   - naive: compiled once with the variation-blind baseline.
//
// Each track pays exactly one compile (core.CompileParametric) and
// rebinds the mapping at every objective evaluation. The noisy
// objective is pst·E_ideal(θ): the ideal energy comes from the
// statevector of the logical binding, and the mapping's PST attenuates
// it — the fully mixed failure state has zero ZZ energy, so a worse
// mapping both shrinks the observed signal and (because SPSA's gradient
// estimate scales with the objective) slows the optimizer's descent.
// The per-evaluation PST is recomputed from the rebound physical
// circuit each time, demonstrating at runtime that angles never move
// it. Everything is a pure function of the seed, so the trajectory is
// byte-identical at any -workers setting.

// vqa shape: a 6-qubit, 1-rep EfficientSU2 (24 parameters) keeps the
// statevector tiny while still routing nontrivially on Q20, and 24 SPSA
// iterations (49 objective evaluations per track) are enough for the
// energy gap between the tracks to open up.
var (
	vqaQubits = 6
	vqaReps   = 1
	vqaIters  = 24
	vqaStepA  = 0.25 // SPSA step-size gain a_k = a / k^0.602
	vqaStepC  = 0.20 // SPSA perturbation gain c_k = c / k^0.101
)

// VQARow is one SPSA iteration: the noisy (pst-attenuated) and ideal
// ring-ZZ energies of each track at its current parameter point. Iter 0
// is the shared starting point.
type VQARow struct {
	Iter       int
	AwareNoisy float64
	AwareIdeal float64
	NaiveNoisy float64
	NaiveIdeal float64
}

// VQAResult carries the sweep rows plus the per-track constants the
// rows share: the mapping PSTs fixed at compile time and the
// evaluation count amortized over that single compile.
type VQAResult struct {
	Rows []VQARow
	// AwarePST and NaivePST are each track's mapping success
	// probability — one number per track, because rebinding never
	// changes the mapping.
	AwarePST float64
	NaivePST float64
	// Evals is the number of objective evaluations (rebinds) per
	// track; all but one compile was saved relative to a
	// recompile-per-evaluation loop.
	Evals int
}

// vqaRand is a SplitMix64 generator, the packed kernel's stream (see
// sim/rng.go) over its own seed.
type vqaRand uint64

func (s *vqaRand) next() uint64 {
	*s += splitmix.Gamma
	return splitmix.Mix(uint64(*s))
}

// VQASweep runs the two-track SPSA loop. The tracks share the starting
// point and the per-iteration perturbation directions, so the only
// difference between them is the mapping each one compiled once.
func VQASweep(cfg Config) (*VQAResult, error) {
	cfg = cfg.withDefaults()
	d := cfg.meanQ20()
	pc, err := ansatz.EfficientSU2(vqaQubits, vqaReps)
	if err != nil {
		return nil, err
	}
	nParams := pc.NumParams()

	// Shared SPSA schedule: starting angles in [0, 2π) and one ±1
	// perturbation direction per (iteration, parameter), all drawn from
	// the seed before the tracks fork.
	rng := vqaRand(uint64(cfg.Seed) ^ 0xA5A5A5A5A5A5A5A5)
	theta0 := make([]float64, nParams)
	for i := range theta0 {
		theta0[i] = 2 * math.Pi * float64(rng.next()>>11) * 0x1p-53
	}
	deltas := make([][]float64, vqaIters)
	for k := range deltas {
		deltas[k] = make([]float64, nParams)
		for i := range deltas[k] {
			if rng.next()&1 == 0 {
				deltas[k][i] = 1
			} else {
				deltas[k][i] = -1
			}
		}
	}

	type track struct {
		pst     float64
		noisy   []float64 // per iteration, len vqaIters+1
		ideal   []float64
		rebinds int
	}
	policies := []core.Policy{core.VQAVQM, core.Baseline}
	run := func(ti int) (*track, error) {
		bound, err := core.CompileParametric(d, pc, core.Options{Policy: policies[ti], Seed: cfg.Seed})
		if err != nil {
			return nil, fmt.Errorf("vqa %s: %w", policies[ti], err)
		}
		tr := &track{}
		eval := func(theta []float64) (noisy, ideal float64, err error) {
			phys, err := bound.RebindValues(theta)
			if err != nil {
				return 0, 0, err
			}
			pst := sim.AnalyticPST(d, phys, sim.Config{})
			if tr.rebinds == 0 {
				tr.pst = pst
			} else if pst != tr.pst {
				return 0, 0, fmt.Errorf("vqa %s: rebind moved the mapping PST from %v to %v (angles must not affect the error model)", policies[ti], tr.pst, pst)
			}
			tr.rebinds++
			logical, err := pc.BindValues(theta)
			if err != nil {
				return 0, 0, err
			}
			st, err := statevec.Run(logical)
			if err != nil {
				return 0, 0, err
			}
			ideal = ringZZEnergy(st)
			return pst * ideal, ideal, nil
		}

		theta := append([]float64(nil), theta0...)
		noisy, ideal, err := eval(theta)
		if err != nil {
			return nil, err
		}
		tr.noisy = append(tr.noisy, noisy)
		tr.ideal = append(tr.ideal, ideal)
		for k := 1; k <= vqaIters; k++ {
			ak := vqaStepA / math.Pow(float64(k), 0.602)
			ck := vqaStepC / math.Pow(float64(k), 0.101)
			delta := deltas[k-1]
			plus, minus := make([]float64, nParams), make([]float64, nParams)
			for i := range theta {
				plus[i] = theta[i] + ck*delta[i]
				minus[i] = theta[i] - ck*delta[i]
			}
			fPlus, _, err := eval(plus)
			if err != nil {
				return nil, err
			}
			fMinus, _, err := eval(minus)
			if err != nil {
				return nil, err
			}
			g := (fPlus - fMinus) / (2 * ck)
			for i := range theta {
				theta[i] -= ak * g * delta[i]
			}
			noisy, ideal, err := eval(theta)
			if err != nil {
				return nil, err
			}
			tr.noisy = append(tr.noisy, noisy)
			tr.ideal = append(tr.ideal, ideal)
		}
		return tr, nil
	}

	done, err := parallel.Map(cfg.Workers, len(policies), run)
	if err != nil {
		return nil, err
	}
	aware, naive := done[0], done[1]

	res := &VQAResult{
		AwarePST: aware.pst,
		NaivePST: naive.pst,
		Evals:    aware.rebinds,
	}
	for k := 0; k <= vqaIters; k++ {
		res.Rows = append(res.Rows, VQARow{
			Iter:       k,
			AwareNoisy: aware.noisy[k],
			AwareIdeal: aware.ideal[k],
			NaiveNoisy: naive.noisy[k],
			NaiveIdeal: naive.ideal[k],
		})
	}
	return res, nil
}

// ringZZEnergy returns ⟨Σᵢ ZᵢZᵢ₊₁⟩ on the n-qubit ring (qubit q is bit
// q of the basis index). The antiferromagnetic ground energy is −n for
// even n.
func ringZZEnergy(st *statevec.State) float64 {
	n := st.N()
	e := 0.0
	for idx, p := range st.Probabilities() {
		if p == 0 {
			continue
		}
		s := 0
		for q := 0; q < n; q++ {
			a := idx >> q & 1
			b := idx >> ((q + 1) % n) & 1
			if a == b {
				s++
			} else {
				s--
			}
		}
		e += p * float64(s)
	}
	return e
}

// VQATable renders the iteration trace with the compile-once
// bookkeeping in the caption.
func VQATable(res *VQAResult) Table {
	t := Table{
		Title: fmt.Sprintf("VQA sweep: SPSA on ring-ZZ Ising energy (su2-%d, %d parameters, mean IBM-Q20)",
			vqaQubits, 2*vqaQubits*(vqaReps+1)),
		Header: []string{"iter", "aware E", "aware E_ideal", "naive E", "naive E_ideal"},
	}
	for _, r := range res.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Iter),
			f3(r.AwareNoisy), f3(r.AwareIdeal),
			f3(r.NaiveNoisy), f3(r.NaiveIdeal),
		})
	}
	t.Caption = fmt.Sprintf(
		"mapping PST: aware (vqa+vqm) %s vs naive (baseline) %s — constant across all bindings; %d evaluations per track from 1 compile each (%d recompiles saved)",
		f3(res.AwarePST), f3(res.NaivePST), res.Evals, res.Evals-1)
	return t
}
