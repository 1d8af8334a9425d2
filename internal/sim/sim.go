// Package sim estimates the Probability of a Successful Trial (PST) of a
// compiled (physical) circuit on a device, the paper's figure of merit for
// system-level reliability.
//
// Two estimators are provided and cross-checked in tests:
//
//   - Analytic: errors are independent events (the paper's Section 4.4
//     model), so PST is the product of per-operation success probabilities
//     times the per-qubit coherence retention factors.
//
//   - Monte Carlo: the fault-injection simulator of Figure 10. Each trial
//     walks the circuit drawing an independent Bernoulli failure per
//     operation (and per qubit for coherence); a trial succeeds when no
//     error fires. PST = successes / trials.
//
// Prepared.Estimate is the PST the repository reports: the Monte Carlo
// value, or the analytic one when too few trials succeeded to measure it.
//
// Coherence model: a qubit accumulates decoherence exposure while it sits
// idle between its first and last operation. The per-qubit error
// probability is 1 − exp(−f·t/T1)·exp(−f·t/T2) with idle time t and duty
// factor f (device.CoherenceDuty). The duty factor is fitted so that, for
// bv-20 on the synthetic IBM-Q20, gate errors are ≈16× more likely to kill
// a trial than coherence errors — the calibration point the paper states.
// Not every idle microsecond corrupts the measured outcome, which is why f
// is well below 1; the paper likewise treats coherence as a second-order
// term.
package sim

import (
	"math"
	"time"

	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/schedule"
)

// DefaultResetOverhead is the per-trial latency added on top of circuit
// execution for qubit reset and readout turnaround; it enters trial-rate
// (STPT) computations only.
const DefaultResetOverhead = 10 * time.Microsecond

// BlockSize is the fixed Monte-Carlo shard width: trials are split into
// consecutive blocks of this many, each with an independently derived RNG
// stream (see blockSeed). Because the block structure depends only on the
// trial count — never on the worker count — a given (circuit, Config.Seed)
// pair produces a bit-identical Outcome whether the blocks run on one
// goroutine or many.
const BlockSize = 4096

// KernelPacked names the Monte-Carlo kernel in Outcome.Kernel: the
// bit-parallel kernel, 64 trials per machine word with class-aggregated
// mask sampling (see packed.go). It is the only kernel Run uses; the
// one-trial-at-a-time scalar kernel it is cross-checked against lives
// with the tests.
const KernelPacked = "packed"

// minMCSuccesses is the fewest Monte-Carlo successes Estimate reports as
// the PST; below it the analytic value is reported instead.
const minMCSuccesses = 50

// Config controls a simulation.
type Config struct {
	// Trials for the Monte Carlo estimator (default 100000).
	Trials int
	// Seed makes runs reproducible.
	Seed int64
	// Workers bounds the goroutines simulating trial blocks: > 0 is taken
	// literally, 0 (the default) uses one worker per CPU, and < 0 forces
	// serial execution. The Outcome is identical at every setting.
	Workers int
	// DisableCoherence turns off the decoherence model (gate and readout
	// errors only).
	DisableCoherence bool
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 100000
	}
	return c.Trials
}

// Outcome reports a simulation.
type Outcome struct {
	Trials    int
	Successes int
	// PST is Successes / Trials.
	PST float64
	// StdErr is the binomial standard error of the PST estimate.
	StdErr float64
	// Failure attribution (first failing cause per failed trial).
	GateFailures      int
	ReadoutFailures   int
	CoherenceFailures int
	// Duration is the scheduled execution time of one trial, and
	// TrialLatency adds the reset overhead.
	Duration     time.Duration
	TrialLatency time.Duration
	// Kernel records which Monte-Carlo kernel produced this Outcome
	// (KernelPacked).
	Kernel string
}

// AnalyticPST computes the closed-form PST of a physical circuit.
func AnalyticPST(d *device.Device, phys *circuit.Circuit, cfg Config) float64 {
	p := 1.0
	for _, g := range phys.Gates {
		p *= d.GateSuccess(g.Kind, g.Qubits)
	}
	if !cfg.DisableCoherence {
		for _, perr := range CoherenceErrors(d, IdleTimes(phys)) {
			p *= 1 - perr
		}
	}
	return p
}

// Run executes the Monte Carlo fault-injection simulation. It is
// shorthand for Prepare(d, phys, cfg).Run(cfg); callers estimating the
// same compiled circuit repeatedly should Prepare once and reuse it.
func Run(d *device.Device, phys *circuit.Circuit, cfg Config) Outcome {
	return Prepare(d, phys, cfg).Run(cfg)
}

// Breakdown reports the expected number of failure events per trial in
// each error class (the hazard −Σ ln(success)). Hazards do not saturate
// like probabilities, so their ratio is the clean statement of the paper's
// "gate errors are 16x more likely to cause system failures than the
// coherence errors" calibration point.
type Breakdown struct {
	Gate, Readout, Coherence float64
}

// AnalyticBreakdown computes the per-class failure hazards in closed form.
// It is shorthand for Prepare(d, phys, cfg).Breakdown(); callers that
// also need the PST should Prepare once and read both.
func AnalyticBreakdown(d *device.Device, phys *circuit.Circuit, cfg Config) Breakdown {
	return Prepare(d, phys, cfg).Breakdown()
}

// CoherenceErrors returns, per physical qubit, the probability of a
// decoherence error during a circuit whose per-qubit idle exposure is
// idle (see IdleTimes): the exposure, attenuated by device.CoherenceDuty,
// is charged against both T1 and T2.
func CoherenceErrors(d *device.Device, idle []time.Duration) []float64 {
	out := make([]float64, len(idle))
	snap := d.Snapshot()
	for q := range out {
		if idle[q] <= 0 {
			continue
		}
		tUs := idle[q].Seconds() * 1e6 * device.CoherenceDuty
		retain := math.Exp(-tUs/snap.T1Us[q]) * math.Exp(-tUs/snap.T2Us[q])
		out[q] = 1 - retain
	}
	return out
}

// IdleTimes returns, for every qubit, its idle exposure under the ASAP
// schedule: the time between the qubit's first and last operation during
// which it holds state but executes nothing.
func IdleTimes(phys *circuit.Circuit) []time.Duration {
	return schedule.ASAP(phys).IdleTimes()
}
