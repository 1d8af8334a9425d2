package sim

import (
	"fmt"
	"math"
	"time"

	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/gate"
	"vaq/internal/parallel"
	"vaq/internal/schedule"
	"vaq/internal/splitmix"
)

// Prepared caches the error model of a (device, circuit, error model)
// triple — per-gate failure probabilities, per-qubit coherence
// exposures, the ASAP schedule's makespan and the per-class hazards — so
// scoring a compiled circuit (AnalyticPST, Breakdown) and simulating it
// (Run) share one derivation. Run builds the packed kernel's plan from
// that model on each call: production callers run a Prepared at most
// once, and most only score it. A Prepared is immutable after
// construction and safe for concurrent use.
type Prepared struct {
	gateErr   []float64
	gateClass []gate.ErrorClass
	coh       []float64 // nil when coherence is disabled
	duration  time.Duration
	analytic  float64
	breakdown Breakdown
}

// Prepare validates the circuit against the device and precomputes the
// error model under cfg's DisableCoherence setting (cfg's trial, seed,
// and worker fields are read later, by Run).
func Prepare(d *device.Device, phys *circuit.Circuit, cfg Config) *Prepared {
	if phys.NumQubits > d.NumQubits() {
		panic(fmt.Sprintf("sim: circuit uses %d qubits, device has %d", phys.NumQubits, d.NumQubits()))
	}
	p := &Prepared{
		gateErr:   make([]float64, len(phys.Gates)),
		gateClass: make([]gate.ErrorClass, len(phys.Gates)),
	}
	for i, g := range phys.Gates {
		s := d.GateSuccess(g.Kind, g.Qubits)
		p.gateErr[i] = 1 - s
		p.gateClass[i] = g.Kind.Class()
		if p.gateClass[i] == gate.Readout {
			p.breakdown.Readout += -math.Log(s)
		} else if s < 1 {
			p.breakdown.Gate += -math.Log(s)
		}
	}
	sched := schedule.ASAP(phys)
	p.duration = sched.Makespan
	if !cfg.DisableCoherence {
		p.coh = CoherenceErrors(d, sched.IdleTimes())
		for _, perr := range p.coh {
			p.breakdown.Coherence += -math.Log(1 - perr)
		}
	}
	p.analytic = 1
	for _, e := range p.gateErr {
		p.analytic *= 1 - e
	}
	for _, perr := range p.coh {
		p.analytic *= 1 - perr
	}
	return p
}

// AnalyticPST returns the closed-form PST under the prepared error model.
func (p *Prepared) AnalyticPST() float64 { return p.analytic }

// Breakdown returns the per-class failure hazards under the prepared
// error model.
func (p *Prepared) Breakdown() Breakdown { return p.breakdown }

// Duration returns the execution time of one trial: the ASAP schedule's
// makespan, the figure Run reports as Outcome.Duration.
func (p *Prepared) Duration() time.Duration { return p.duration }

// blockOutcome accumulates one trial block's counts; blocks are summed
// in index order, so the totals are independent of execution order.
type blockOutcome struct {
	successes, gate, readout, coherence int
}

// Estimate runs the Monte Carlo simulation and returns the PST the
// repository reports alongside the Outcome. Deep circuits have PSTs of
// 1e-4 and below, where a finite trial budget observes a handful of
// successes or none; since the MC converges to the analytic
// product-of-successes value by construction (errors are independent
// events), the analytic value is reported whenever fewer than
// minMCSuccesses successes were observed, keeping relative-PST ratios
// well-defined.
func (p *Prepared) Estimate(cfg Config) (float64, Outcome) {
	out := p.Run(cfg)
	if out.Successes < minMCSuccesses {
		return p.analytic, out
	}
	return out.PST, out
}

// Run executes the Monte Carlo fault-injection simulation against the
// prepared error model with the packed kernel. Trials are sharded into
// fixed BlockSize blocks, each driven by an RNG seeded from (cfg.Seed,
// blockIndex) via a SplitMix64 derivation, and the blocks are distributed
// over cfg.Workers goroutines; the Outcome is a pure function of (error
// model, Seed, Trials), bit-identical at every worker count. Each call
// first builds the packed kernel's class-aggregated plan.
func (p *Prepared) Run(cfg Config) Outcome {
	return p.run(cfg, KernelPacked, buildPackedPlan(p.gateErr, p.gateClass, p.coh).runBlock)
}

// run is Run over a given block kernel, named kernel in the Outcome.
func (p *Prepared) run(cfg Config, kernel string, runBlock func(seed int64, trials int) blockOutcome) Outcome {
	trials := cfg.trials()
	block := BlockSize
	if block > trials {
		block = trials
	}
	nblocks := (trials + block - 1) / block
	partials := make([]blockOutcome, nblocks)
	// Worker resolution lives in parallel.Workers; ForEach itself runs
	// serially on the calling goroutine when the count resolves to 1.
	parallel.ForEach(cfg.Workers, nblocks, func(b int) error {
		lo, hi := b*block, (b+1)*block
		if hi > trials {
			hi = trials
		}
		partials[b] = runBlock(blockSeed(cfg.Seed, b), hi-lo)
		return nil
	})
	out := Outcome{Trials: trials, Kernel: kernel}
	for _, bo := range partials {
		out.Successes += bo.successes
		out.GateFailures += bo.gate
		out.ReadoutFailures += bo.readout
		out.CoherenceFailures += bo.coherence
	}
	out.PST = float64(out.Successes) / float64(trials)
	out.StdErr = math.Sqrt(out.PST * (1 - out.PST) / float64(trials))
	out.Duration = p.duration
	out.TrialLatency = out.Duration + DefaultResetOverhead
	return out
}

// blockSeed derives block b's RNG seed from the run seed with a
// SplitMix64 finalizer, decorrelating the per-block streams while keeping
// the derivation a pure function of (seed, block) — the invariant the
// worker-count-independence guarantee rests on.
func blockSeed(seed int64, b int) int64 {
	return int64(splitmix.At(uint64(seed), uint64(b)+1))
}
