// The scalar Monte-Carlo kernel: the original one-trial-at-a-time
// fault injector, kept as the test reference the packed kernel is
// cross-checked against. No option selects it; tests and the benchmark
// below reach it through runScalar.
package sim

import (
	"math/rand"
	"testing"

	"vaq/internal/gate"
)

// kernelScalar names the scalar kernel in Outcome.Kernel.
const kernelScalar = "scalar"

// runScalar is Run with the scalar kernel. The two kernels sample the
// same distribution but consume randomness differently, so their
// Outcomes agree statistically, not byte for byte.
func (p *Prepared) runScalar(cfg Config) Outcome {
	return p.run(cfg, kernelScalar, p.runBlockScalar)
}

// runBlockScalar walks one block of fault-injection trials one at a time
// with its own RNG — the reference kernel the packed path is cross-checked
// against. Its math/rand stream layout is frozen: TestScalarGoldenUnchanged
// pins its Outcome byte for byte.
func (p *Prepared) runBlockScalar(seed int64, trials int) blockOutcome {
	rng := rand.New(rand.NewSource(seed))
	var bo blockOutcome
	for t := 0; t < trials; t++ {
		failed := false
		for i := range p.gateErr {
			if p.gateErr[i] > 0 && rng.Float64() < p.gateErr[i] {
				failed = true
				if p.gateClass[i] == gate.Readout {
					bo.readout++
				} else {
					bo.gate++
				}
				break
			}
		}
		if !failed && p.coh != nil {
			for _, perr := range p.coh {
				if perr > 0 && rng.Float64() < perr {
					failed = true
					bo.coherence++
					break
				}
			}
		}
		if !failed {
			bo.successes++
		}
	}
	return bo
}

// BenchmarkMonteCarloScalar measures the scalar reference kernel on the
// bv-16/q20 workload of TestScalarGoldenUnchanged; against the root
// package's BenchmarkMonteCarlo it gives the bit-parallel speedup on the
// machine that ran both.
func BenchmarkMonteCarloScalar(b *testing.B) {
	d, phys := q20Compiled(b)
	prep := Prepare(d, phys, Config{})
	const trials = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prep.runScalar(Config{Trials: trials, Seed: int64(i), Workers: -1})
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(trials)*float64(b.N)/secs, "trials/sec")
	}
}
