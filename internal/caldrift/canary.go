package caldrift

import (
	"context"
	"fmt"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/parallel"
	"vaq/internal/portfolio"
	"vaq/internal/sim"
)

// CanaryTarget is one hot circuit the canary recompiler re-evaluates
// when its device drifts: the logical program plus the stale physical
// circuit the serving cache would still hand out.
type CanaryTarget struct {
	// Name labels the target in the report (the serve layer uses the
	// compile cache key's digest).
	Name string
	// Prog is the logical circuit, recompiled from scratch against the
	// drifted calibration.
	Prog *circuit.Circuit
	// Stale is the physical circuit of the cached mapping, scored as-is
	// on the drifted calibration.
	Stale *circuit.Circuit
}

// CanaryDelta is the predicted effect of recompiling one hot circuit
// against the drifted calibration: analytic PST of the stale cached
// mapping scored on the new device, versus the best candidate of a
// fresh portfolio run on the same device. Delta > 0 means
// recompilation is predicted to recover success probability.
type CanaryDelta struct {
	Name string `json:"name"`
	// StalePST is the cached mapping's analytic PST on the drifted
	// calibration.
	StalePST float64 `json:"stale_pst"`
	// RecompiledPST is the best fresh candidate's analytic PST on the
	// same calibration; Policy labels which grid point won.
	RecompiledPST float64 `json:"recompiled_pst"`
	Policy        string  `json:"policy"`
	Delta         float64 `json:"delta"`
	// Err records a failed recompile (the target's siblings still
	// report).
	Err string `json:"err,omitempty"`
}

// CanaryReport summarizes one canary run over a device's hot circuits.
type CanaryReport struct {
	Targets int           `json:"targets"`
	Deltas  []CanaryDelta `json:"deltas"`
	// MeanDelta and MaxDelta aggregate the successful deltas.
	MeanDelta float64 `json:"mean_delta"`
	MaxDelta  float64 `json:"max_delta"`
}

// Canary speculatively recompiles the hot targets against the drifted
// calibration window (oldest first; the last cycle is the current
// calibration) and reports the predicted-PST deltas. It evaluates every
// target it is given; the caller bounds the fan-out. Targets keep
// their order; a target whose recompile fails carries its error
// instead of aborting the run. spec is the portfolio run for each
// speculative recompile, and spec.Workers also bounds the per-target
// fan-out. The report is a pure function of (window, targets, spec) —
// bit-identical at any worker count.
func Canary(ctx context.Context, window []*calib.Snapshot, targets []CanaryTarget, spec portfolio.Spec) (*CanaryReport, error) {
	if len(window) == 0 {
		return nil, fmt.Errorf("caldrift: canary needs a non-empty window")
	}
	current := window[len(window)-1]
	d, err := device.New(current.Topo, current)
	if err != nil {
		return nil, fmt.Errorf("caldrift: canary device: %w", err)
	}
	arch := &calib.Archive{Topo: current.Topo, Snapshots: window}

	rep := &CanaryReport{Targets: len(targets)}

	deltas, err := parallel.MapCtx(ctx, spec.Workers, len(targets), func(i int) (CanaryDelta, error) {
		t := targets[i]
		out := CanaryDelta{Name: t.Name}
		if t.Prog == nil || t.Stale == nil {
			out.Err = "target has no circuit"
			return out, nil
		}
		out.StalePST = sim.AnalyticPST(d, t.Stale, sim.Config{})
		res, rerr := portfolio.Run(ctx, d, arch, t.Prog, spec)
		if rerr != nil {
			out.Err = rerr.Error()
			return out, nil
		}
		best := res.Best()
		if best == nil {
			out.Err = "portfolio produced no candidates"
			return out, nil
		}
		// Both sides are analytic PST on the same device, so the delta
		// isolates the mapping, not the estimator.
		out.RecompiledPST = best.AnalyticPST
		out.Policy = best.CandidateSpec.Label()
		out.Delta = out.RecompiledPST - out.StalePST
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	rep.Deltas = deltas

	var sum float64
	var n int
	for _, dl := range deltas {
		if dl.Err != "" {
			continue
		}
		sum += dl.Delta
		if dl.Delta > rep.MaxDelta {
			rep.MaxDelta = dl.Delta
		}
		n++
	}
	if n > 0 {
		rep.MeanDelta = sum / float64(n)
	}
	return rep, nil
}
