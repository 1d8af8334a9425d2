package experiments

import (
	"fmt"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/metrics"
	"vaq/internal/parallel"
	"vaq/internal/route"
	"vaq/internal/sim"
	"vaq/internal/workloads"
)

// The scale experiment asks the paper's question at sizes the paper
// could not reach: does variability-aware policy still pay off at 100,
// 399 and 1000 qubits, and how does the payoff move with the spatial
// variance of the machine? Each cell compares, on one synthetic
// heavy-hex fleet:
//
//   - baseline: interaction-aware greedy allocation + hop-objective
//     SABRE (variability-blind movement), and
//   - aware: VQA allocation + reliability-objective SABRE.
//
// Both sides route with SABRE so the comparison isolates what
// variability-awareness buys, not what the router's asymptotics cost.
// Scores are the closed-form analytic PST on the fleet's mean snapshot,
// so the table is exactly reproducible at any -workers setting.

// ScaleRow is one (device size, variance tier) cell.
type ScaleRow struct {
	Qubits        int
	Tier          calib.VarianceTier
	BaselinePST   float64
	AwarePST      float64
	Relative      float64 // AwarePST / BaselinePST
	BaselineSwaps int
	AwareSwaps    int
}

// scaleSizes are the heavy-hex device sizes swept by ScaleSweep.
var scaleSizes = []int{20, 100, 399, 1000}

// ScaleSweep runs the tier × size grid on a fixed 16-qubit
// Bernstein–Vazirani program — deep enough that allocation and
// movement quality both matter, shallow enough that success
// probabilities stay in a readable range at a 4.3% mean CX error.
func ScaleSweep(cfg Config) ([]ScaleRow, error) {
	cfg = cfg.withDefaults()
	prog := workloads.BV(16)
	var scfg sim.Config

	type cell struct {
		n    int
		tier calib.VarianceTier
	}
	var cells []cell
	for _, n := range scaleSizes {
		for _, tier := range calib.Tiers() {
			cells = append(cells, cell{n, tier})
		}
	}
	rows, err := parallel.Map(cfg.Workers, len(cells), func(i int) (ScaleRow, error) {
		c := cells[i]
		name := fmt.Sprintf("heavy-hex-%d-%s", c.n, c.tier)
		arch, err := calib.ZooArchive(name, cfg.Seed)
		if err != nil {
			return ScaleRow{}, err
		}
		d, err := device.New(arch.Topo, arch.MustMean())
		if err != nil {
			return ScaleRow{}, err
		}
		base, err := core.Compile(d, prog, core.Options{
			Policy: core.Baseline, Movement: route.MovementSabreHops,
		})
		if err != nil {
			return ScaleRow{}, fmt.Errorf("scale %s baseline: %w", name, err)
		}
		aware, err := core.Compile(d, prog, core.Options{
			Policy: core.VQAVQM, Movement: route.MovementSabre,
		})
		if err != nil {
			return ScaleRow{}, fmt.Errorf("scale %s aware: %w", name, err)
		}
		basePST := sim.AnalyticPST(d, base.Routed.Physical, scfg)
		awarePST := sim.AnalyticPST(d, aware.Routed.Physical, scfg)
		return ScaleRow{
			Qubits:        c.n,
			Tier:          c.tier,
			BaselinePST:   basePST,
			AwarePST:      awarePST,
			Relative:      metrics.Relative(awarePST, basePST),
			BaselineSwaps: base.Swaps(),
			AwareSwaps:    aware.Swaps(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return rows, nil
}

// ScaleTable renders the sweep in size-major order.
func ScaleTable(rows []ScaleRow) Table {
	t := Table{
		Title:   "Scale: variability-aware vs baseline on heavy-hex fleets (BV-16, analytic PST)",
		Header:  []string{"qubits", "tier", "baseline PST", "aware PST", "relative", "swaps base/aware"},
		Caption: "both sides route with SABRE; relative = aware/baseline on the mean snapshot",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(r.Qubits), string(r.Tier),
			f3(r.BaselinePST), f3(r.AwarePST), x2(r.Relative),
			fmt.Sprintf("%d/%d", r.BaselineSwaps, r.AwareSwaps),
		})
	}
	return t
}
