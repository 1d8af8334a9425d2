package experiments

import (
	"fmt"

	"vaq/internal/core"
	"vaq/internal/partition"
	"vaq/internal/sim"
	"vaq/internal/workloads"
)

// Fig16Row is one 10-qubit workload's partitioning outcome.
type Fig16Row struct {
	Name string
	// STPTs normalized to the two-copy configuration (the paper's
	// normalization in Figure 16).
	TwoCopiesNorm float64 // always 1.0
	OneStrongNorm float64
	Winner        partition.Mode
	// Raw values for EXPERIMENTS.md.
	OneSTPT, TwoSTPT float64
	TwoPSTs          [2]float64
	OnePST           float64
}

// Fig16Partitioning reproduces Figure 16: Successful Trials Per unit Time
// of two concurrent copies versus one strong copy, for the 10-qubit
// variants of alu, bv and qft on the IBM-Q20 model.
func Fig16Partitioning(cfg Config) ([]Fig16Row, error) {
	return runLegacy(cfg, Fig16PartitioningCtx)
}

// Fig16PartitioningCtx is Fig16Partitioning decomposed into per-workload
// units.
func Fig16PartitioningCtx(r *Runner) ([]Fig16Row, error) {
	cfg := r.Config().withDefaults()
	d := cfg.meanQ20()
	opts := partition.Options{
		Compile:    core.Options{Policy: core.VQAVQM},
		Sim:        sim.Config{Trials: cfg.Trials / 4, Seed: cfg.Seed, Workers: cfg.Workers},
		Candidates: 10,
	}
	suite := workloads.TenQubitSuite()
	rows := make([]*Fig16Row, len(suite))
	err := r.collectUnits(len(suite), func(i int) {
		spec := suite[i]
		key := UnitKey{Experiment: "fig16", Workload: spec.Name, Day: -1, Policy: "stpt"}
		if row, ok := RunUnit(r, key, func() (Fig16Row, error) {
			res, err := partition.Evaluate(d, spec.Circuit, opts)
			if err != nil {
				return Fig16Row{}, fmt.Errorf("fig16 %s: %w", spec.Name, err)
			}
			row := Fig16Row{
				Name:          spec.Name,
				TwoCopiesNorm: 1,
				Winner:        res.Winner,
				OneSTPT:       res.OneSTPT,
				TwoSTPT:       res.TwoSTPT,
				TwoPSTs:       [2]float64{res.Two[0].PST, res.Two[1].PST},
				OnePST:        res.One.PST,
			}
			if res.TwoSTPT > 0 {
				row.OneStrongNorm = res.OneSTPT / res.TwoSTPT
			}
			return row, nil
		}); ok {
			rows[i] = &row
		}
	})
	return compactRows(rows), err
}

// Fig16Table renders Figure 16.
func Fig16Table(rows []Fig16Row) Table {
	t := Table{
		Title:   "Figure 16: normalized STPT — two weak copies vs one strong copy",
		Header:  []string{"workload", "two copies", "one strong copy", "winner"},
		Caption: "paper: bv-10 favors two copies; qft-10 favors one strong copy",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{r.Name, f2(r.TwoCopiesNorm), f2(r.OneStrongNorm), r.Winner.String()})
	}
	return t
}
