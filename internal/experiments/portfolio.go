package experiments

import (
	"context"
	"fmt"
	"math"

	"vaq/internal/core"
	"vaq/internal/metrics"
	"vaq/internal/parallel"
	"vaq/internal/portfolio"
	"vaq/internal/workloads"
)

// PortfolioRow compares the best-of-portfolio PST against each fixed
// compilation policy for one Table 1 workload on the IBM-Q20 model.
type PortfolioRow struct {
	Name         string
	BaselinePST  float64
	VQMPST       float64
	VQMHopPST    float64
	VQAVQMPST    float64
	PortfolioPST float64
	// Winner is the grid label of the portfolio candidate that measured
	// best under the fixed-policy protocol.
	Winner string
	// Headroom is PortfolioPST over the best fixed-policy PST. By
	// construction it is ≥ 1: the portfolio grid contains every
	// (allocator, router) pair the fixed deterministic policies choose
	// from, measured under the identical protocol.
	Headroom float64
}

// fixedPolicies are the deterministic single-policy columns the
// portfolio is compared against (Native is excluded: its randomized
// mappings are a distribution, not a fixed comparator, and Figure 13
// already shows it far below the baseline).
var fixedPolicies = []core.Policy{core.Baseline, core.VQM, core.VQMHop, core.VQAVQM}

// PortfolioPolicies runs the portfolio-vs-fixed-policies comparison over
// the Table 1 suite.
//
// Methodology: the fixed columns use cfg.pst. The portfolio column runs
// the speculative grid, then re-measures its leaders — the analytic
// top-k plus every fixed-equivalent grid point — with cfg.measure, the
// protocol behind cfg.pst (same simulator seed and analytic fallback),
// and reports the best. Identical circuits measured identically yield
// identical PSTs, and every circuit a fixed policy can produce on the
// reference device is a mean-cycle grid point (core.Candidates lists
// them; portfolio's TestGridCoversFixedPolicies pins the cover), so the
// portfolio column is mathematically ≥ each fixed column.
func PortfolioPolicies(cfg Config) ([]PortfolioRow, error) {
	cfg = cfg.withDefaults()
	arch := cfg.archive()
	d := cfg.meanQ20()
	suite := workloads.Table1Suite()
	return parallel.Map(cfg.Workers, len(suite), func(i int) (PortfolioRow, error) {
		spec := suite[i]
		fixed := make([]float64, len(fixedPolicies))
		for j, p := range fixedPolicies {
			pst, err := cfg.pst(d, spec.Circuit, p, cfg.Trials, cfg.Seed)
			if err != nil {
				return PortfolioRow{}, fmt.Errorf("portfolio %s/%s: %w", spec.Name, p, err)
			}
			fixed[j] = pst
		}
		pspec := portfolio.Spec{RootSeed: cfg.Seed, Workers: cfg.Workers}
		res, err := portfolio.Run(context.TODO(), d, arch, spec.Circuit, pspec)
		if err != nil {
			return PortfolioRow{}, fmt.Errorf("portfolio %s: %w", spec.Name, err)
		}
		best, winner := math.Inf(-1), ""
		for idx := range res.Candidates {
			c := &res.Candidates[idx]
			if idx >= portfolio.DefaultTopK && !fixedEquivalent(c.CandidateSpec) {
				continue
			}
			pst := cfg.measure(d, c.Compiled.Routed.Physical, cfg.Trials, cfg.Seed)
			if pst > best {
				best, winner = pst, c.Label()
			}
		}
		_, bestFixed := metrics.MinMax(fixed)
		return PortfolioRow{
			Name:         spec.Name,
			BaselinePST:  fixed[0],
			VQMPST:       fixed[1],
			VQMHopPST:    fixed[2],
			VQAVQMPST:    fixed[3],
			PortfolioPST: best,
			Winner:       winner,
			Headroom:     metrics.Relative(best, bestFixed),
		}, nil
	})
}

// fixedEquivalent reports whether a grid point covers a circuit one of
// the fixed deterministic policies can produce on the reference device:
// a non-optimized mean-cycle candidate with a deterministic allocator.
// These candidates always join the re-measurement set, which is what
// pins the portfolio column to ≥ every fixed column.
func fixedEquivalent(c portfolio.CandidateSpec) bool {
	return c.Cycle == portfolio.MeanCycle && !c.Optimize && c.Alloc != portfolio.AllocRandom
}

// PortfolioTable renders the portfolio comparison.
func PortfolioTable(rows []PortfolioRow) Table {
	t := Table{
		Title:   "Portfolio compilation: best-of-grid PST vs fixed policies (IBM-Q20)",
		Header:  []string{"workload", "baseline", "VQM", "VQM (MAH=4)", "VQA+VQM", "portfolio", "winner", "headroom"},
		Caption: "headroom = portfolio / best fixed policy (≥ 1.00x by construction; the grid supersets the fixed policies)",
	}
	for _, r := range rows {
		t.Rows = append(t.Rows, []string{
			r.Name, f3(r.BaselinePST), f3(r.VQMPST), f3(r.VQMHopPST), f3(r.VQAVQMPST),
			f3(r.PortfolioPST), r.Winner, x2(r.Headroom),
		})
	}
	return t
}
