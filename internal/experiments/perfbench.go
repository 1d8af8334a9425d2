package experiments

import "context"

// This file exists only for perfbench, the benchmark module under
// perfbench/, which still drives the experiments through this call
// shape. Nothing in this module calls it; every other caller uses the
// plain X(cfg) functions. It goes once perfbench calls X(cfg) directly.

// Runner carries a Config to the XCtx adapters below.
type Runner struct{ cfg Config }

// NewRunner returns a Runner for cfg. The context and the third argument
// are ignored.
func NewRunner(_ context.Context, cfg Config, _ any) *Runner { return &Runner{cfg: cfg} }

// Config returns the run's experiment configuration.
func (r *Runner) Config() Config { return r.cfg }

// Report returns an empty report: every XCtx returns its error itself.
func (r *Runner) Report() noFailures { return noFailures{} }

type noFailures struct{}

// Err is always nil.
func (noFailures) Err() error { return nil }

func Table1BenchmarksCtx(r *Runner) ([]Table1Row, error)     { return Table1Benchmarks(r.cfg) }
func Fig12VQMCtx(r *Runner) ([]Fig12Row, error)              { return Fig12VQM(r.cfg) }
func Fig13PoliciesCtx(r *Runner) ([]Fig13Row, error)         { return Fig13Policies(r.cfg) }
func Fig14PerDayCtx(r *Runner) (Fig14Result, error)          { return Fig14PerDay(r.cfg) }
func Table2ErrorScalingCtx(r *Runner) ([]Table2Row, error)   { return Table2ErrorScaling(r.cfg) }
func Table3IBMQ5Ctx(r *Runner) (Table3Result, error)         { return Table3IBMQ5(r.cfg) }
func PortfolioPoliciesCtx(r *Runner) ([]PortfolioRow, error) { return PortfolioPolicies(r.cfg) }
func Fig16PartitioningCtx(r *Runner) ([]Fig16Row, error)     { return Fig16Partitioning(r.cfg) }
