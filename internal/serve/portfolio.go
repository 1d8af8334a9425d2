package serve

import (
	"vaq/internal/circuit"
	"vaq/internal/portfolio"
)

// Portfolio request limits. The grid bound is the one that matters: a
// portfolio compiles (1+cycles)×(2+starts)×8 candidates (4 movers × 2
// optimize points), so the axis caps alone would admit over a thousand
// compilations per request.
const (
	// MaxPortfolioCycles bounds the calibration-cycle window.
	MaxPortfolioCycles = 16
	// MaxPortfolioStarts bounds the random multi-start axis.
	MaxPortfolioStarts = 8
	// MaxPortfolioTopK bounds the Monte-Carlo refinement set.
	MaxPortfolioTopK = 32
	// MaxPortfolioCandidates bounds the whole grid, whatever the axis
	// combination.
	MaxPortfolioCandidates = 256
)

// PortfolioRequest is the body of POST /v1/portfolio. Exactly one of
// Workload and QASM must be set. Cycles and RandomStarts are pointers
// because omitted and zero mean different things: omitted takes the
// portfolio defaults, an explicit 0 switches that axis off (reference
// device only / no random starts).
type PortfolioRequest struct {
	// Workload names a built-in circuit (see workloads.ByName).
	Workload string `json:"workload,omitempty"`
	// QASM is an inline OpenQASM 2.0 program.
	QASM string `json:"qasm,omitempty"`
	// Device names a registered device model (default q20).
	Device string `json:"device,omitempty"`
	// RootSeed is the seed every candidate seed derives from (omitted:
	// 2019; 0 is rejected).
	RootSeed *int64 `json:"root_seed,omitempty"`
	// Cycles is the calibration window: the K most recent cycles of the
	// device's archive join the grid (omitted: portfolio.DefaultCycles;
	// 0: reference device only).
	Cycles *int `json:"cycles,omitempty"`
	// RandomStarts is the seeded-random multi-start count (omitted:
	// portfolio.DefaultRandomStarts; 0: none).
	RandomStarts *int `json:"random_starts,omitempty"`
	// TopK bounds the Monte-Carlo refinement stage (default
	// portfolio.DefaultTopK).
	TopK int `json:"top_k,omitempty"`
	// Trials is the Monte-Carlo budget per refined candidate (default
	// portfolio.DefaultTrials, capped by the server's -trials flag).
	Trials int `json:"trials,omitempty"`
}

// DecodePortfolioRequest parses and validates one /v1/portfolio body.
// Like DecodeCompileRequest it rejects unknown fields, trailing
// garbage, and out-of-range axes before any compilation is admitted;
// the returned request is normalized (every optional field resolved),
// so Spec() is a pure conversion.
func DecodePortfolioRequest(data []byte, maxTrials int) (*PortfolioRequest, error) {
	return decode[PortfolioRequest](data, maxTrials)
}

// check resolves every optional field first, so validation and the
// cache key see canonical values (two requests meaning the same
// portfolio share a cache entry), then validates.
func (r *PortfolioRequest) check(maxTrials int) error {
	if r.Device == "" {
		r.Device = DefaultDevice
	}
	if r.RootSeed == nil {
		seed := int64(portfolio.DefaultRootSeed)
		r.RootSeed = &seed
	}
	if r.Cycles == nil {
		c := portfolio.DefaultCycles
		r.Cycles = &c
	}
	if r.RandomStarts == nil {
		s := portfolio.DefaultRandomStarts
		r.RandomStarts = &s
	}
	if r.TopK == 0 {
		r.TopK = portfolio.DefaultTopK
	}
	if r.Trials == 0 {
		r.Trials = portfolio.DefaultTrials
	}
	if err := checkSource("workload", r.Workload, r.QASM); err != nil {
		return err
	}
	// The portfolio reads 0 as unset and would run its default seed.
	if *r.RootSeed == 0 {
		return badReqf("root_seed must be non-zero (omit it for the default %d)", portfolio.DefaultRootSeed)
	}
	if *r.Cycles < 0 || *r.Cycles > MaxPortfolioCycles {
		return badReqf("cycles must be in [0, %d] (got %d)", MaxPortfolioCycles, *r.Cycles)
	}
	if *r.RandomStarts < 0 || *r.RandomStarts > MaxPortfolioStarts {
		return badReqf("random_starts must be in [0, %d] (got %d)", MaxPortfolioStarts, *r.RandomStarts)
	}
	if r.TopK < 0 || r.TopK > MaxPortfolioTopK {
		return badReqf("top_k must be in [0, %d] (got %d)", MaxPortfolioTopK, r.TopK)
	}
	if err := checkTrials(r.Trials, maxTrials); err != nil {
		return err
	}
	// The grid bound: worst case the device archive covers the whole
	// requested window.
	if n := portfolio.GridSize(r.Spec(0), *r.Cycles); n > MaxPortfolioCandidates {
		return badReqf("portfolio grid has %d candidates (max %d); shrink cycles or random_starts",
			n, MaxPortfolioCandidates)
	}
	return nil
}

// Program resolves the request's circuit, exactly as CompileRequest
// does.
func (r *PortfolioRequest) Program() (*circuit.Circuit, error) {
	cr := CompileRequest{Workload: r.Workload, QASM: r.QASM}
	return cr.Program()
}

// Spec converts a normalized request into the portfolio spec. The
// request's explicit-zero axes become the spec's negative "none"
// markers, so portfolio.Spec's own defaulting never reinterprets them.
func (r *PortfolioRequest) Spec(workers int) portfolio.Spec {
	cycles, starts := *r.Cycles, *r.RandomStarts
	if cycles == 0 {
		cycles = -1
	}
	if starts == 0 {
		starts = -1
	}
	return portfolio.Spec{
		RootSeed:     *r.RootSeed,
		Cycles:       cycles,
		RandomStarts: starts,
		TopK:         r.TopK,
		Trials:       r.Trials,
		Workers:      workers,
	}
}
