package serve

import (
	"cmp"
	"context"
	"fmt"
	"hash/fnv"

	"vaq/internal/ansatz"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/parallel"
	"vaq/internal/param"
	"vaq/internal/qasm"
	"vaq/internal/route"
)

// Sweep request limits. Points are cheap — a rebind is a clone-and-fill,
// not a compile — so the point cap is far above the portfolio grid cap,
// but still bounds a single request's allocation.
const (
	// MaxSweepPoints bounds the parameter sets of one sweep.
	MaxSweepPoints = 4096
)

// SweepRequest is the body of POST /v1/sweep: one parametric template
// (a named ansatz or inline symbolic OpenQASM) swept over a list of
// parameter sets. The template compiles once — allocation, routing and
// the success estimate are angle-independent — and each point is a
// rebind of the winning mapping.
type SweepRequest struct {
	// Ansatz names a built-in parametric generator (see ansatz.Names):
	// "su2-<n>[-r<reps>]" or "qaoa-<n>[-p<layers>]".
	Ansatz string `json:"ansatz,omitempty"`
	// QASM is an inline OpenQASM 2.0 program with symbolic parameters
	// (see qasm.ParseParametric).
	QASM string `json:"qasm,omitempty"`
	// Policy is a compilation policy name (default vqa+vqm).
	Policy string `json:"policy,omitempty"`
	// Device names a registered device model (default q20).
	Device string `json:"device,omitempty"`
	// Seed drives Native's randomized mapping (default 2019).
	Seed *int64 `json:"seed,omitempty"`
	// Movement overrides the policy's routing pass (route.MovementNames).
	Movement string `json:"movement,omitempty"`
	// Points are the parameter sets, positional over the template's free
	// symbols in appearance order (the response's Symbols field).
	Points [][]float64 `json:"points"`
}

// DecodeSweepRequest parses and validates one /v1/sweep body. Symbol
// arity needs the resolved template, so the sweep plan checks it —
// still before any compile.
func DecodeSweepRequest(data []byte) (*SweepRequest, error) {
	return decode[SweepRequest](data, 0)
}

func (r *SweepRequest) check(int) error {
	if r.Policy == "" {
		r.Policy = DefaultPolicy
	}
	if r.Device == "" {
		r.Device = DefaultDevice
	}
	if r.Seed == nil {
		seed := int64(DefaultSeed)
		r.Seed = &seed
	}
	if err := checkSource("ansatz", r.Ansatz, r.QASM); err != nil {
		return err
	}
	if _, ok := core.PolicyByName(r.Policy); !ok {
		return badReqf("unknown policy %q", r.Policy)
	}
	if r.Movement != "" {
		if _, err := route.ByName(r.Movement, 0); err != nil {
			return badReqf("%v", err)
		}
	}
	if len(r.Points) == 0 {
		return badReqf("sweep has no points")
	}
	if len(r.Points) > MaxSweepPoints {
		return badReqf("sweep has %d points (max %d)", len(r.Points), MaxSweepPoints)
	}
	return nil
}

// Template resolves the request's parametric circuit.
func (r *SweepRequest) Template() (*param.ParametricCircuit, error) {
	if r.Ansatz != "" {
		pc, err := ansatz.ByName(r.Ansatz)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return pc, nil
	}
	pc, err := qasm.ParseParametric(r.QASM)
	if err != nil {
		return nil, fmt.Errorf("%w: qasm: %v", ErrBadRequest, err)
	}
	return pc, nil
}

// SweepPoint is one swept parameter set: its values and the FNV-64a
// fingerprint of the rebound physical circuit's serialized form —
// enough for a client to dedupe, archive or fetch bindings without the
// response carrying thousands of full circuits.
type SweepPoint struct {
	Index       int       `json:"index"`
	Values      []float64 `json:"values"`
	Fingerprint string    `json:"fingerprint"`
}

// SweepResult is the body of a /v1/sweep response. AnalyticPST is one
// number for the whole sweep: the success estimate never reads angles,
// so every binding of the compiled mapping shares it.
type SweepResult struct {
	Device    DeviceInfo     `json:"device"`
	Template  string         `json:"template"`
	Policy    string         `json:"policy"`
	NumParams int            `json:"num_params"`
	Symbols   []param.Symbol `json:"symbols"`
	// Physical summarizes the compiled mapping (constant across points).
	Physical PhysicalInfo `json:"physical"`
	// AnalyticPST is the mapping's success estimate, shared by every
	// point of the sweep.
	AnalyticPST float64 `json:"analytic_pst"`
	// CompilesSaved counts the compilations the parametric plane
	// avoided: every point after the first reuses the mapping.
	CompilesSaved int          `json:"compiles_saved"`
	Points        []SweepPoint `json:"points"`
}

// sweepCacheKey is the response-cache identity of a sweep: device
// fingerprint, template hash, the spec fields that change the mapping,
// and a digest of every point. Workers is deliberately absent — the
// fan-out writes by index, so the body is bit-identical at any count.
func sweepCacheKey(deviceFP uint64, req *SweepRequest) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%q%q%v", req.Ansatz, req.QASM, req.Points)
	return fmt.Sprintf("/v1/sweep|%016x|%016x|%s|%d|%s",
		deviceFP, h.Sum64(), req.Policy, *req.Seed, req.Movement)
}

// sweepPlan plans a sweep. Arity is checked here, against the
// template's free symbols, so a malformed sweep is a 400 before it
// costs a cache miss or a compile.
func (s *Server) sweepPlan(req *SweepRequest) (*plan, error) {
	pc, err := req.Template()
	if err != nil {
		return nil, err
	}
	d, _, err := s.resolve(req.Device, pc.Circ)
	if err != nil {
		return nil, err
	}
	n := pc.NumParams()
	for i, pt := range req.Points {
		if len(pt) != n {
			return nil, badReqf("point %d has %d values, template has %d free symbols", i, len(pt), n)
		}
	}
	spec := Spec{Policy: req.Policy, Seed: *req.Seed, Movement: req.Movement, Workers: s.cfg.Workers}
	return &plan{
		key: sweepCacheKey(d.Fingerprint(), req),
		hit: func() { s.met.sweep(len(req.Points)) },
		run: func(ctx context.Context) (any, error) {
			res, err := Sweep(ctx, d, pc, spec, req.Points)
			if err != nil {
				return nil, err
			}
			// An inline program has no name.
			res.Device.Name, res.Template = req.Device, cmp.Or(req.Ansatz, "qasm")
			s.met.sweep(len(req.Points))
			return res, nil
		},
	}, nil
}

// Sweep is the parametric pipeline behind POST /v1/sweep and nisqc
// -sweep: compile the template once on d under spec's Policy, Seed and
// Movement (spec.Optimize is rejected — the transpile passes fold
// angles), then rebind the mapping per point over spec.Workers
// goroutines. With no points it returns the mapping summary alone. The
// caller labels the result's Template and Device.Name.
func Sweep(ctx context.Context, d *device.Device, pc *param.ParametricCircuit, spec Spec, points [][]float64) (*SweepResult, error) {
	policy, ok := core.PolicyByName(spec.Policy)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", spec.Policy)
	}
	bound, err := core.CompileParametric(d, pc, core.Options{
		Policy:   policy,
		Seed:     spec.Seed,
		Optimize: spec.Optimize,
		Movement: spec.Movement,
	})
	if err != nil {
		return nil, err
	}

	// The fan-out: every point is an independent rebind writing its own
	// slot, so the point list is bit-identical at any worker count.
	out := make([]SweepPoint, len(points))
	err = parallel.Collect(ctx, spec.Workers, len(points), func(i int) error {
		phys, err := bound.RebindValues(points[i])
		if err != nil {
			return err
		}
		out[i] = SweepPoint{
			Index:       i,
			Values:      points[i],
			Fingerprint: fmt.Sprintf("%016x", progHash(phys)),
		}
		return nil
	})
	if err != nil {
		// A sweep is all-or-nothing (unlike a batch, whose items are
		// independent requests): surface the first point failure.
		if pe := parallel.Errors(err); len(pe) > 0 {
			return nil, fmt.Errorf("point %d: %w", pe[0].Index, pe[0].Err)
		}
		return nil, err
	}

	stats := bound.Compiled.Routed.Physical.Stats()
	return &SweepResult{
		Device:        Describe(d),
		Policy:        spec.Policy,
		NumParams:     bound.NumParams(),
		Symbols:       bound.Symbols(),
		Physical:      PhysicalInfo{Instructions: stats.Total, CNOTs: stats.CNOTs, Depth: stats.Depth},
		AnalyticPST:   bound.ESP,
		CompilesSaved: max(len(points)-1, 0),
		Points:        out,
	}, nil
}
