// Package serve is the compile-and-estimate service layer behind the
// nisqd daemon: a stdlib-only HTTP JSON API that centralizes
// hardware-aware compilation (per-device, per-calibration cost tables
// are exactly the computation worth keeping warm in one process) on top
// of the repository's deterministic building blocks — the routing cache
// (package route), the block-sharded Monte-Carlo simulator (package
// sim), and the fault-isolated worker pool (package parallel).
//
// The compile pipeline itself lives here too, shared with cmd/nisqc:
// both the CLI and the daemon call Run, and the daemon's JSON responses
// embed the exact report text the CLI prints, so the two front-ends can
// never drift apart (an equivalence test pins this byte for byte).
package serve

import (
	"fmt"
	"strings"
	"time"

	"vaq/internal/circuit"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/sim"
)

// Spec pins everything one compile-and-estimate depends on besides the
// device: it is the cacheable identity of a request.
type Spec struct {
	Policy   string
	Seed     int64
	Trials   int
	Workers  int
	Optimize bool
	// SkipMonteCarlo leaves Result.MC zeroed and MC absent from the
	// report (the /v1/estimate endpoint's analytic-only mode).
	SkipMonteCarlo bool
	// Movement overrides the policy's routing pass (route.MovementNames;
	// "" means the policy's own router). Part of the cache identity: the
	// routed circuit differs per router.
	Movement string
}

// ProgramInfo summarizes the logical program.
type ProgramInfo struct {
	Name         string `json:"name"`
	Qubits       int    `json:"qubits"`
	Instructions int    `json:"instructions"`
	Depth        int    `json:"depth"`
}

// DeviceInfo summarizes the device model a result was computed on.
type DeviceInfo struct {
	Name        string `json:"name"`
	Qubits      int    `json:"qubits"`
	Links       int    `json:"links"`
	Fingerprint string `json:"fingerprint"`
}

// PhysicalInfo summarizes the compiled physical circuit.
type PhysicalInfo struct {
	Instructions int `json:"instructions"`
	CNOTs        int `json:"cnots"`
	Depth        int `json:"depth"`
}

// MCInfo reports the Monte-Carlo PST estimate.
type MCInfo struct {
	PST    float64 `json:"pst"`
	StdErr float64 `json:"std_err"`
	Trials int     `json:"trials"`
	// Kernel is the Monte-Carlo kernel that produced the estimate
	// (always sim.KernelPacked, "packed").
	Kernel string `json:"kernel"`
}

// HazardInfo reports the per-class failure hazards (expected failure
// events per trial; see sim.Breakdown).
type HazardInfo struct {
	Gate      float64 `json:"gate"`
	Readout   float64 `json:"readout"`
	Coherence float64 `json:"coherence"`
}

// Result is one compiled-and-estimated circuit: the structured fields
// the JSON API returns plus Report, the exact text cmd/nisqc prints for
// the same inputs.
type Result struct {
	Program        ProgramInfo  `json:"program"`
	Device         DeviceInfo   `json:"device"`
	Policy         string       `json:"policy"`
	Allocator      string       `json:"allocator"`
	Router         string       `json:"router"`
	InitialMapping []int        `json:"initial_mapping"`
	Swaps          int          `json:"swaps"`
	Physical       PhysicalInfo `json:"physical"`
	DurationNs     int64        `json:"duration_ns"`
	AnalyticPST    float64      `json:"analytic_pst"`
	MC             *MCInfo      `json:"monte_carlo,omitempty"`
	Hazards        HazardInfo   `json:"hazards"`
	Report         string       `json:"report"`

	// PhysicalCircuit is the compiled circuit itself, for callers that
	// need more than the summary (nisqc's -timeline/-outcomes/-verbose
	// extras). It never travels over the wire.
	PhysicalCircuit *circuit.Circuit `json:"-"`

	// mcElapsed is the wall time the Monte-Carlo estimate took (zero when
	// skipped); the daemon's trial-throughput metrics read it on cache
	// misses. Like PhysicalCircuit, it never travels over the wire.
	mcElapsed time.Duration
}

// Run compiles prog onto d under spec, verifies the result, and
// estimates its PST. It is the single pipeline behind cmd/nisqc and the
// /v1/compile and /v1/estimate endpoints.
func Run(d *device.Device, prog *circuit.Circuit, spec Spec) (*Result, error) {
	policy, ok := core.PolicyByName(spec.Policy)
	if !ok {
		return nil, fmt.Errorf("unknown policy %q", spec.Policy)
	}
	comp, err := core.Compile(d, prog, core.Options{Policy: policy, Seed: spec.Seed, Optimize: spec.Optimize, Movement: spec.Movement})
	if err != nil {
		return nil, err
	}
	if err := comp.Verify(d); err != nil {
		return nil, fmt.Errorf("internal error: compiled program failed verification: %w", err)
	}

	in := prog.Stats()
	out := comp.Routed.Physical.Stats()
	duration := comp.Routed.Physical.Duration()
	scfg := sim.Config{Trials: spec.Trials, Seed: spec.Seed, Workers: spec.Workers}
	prep := sim.Prepare(d, comp.Routed.Physical, scfg)
	analytic := prep.AnalyticPST()
	breakdown := prep.Breakdown()

	r := &Result{
		Program: ProgramInfo{
			Name:         prog.Name,
			Qubits:       prog.NumQubits,
			Instructions: in.Total,
			Depth:        in.Depth,
		},
		Device:         Describe(d),
		Policy:         comp.Policy.String(),
		Allocator:      comp.Allocator,
		Router:         comp.Router,
		InitialMapping: append([]int(nil), comp.Routed.Initial...),
		Swaps:          comp.Swaps(),
		Physical: PhysicalInfo{
			Instructions: out.Total,
			CNOTs:        out.CNOTs,
			Depth:        out.Depth,
		},
		DurationNs:  int64(duration),
		AnalyticPST: analytic,
		Hazards: HazardInfo{
			Gate:      breakdown.Gate,
			Readout:   breakdown.Readout,
			Coherence: breakdown.Coherence,
		},
		PhysicalCircuit: comp.Routed.Physical,
	}
	if !spec.SkipMonteCarlo {
		start := time.Now()
		mc := prep.Run(scfg)
		r.mcElapsed = time.Since(start)
		r.MC = &MCInfo{PST: mc.PST, StdErr: mc.StdErr, Trials: mc.Trials, Kernel: mc.Kernel}
	}

	// The report is rendered here, with the live objects, using the
	// same verbs cmd/nisqc historically used — the CLI prints this
	// string verbatim, which is what makes daemon and CLI bit-identical
	// by construction.
	var b strings.Builder
	fmt.Fprintf(&b, "program     %s (%d qubits, %d instructions, depth %d)\n",
		prog.Name, prog.NumQubits, in.Total, in.Depth)
	fmt.Fprintf(&b, "device      %s (%d qubits, %d links)\n",
		d.Topology().Name, d.NumQubits(), d.Topology().NumLinks())
	fmt.Fprintf(&b, "policy      %s (alloc %s, route %s)\n", comp.Policy, comp.Allocator, comp.Router)
	fmt.Fprintf(&b, "mapping     initial %v\n", comp.Routed.Initial)
	fmt.Fprintf(&b, "swaps       %d inserted (physical: %d instructions, %d CNOTs, depth %d)\n",
		comp.Swaps(), out.Total, out.CNOTs, out.Depth)
	fmt.Fprintf(&b, "duration    %v per trial\n", duration)
	if r.MC != nil {
		fmt.Fprintf(&b, "PST         %.4f analytic, %.4f ± %.4f Monte-Carlo (%d trials)\n",
			analytic, r.MC.PST, r.MC.StdErr, r.MC.Trials)
	} else {
		fmt.Fprintf(&b, "PST         %.4f analytic\n", analytic)
	}
	fmt.Fprintf(&b, "hazards     gate %.3f, readout %.3f, coherence %.3f\n",
		breakdown.Gate, breakdown.Readout, breakdown.Coherence)
	r.Report = b.String()
	return r, nil
}

// Describe summarizes a device for API responses, including the exact
// calibration fingerprint the response cache and route cache key on.
func Describe(d *device.Device) DeviceInfo {
	return DeviceInfo{
		Name:        d.Topology().Name,
		Qubits:      d.NumQubits(),
		Links:       d.Topology().NumLinks(),
		Fingerprint: fmt.Sprintf("%016x", d.Fingerprint()),
	}
}
