package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"

	"vaq/internal/circuit"
	"vaq/internal/cliutil"
	"vaq/internal/core"
	"vaq/internal/qasm"
	"vaq/internal/route"
	"vaq/internal/workloads"
)

// Request-side limits. Oversized inputs are rejected at the decoder, so
// a single request can never make the daemon allocate unbounded memory.
const (
	// MaxQASMBytes bounds an inline OpenQASM program.
	MaxQASMBytes = 256 << 10
	// MaxBatchItems bounds one /v1/batch fan-out.
	MaxBatchItems = 256
)

// Defaults applied by the decoders when a request omits a field. The
// nisqc flags and nisqd's -seed take their defaults from these, so an
// empty request means the same thing in every front-end.
const (
	DefaultPolicy = "vqa+vqm"
	DefaultDevice = "q20"
	DefaultSeed   = 2019
	DefaultTrials = 100000
)

// CompileRequest is the body of POST /v1/compile and /v1/estimate, and
// each element of a /v1/batch request. Exactly one of Workload and QASM
// must be set.
type CompileRequest struct {
	// Workload names a built-in circuit (see workloads.ByName).
	Workload string `json:"workload,omitempty"`
	// QASM is an inline OpenQASM 2.0 program.
	QASM string `json:"qasm,omitempty"`
	// Policy is a compilation policy name (default vqa+vqm).
	Policy string `json:"policy,omitempty"`
	// Device names a registered device model (default q20).
	Device string `json:"device,omitempty"`
	// Seed drives Native's randomized mapping and the Monte-Carlo
	// streams (default 2019). Note the daemon's built-in q20/q16 models
	// are generated from the daemon's -seed at startup, not per request.
	Seed *int64 `json:"seed,omitempty"`
	// Trials is the Monte-Carlo budget (default 100000, capped by the
	// server's -trials flag).
	Trials int `json:"trials,omitempty"`
	// Optimize runs the transpile passes before mapping.
	Optimize bool `json:"optimize,omitempty"`
	// MonteCarlo toggles the Monte-Carlo estimate on /v1/estimate
	// (ignored by /v1/compile, which always runs it, mirroring nisqc).
	MonteCarlo bool `json:"monte_carlo,omitempty"`
	// Movement overrides the policy's routing pass with a named movement
	// policy (route.MovementNames; e.g. "sabre" for large devices).
	// Omitted means the policy's own router.
	Movement string `json:"movement,omitempty"`
}

// BatchRequest is the body of POST /v1/batch.
type BatchRequest struct {
	Items []CompileRequest `json:"items"`
}

// ErrBadRequest tags validation failures so handlers can map them to
// HTTP 400 while other failures stay 500.
var ErrBadRequest = errors.New("bad request")

func badReqf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadRequest, fmt.Sprintf(format, args...))
}

// request is the decoder contract of a request body type: check
// validates the decoded fields and fills the documented defaults.
type request[R any] interface {
	*R
	check(maxTrials int) error
}

// decode strictly parses and checks one request object: unknown
// fields, trailing data and every request-side bound are rejected here,
// before any work is admitted. maxTrials is the server's per-request
// Monte-Carlo cap (<= 0 means cliutil.MaxTrials).
func decode[R any, P request[R]](data []byte, maxTrials int) (*R, error) {
	var req R
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, badReqf("decode: %v", err)
	}
	if dec.More() {
		return nil, badReqf("trailing data after request object")
	}
	if err := P(&req).check(maxTrials); err != nil {
		return nil, err
	}
	return &req, nil
}

// DecodeCompileRequest parses and validates one compile/estimate
// request body: unknown fields, trailing garbage, missing or duplicate
// program sources, oversized programs, unknown policies, and
// out-of-range trial budgets are all rejected here, before any
// compilation work is admitted. maxTrials is the server's per-request
// cap (<= 0 means cliutil.MaxTrials).
func DecodeCompileRequest(data []byte, maxTrials int) (*CompileRequest, error) {
	return decode[CompileRequest](data, maxTrials)
}

// DecodeBatchRequest parses and validates a /v1/batch body. Item-level
// validation is the same as DecodeCompileRequest's, with the item index
// in the error message.
func DecodeBatchRequest(data []byte, maxTrials int) (*BatchRequest, error) {
	return decode[BatchRequest](data, maxTrials)
}

func (r *BatchRequest) check(maxTrials int) error {
	if len(r.Items) == 0 {
		return badReqf("batch has no items")
	}
	if len(r.Items) > MaxBatchItems {
		return badReqf("batch has %d items (max %d)", len(r.Items), MaxBatchItems)
	}
	for i := range r.Items {
		if err := r.Items[i].check(maxTrials); err != nil {
			return fmt.Errorf("item %d: %w", i, err)
		}
	}
	return nil
}

func (r *CompileRequest) check(maxTrials int) error {
	if err := checkSource("workload", r.Workload, r.QASM); err != nil {
		return err
	}
	if _, ok := core.PolicyByName(r.Policy); r.Policy != "" && !ok {
		return badReqf("unknown policy %q", r.Policy)
	}
	if err := checkTrials(r.Trials, maxTrials); err != nil {
		return err
	}
	if r.Movement != "" {
		if _, err := route.ByName(r.Movement, 0); err != nil {
			return badReqf("%v", err)
		}
	}
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
	if r.Trials == 0 {
		r.Trials = DefaultTrials
	}
	return nil
}

// checkSource enforces exactly one program source — the named one
// (workload, ansatz) or inline QASM — and the inline size cap.
func checkSource(kind, named, qasm string) error {
	switch {
	case named != "" && qasm != "":
		return badReqf("specify either %s or qasm, not both", kind)
	case named == "" && qasm == "":
		return badReqf("specify %s or qasm", kind)
	}
	if len(qasm) > MaxQASMBytes {
		return badReqf("qasm program is %d bytes (max %d)", len(qasm), MaxQASMBytes)
	}
	return nil
}

// checkTrials bounds a Monte-Carlo budget by the server's cap.
func checkTrials(trials, maxTrials int) error {
	if maxTrials <= 0 || maxTrials > cliutil.MaxTrials {
		maxTrials = cliutil.MaxTrials
	}
	if trials < 0 {
		return badReqf("trials must not be negative (got %d)", trials)
	}
	if trials > maxTrials {
		return badReqf("trials %d over the server cap %d", trials, maxTrials)
	}
	return nil
}

// Program resolves the request's circuit: the named built-in workload
// or the parsed inline QASM. Both paths bound their input (ByName caps
// generator sizes, the QASM length was validated), so Program is safe
// on untrusted requests.
func (r *CompileRequest) Program() (*circuit.Circuit, error) {
	if r.Workload != "" {
		c, err := workloads.ByName(r.Workload)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		return c, nil
	}
	c, err := qasm.Parse(r.QASM)
	if err != nil {
		return nil, fmt.Errorf("%w: qasm: %v", ErrBadRequest, err)
	}
	return c, nil
}

// CacheKey is the response-cache identity of a request resolved against
// a device: the device's calibration fingerprint, the logical circuit's
// serialized hash, and every Spec field that can change the response.
// Workers is deliberately absent — the pool guarantees bit-identical
// outcomes at any worker count — and the endpoint is included because
// /v1/compile and /v1/estimate render different responses for the same
// spec.
func CacheKey(endpoint string, deviceFP uint64, prog *circuit.Circuit, spec Spec) string {
	return fmt.Sprintf("%s|%016x|%016x|%s|%d|%d|%t|%t|%s",
		endpoint, deviceFP, progHash(prog), spec.Policy, spec.Seed, spec.Trials, spec.Optimize, spec.SkipMonteCarlo, spec.Movement)
}

// progHash is the FNV-64a hash of a circuit's serialized form — the
// program component of every cache key, so a workload and the
// equivalent inline QASM share an entry.
func progHash(prog *circuit.Circuit) uint64 {
	h := fnv.New64a()
	h.Write([]byte(qasm.Serialize(prog)))
	return h.Sum64()
}
