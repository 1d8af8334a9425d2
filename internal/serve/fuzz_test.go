package serve

import (
	"strings"
	"testing"

	"vaq/internal/caldrift"
	"vaq/internal/core"
	"vaq/internal/jobs"
	"vaq/internal/portfolio"
	"vaq/internal/workloads"
)

// FuzzCompileRequest throws arbitrary bytes at the request decoder —
// the daemon's front door for untrusted input — and asserts its
// invariants: it never panics, every accepted request is normalized
// (exactly one program source, non-empty policy/device, non-nil seed,
// positive in-cap trials), and resolving the accepted request's program
// never panics either.
func FuzzCompileRequest(f *testing.F) {
	seeds := []string{
		`{"workload":"bv-8"}`,
		`{"workload":"bv-8","policy":"vqm","device":"q5","seed":7,"trials":2000,"optimize":true,"monte_carlo":true}`,
		`{"qasm":"qreg q[2];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\n"}`,
		`{"workload":"ghz-1000000"}`,
		`{"workload":"qft-4","trials":-1}`,
		`{"workload":"alu","unknown_field":1}`,
		`{"workload":"alu"}{"workload":"alu"}`,
		`{"qasm":""}`,
		`{"workload":"rnd-sd","qasm":"qreg q[1];"}`,
		`null`,
		`[]`,
		`{"seed":null,"workload":"triswap"}`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		const maxTrials = 1000000
		req, err := DecodeCompileRequest([]byte(data), maxTrials)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		// Accepted requests must be fully normalized.
		if (req.Workload == "") == (req.QASM == "") {
			t.Fatalf("accepted request has %q/%q, want exactly one source", req.Workload, req.QASM)
		}
		if req.Policy == "" || req.Device == "" || req.Seed == nil {
			t.Fatalf("accepted request not normalized: %+v", req)
		}
		if req.Trials <= 0 || req.Trials > maxTrials {
			t.Fatalf("accepted trials %d out of (0, %d]", req.Trials, maxTrials)
		}
		// Resolving the program must not panic, and a resolved workload
		// must respect the generator size bound.
		prog, err := req.Program()
		if err != nil {
			return
		}
		if req.Workload != "" && prog.NumQubits > workloads.MaxNamedQubits {
			t.Fatalf("workload %q resolved to %d qubits (bound %d)",
				req.Workload, prog.NumQubits, workloads.MaxNamedQubits)
		}
		if req.QASM != "" && strings.TrimSpace(req.QASM) == "" {
			t.Fatalf("empty qasm parsed without error")
		}
	})
}

// FuzzPortfolioRequest covers /v1/portfolio's decoder the same way: no
// panics on arbitrary bytes, and every accepted request is normalized
// into a spec whose grid respects the candidate bound.
func FuzzPortfolioRequest(f *testing.F) {
	seeds := []string{
		`{"workload":"bv-8"}`,
		`{"workload":"ghz-3","device":"q5","root_seed":7,"cycles":0,"random_starts":1,"top_k":2,"trials":2000}`,
		`{"qasm":"qreg q[2];\ncx q[0], q[1];\nmeasure q[0] -> c[0];\n"}`,
		`{"workload":"bv-4","cycles":16,"random_starts":8}`,
		`{"workload":"bv-4","cycles":-1}`,
		`{"workload":"bv-4","top_k":99}`,
		`{"workload":"alu","unknown_field":1}`,
		`{"workload":"alu"}{"workload":"alu"}`,
		`{"root_seed":-9223372036854775808,"workload":"triswap"}`,
		`null`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		const maxTrials = 1000000
		req, err := DecodePortfolioRequest([]byte(data), maxTrials)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if (req.Workload == "") == (req.QASM == "") {
			t.Fatalf("accepted request has %q/%q, want exactly one source", req.Workload, req.QASM)
		}
		if req.Device == "" || req.RootSeed == nil || req.Cycles == nil || req.RandomStarts == nil {
			t.Fatalf("accepted request not normalized: %+v", req)
		}
		if *req.RootSeed == 0 {
			t.Fatal("accepted root_seed 0, which the portfolio would run as its default seed")
		}
		if *req.Cycles < 0 || *req.Cycles > MaxPortfolioCycles ||
			*req.RandomStarts < 0 || *req.RandomStarts > MaxPortfolioStarts {
			t.Fatalf("accepted axes out of range: cycles=%d starts=%d", *req.Cycles, *req.RandomStarts)
		}
		if req.TopK <= 0 || req.TopK > MaxPortfolioTopK {
			t.Fatalf("accepted top_k %d out of (0, %d]", req.TopK, MaxPortfolioTopK)
		}
		if req.Trials <= 0 || req.Trials > maxTrials {
			t.Fatalf("accepted trials %d out of (0, %d]", req.Trials, maxTrials)
		}
		spec := req.Spec(0)
		if n := portfolio.GridSize(spec, *req.Cycles); n > MaxPortfolioCandidates {
			t.Fatalf("accepted spec enumerates %d candidates (bound %d)", n, MaxPortfolioCandidates)
		}
		if _, err := req.Program(); err != nil {
			return
		}
	})
}

// FuzzSweepRequest covers /v1/sweep's decoder: no panics on arbitrary
// bytes, every accepted request is normalized (one template source,
// known policy, device and seed filled in, point count within the cap),
// and resolving the accepted template never panics.
func FuzzSweepRequest(f *testing.F) {
	seeds := []string{
		`{"ansatz":"qaoa-4","points":[[0.1,0.2]]}`,
		`{"ansatz":"su2-3-r2","policy":"vqm","device":"q5","seed":7,"movement":"sabre","points":[[1,2,3]]}`,
		`{"qasm":"qreg q[2];\nrz(theta) q[0];\ncx q[0], q[1];\n","points":[[0.5]]}`,
		`{"ansatz":"qaoa-4"}`,
		`{"ansatz":"qaoa-4","qasm":"x","points":[[0]]}`,
		`{"ansatz":"qaoa-4","policy":"magic","points":[[0]]}`,
		`{"ansatz":"qaoa-4","movement":"teleport","points":[[0]]}`,
		`{"ansatz":"qaoa-99999999","points":[[0]]}`,
		`{"ansatz":"qaoa-4","points":[[0]]}{"ansatz":"qaoa-4"}`,
		`{"seed":null,"ansatz":"qaoa-2","points":[[]]}`,
		`null`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		req, err := DecodeSweepRequest([]byte(data))
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if (req.Ansatz == "") == (req.QASM == "") {
			t.Fatalf("accepted request has %q/%q, want exactly one source", req.Ansatz, req.QASM)
		}
		if len(req.QASM) > MaxQASMBytes {
			t.Fatalf("accepted %d-byte qasm (max %d)", len(req.QASM), MaxQASMBytes)
		}
		if _, ok := core.PolicyByName(req.Policy); !ok || req.Device == "" || req.Seed == nil {
			t.Fatalf("accepted request not normalized: %+v", req)
		}
		if len(req.Points) == 0 || len(req.Points) > MaxSweepPoints {
			t.Fatalf("accepted %d points out of [1, %d]", len(req.Points), MaxSweepPoints)
		}
		if _, err := req.Template(); err != nil {
			return
		}
	})
}

// FuzzJobRequest covers the /v1/jobs envelope decoder: no panics on
// arbitrary bytes, every accepted envelope names a known kind, a known
// class (or none) and a well-formed tenant (or none), and the request
// it embeds passes its own kind's synchronous decoder — the job plane
// never accepts work its executor would reject as malformed.
func FuzzJobRequest(f *testing.F) {
	seeds := []string{
		`{"kind":"compile","request":{"workload":"bv-8"}}`,
		`{"kind":"estimate","tenant":"team-a","class":"interactive","request":{"workload":"qft-4","monte_carlo":true}}`,
		`{"kind":"batch","request":{"items":[{"workload":"ghz-3"},{"workload":"bv-4","policy":"native"}]}}`,
		`{"kind":"portfolio","class":"background","request":{"workload":"bv-8","cycles":1,"random_starts":1,"top_k":2}}`,
		`{"kind":"sweep","request":{"ansatz":"qaoa-3","points":[[0.1,0.2]]}}`,
		`{"kind":"sweep","request":{"ansatz":"qaoa-3"}}`,
		`{"kind":"teleport","request":{"workload":"bv-8"}}`,
		`{"kind":"compile","class":"urgent","request":{"workload":"bv-8"}}`,
		`{"kind":"compile","tenant":"bad tenant!","request":{"workload":"bv-8"}}`,
		`{"kind":"compile"}`,
		`{"kind":"compile","request":{"workload":"bv-8","kernel":"scalar"}}`,
		`{"kind":"batch","request":{"items":[]}}`,
		`{"kind":"compile","request":{"workload":"bv-8"}} trailing`,
		`null`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		const maxTrials = 1000000
		req, err := DecodeJobRequest([]byte(data), maxTrials)
		if err != nil {
			if req != nil {
				t.Fatal("error with non-nil request")
			}
			return
		}
		if !jobs.ValidKind(jobs.Kind(req.Kind)) {
			t.Fatalf("accepted unknown kind %q", req.Kind)
		}
		if req.Class != "" && !jobs.ValidClass(jobs.Class(req.Class)) {
			t.Fatalf("accepted unknown class %q", req.Class)
		}
		if req.Tenant != "" && !caldrift.ValidDeviceName(req.Tenant) {
			t.Fatalf("accepted malformed tenant %q", req.Tenant)
		}
		switch jobs.Kind(req.Kind) {
		case jobs.KindCompile, jobs.KindEstimate:
			_, err = DecodeCompileRequest(req.Request, maxTrials)
		case jobs.KindBatch:
			_, err = DecodeBatchRequest(req.Request, maxTrials)
		case jobs.KindPortfolio:
			_, err = DecodePortfolioRequest(req.Request, maxTrials)
		case jobs.KindSweep:
			_, err = DecodeSweepRequest(req.Request)
		default:
			t.Fatalf("kind %q has no decoder", req.Kind)
		}
		if err != nil {
			t.Fatalf("accepted %s job whose request its decoder rejects: %v", req.Kind, err)
		}
	})
}
