package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/device"
	"vaq/internal/jobs"
	"vaq/internal/parallel"
	"vaq/internal/portfolio"
)

// operation is one compute request kind: a strict decoder, then a plan
// step. Sync handlers, /v1/batch items (through the compile operation)
// and the job backend all run requests through the operations table, so
// a job's result bytes equal the synchronous response by construction.
type operation struct {
	endpoint string // the synchronous route
	// decode validates a body without touching server state; job
	// submission runs only this step.
	decode func(data []byte, maxTrials int) (any, error)
	// note, when set, is the job progress message posted after decode.
	note func(req any) string
	// plan resolves a decoded request against the device registry
	// (program, device, size and arity checks) into a cache key and a
	// run function. It compiles nothing.
	plan func(s *Server, req any) (*plan, error)
}

// plan is a resolved request, ready to run.
type plan struct {
	key string // response-cache identity; "" means never cached
	run func(ctx context.Context) (any, error)
	hit func() // when set, records a response served from cache
	// partial marks a run that returns a partial result once ctx ends (a
	// batch marks its unfinished items); a job keeps such a result only
	// while its context is live.
	partial bool
}

// operations is the kind → operation table behind every compute
// endpoint and job kind.
var operations = map[jobs.Kind]operation{
	jobs.KindCompile: {
		endpoint: "/v1/compile",
		decode:   decodeAs[CompileRequest],
		plan: func(s *Server, req any) (*plan, error) {
			return s.compilePlan("/v1/compile", req.(*CompileRequest), false, false)
		},
	},
	jobs.KindEstimate: {
		endpoint: "/v1/estimate",
		decode:   decodeAs[CompileRequest],
		plan: func(s *Server, req any) (*plan, error) {
			r := req.(*CompileRequest)
			return s.compilePlan("/v1/estimate", r, !r.MonteCarlo, false)
		},
	},
	jobs.KindBatch: {
		endpoint: "/v1/batch",
		decode:   decodeAs[BatchRequest],
		note:     func(req any) string { return fmt.Sprintf("fanning out %d items", len(req.(*BatchRequest).Items)) },
		plan: func(s *Server, req any) (*plan, error) {
			run := func(ctx context.Context) (any, error) { return s.runBatch(ctx, req.(*BatchRequest)), nil }
			return &plan{run: run, partial: true}, nil
		},
	},
	jobs.KindPortfolio: {
		endpoint: "/v1/portfolio",
		decode:   decodeAs[PortfolioRequest],
		plan:     func(s *Server, req any) (*plan, error) { return s.portfolioPlan(req.(*PortfolioRequest)) },
	},
	jobs.KindSweep: {
		endpoint: "/v1/sweep",
		decode:   decodeAs[SweepRequest],
		note:     func(req any) string { return fmt.Sprintf("sweeping %d points", len(req.(*SweepRequest).Points)) },
		plan:     func(s *Server, req any) (*plan, error) { return s.sweepPlan(req.(*SweepRequest)) },
	},
}

// decodeAs is decode in the table's untyped shape.
func decodeAs[R any, P request[R]](data []byte, maxTrials int) (any, error) {
	return decode[R, P](data, maxTrials)
}

// prepare decodes and plans one body; progress, when non-nil, receives
// the kind's note in between.
func (s *Server) prepare(op operation, data []byte, progress func(string)) (*plan, error) {
	req, err := op.decode(data, s.cfg.MaxTrials)
	if err != nil {
		return nil, err
	}
	if progress != nil && op.note != nil {
		progress(op.note(req))
	}
	return op.plan(s, req)
}

// cached runs a plan against the response cache, the one path every
// operation takes: a hit returns the stored bytes; a miss runs the plan
// and stores its indented JSON plus a newline, the exact bytes a client
// gets. disposition is the X-Nisqd-Cache value ("" when uncached).
func (s *Server) cached(ctx context.Context, p *plan) (body []byte, disposition string, err error) {
	if p.key != "" {
		if body, ok := s.cache.get(p.key); ok {
			s.met.hits.Add(1)
			if p.hit != nil {
				p.hit()
			}
			return body, "hit", nil
		}
		s.met.misses.Add(1)
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		disposition = "miss"
	}
	v, err := p.run(ctx)
	if err != nil {
		return nil, "", err
	}
	if body, err = json.MarshalIndent(v, "", " "); err != nil {
		return nil, "", err
	}
	body = append(body, '\n')
	if p.key != "" {
		s.cache.put(p.key, body)
	}
	return body, disposition, nil
}

// handle serves one operation synchronously. The cache disposition
// travels in a header, so hot and cold bodies stay bit-identical.
func (s *Server) handle(op operation) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		data, ok := readBody(w, r)
		if !ok {
			return
		}
		p, err := s.prepare(op, data, nil)
		var body []byte
		var disposition string
		if err == nil {
			body, disposition, err = s.cached(r.Context(), p)
		}
		if err != nil {
			writeError(w, errorStatus(err), err.Error())
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if disposition != "" {
			w.Header().Set("X-Nisqd-Cache", disposition)
		}
		w.WriteHeader(http.StatusOK)
		w.Write(body)
	}
}

// resolve looks up a device together with its calibration archive (nil
// when unknown) and rejects programs larger than the device up front,
// as a client error — compilation would fail anyway, but deeper in,
// where the failure would read as a server fault.
func (s *Server) resolve(name string, prog *circuit.Circuit) (*device.Device, *calib.Archive, error) {
	d, arch, err := s.lookupDeviceArchive(name)
	if err != nil {
		return nil, nil, err
	}
	if prog.NumQubits > d.NumQubits() {
		return nil, nil, badReqf("program needs %d qubits, device %q has %d",
			prog.NumQubits, d.Topology().Name, d.NumQubits())
	}
	return d, arch, nil
}

// compilePlan plans a compile or estimate request (endpoint names which:
// they render different responses for one spec). A batch item runs its
// Monte-Carlo serially, as the batch is the parallel axis — the outcome
// is bit-identical, so it shares /v1/compile's cache entry — and stays
// out of the drift plane's hot set.
func (s *Server) compilePlan(endpoint string, req *CompileRequest, skipMC, batchItem bool) (*plan, error) {
	prog, err := req.Program()
	if err != nil {
		return nil, err
	}
	d, _, err := s.resolve(req.Device, prog)
	if err != nil {
		return nil, err
	}
	spec := Spec{
		Policy:         req.Policy,
		Seed:           *req.Seed,
		Trials:         req.Trials,
		Workers:        s.cfg.Workers,
		Optimize:       req.Optimize,
		SkipMonteCarlo: skipMC,
		Movement:       req.Movement,
	}
	if batchItem {
		spec.Workers = -1
	}
	key := CacheKey(endpoint, d.Fingerprint(), prog, spec)
	p := &plan{key: key, run: func(context.Context) (any, error) {
		res, err := Run(d, prog, spec)
		if err != nil {
			return nil, err
		}
		if res.MC != nil {
			s.met.mcTrials.Add(float64(res.MC.Trials), res.MC.Kernel)
			s.met.mcSeconds.Add(res.mcElapsed.Seconds(), res.MC.Kernel)
		}
		if !batchItem {
			// Every served mapping is a canary candidate: if this device
			// later drifts, the recompiler re-evaluates exactly what the
			// cache would keep handing out.
			s.drift.noteHot(req.Device, key, prog, res.PhysicalCircuit)
		}
		return res, nil
	}}
	if !batchItem {
		p.hit = func() { s.drift.noteHot(req.Device, key, prog, nil) }
	}
	return p, nil
}

// portfolioPlan plans a portfolio request. Workers is absent from the
// cache key: the ranking is bit-identical at any worker count.
func (s *Server) portfolioPlan(req *PortfolioRequest) (*plan, error) {
	prog, err := req.Program()
	if err != nil {
		return nil, err
	}
	d, arch, err := s.resolve(req.Device, prog)
	if err != nil {
		return nil, err
	}
	spec := req.Spec(s.cfg.Workers)
	return &plan{
		key: fmt.Sprintf("/v1/portfolio|%016x|%016x|%d|%d|%d|%d|%d", d.Fingerprint(), progHash(prog),
			spec.RootSeed, spec.Cycles, spec.RandomStarts, spec.TopK, spec.Trials),
		run: func(ctx context.Context) (any, error) { return portfolio.Run(ctx, d, arch, prog, spec) },
	}, nil
}

// batchItem is one element of a /v1/batch response: exactly one of
// Result and Error is set. A failing item never hides its siblings'
// results — the fan-out runs under parallel.Collect, which quarantines
// errors and panics per item.
type batchItem struct {
	Result *Result         `json:"result,omitempty"`
	Error  *batchItemError `json:"error,omitempty"`
}

type batchItemError struct {
	Index   int    `json:"index"`
	Status  int    `json:"status"`
	Message string `json:"message"`
}

type batchResponse struct {
	Items []batchItem `json:"items"`
}

// runBatch fans a decoded batch out with per-item fault isolation, each
// item through the compile operation and its response-cache entry.
func (s *Server) runBatch(ctx context.Context, req *BatchRequest) batchResponse {
	items := make([]batchItem, len(req.Items))
	err := parallel.Collect(ctx, s.cfg.Workers, len(req.Items), func(i int) error {
		p, err := s.compilePlan("/v1/compile", &req.Items[i], false, true)
		if err != nil {
			return err
		}
		body, _, err := s.cached(ctx, p)
		if err != nil {
			return err
		}
		// The cached bytes are a marshaled Result, so this cannot fail
		// after setting Result.
		return json.Unmarshal(body, &items[i].Result)
	})
	fail := func(i, status int, msg string) {
		items[i].Error = &batchItemError{Index: i, Status: status, Message: msg}
	}
	for _, ie := range parallel.Errors(err) {
		fail(ie.Index, errorStatus(ie.Err), ie.Err.Error())
	}
	// Items neither computed nor failed were skipped by cancellation.
	for i := range items {
		if items[i].Result == nil && items[i].Error == nil {
			fail(i, http.StatusServiceUnavailable, "cancelled before completion")
		}
	}
	return batchResponse{Items: items}
}
