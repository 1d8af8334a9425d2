package main

import (
	"bytes"
	"context"
	"encoding/json"
	"time"

	"vaq/internal/calib"
	"vaq/internal/core"
	"vaq/internal/device"
	"vaq/internal/portfolio"
	"vaq/internal/serve"
	"vaq/internal/sim"
)

// traceServe replays the run's ops against a fresh server whose handler
// records a span per request, then replays the layers a request passes
// through — decode, encode, Monte-Carlo, parametric compile and rebind,
// portfolio — through their public functions, each under a span.
func traceServe(opts options, out *outcome, ops []serveOp, untraced *servePhase) error {
	tr := newTracer()
	env, err := startServer(tr)
	if err != nil {
		return err
	}
	if err := env.warm(); err != nil {
		env.close()
		return err
	}
	ph, err := env.runPhase(ops)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	n := float64(len(ops))
	respBytes := 0
	for _, r := range ph.results {
		respBytes += len(r.body)
	}
	out.layers["serve.resp_bytes_per_op"] = metric{float64(respBytes) / n, "bytes"}

	devs := map[string]*device.Device{}
	archs := map[string]*calib.Archive{}
	deviceOf := func(name string) (*device.Device, *calib.Archive, error) {
		if devs[name] == nil {
			var err error
			if devs[name], archs[name], err = buildDevice(name); err != nil {
				return nil, nil, err
			}
		}
		return devs[name], archs[name], nil
	}

	var trials float64
	var mcCPU time.Duration
	for i, op := range ops {
		var err error
		tr.do("serve.decode", i, 0, func() { err = decodeOp(op) })
		if err != nil {
			return err
		}
		body := ph.results[i].body
		switch op.Kind {
		case "compile", "estimate":
			var res serve.Result
			if err := json.Unmarshal(body, &res); err != nil {
				return err
			}
			tr.do("serve.encode", i, 0, func() { _, err = json.MarshalIndent(&res, "", " ") })
			if op.Kind != "compile" || op.Repeat || mcCPU > time.Second {
				continue
			}
			// Cold compiles: replay the Monte-Carlo estimate serially,
			// so process CPU time is the kernel's own.
			req, err := serve.DecodeCompileRequest(op.Body, 1000000)
			if err != nil {
				return err
			}
			prog, err := req.Program()
			if err != nil {
				return err
			}
			d, _, err := deviceOf(req.Device)
			if err != nil {
				return err
			}
			policy, _ := core.PolicyByName(req.Policy)
			comp, err := core.Compile(d, prog, core.Options{Policy: policy, Seed: *req.Seed})
			if err != nil {
				return err
			}
			scfg := sim.Config{Trials: req.Trials, Seed: *req.Seed, Workers: -1}
			prep := sim.Prepare(d, comp.Routed.Physical, scfg)
			c0 := cpuTime()
			tr.do("sim.mc", i, 0, func() { prep.Run(scfg) })
			mcCPU += cpuTime() - c0
			trials += float64(req.Trials)
		case "sweep":
			req, err := serve.DecodeSweepRequest(op.Body)
			if err != nil {
				return err
			}
			pc, err := req.Template()
			if err != nil {
				return err
			}
			d, _, err := deviceOf(req.Device)
			if err != nil {
				return err
			}
			policy, _ := core.PolicyByName(req.Policy)
			var bound *core.Bound
			tr.do("core.compile_parametric", i, 0, func() {
				bound, err = core.CompileParametric(d, pc, core.Options{Policy: policy, Seed: *req.Seed})
			})
			if err != nil {
				return err
			}
			for _, pt := range req.Points {
				tr.do("param.rebind", i, 0, func() { _, err = bound.RebindValues(pt) })
				if err != nil {
					return err
				}
			}
		case "portfolio":
			req, err := serve.DecodePortfolioRequest(op.Body, 1000000)
			if err != nil {
				return err
			}
			prog, err := req.Program()
			if err != nil {
				return err
			}
			d, arch, err := deviceOf(req.Device)
			if err != nil {
				return err
			}
			tr.do("portfolio.run", i, 0, func() {
				_, err = portfolio.Run(context.Background(), d, arch, prog, req.Spec(0))
			})
			if err != nil {
				return err
			}
		}
	}

	tables := time.Duration(0)
	for _, name := range []string{"q20", "q16", "q5"} {
		d, _, err := deviceOf(name)
		if err != nil {
			return err
		}
		t := time.Now()
		d.HopGraph().CSR().AllPairsHops()
		d.CostGraph().CSR().AllPairsDijkstra()
		tables += time.Since(t)
	}
	out.layers["graphx.tables_ms"] = metric{float64(tables.Nanoseconds()) / 1e6, "ms"}

	self, _ := tr.selfTimes()
	selfUS(out, self, len(ops), map[string]string{
		"serve.decode_us": "serve.decode", "serve.encode_us": "serve.encode", "serve.handler_us": "serve.handler",
		"param.rebind_us": "param.rebind", "core.compile_parametric_us": "core.compile_parametric",
	})
	if mcCPU > 0 {
		out.layers["sim.trials_per_cpu_s"] = metric{trials / mcCPU.Seconds(), "1/s"}
	}
	out.layers["portfolio.run_ms"] = metric{median(msOf(tr.durations("portfolio.run"))), "ms"}
	return finishTrace(out, tr, opts.tracePath(), median(untraced.latencies(ops, "")), median(ph.latencies(ops, "")),
		"serve-mixed op p50 ms")
}

// decodeOp runs the request decoder the endpoint would run on the body.
func decodeOp(op serveOp) error {
	var err error
	switch op.Kind {
	case "compile", "estimate":
		_, err = serve.DecodeCompileRequest(op.Body, 1000000)
	case "sweep":
		_, err = serve.DecodeSweepRequest(op.Body)
	case "portfolio":
		_, err = serve.DecodePortfolioRequest(op.Body, 1000000)
	case "batch":
		_, err = serve.DecodeBatchRequest(op.Body, 1000000)
	case "job":
		_, err = serve.DecodeJobRequest(op.Body, 1000000)
	case "append":
		_, _, err = calib.ReadJSONLenient(bytes.NewReader(op.Body))
	}
	return err
}
