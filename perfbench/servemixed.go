package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"vaq/internal/jobs"
	"vaq/internal/route"
	"vaq/internal/serve"
)

// mcSigmas sets the Monte-Carlo check's false-alarm rate: an estimate
// fails when its success count is as unlikely as a mcSigmas deviation of
// a normal variable (two-sided, about 2e-9).
const mcSigmas = 6

// serveEnv is an in-process nisqd on a loopback listener and the client
// that drives it over at most GOMAXPROCS keep-alive connections.
type serveEnv struct {
	srv    *serve.Server
	hs     *http.Server // traced runs serve through a span-recording wrapper
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error
	tr     *tracer
}

// nisqdConfig is cmd/nisqd's default configuration: in-memory jobs and
// drift planes, 512-entry response cache.
func nisqdConfig() serve.Config {
	return serve.Config{
		Seed:           deviceSeed,
		MaxTrials:      1000000,
		MaxInFlight:    64,
		RequestTimeout: 60 * time.Second,
		DrainTimeout:   30 * time.Second,
		CacheEntries:   512,
	}
}

func startServer(tr *tracer) (*serveEnv, error) {
	srv, err := serve.New(nisqdConfig())
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	conns := gomaxprocs()
	env := &serveEnv{
		srv:    srv,
		base:   "http://" + l.Addr().String(),
		cancel: cancel,
		done:   make(chan error, 1),
		tr:     tr,
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	if tr == nil {
		go func() { env.done <- srv.Serve(ctx, l) }()
		return env, nil
	}
	env.hs = &http.Server{Handler: tracedHandler(tr, srv.Handler()), ReadHeaderTimeout: 10 * time.Second}
	go func() {
		err := env.hs.Serve(l)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		env.done <- err
	}()
	return env, nil
}

// close shuts the server down (HTTP drain, then the job plane) and waits
// for it.
func (e *serveEnv) close() error {
	e.client.CloseIdleConnections()
	if e.hs == nil {
		e.cancel()
		return <-e.done
	}
	defer e.cancel()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(e.hs.Shutdown(ctx), e.srv.Drain(ctx))
	return errors.Join(err, <-e.done)
}

// tracedHandler records a serve.handler span around every request, as a
// child of the client's op span named in the request headers.
func tracedHandler(tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.Atoi(r.Header.Get("X-Bench-Op"))
		parent, _ := strconv.Atoi(r.Header.Get("X-Bench-Span"))
		tr.do("serve.handler", op, parent, func() { h.ServeHTTP(w, r) })
	})
}

// send sends one request and reads the whole response.
func (e *serveEnv) send(method, path string, body []byte, op, span int) (int, []byte, error) {
	req, err := http.NewRequest(method, e.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if e.tr != nil {
		req.Header.Set("X-Bench-Op", strconv.Itoa(op))
		req.Header.Set("X-Bench-Span", strconv.Itoa(span))
	}
	resp, err := e.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// setupServe generates the run's ops, starts the server and warms it:
// one estimate per built-in device fills the route cost tables.
func setupServe(opts options) (*serveEnv, []serveOp, time.Duration, error) {
	start := time.Now()
	ops, err := genServeOps(opts.seed, serveOpCount(opts))
	if err != nil {
		return nil, nil, 0, err
	}
	env, err := startServer(nil)
	if err != nil {
		return nil, nil, 0, err
	}
	if err := env.warm(); err != nil {
		env.close()
		return nil, nil, 0, err
	}
	return env, ops, time.Since(start), nil
}

func (e *serveEnv) warm() error {
	for _, dev := range []string{"q20", "q16", "q5"} {
		body := mustJSON(compileBody{Workload: "bv-4", Policy: "vqa+vqm", Device: dev, Seed: 1})
		code, data, err := e.send("POST", "/v1/estimate", body, 0, 0)
		if err != nil {
			return err
		}
		if code != http.StatusOK {
			return fmt.Errorf("warm-up estimate on %s: status %d: %s", dev, code, data)
		}
	}
	return nil
}

// serveOpsPerSecond is the nominal closed-loop throughput of the mix on
// the reference machine; --seconds buys that many ops per second.
const serveOpsPerSecond = 250

// serveOpCount is the run's op count, at least 1000 so the tail
// percentile has ten samples beyond it.
func serveOpCount(opts options) int {
	if opts.trace {
		return 500
	}
	return max(1000, serveOpsPerSecond*opts.seconds)
}

// opResult is one completed serve-mixed op.
type opResult struct {
	lat  float64 // ms from sending the op to its last response byte
	code int
	body []byte
	err  error
}

// do runs one op and times it. A job is submitted, awaited through the
// job plane's event feed, and its result fetched.
func (e *serveEnv) do(op serveOp, id int) opResult {
	root := e.tr.begin("op", id, 0)
	defer e.tr.end(root)
	start := time.Now()
	var r opResult
	if op.Kind != "job" {
		r.code, r.body, r.err = e.send("POST", op.Path, op.Body, id, root)
	} else {
		r.code, r.body, r.err = e.job(op, id, root)
	}
	r.lat = float64(time.Since(start).Nanoseconds()) / 1e6
	return r
}

func (e *serveEnv) job(op serveOp, id, root int) (int, []byte, error) {
	code, data, err := e.send("POST", op.Path, op.Body, id, root)
	if err != nil || code != http.StatusAccepted {
		return code, data, err
	}
	var v jobs.View
	if err := json.Unmarshal(data, &v); err != nil {
		return 0, nil, err
	}
	history, ch, cancel, err := e.srv.Jobs().Subscribe(v.ID)
	if err != nil {
		return 0, nil, err
	}
	defer cancel()
	state := ""
	for _, ev := range history {
		state = ev.Type
	}
	timeout := time.After(60 * time.Second)
	for state != jobs.EventSucceeded && state != jobs.EventFailed && state != jobs.EventCancelled {
		select {
		case ev, ok := <-ch:
			if !ok {
				return 0, nil, fmt.Errorf("job %s: event feed closed", v.ID)
			}
			state = ev.Type
		case <-timeout:
			return 0, nil, fmt.Errorf("job %s: no terminal event in 60s", v.ID)
		}
	}
	code, data, err = e.send("GET", "/v1/jobs/"+v.ID+"/result", nil, id, root)
	return code, data, err
}

// serveCounters are the server's own /metrics counters the benchmark
// differences over a phase.
type serveCounters struct {
	hits, misses, mcSeconds, mcTrials float64
}

func (e *serveEnv) counters() (serveCounters, error) {
	code, data, err := e.send("GET", "/metrics", nil, 0, 0)
	if err != nil || code != http.StatusOK {
		return serveCounters{}, fmt.Errorf("metrics: status %d: %v", code, err)
	}
	var c serveCounters
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 {
			continue
		}
		v, _ := strconv.ParseFloat(f[1], 64)
		name, _, _ := strings.Cut(f[0], "{")
		switch name {
		case "nisqd_cache_hits_total":
			c.hits += v
		case "nisqd_cache_misses_total":
			c.misses += v
		case "nisqd_mc_seconds_total":
			c.mcSeconds += v
		case "nisqd_mc_trials_total":
			c.mcTrials += v
		}
	}
	return c, nil
}

// servePhase is one closed-loop replay of the op sequence.
type servePhase struct {
	results          []opResult
	segBusy, segCPU  []float64 // per segment: summed op latency, process CPU
	cpu              time.Duration
	c0, c1           serveCounters
	rt0, rt1         runtimeSample
	route0, route1   uint64 // route cost-cache hits, misses
	routeM0, routeM1 uint64
}

// runPhase sends every op in order over GOMAXPROCS closed-loop
// connections (each takes the next op when its last one completes) and
// waits for all of them.
func (e *serveEnv) runPhase(ops []serveOp) (*servePhase, error) {
	ph := &servePhase{results: make([]opResult, len(ops))}
	var err error
	if ph.c0, err = e.counters(); err != nil {
		return nil, err
	}
	rc := route.CacheStats()
	ph.route0, ph.routeM0 = rc.Hits, rc.Misses
	ph.rt0 = readRuntime()
	cpu0 := cpuTime()
	var segCPU []time.Duration
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < gomaxprocs(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ph.results[i] = e.do(ops[i], i)
			}
		}()
	}
	for i := range ops {
		if i%serveSegment == 0 {
			segCPU = append(segCPU, cpuTime())
		}
		next <- i
	}
	close(next)
	wg.Wait()
	segCPU = append(segCPU, cpuTime())
	ph.cpu = cpuTime() - cpu0
	ph.rt1 = readRuntime()
	rc = route.CacheStats()
	ph.route1, ph.routeM1 = rc.Hits, rc.Misses
	if ph.c1, err = e.counters(); err != nil {
		return nil, err
	}
	for s := 0; s < len(ops); s += serveSegment {
		busy := 0.0
		for _, r := range ph.results[s:min(s+serveSegment, len(ops))] {
			busy += r.lat / 1e3
		}
		ph.segBusy = append(ph.segBusy, busy)
		ph.segCPU = append(ph.segCPU, (segCPU[s/serveSegment+1] - segCPU[s/serveSegment]).Seconds())
	}
	return ph, nil
}

func (ph *servePhase) latencies(ops []serveOp, kind string) []float64 {
	var out []float64
	for i, r := range ph.results {
		if kind == "" || ops[i].Kind == kind {
			out = append(out, r.lat)
		}
	}
	return out
}

// checkServe applies the output checks: every response 2xx, repeated
// bodies byte-identical to the first response, job results identical to
// the synchronous body, and every Monte-Carlo PST within mcSigmas of its
// analytic PST. It returns the number of appends that ran a canary.
func checkServe(out *outcome, ops []serveOp, ph *servePhase) int {
	first := map[string][]byte{}
	canaries := 0
	for i, op := range ops {
		r := ph.results[i]
		out.attempted++
		if r.err != nil || r.code/100 != 2 {
			out.fail("op %d %s: status %d, err %v: %.200s", i, op.Path, r.code, r.err, r.body)
			continue
		}
		key := op.Path + "\x00" + string(op.Body)
		if op.Kind == "job" {
			var j serve.JobRequest
			if err := json.Unmarshal(op.Body, &j); err != nil {
				out.fail("op %d: job body: %v", i, err)
				continue
			}
			key = "/v1/compile\x00" + string(j.Request)
		}
		if op.Repeat {
			if ref, ok := first[key]; ok && !bytes.Equal(ref, r.body) {
				out.fail("op %d %s: response differs from the first response to the same body", i, op.Path)
				continue
			} else if !ok {
				first[key] = r.body
			}
		}
		switch op.Kind {
		case "compile", "job":
			var res serve.Result
			if err := json.Unmarshal(r.body, &res); err != nil {
				out.fail("op %d: decode result: %v", i, err)
				continue
			}
			checkMC(out, i, &res)
		case "batch":
			var b struct {
				Items []struct {
					Result *serve.Result    `json:"result"`
					Error  *json.RawMessage `json:"error"`
				} `json:"items"`
			}
			if err := json.Unmarshal(r.body, &b); err != nil || len(b.Items) != 4 {
				out.fail("op %d: batch response: %v", i, err)
				continue
			}
			for _, it := range b.Items {
				if it.Result == nil || it.Error != nil {
					out.fail("op %d: batch item failed", i)
					continue
				}
				checkMC(out, i, it.Result)
			}
		case "append":
			var a struct {
				Drift *struct {
					Canary *json.RawMessage `json:"canary"`
				} `json:"drift"`
			}
			if err := json.Unmarshal(r.body, &a); err != nil {
				out.fail("op %d: append response: %v", i, err)
				continue
			}
			if a.Drift != nil && a.Drift.Canary != nil {
				canaries++
			}
		}
	}
	return canaries
}

func checkMC(out *outcome, i int, res *serve.Result) {
	if res.MC == nil {
		out.fail("op %d: no Monte-Carlo estimate", i)
		return
	}
	n, p := res.MC.Trials, res.AnalyticPST
	k := int(math.Round(res.MC.PST * float64(n)))
	if tail := binomialTail(n, p, k); tail < math.Erfc(mcSigmas/math.Sqrt2) {
		out.fail("op %d: MC PST %.6f over %d trials vs analytic %.6f (tail probability %.3g)", i, res.MC.PST, n, p, tail)
	}
}

// binomialTail is the probability that a Binomial(n, p) count lies at
// least as far from its mean as k, on k's side of it. A trial of the
// fault injector succeeds exactly when no error fires, so its success
// count is Binomial(trials, analytic PST). The exact tail stays valid
// when trials·p is a handful, where the normal approximation does not.
func binomialTail(n int, p float64, k int) float64 {
	if p <= 0 || p >= 1 {
		if float64(k) == p*float64(n) {
			return 1
		}
		return 0
	}
	lgN, _ := math.Lgamma(float64(n + 1))
	lgK, _ := math.Lgamma(float64(k + 1))
	lgNK, _ := math.Lgamma(float64(n - k + 1))
	t := math.Exp(lgN - lgK - lgNK + float64(k)*math.Log(p) + float64(n-k)*math.Log1p(-p))
	sum := 0.0
	// Walk away from the mean, where terms only shrink, by the ratio of
	// consecutive probabilities.
	if float64(k) >= p*float64(n) {
		for j := k; j <= n && t > sum*1e-16; j++ {
			sum += t
			t *= float64(n-j) / float64(j+1) * p / (1 - p)
		}
	} else {
		for j := k; j >= 0 && t > sum*1e-16; j-- {
			sum += t
			t *= float64(j) / float64(n-j+1) * (1 - p) / p
		}
	}
	return math.Min(1, sum)
}

func runServeMixed(opts options) (*outcome, error) {
	env, ops, setup, err := setupServe(opts)
	if err != nil {
		return nil, err
	}
	ph, err := env.runPhase(ops)
	if cerr := env.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	out := newOutcome()
	canaries := checkServe(out, ops, ph)
	probes, err := setupProbes(opts, 4)
	if err != nil {
		return nil, err
	}
	lat := ph.latencies(ops, "")
	out.e2e["p50_ms"] = metric{median(lat), "ms"}
	out.e2e["p99_ms"] = metric{tailPercentile(lat), "ms"}
	out.e2e["cpu_ms_per_op"] = metric{ph.cpu.Seconds() * 1e3 / float64(len(ops)), "ms"}
	out.e2e["regen_s"] = metric{median(ph.segBusy), "s"}
	out.e2e["regen_cpu_s"] = metric{median(ph.segCPU), "s"}
	out.e2e["setup_s"] = metric{median(append(probes, setup.Seconds())), "s"}
	out.e2e["peak_rss_mb"] = metric{peakRSSMiB(), "MiB"}

	out.layers["jobs.done_ms"] = metric{median(ph.latencies(ops, "job")), "ms"}
	out.layers["caldrift.append_ms"] = metric{median(ph.latencies(ops, "append")), "ms"}
	out.layers["caldrift.canary_runs"] = metric{float64(canaries), "count"}
	if h, m := ph.c1.hits-ph.c0.hits, ph.c1.misses-ph.c0.misses; h+m > 0 {
		out.layers["serve.cache_hit_ratio"] = metric{h / (h + m), "ratio"}
	}
	if h, m := ph.route1-ph.route0, ph.routeM1-ph.routeM0; h+m > 0 {
		out.layers["route.cache_hit_ratio"] = metric{float64(h) / float64(h+m), "ratio"}
	}
	mcs := ph.c1.mcSeconds - ph.c0.mcSeconds
	out.layers["sim.mc_us"] = metric{mcs * 1e6 / float64(len(ops)), "us"}
	runtimeLayers(out, ph.rt0, ph.rt1, len(ops))
	out.note("serve-mixed: %d ops over %d connections; %d canary runs; MC %.0f trials in %.3f s; response-cache hit ratio %.3f",
		len(ops), gomaxprocs(), canaries, ph.c1.mcTrials-ph.c0.mcTrials, mcs, out.layers["serve.cache_hit_ratio"].Value)
	for _, m := range serveMix {
		l := ph.latencies(ops, m.kind)
		out.note("serve-mixed %-9s %5d ops  p50 %8.3f ms  p99 %8.3f ms", m.kind, len(l), median(l), tailPercentile(l))
	}

	if opts.trace {
		if err := traceServe(opts, out, ops, ph); err != nil {
			return nil, err
		}
	}
	return out, nil
}
