// Command nisqd is the compile-and-estimate service daemon: a
// stdlib-only HTTP JSON front-end over the repository's hardware-aware
// compilation stack. It centralizes the per-device, per-calibration
// work (routing cost tables, compiled-response caching) behind one warm
// process, the access model real NISQ machines have — users submit
// circuits to a shared device through a service, not a local toolchain.
//
// Endpoints:
//
//	POST /v1/compile      compile a workload/QASM program and estimate its PST
//	POST /v1/estimate     analytic (and optionally Monte-Carlo) PST only
//	POST /v1/batch        fan out many compile requests with per-item fault isolation
//	POST /v1/portfolio    speculatively compile a policy×cycle candidate grid, ranked by ESP
//	POST /v1/calibration  register a calgen-style JSON archive as a new device;
//	                      ?name=D&append=true appends cycles to D's drift store
//	GET  /v1/calibration/{device}  window of stored calibration cycles (?window=K)
//	GET  /v1/drift/{device}        latest drift report (score, alarms, canary deltas);
//	                               /{device}/events streams cycle/drift SSE
//	GET  /v1/devices      list registered device models
//	POST /v1/jobs         submit any of the above as a durable async job
//	GET  /v1/jobs         list jobs; /v1/jobs/{id} polls one, /{id}/result
//	                      fetches its bytes, /{id}/events streams SSE,
//	                      DELETE /v1/jobs/{id} cancels
//	GET  /healthz         liveness probe
//	GET  /metrics         Prometheus text-format counters
//	GET  /debug/pprof/    runtime profiles
//
// The daemon sheds load with 429 beyond -max-inflight concurrent
// requests, applies a per-request deadline, serves repeated requests
// from an LRU response cache, and drains in-flight requests on
// SIGINT/SIGTERM before exiting.
//
// Usage:
//
//	nisqd -addr :8080
//	nisqd -addr 127.0.0.1:9000 -seed 7 -max-inflight 128 -request-timeout 30s
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vaq/internal/cliutil"
	"vaq/internal/jobs"
	"vaq/internal/serve"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		seed     = flag.Int64("seed", serve.DefaultSeed, "seed for the built-in q20/q16 synthetic calibration archives and the zoo fleets")
		trials   = flag.Int("trials", 1000000, "per-request Monte-Carlo trial cap")
		workers  = flag.Int("workers", 0, "worker goroutines per Monte-Carlo estimate and batch fan-out (0: one per CPU, <0: serial); outcomes are identical at any setting")
		inflight = flag.Int("max-inflight", 64, "concurrent requests before load shedding with 429")
		reqTO    = flag.Duration("request-timeout", 60*time.Second, "per-request deadline (0: the 60s default)")
		drainTO  = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain bound")
		cacheN   = flag.Int("cache-entries", 512, "LRU response-cache capacity (0: disable)")
		jobsDir  = flag.String("jobs-dir", "", "durable job-queue directory for POST /v1/jobs (empty: jobs are in-memory and do not survive restarts)")
		jobsW    = flag.Int("job-workers", 0, "worker goroutines executing queued jobs (0: one per CPU, <0: serial)")
		driftDir = flag.String("drift-dir", "", "calibration cycle-store directory for the drift plane (empty: cycles are in-memory and do not survive restarts)")
		driftThr = flag.Float64("drift-threshold", 0, "device drift score that triggers a canary recompile (0: detector default)")
		driftCD  = flag.Duration("drift-cooldown", 0, "minimum wall-clock spacing between canary recompiles per device (0: no cooldown)")
	)
	flag.Parse()

	if err := cliutil.All(
		cliutil.Trials("trials", *trials),
		cliutil.Workers("workers", *workers),
		cliutil.Timeout("request-timeout", *reqTO),
		cliutil.Timeout("drain-timeout", *drainTO),
		cliutil.Positive("max-inflight", *inflight),
		cliutil.NonNegative("cache-entries", *cacheN),
		cliutil.Workers("job-workers", *jobsW),
		cliutil.Timeout("drift-cooldown", *driftCD),
	); err != nil {
		fmt.Fprintln(os.Stderr, "nisqd:", err)
		os.Exit(2)
	}
	if *driftThr < 0 {
		fmt.Fprintf(os.Stderr, "nisqd: -drift-threshold must be >= 0 (got %v)\n", *driftThr)
		os.Exit(2)
	}

	srv, err := serve.New(serve.Config{
		Seed:           *seed,
		MaxTrials:      *trials,
		Workers:        *workers,
		MaxInFlight:    *inflight,
		RequestTimeout: *reqTO,
		DrainTimeout:   *drainTO,
		CacheEntries:   *cacheN,
		Jobs: jobs.Options{
			Dir:     *jobsDir,
			Workers: *jobsW,
		},
		DriftDir:            *driftDir,
		DriftThreshold:      *driftThr,
		DriftCanaryCooldown: *driftCD,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "nisqd:", err)
		os.Exit(1)
	}

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "nisqd:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	log.Printf("nisqd: serving on %s (seed %d, max in-flight %d, request timeout %v)",
		l.Addr(), *seed, *inflight, *reqTO)
	if err := srv.Serve(ctx, l); err != nil {
		fmt.Fprintln(os.Stderr, "nisqd:", err)
		os.Exit(1)
	}
	log.Printf("nisqd: drained, exiting")
}
