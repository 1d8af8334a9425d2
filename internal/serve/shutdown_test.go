package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"vaq/internal/jobs"
)

// slowEstimate is a request whose compile takes long enough (about
// 0.5 s, 4 s under -race, on a 2-vCPU Xeon) that the test can observe it
// in flight, yet finishes well inside DrainTimeout: SABRE-routing the
// 14280 CNOTs of a 120-qubit QFT onto the 399-qubit heavy-hex zoo
// device, analytic estimate only. SABRE keeps its run time steady
// and its memory small (under 200 MB with -race), unlike an A* search
// of similar length.
const slowEstimate = `{"workload":"qft-120","policy":"baseline","device":"heavy-hex-399","movement":"sabre"}`

// waitInFlight polls the in-flight gauge until it reaches want.
func waitInFlight(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.met.inFlight.Load() < want {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight never reached %d (at %d)", want, s.met.inFlight.Load())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGracefulShutdown proves the drain contract: when Serve's context
// is cancelled, the request already in flight completes with 200 while
// new connections are refused, and Serve returns nil (clean drain).
func TestGracefulShutdown(t *testing.T) {
	cfg := testConfig()
	cfg.DrainTimeout = 30 * time.Second
	s := mustNew(cfg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, l) }()

	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/estimate", "application/json", strings.NewReader(slowEstimate))
		if err != nil {
			slowDone <- err
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			slowDone <- fmt.Errorf("slow request: status %d: %s", resp.StatusCode, body)
			return
		}
		slowDone <- nil
	}()
	waitInFlight(t, s, 1)

	cancel() // begin graceful shutdown while the slow request is in flight

	// The in-flight request must complete successfully.
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight request did not drain cleanly: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v, want nil after clean drain", err)
	}

	// The listener is closed: new connections are refused.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("request after shutdown succeeded, want connection refused")
	}
}

// TestSaturationSheds proves the limiter never queues: with capacity 1
// occupied by a slow request, the next request is rejected immediately
// with 429 and a Retry-After header.
func TestSaturationSheds(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlight = 1
	s := mustNew(cfg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, l) }()

	slowDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(base+"/v1/estimate", "application/json", strings.NewReader(slowEstimate))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("slow request: status %d", resp.StatusCode)
			}
		}
		slowDone <- err
	}()
	waitInFlight(t, s, 1)

	// The semaphore is full. A second request must be shed at once, not
	// held until capacity frees up.
	start := time.Now()
	resp, err := http.Post(base+"/v1/compile", "application/json",
		strings.NewReader(`{"workload":"bv-4","policy":"baseline","trials":1000}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %s", resp.StatusCode, body)
	}
	// Retry-After is jittered (base 1s plus up to 2s) so a shed burst of
	// clients spreads out instead of reconverging on the same instant.
	if got, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || got < 1 || got > 3 {
		t.Errorf("Retry-After = %q, want an integer in [1, 3]", resp.Header.Get("Retry-After"))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("shed took %v; a full limiter must reject immediately", elapsed)
	}
	if !strings.Contains(string(body), "capacity") {
		t.Errorf("429 body = %s, want capacity message", body)
	}

	if err := <-slowDone; err != nil {
		t.Fatalf("slow request failed: %v", err)
	}
	cancel()
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v, want nil", err)
	}
}

// TestDrainDeadlineBoundsShutdown proves the configurable drain
// deadline is a real bound with the job plane in play: with a slow job
// running and a short DrainTimeout, Serve returns promptly after the
// deadline (it does not wait for the job to finish on its own
// schedule), reports the forced drain as an error, and the interrupted
// job is back in the queue marked for resume rather than lost.
func TestDrainDeadlineBoundsShutdown(t *testing.T) {
	cfg := testConfig()
	cfg.DrainTimeout = 100 * time.Millisecond
	cfg.Jobs = jobs.Options{Workers: 1}
	s := mustNew(cfg)

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + l.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(ctx, l) }()

	// A batch job: the fan-out honors cancellation between items (an
	// estimate job's single compile would just finish and win), so the
	// drain deadline demonstrably converts running work into a re-queued
	// checkpoint.
	batch := fmt.Sprintf(`{"items":[%s,%s,%s,%s]}`,
		slowEstimate, slowEstimate, slowEstimate, slowEstimate)
	body := fmt.Sprintf(`{"kind":"batch","request":%s}`, batch)
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var v jobs.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		jv, ok := s.Jobs().Get(v.ID)
		if ok && jv.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	cancel()
	err = <-serveErr
	if err == nil {
		t.Fatal("Serve returned nil; a forced job drain must be reported")
	}
	// The bound: the 100ms deadline plus the tail of the compiles already
	// running, which can't be preempted — far below the job's natural
	// multi-attempt lifetime, and generous enough for slow CI machines.
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("shutdown took %v; DrainTimeout=100ms must bound it", elapsed)
	}
	jv, ok := s.Jobs().Get(v.ID)
	if !ok || jv.State != jobs.StateQueued || jv.Interruptions != 1 {
		t.Fatalf("interrupted job = %+v (ok=%v), want queued with 1 interruption", jv, ok)
	}
}
