package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"vaq/internal/jobs"
)

// jobsConfig is testConfig with a durable-less job plane sized for
// tests: enough quota headroom that only the tests probing admission
// control ever shed.
func jobsConfig() Config {
	cfg := testConfig()
	cfg.Jobs = jobs.Options{
		Workers: 2,
		Quota:   jobs.Quota{Rate: 10000, Burst: 10000, MaxPerTenant: 10000},
	}
	return cfg
}

// submitJob POSTs one job envelope and decodes the accepted view.
func submitJob(t *testing.T, base, body string) *jobs.View {
	t.Helper()
	resp, data := post(t, base+"/v1/jobs", body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d: %s", resp.StatusCode, data)
	}
	var v jobs.View
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatalf("submit response: %v", err)
	}
	if v.ID == "" {
		t.Fatal("accepted job has no id")
	}
	return &v
}

// pollJob polls GET /v1/jobs/{id} until the job reaches want (or any
// terminal state, so a wrong outcome fails fast instead of timing out).
func pollJob(t *testing.T, base, id string, want jobs.State) *jobs.View {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data := get(t, base+"/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status %d: %s", resp.StatusCode, data)
		}
		var v jobs.View
		if err := json.Unmarshal(data, &v); err != nil {
			t.Fatalf("poll response: %v", err)
		}
		if v.State == want || v.State.Terminal() {
			if v.State != want {
				t.Fatalf("job %s reached %s (failure: %+v), want %s", id, v.State, v.Failure, want)
			}
			return &v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobResultMatchesSyncEndpoint is the async/sync equivalence
// contract over HTTP: for every job kind, the bytes served by
// GET /v1/jobs/{id}/result are identical to the synchronous endpoint's
// response for the same request — measured against a separate server so
// no shared response cache can mask a divergence.
func TestJobResultMatchesSyncEndpoint(t *testing.T) {
	_, async := newTestServerConfig(t, jobsConfig())
	_, sync := newTestServer(t) // separate process-equivalent: own cache, own pipelines

	cases := []struct {
		kind, endpoint, request string
	}{
		{"compile", "/v1/compile",
			`{"workload":"bv-8","policy":"vqm","trials":4000,"monte_carlo":true}`},
		{"estimate", "/v1/estimate",
			`{"workload":"qft-4","policy":"baseline"}`},
		{"batch", "/v1/batch",
			`{"items":[{"workload":"ghz-3","policy":"vqm","trials":2000,"monte_carlo":true},{"workload":"bv-4","policy":"native"}]}`},
		{"portfolio", "/v1/portfolio",
			`{"workload":"bv-8","device":"q20","trials":4000,"cycles":1,"random_starts":1,"top_k":2}`},
		{"sweep", "/v1/sweep",
			`{"ansatz":"qaoa-3","policy":"vqm","points":[[0.1,0.2],[0.3,0.4],[0.5,0.6]]}`},
	}
	for _, tc := range cases {
		t.Run(tc.kind, func(t *testing.T) {
			v := submitJob(t, async.URL, fmt.Sprintf(`{"kind":%q,"request":%s}`, tc.kind, tc.request))
			if v.Class != jobs.DefaultClass || v.Tenant != "anonymous" {
				t.Errorf("defaults not applied: class=%s tenant=%s", v.Class, v.Tenant)
			}
			pollJob(t, async.URL, v.ID, jobs.StateSucceeded)

			resp, jobBytes := get(t, async.URL+"/v1/jobs/"+v.ID+"/result")
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("result status %d: %s", resp.StatusCode, jobBytes)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("result Content-Type = %q", ct)
			}
			resp, syncBytes := post(t, sync.URL+tc.endpoint, tc.request)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("sync status %d: %s", resp.StatusCode, syncBytes)
			}
			if tc.kind == "portfolio" {
				// Portfolio responses carry wall-clock diagnostics — the one
				// nondeterministic field family; golden tests normalize them
				// the same way.
				jobBytes = normalizeTimings(jobBytes)
				syncBytes = normalizeTimings(syncBytes)
			}
			if !bytes.Equal(jobBytes, syncBytes) {
				t.Errorf("job result diverges from synchronous %s\n--- job ---\n%s--- sync ---\n%s",
					tc.endpoint, jobBytes, syncBytes)
			}
		})
	}
}

// TestJobSubmitValidation pins the eager-validation contract: a
// malformed submission is a 400 at submit time, never an asynchronous
// failure discovered by polling.
func TestJobSubmitValidation(t *testing.T) {
	_, ts := newTestServerConfig(t, jobsConfig())
	cases := []struct {
		name, body, wantMsg string
	}{
		{"unknown kind", `{"kind":"simulate","request":{}}`, "kind must be one of"},
		{"unknown class", `{"kind":"compile","class":"urgent","request":{"workload":"bv-4"}}`, "class must be one of"},
		{"bad tenant", `{"kind":"compile","tenant":"bad tenant!","request":{"workload":"bv-4"}}`, "tenant must match"},
		{"missing request", `{"kind":"compile"}`, "request body is required"},
		{"unknown envelope field", `{"kind":"compile","priority":1,"request":{"workload":"bv-4"}}`, "decode"},
		{"trailing garbage", `{"kind":"compile","request":{"workload":"bv-4"}} extra`, "trailing data"},
		{"embedded compile invalid", `{"kind":"compile","request":{"workload":"bv-4","bogus":1}}`, "compile request"},
		{"embedded batch empty", `{"kind":"batch","request":{"items":[]}}`, "batch has no items"},
		{"embedded portfolio invalid", `{"kind":"portfolio","request":{"workload":"bv-4","cycles":99}}`, "cycles must be in"},
		{"embedded portfolio zero seed", `{"kind":"portfolio","request":{"workload":"bv-4","root_seed":0}}`, "root_seed must be non-zero"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/jobs", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400; body: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.wantMsg) {
				t.Errorf("body %s does not mention %q", body, tc.wantMsg)
			}
		})
	}

	t.Run("unknown job id", func(t *testing.T) {
		for _, probe := range []struct{ method, path string }{
			{http.MethodGet, "/v1/jobs/deadbeef"},
			{http.MethodGet, "/v1/jobs/deadbeef/result"},
			{http.MethodGet, "/v1/jobs/deadbeef/events"},
			{http.MethodDelete, "/v1/jobs/deadbeef"},
		} {
			req, err := http.NewRequest(probe.method, ts.URL+probe.path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", probe.method, probe.path, resp.StatusCode)
			}
		}
	})

	t.Run("tenant header", func(t *testing.T) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs",
			strings.NewReader(`{"kind":"estimate","request":{"workload":"bv-4","policy":"baseline"}}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-Nisqd-Tenant", "team-calib")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var v jobs.View
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit = %d, %v", resp.StatusCode, err)
		}
		if v.Tenant != "team-calib" {
			t.Errorf("tenant = %q, want header value", v.Tenant)
		}
	})
}

// TestJobPermanentFailure drives a job whose inputs pass submit-time
// validation but fail at execution (an unregistered device): the job
// must fail on the first attempt with a permanent Failure record — no
// retries burned on an input that can only fail the same way — and the
// result endpoint must 409 rather than serve anything.
func TestJobPermanentFailure(t *testing.T) {
	_, ts := newTestServerConfig(t, jobsConfig())
	v := submitJob(t, ts.URL,
		`{"kind":"compile","request":{"workload":"bv-4","device":"no-such-device"}}`)
	got := pollJob(t, ts.URL, v.ID, jobs.StateFailed)
	if got.Failure == nil || !got.Failure.Permanent {
		t.Fatalf("failure = %+v, want permanent", got.Failure)
	}
	if got.Attempt != 1 {
		t.Errorf("attempt = %d; a permanent failure must not retry", got.Attempt)
	}
	if !strings.Contains(got.Failure.Message, "no-such-device") {
		t.Errorf("failure message %q does not name the device", got.Failure.Message)
	}
	resp, body := get(t, ts.URL+"/v1/jobs/"+v.ID+"/result")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("result of failed job: status %d, want 409; body: %s", resp.StatusCode, body)
	}
	// Terminal jobs are no longer cancellable.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusConflict {
		t.Errorf("cancel of failed job: status %d, want 409", dresp.StatusCode)
	}
}

// TestJobShedRateLimit pins the admission-control surface: a tenant
// over its submission rate is shed with 429, a Retry-After hint derived
// from the token refill time, and a shed counter on /metrics.
func TestJobShedRateLimit(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = jobs.Options{Workers: 1, Quota: jobs.Quota{Rate: 0.5, Burst: 1, MaxPerTenant: 100}}
	_, ts := newTestServerConfig(t, cfg)

	body := `{"kind":"estimate","request":{"workload":"bv-4","policy":"baseline"}}`
	submitJob(t, ts.URL, body) // consumes the single token

	resp, data := post(t, ts.URL+"/v1/jobs", body)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %s", resp.StatusCode, data)
	}
	// Refill at 0.5 tokens/s puts the honest hint at ~2s; the header adds
	// up to 2s of jitter on top.
	if got, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || got < 1 || got > 6 {
		t.Errorf("Retry-After = %q, want an integer in [1, 6]", resp.Header.Get("Retry-After"))
	}
	if !strings.Contains(string(data), "rate") {
		t.Errorf("429 body %s does not name the rate limit", data)
	}

	resp, metrics := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if !strings.Contains(string(metrics), `nisqd_jobs_shed_total{reason="rate"} 1`) {
		t.Errorf("metrics missing shed counter:\n%s", metrics)
	}
}

// TestJobShedTenantQuota pins the live-jobs cap: with MaxPerTenant=1
// and the single worker pinned by a slow job, a second submission from
// the same tenant sheds while a different tenant is still admitted.
func TestJobShedTenantQuota(t *testing.T) {
	cfg := testConfig()
	cfg.Jobs = jobs.Options{Workers: 1, Quota: jobs.Quota{Rate: 10000, Burst: 10000, MaxPerTenant: 1}}
	s, ts := newTestServerConfig(t, cfg)

	slow := fmt.Sprintf(`{"kind":"estimate","tenant":"alice","request":%s}`, slowEstimate)
	v := submitJob(t, ts.URL, slow)

	resp, data := post(t, ts.URL+"/v1/jobs", slow)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429; body: %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if !strings.Contains(string(data), "alice") {
		t.Errorf("429 body %s does not name the tenant", data)
	}
	// Admission is per tenant: bob's budget is untouched.
	submitJob(t, ts.URL, fmt.Sprintf(`{"kind":"estimate","tenant":"bob","request":%s}`, slowEstimate))

	// Once alice's job finishes her quota frees up again.
	pollJob(t, ts.URL, v.ID, jobs.StateSucceeded)
	submitJob(t, ts.URL, slow)
	_ = s
}

// TestJobEventsSSE exercises the event stream over real HTTP: the
// stream replays from the queued event, carries SSE framing (id/event/
// data lines), and closes on its own once the job reaches a terminal
// state.
func TestJobEventsSSE(t *testing.T) {
	_, ts := newTestServerConfig(t, jobsConfig())
	v := submitJob(t, ts.URL,
		`{"kind":"compile","request":{"workload":"bv-8","policy":"vqm","trials":2000,"monte_carlo":true}}`)

	// Subscribe immediately: depending on timing this replays history,
	// streams live, or both — all must end in EOF at the terminal event.
	resp, body := get(t, ts.URL+"/v1/jobs/"+v.ID+"/events")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events status %d: %s", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q, want text/event-stream", ct)
	}
	stream := string(body)
	for _, want := range []string{"event: queued", "event: started", "event: succeeded"} {
		if !strings.Contains(stream, want) {
			t.Errorf("stream missing %q:\n%s", want, stream)
		}
	}
	// Every data line is a well-formed Event and seqs strictly increase.
	lastSeq := -1
	events := 0
	for _, line := range strings.Split(stream, "\n") {
		data, ok := strings.CutPrefix(line, "data: ")
		if !ok {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(data), &ev); err != nil {
			t.Fatalf("bad event payload %q: %v", data, err)
		}
		if ev.Seq <= lastSeq {
			t.Errorf("event seq %d after %d; must strictly increase", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		events++
	}
	if events < 3 {
		t.Errorf("stream carried %d events, want at least queued/started/succeeded", events)
	}
}

// TestJobEventsSSEReconnect pins the reconnect contract of the event
// stream: a client that drops its connection mid-stream — before the
// job is anywhere near terminal — loses nothing, because a fresh
// subscription replays the full history from seq 0. The close points
// are table-driven: dropping after the headers, after the first event,
// and after two events must all leave the feed replayable, and once the
// job is terminal two full reads must return byte-identical streams.
func TestJobEventsSSEReconnect(t *testing.T) {
	cfg := jobsConfig()
	cfg.Jobs.Workers = 1 // single worker → a slow head job keeps the probe queued
	_, ts := newTestServerConfig(t, cfg)

	cases := []struct {
		name       string
		readEvents int // data lines to read before dropping the connection
	}{
		{"close-after-headers", 0},
		{"close-after-first-event", 1},
		{"close-after-two-events", 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Head-of-line blocker: a Monte-Carlo compile large enough
			// that the probe job stays queued while we drop the stream.
			submitJob(t, ts.URL,
				`{"kind":"compile","request":{"workload":"bv-8","policy":"vqm","trials":200000,"monte_carlo":true}}`)
			v := submitJob(t, ts.URL, `{"kind":"compile","request":{"workload":"bv-4","policy":"vqm"}}`)

			resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/events")
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				resp.Body.Close()
				t.Fatalf("events status %d", resp.StatusCode)
			}
			br := bufio.NewReader(resp.Body)
			var firstData string
			for read := 0; read < tc.readEvents; {
				line, err := br.ReadString('\n')
				if err != nil {
					t.Fatalf("stream ended after %d events, wanted %d: %v", read, tc.readEvents, err)
				}
				if strings.HasPrefix(line, "data: ") {
					if firstData == "" {
						firstData = strings.TrimRight(line, "\n")
					}
					read++
				}
			}
			resp.Body.Close() // drop mid-stream; the job is still queued or running

			// Reconnect: the replay must carry the complete lifecycle and
			// strictly increasing seqs from the start, including any event
			// the dropped connection already saw.
			resp2, body := get(t, ts.URL+"/v1/jobs/"+v.ID+"/events")
			if resp2.StatusCode != http.StatusOK {
				t.Fatalf("reconnect status %d: %s", resp2.StatusCode, body)
			}
			stream := string(body)
			for _, want := range []string{"event: queued", "event: started", "event: succeeded"} {
				if !strings.Contains(stream, want) {
					t.Fatalf("reconnected stream missing %q:\n%s", want, stream)
				}
			}
			if firstData != "" && !strings.Contains(stream, firstData) {
				t.Errorf("reconnected stream dropped the first event %q:\n%s", firstData, stream)
			}
			lastSeq := -1
			for _, line := range strings.Split(stream, "\n") {
				data, ok := strings.CutPrefix(line, "data: ")
				if !ok {
					continue
				}
				var ev jobs.Event
				if err := json.Unmarshal([]byte(data), &ev); err != nil {
					t.Fatalf("bad event payload %q: %v", data, err)
				}
				if ev.Seq <= lastSeq {
					t.Errorf("event seq %d after %d; must strictly increase", ev.Seq, lastSeq)
				}
				lastSeq = ev.Seq
			}

			// Terminal streams are stable: a third read is byte-identical.
			resp3, body2 := get(t, ts.URL+"/v1/jobs/"+v.ID+"/events")
			if resp3.StatusCode != http.StatusOK {
				t.Fatalf("re-read status %d", resp3.StatusCode)
			}
			if !bytes.Equal(body, body2) {
				t.Errorf("terminal replay not byte-stable:\nfirst:\n%s\nsecond:\n%s", body, body2)
			}
		})
	}
}

// TestJobKillResumeEquivalence is the durability headline: a job
// interrupted mid-run by a crash is recovered from disk by the next
// daemon and re-executed to a result byte-identical to a never-
// interrupted synchronous run.
//
// The crash is staged with a raw manager whose backend blocks forever:
// it persists the job, marks it running on disk, and is then abandoned
// without any shutdown handshake — exactly the on-disk state a SIGKILL
// leaves behind. A full server booted on the same directory must adopt
// the orphan, count the interruption, execute it through the real
// pipelines, and serve the same bytes POST /v1/compile returns on an
// untouched server. A compile job with a Monte-Carlo stage is the
// strictest probe: every byte of its response is deterministic (seeded
// MC streams, model-time durations), so the comparison is exact — no
// normalization.
func TestJobKillResumeEquivalence(t *testing.T) {
	dir := t.TempDir()
	const request = `{"workload":"bv-8","policy":"vqm","device":"q20","trials":20000,"monte_carlo":true}`

	// Daemon #1: accepts the job, starts it, "crashes" (abandoned with
	// the worker goroutine parked; never released, so it can never race
	// daemon #2 by writing a late result).
	started := make(chan struct{})
	crashed, err := jobs.NewManager(jobs.Options{Dir: dir, Workers: 1},
		jobs.Backend(func(ctx context.Context, w jobs.Work, progress func(string)) ([]byte, error) {
			close(started)
			select {} // the crash point: this attempt never returns
		}))
	if err != nil {
		t.Fatal(err)
	}
	crashed.Start()
	v, err := crashed.Submit(jobs.Spec{Kind: jobs.KindCompile, Request: json.RawMessage(request)})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job never started on the crashing manager")
	}

	// Daemon #2: same directory, real pipelines.
	cfg := jobsConfig()
	cfg.Jobs.Dir = dir
	_, ts := newTestServerConfig(t, cfg)

	got := pollJob(t, ts.URL, v.ID, jobs.StateSucceeded)
	if got.Interruptions != 1 {
		t.Errorf("interruptions = %d, want 1 (the crash)", got.Interruptions)
	}
	resp, resumed := get(t, ts.URL+"/v1/jobs/"+v.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result status %d: %s", resp.StatusCode, resumed)
	}

	// Reference: the same compile on a server that never saw a crash.
	_, ref := newTestServer(t)
	resp, clean := post(t, ref.URL+"/v1/compile", request)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference status %d: %s", resp.StatusCode, clean)
	}
	if !bytes.Equal(resumed, clean) {
		t.Errorf("resumed result diverges from uninterrupted run\n--- resumed ---\n%s--- clean ---\n%s",
			resumed, clean)
	}

	resp, metrics := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	for _, want := range []string{"nisqd_jobs_recovered_total 1", "nisqd_jobs_interrupted_total 1"} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobsMetricsExposition asserts the job plane's whole metric family
// is present on /metrics and that outcome counters carry class and
// tenant labels.
func TestJobsMetricsExposition(t *testing.T) {
	_, ts := newTestServerConfig(t, jobsConfig())
	v := submitJob(t, ts.URL,
		`{"kind":"estimate","class":"interactive","tenant":"team-calib","request":{"workload":"bv-4","policy":"baseline"}}`)
	pollJob(t, ts.URL, v.ID, jobs.StateSucceeded)

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"nisqd_jobs_queued 0",
		"nisqd_jobs_running 0",
		`nisqd_jobs_submitted_total{class="interactive",tenant="team-calib"} 1`,
		`nisqd_jobs_outcomes_total{state="succeeded",class="interactive",tenant="team-calib"} 1`,
		"nisqd_jobs_retries_total 0",
		"nisqd_jobs_interrupted_total 0",
		"nisqd_jobs_recovered_total 0",
		"nisqd_jobs_store_corrupt_total 0",
		"nisqd_jobs_persist_errors_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestJobsConcurrentHTTPClients is the acceptance-scale soak: 100
// clients hammer the job plane over real HTTP with a mix of submits,
// polls, cancels and list scans (run under -race in CI). Every response
// must be one of the documented statuses, and the plane must account
// for every accepted job with a terminal outcome.
func TestJobsConcurrentHTTPClients(t *testing.T) {
	cfg := jobsConfig()
	cfg.Jobs.Workers = 4
	s, ts := newTestServerConfig(t, cfg)

	requests := []string{
		`{"workload":"bv-4","policy":"baseline"}`,
		`{"workload":"ghz-3","policy":"vqm"}`,
		`{"workload":"qft-4","policy":"native"}`,
	}
	const clients = 100
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ids []string
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kind":"estimate","tenant":"client-%d","request":%s}`,
				c%7, requests[c%len(requests)])
			resp, data := post(t, ts.URL+"/v1/jobs", body)
			if resp.StatusCode != http.StatusAccepted {
				t.Errorf("client %d: submit status %d: %s", c, resp.StatusCode, data)
				return
			}
			var v jobs.View
			if err := json.Unmarshal(data, &v); err != nil {
				t.Errorf("client %d: %v", c, err)
				return
			}
			mu.Lock()
			ids = append(ids, v.ID)
			mu.Unlock()

			switch c % 3 {
			case 0: // poller
				resp, _ := get(t, ts.URL+"/v1/jobs/"+v.ID)
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: poll status %d", c, resp.StatusCode)
				}
			case 1: // canceller: racing completion, both outcomes are legal
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
					t.Errorf("client %d: cancel status %d", c, resp.StatusCode)
				}
			case 2: // lister
				resp, _ := get(t, ts.URL+"/v1/jobs")
				if resp.StatusCode != http.StatusOK {
					t.Errorf("client %d: list status %d", c, resp.StatusCode)
				}
			}
		}(c)
	}
	wg.Wait()

	// Every accepted job reaches a terminal state (succeeded or, for the
	// cancellers that won their race, cancelled).
	deadline := time.Now().Add(30 * time.Second)
	for _, id := range ids {
		for {
			v, ok := s.Jobs().Get(id)
			if !ok {
				t.Fatalf("job %s vanished", id)
			}
			if v.State.Terminal() {
				if v.State == jobs.StateFailed {
					t.Errorf("job %s failed: %+v", id, v.Failure)
				}
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("job %s never finished (state %s)", id, v.State)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	done := 0
	for _, v := range s.Jobs().List() {
		if v.State.Terminal() {
			done++
		}
	}
	if done != clients {
		t.Errorf("outcomes account for %d jobs, want %d", done, clients)
	}
}
