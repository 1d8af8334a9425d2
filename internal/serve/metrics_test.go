package serve

import (
	"net/http"
	"strings"
	"testing"
	"time"
)

// metricsMasked lists the /metrics series whose values are not fixed by
// the traffic: latency buckets and sums and Monte-Carlo wall time are
// timing-valued, and the route cost-table cache is process-global, so
// its counters depend on which tests ran first in the same binary.
var metricsMasked = []string{
	"nisqd_request_duration_seconds_bucket",
	"nisqd_request_duration_seconds_sum",
	"nisqd_mc_seconds_total",
	"nisqd_route_cache_",
}

// maskMetrics replaces the value of every masked sample with "*".
func maskMetrics(body string) string {
	lines := strings.SplitAfter(body, "\n")
	for i, line := range lines {
		for _, p := range metricsMasked {
			if strings.HasPrefix(line, p) {
				lines[i] = line[:strings.LastIndexByte(line, ' ')] + " *\n"
				break
			}
		}
	}
	return strings.Join(lines, "")
}

// TestMetricsGolden pins the whole /metrics exposition byte for byte
// after a fixed traffic script touching every plane: the serve counters
// and histogram, the Monte-Carlo and sweep counters, the job plane and
// the drift plane. The 1M-trial estimate drives nisqd_mc_trials_total
// past a million, where integer series must still print as integers.
func TestMetricsGolden(t *testing.T) {
	s, ts := newTestServerConfig(t, jobsConfig())
	send := func(path, body string, want int) {
		t.Helper()
		var resp *http.Response
		var data []byte
		if body == "" {
			resp, data = get(t, ts.URL+path)
		} else {
			resp, data = post(t, ts.URL+path, body)
		}
		if resp.StatusCode != want {
			t.Fatalf("%s: status %d, want %d: %s", path, resp.StatusCode, want, data)
		}
	}
	compile := `{"workload":"bv-4","policy":"baseline","trials":2000}`
	send("/v1/compile", compile, http.StatusOK)
	send("/v1/compile", compile, http.StatusOK)
	send("/v1/compile", `{"workload":`, http.StatusBadRequest)
	send("/v1/estimate",
		`{"workload":"ghz-4","policy":"baseline","device":"q5","monte_carlo":true,"trials":1000000}`, http.StatusOK)
	send("/v1/sweep", sweepBody("qaoa-4", 2, 3), http.StatusOK)

	v := submitJob(t, ts.URL,
		`{"kind":"estimate","class":"interactive","tenant":"team-calib","request":{"workload":"bv-4","policy":"baseline"}}`)
	// Wait in-process: HTTP polls would add a poll-count-dependent
	// requests_total{endpoint="/v1/jobs/{id}"} sample.
	deadline := time.Now().Add(30 * time.Second)
	for {
		jv, ok := s.Jobs().Get(v.ID)
		if !ok {
			t.Fatalf("job %s vanished", v.ID)
		}
		if jv.State.Terminal() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", v.ID, jv.State)
		}
		time.Sleep(2 * time.Millisecond)
	}

	registerQ5(t, ts.URL, "lab-q5")
	warmHot(t, ts.URL, "lab-q5")
	send("/v1/calibration?name=lab-q5&append=true", q5ArchiveJSON(t, 7, 5, degradeLater(4)), http.StatusOK)
	send("/v1/devices", "", http.StatusOK)

	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	golden(t, "metrics.txt", []byte(maskMetrics(string(body))))
}
