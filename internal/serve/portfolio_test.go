package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"regexp"
	"testing"

	"vaq/internal/portfolio"
)

// timingRE matches the wall-clock diagnostics in a portfolio response —
// the only nondeterministic bytes — so golden comparisons can normalize
// them.
var timingRE = regexp.MustCompile(`"(compile_ns|total_ns)": \d+`)

func normalizeTimings(body []byte) []byte {
	return timingRE.ReplaceAll(body, []byte(`"$1": 0`))
}

func TestPortfolioGolden(t *testing.T) {
	_, ts := newTestServer(t)
	// Reference-device-only grid on the 5-qubit model keeps the 18
	// candidates cheap while still exercising every policy axis.
	req := `{"workload":"ghz-3","device":"q5","root_seed":7,"cycles":0,"random_starts":1,"top_k":2,"trials":2000}`
	resp, body := post(t, ts.URL+"/v1/portfolio", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Nisqd-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	golden(t, "portfolio_ghz3_q5.json", normalizeTimings(body))

	// The repeat is served from cache, bit-identical including the
	// original run's timings.
	resp2, body2 := post(t, ts.URL+"/v1/portfolio", req)
	if got := resp2.Header.Get("X-Nisqd-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached portfolio differs from computed portfolio")
	}

	var res portfolio.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 24 {
		t.Fatalf("ranked %d candidates, want 24", len(res.Candidates))
	}
	if res.Candidates[0].Rank != 1 || res.Candidates[0].MCResult == nil {
		t.Errorf("winner not MC-refined: %+v", res.Candidates[0])
	}
	if len(res.Failures) != 0 {
		t.Errorf("unexpected failures: %+v", res.Failures)
	}
}

// TestPortfolioCyclesWindow: on a device with a real archive the grid
// picks up per-cycle candidates, and omitted axes take the documented
// defaults.
func TestPortfolioCyclesWindow(t *testing.T) {
	s, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/portfolio",
		`{"workload":"bv-4","device":"q20","cycles":1,"random_starts":0,"top_k":1,"trials":1000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var res portfolio.Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	// (mean + 1 cycle) × 2 allocs × 4 movers × 2 optimize.
	if len(res.Candidates) != 32 {
		t.Fatalf("ranked %d candidates, want 32", len(res.Candidates))
	}
	_, arch, err := s.lookupDeviceArchive("q20")
	if err != nil || arch == nil {
		t.Fatalf("q20 archive missing: %v", err)
	}
	last := len(arch.Snapshots) - 1
	var sawMean, sawLast bool
	for _, c := range res.Candidates {
		switch c.Cycle {
		case portfolio.MeanCycle:
			sawMean = true
		case last:
			sawLast = true
		}
	}
	if !sawMean || !sawLast {
		t.Errorf("grid missing mean (%v) or most recent cycle %d (%v)", sawMean, last, sawLast)
	}
}

func TestPortfolioRequestErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body string
		status     int
	}{
		{"malformed json", `{"workload":`, http.StatusBadRequest},
		{"unknown field", `{"workload":"bv-4","frobnicate":1}`, http.StatusBadRequest},
		{"trailing data", `{"workload":"bv-4"} {"again":true}`, http.StatusBadRequest},
		{"no source", `{"device":"q20"}`, http.StatusBadRequest},
		{"both sources", `{"workload":"bv-4","qasm":"OPENQASM 2.0;"}`, http.StatusBadRequest},
		{"unknown workload names valid ones", `{"workload":"sorcery-9"}`, http.StatusBadRequest},
		{"zero root seed", `{"workload":"bv-4","root_seed":0}`, http.StatusBadRequest},
		{"negative cycles", `{"workload":"bv-4","cycles":-1}`, http.StatusBadRequest},
		{"cycles over cap", `{"workload":"bv-4","cycles":99}`, http.StatusBadRequest},
		{"starts over cap", `{"workload":"bv-4","random_starts":99}`, http.StatusBadRequest},
		{"top_k over cap", `{"workload":"bv-4","top_k":99}`, http.StatusBadRequest},
		{"negative trials", `{"workload":"bv-4","trials":-5}`, http.StatusBadRequest},
		{"trials over cap", `{"workload":"bv-4","trials":99000000}`, http.StatusBadRequest},
		{"grid too large", `{"workload":"bv-4","cycles":16,"random_starts":8}`, http.StatusBadRequest},
		{"unknown device", `{"workload":"bv-4","device":"q999"}`, http.StatusNotFound},
		{"program too big for device", `{"workload":"bv-30","device":"q5"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+"/v1/portfolio", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			var eb errorBody
			if err := json.Unmarshal(body, &eb); err != nil {
				t.Fatalf("error body not JSON: %s", body)
			}
			if eb.Error.Status != tc.status || eb.Error.Message == "" {
				t.Errorf("error envelope = %+v", eb.Error)
			}
		})
	}
}

// TestPortfolioSpecMapping pins the pointer semantics: omitted axes take
// the portfolio defaults, explicit zeros switch the axis off.
func TestPortfolioSpecMapping(t *testing.T) {
	req, err := DecodePortfolioRequest([]byte(`{"workload":"bv-4"}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec := req.Spec(3)
	if spec.Cycles != portfolio.DefaultCycles || spec.RandomStarts != portfolio.DefaultRandomStarts {
		t.Errorf("omitted axes resolved to %+v, want portfolio defaults", spec)
	}
	if spec.RootSeed != portfolio.DefaultRootSeed || spec.TopK != portfolio.DefaultTopK ||
		spec.Trials != portfolio.DefaultTrials || spec.Workers != 3 {
		t.Errorf("defaults not applied: %+v", spec)
	}

	req, err = DecodePortfolioRequest([]byte(`{"workload":"bv-4","cycles":0,"random_starts":0}`), 0)
	if err != nil {
		t.Fatal(err)
	}
	spec = req.Spec(0)
	if spec.Cycles >= 0 || spec.RandomStarts >= 0 {
		t.Errorf("explicit zeros should map to the spec's negative markers, got %+v", spec)
	}
}
