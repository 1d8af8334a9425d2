package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"vaq/internal/calib"
)

var update = flag.Bool("update", false, "rewrite golden files")

// testConfig keeps tests fast and deterministic: small MC budgets, a
// known seed, and caching on.
func testConfig() Config {
	return Config{Seed: 2019, MaxTrials: 5000000, CacheEntries: 64}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	return newTestServerConfig(t, testConfig())
}

func newTestServerConfig(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, startTestServer(t, s)
}

// startTestServer serves s over httptest, draining it at cleanup.
func startTestServer(t *testing.T, s *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return ts
}

func post(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, data.Bytes()
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data := new(bytes.Buffer)
	if _, err := data.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, data.Bytes()
}

// golden compares got with testdata/golden/<name>; -update rewrites.
// Golden bodies are deterministic: every estimate is seeded and the
// simulator is bit-identical at any worker count.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (rerun with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	golden(t, "healthz.json", body)
}

func TestDevices(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/v1/devices")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	golden(t, "devices.json", body)
}

func TestCompileGolden(t *testing.T) {
	_, ts := newTestServer(t)
	req := `{"workload":"bv-8","policy":"vqm","device":"q20","seed":2019,"trials":20000}`
	resp, body := post(t, ts.URL+"/v1/compile", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Nisqd-Cache"); got != "miss" {
		t.Errorf("first request cache header = %q, want miss", got)
	}
	golden(t, "compile_bv8_vqm.json", body)

	// The repeat must be served from cache, bit-identical.
	resp2, body2 := post(t, ts.URL+"/v1/compile", req)
	if got := resp2.Header.Get("X-Nisqd-Cache"); got != "hit" {
		t.Errorf("second request cache header = %q, want hit", got)
	}
	if !bytes.Equal(body, body2) {
		t.Error("cached response differs from computed response")
	}

	// The report field is the exact nisqc CLI text.
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(res.Report, "program     bv-8 (8 qubits,") {
		t.Errorf("report text unexpected:\n%s", res.Report)
	}
}

func TestCompileQASM(t *testing.T) {
	_, ts := newTestServer(t)
	qasm := `OPENQASM 2.0;
include "qelib1.inc";
qreg q[3];
creg c[3];
h q[0];
cx q[0],q[1];
cx q[1],q[2];
measure q[0] -> c[0];
measure q[1] -> c[1];
measure q[2] -> c[2];
`
	reqBody, _ := json.Marshal(map[string]any{
		"qasm": qasm, "policy": "baseline", "device": "q5", "trials": 5000,
	})
	resp, body := post(t, ts.URL+"/v1/compile", string(reqBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	golden(t, "compile_qasm_q5.json", body)
}

func TestEstimateGolden(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/estimate",
		`{"workload":"ghz-4","policy":"baseline","device":"q5","trials":4096}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	golden(t, "estimate_analytic.json", body)
	var res Result
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.MC != nil {
		t.Error("analytic-only estimate should omit monte_carlo")
	}

	resp, body = post(t, ts.URL+"/v1/estimate",
		`{"workload":"ghz-4","policy":"baseline","device":"q5","trials":4096,"monte_carlo":true}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	golden(t, "estimate_mc.json", body)
}

func TestBatchGolden(t *testing.T) {
	_, ts := newTestServer(t)
	req := `{"items":[
 {"workload":"bv-4","policy":"baseline","device":"q20","trials":2000},
 {"workload":"bv-999","policy":"baseline","device":"q20","trials":2000},
 {"workload":"triswap","policy":"vqm","device":"nope","trials":2000}
]}`
	resp, body := post(t, ts.URL+"/v1/batch", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	golden(t, "batch_mixed.json", body)

	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if len(br.Items) != 3 {
		t.Fatalf("items = %d, want 3", len(br.Items))
	}
	if br.Items[0].Result == nil || br.Items[0].Error != nil {
		t.Error("item 0 should succeed")
	}
	if br.Items[1].Error == nil || br.Items[1].Error.Status != http.StatusBadRequest {
		t.Errorf("item 1 should fail with 400: %+v", br.Items[1].Error)
	}
	if br.Items[2].Error == nil || br.Items[2].Error.Status != http.StatusNotFound {
		t.Errorf("item 2 should fail with 404: %+v", br.Items[2].Error)
	}
}

// TestBatchMatchesCompile pins the fan-out to the single-request path:
// the same item through /v1/batch and /v1/compile yields the same
// result (the batch runs items with serial inner MC, which the
// simulator guarantees is bit-identical).
func TestBatchMatchesCompile(t *testing.T) {
	_, ts := newTestServer(t)
	resp, single := post(t, ts.URL+"/v1/compile",
		`{"workload":"qft-5","policy":"vqm","device":"q20","trials":8192}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile status %d", resp.StatusCode)
	}
	var want Result
	if err := json.Unmarshal(single, &want); err != nil {
		t.Fatal(err)
	}

	// Fresh server so the batch cannot be served from the cache the
	// compile just populated.
	_, ts2 := newTestServer(t)
	resp, body := post(t, ts2.URL+"/v1/batch",
		`{"items":[{"workload":"qft-5","policy":"vqm","device":"q20","trials":8192}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var br batchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		t.Fatal(err)
	}
	if br.Items[0].Result == nil {
		t.Fatalf("batch item failed: %+v", br.Items[0].Error)
	}
	got, _ := json.Marshal(br.Items[0].Result)
	wantJSON, _ := json.Marshal(&want)
	if !bytes.Equal(got, wantJSON) {
		t.Errorf("batch result differs from compile result:\n%s\n%s", got, wantJSON)
	}
}

func TestCalibrationUpload(t *testing.T) {
	s, ts := newTestServer(t)
	var arch bytes.Buffer
	if err := calib.Generate(calib.DefaultQ5Config(7)).WriteJSON(&arch); err != nil {
		t.Fatal(err)
	}

	resp, body := post(t, ts.URL+"/v1/calibration?name=lab-q5", arch.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	golden(t, "calibration_upload.json", body)

	// Registered device is immediately compilable.
	resp, body = post(t, ts.URL+"/v1/compile",
		`{"workload":"triswap","policy":"vqm","device":"lab-q5","trials":2000}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile on uploaded device: status %d: %s", resp.StatusCode, body)
	}

	// Same archive again: idempotent.
	resp, _ = post(t, ts.URL+"/v1/calibration?name=lab-q5", arch.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("idempotent re-upload: status %d", resp.StatusCode)
	}

	// Same name, different calibration: conflict.
	var other bytes.Buffer
	if err := calib.Generate(calib.DefaultQ5Config(8)).WriteJSON(&other); err != nil {
		t.Fatal(err)
	}
	resp, _ = post(t, ts.URL+"/v1/calibration?name=lab-q5", other.String())
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("conflicting re-upload: status %d, want 409", resp.StatusCode)
	}

	// Anonymous upload registers under its fingerprint.
	resp, body = post(t, ts.URL+"/v1/calibration", other.String())
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("anonymous upload: status %d", resp.StatusCode)
	}
	var cr calibrationResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(cr.Device.Name, "fp-") {
		t.Errorf("anonymous device name = %q, want fp-… prefix", cr.Device.Name)
	}
	if _, _, err := s.lookupDeviceArchive(cr.Device.Name); err != nil {
		t.Errorf("anonymous device not registered: %v", err)
	}
}

// TestRegistryFull pins the one registration path's bound: once the
// registry holds maxDevices entries, a new upload is refused with 409
// and a new zoo fleet with 404, both naming the full registry, while a
// name already registered still resolves.
func TestRegistryFull(t *testing.T) {
	s, ts := newTestServer(t)
	for seed := int64(1); ; seed++ {
		var arch bytes.Buffer
		if err := calib.Generate(calib.DefaultQ5Config(seed)).WriteJSON(&arch); err != nil {
			t.Fatal(err)
		}
		resp, body := post(t, ts.URL+"/v1/calibration?name="+fmt.Sprintf("lab-%d", seed), arch.String())
		if resp.StatusCode == http.StatusOK {
			continue
		}
		want := fmt.Sprintf("device registry full (%d entries)", maxDevices)
		if resp.StatusCode != http.StatusConflict || !strings.Contains(string(body), want) {
			t.Fatalf("upload %d: status %d %s, want 409 %q", seed, resp.StatusCode, body, want)
		}
		break
	}
	if n := len(s.devices); n != maxDevices {
		t.Fatalf("registry holds %d devices, want %d", n, maxDevices)
	}
	resp, body := post(t, ts.URL+"/v1/compile", `{"workload":"bv-4","policy":"vqm","device":"heavy-hex-20-mid","trials":100}`)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), "device registry full") {
		t.Fatalf("zoo device past the cap: status %d %s", resp.StatusCode, body)
	}
	if _, _, err := s.lookupDeviceArchive("lab-1"); err != nil {
		t.Fatalf("registered device lost: %v", err)
	}
}

func TestCalibrationQuarantine(t *testing.T) {
	_, ts := newTestServer(t)
	cfg := calib.DefaultQ5Config(7)
	cfg.Days = 3 // several cycles, so one corrupt cycle leaves survivors
	arch := calib.Generate(cfg)
	var buf bytes.Buffer
	if err := arch.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Corrupt one snapshot's first two-qubit rate into an invalid
	// probability; the lenient reader must quarantine that cycle and
	// register the rest.
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	snaps := m["snapshots"].([]any)
	snaps[0].(map[string]any)["two_qubit"].([]any)[0] = 3.5
	corrupted, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, ts.URL+"/v1/calibration?name=partial", string(corrupted))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var cr calibrationResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if len(cr.Quarantined) != 1 {
		t.Errorf("quarantined = %v, want 1 entry", cr.Quarantined)
	}
	if cr.Snapshots != len(arch.Snapshots)-1 {
		t.Errorf("snapshots = %d, want %d", cr.Snapshots, len(arch.Snapshots)-1)
	}
}

func TestRequestErrors(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, endpoint, body string
		status               int
	}{
		{"malformed json", "/v1/compile", `{"workload":`, http.StatusBadRequest},
		{"unknown field", "/v1/compile", `{"workload":"bv-4","frobnicate":1}`, http.StatusBadRequest},
		{"kernel is an unknown field", "/v1/estimate", `{"workload":"bv-4","monte_carlo":true,"kernel":"scalar"}`, http.StatusBadRequest},
		{"trailing data", "/v1/compile", `{"workload":"bv-4"} {"again":true}`, http.StatusBadRequest},
		{"no source", "/v1/compile", `{"policy":"vqm"}`, http.StatusBadRequest},
		{"both sources", "/v1/compile", `{"workload":"bv-4","qasm":"OPENQASM 2.0;"}`, http.StatusBadRequest},
		{"unknown policy", "/v1/compile", `{"workload":"bv-4","policy":"magic"}`, http.StatusBadRequest},
		{"unknown workload", "/v1/compile", `{"workload":"sorcery-9"}`, http.StatusBadRequest},
		{"oversized workload", "/v1/compile", `{"workload":"bv-99999999"}`, http.StatusBadRequest},
		{"negative trials", "/v1/compile", `{"workload":"bv-4","trials":-5}`, http.StatusBadRequest},
		{"trials over cap", "/v1/compile", `{"workload":"bv-4","trials":99000000}`, http.StatusBadRequest},
		{"unknown device", "/v1/compile", `{"workload":"bv-4","device":"q999"}`, http.StatusNotFound},
		{"program too big for device", "/v1/compile", `{"workload":"bv-30","device":"q5"}`, http.StatusBadRequest},
		{"bad qasm", "/v1/compile", `{"qasm":"OPENQASM 2.0; nonsense"}`, http.StatusBadRequest},
		{"empty batch", "/v1/batch", `{"items":[]}`, http.StatusBadRequest},
		{"batch item error named", "/v1/batch", `{"items":[{"workload":"bv-4"},{"trials":-1,"workload":"bv-4"}]}`, http.StatusBadRequest},
		{"bad archive", "/v1/calibration", `{"topology":{"name":"x","num_qubits":0,"couplings":[]}}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := post(t, ts.URL+tc.endpoint, tc.body)
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

	// Wrong method on a POST endpoint.
	resp, _ := get(t, ts.URL+"/v1/compile")
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compile status %d, want 405", resp.StatusCode)
	}
}

func TestBodyTooLarge(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 512
	s := mustNew(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, _ := post(t, ts.URL+"/v1/compile",
		fmt.Sprintf(`{"workload":"bv-4","qasm":%q}`, strings.Repeat("x", 2048)))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	post(t, ts.URL+"/v1/compile", `{"workload":"bv-4","policy":"baseline","trials":2000}`)
	post(t, ts.URL+"/v1/compile", `{"workload":"bv-4","policy":"baseline","trials":2000}`)
	post(t, ts.URL+"/v1/compile", `{"workload":`)
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		`nisqd_requests_total{endpoint="/v1/compile"} 3`,
		`nisqd_responses_total{code="200"} 2`,
		`nisqd_responses_total{code="400"} 1`,
		`nisqd_cache_hits_total 1`,
		`nisqd_cache_misses_total 1`,
		`nisqd_in_flight 0`,
		`nisqd_load_shed_total 0`,
		`nisqd_request_duration_seconds_count 3`,
		// One cache miss ran 2000 trials on the default (packed) kernel;
		// the cache hit added none.
		`nisqd_mc_trials_total{kernel="packed"} 2000`,
		`nisqd_mc_seconds_total{kernel="packed"} `,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q:\n%s", want, text)
		}
	}
}

func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t)
	resp, _ := get(t, ts.URL+"/debug/pprof/cmdline")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof status %d", resp.StatusCode)
	}
}

// mustNew is New for tests whose Config cannot fail (no jobs
// directory).
func mustNew(cfg Config) *Server {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}
