package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
)

// sweepBody builds an n-point sweep request over a named ansatz with
// params values per point.
func sweepBody(ansatzName string, params, n int) string {
	var pts []string
	for i := 0; i < n; i++ {
		vals := make([]string, params)
		for j := range vals {
			vals[j] = fmt.Sprintf("%g", 0.1*float64(i*params+j+1))
		}
		pts = append(pts, "["+strings.Join(vals, ",")+"]")
	}
	return fmt.Sprintf(`{"ansatz":%q,"policy":"vqm","points":[%s]}`, ansatzName, strings.Join(pts, ","))
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	// qaoa-4 with the default single layer has 2 free symbols (g0, b0).
	resp, data := post(t, ts.URL+"/v1/sweep", sweepBody("qaoa-4", 2, 5))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if h := resp.Header.Get("X-Nisqd-Cache"); h != "miss" {
		t.Errorf("first request cache header = %q", h)
	}
	var res SweepResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.NumParams != 2 || len(res.Symbols) != 2 {
		t.Fatalf("num_params %d, symbols %v", res.NumParams, res.Symbols)
	}
	if len(res.Points) != 5 {
		t.Fatalf("%d points, want 5", len(res.Points))
	}
	if res.CompilesSaved != 4 {
		t.Fatalf("compiles_saved = %d, want 4", res.CompilesSaved)
	}
	if res.AnalyticPST <= 0 || res.AnalyticPST > 1 {
		t.Fatalf("analytic_pst = %v", res.AnalyticPST)
	}
	// Distinct bindings yield distinct physical circuits.
	seen := map[string]bool{}
	for i, pt := range res.Points {
		if pt.Index != i {
			t.Fatalf("point %d has index %d", i, pt.Index)
		}
		if len(pt.Fingerprint) != 16 {
			t.Fatalf("point %d fingerprint %q", i, pt.Fingerprint)
		}
		if seen[pt.Fingerprint] {
			t.Fatalf("duplicate fingerprint %s", pt.Fingerprint)
		}
		seen[pt.Fingerprint] = true
	}

	// The repeat is a cache hit with bit-identical bytes.
	resp2, data2 := post(t, ts.URL+"/v1/sweep", sweepBody("qaoa-4", 2, 5))
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("repeat status %d", resp2.StatusCode)
	}
	if h := resp2.Header.Get("X-Nisqd-Cache"); h != "hit" {
		t.Errorf("repeat cache header = %q", h)
	}
	if !bytes.Equal(data, data2) {
		t.Error("cached sweep body differs from the miss that populated it")
	}
}

// TestSweepWorkerInvariance pins the sweep determinism contract: the
// response bytes are identical at any worker count.
func TestSweepWorkerInvariance(t *testing.T) {
	body := sweepBody("su2-4", 24, 7) // su2-4, default 2 reps: 2*4*3 params
	var first []byte
	for _, workers := range []int{-1, 1, 4} {
		cfg := testConfig()
		cfg.Workers = workers
		_, ts := newTestServerConfig(t, cfg)
		resp, data := post(t, ts.URL+"/v1/sweep", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, resp.StatusCode, data)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("workers=%d: sweep bytes differ", workers)
		}
	}
}

// TestSweepSymbolicQASM sweeps an inline symbolic program instead of a
// named ansatz.
func TestSweepSymbolicQASM(t *testing.T) {
	_, ts := newTestServer(t)
	qasmSrc := `OPENQASM 2.0; include "qelib1.inc";
qreg q[2]; creg c[2];
ry(theta) q[0]; cx q[0],q[1]; rz(2*phi+0.5) q[1];
measure q[0] -> c[0]; measure q[1] -> c[1];`
	req := map[string]any{
		"qasm":   qasmSrc,
		"points": [][]float64{{0.1, 0.2}, {0.3, 0.4}},
	}
	body, _ := json.Marshal(req)
	resp, data := post(t, ts.URL+"/v1/sweep", string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	var res SweepResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Template != "qasm" {
		t.Errorf("template = %q", res.Template)
	}
	if want := []string{"theta", "phi"}; len(res.Symbols) != 2 ||
		string(res.Symbols[0]) != want[0] || string(res.Symbols[1]) != want[1] {
		t.Errorf("symbols = %v, want %v", res.Symbols, want)
	}
}

func TestSweepValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name, body, wantErr string
	}{
		{"both sources", `{"ansatz":"qaoa-4","qasm":"x","points":[[0]]}`, "not both"},
		{"no source", `{"points":[[0]]}`, "specify ansatz or qasm"},
		{"no points", `{"ansatz":"qaoa-4"}`, "no points"},
		{"unknown field", `{"ansatz":"qaoa-4","points":[[0,0]],"zap":1}`, "decode"},
		{"unknown policy", `{"ansatz":"qaoa-4","policy":"zap","points":[[0,0]]}`, "unknown policy"},
		{"unknown ansatz", `{"ansatz":"zap-4","points":[[0,0]]}`, "unknown ansatz"},
		{"arity mismatch", `{"ansatz":"qaoa-4","points":[[0.1]]}`, "free symbols"},
		{"numeric qasm", `{"qasm":"qreg q[1]; rz(0.5) q[0];","points":[[0.1]]}`, "free symbols"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := post(t, ts.URL+"/v1/sweep", tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d: %s", resp.StatusCode, data)
			}
			if !strings.Contains(string(data), tc.wantErr) {
				t.Errorf("error %s does not mention %q", data, tc.wantErr)
			}
		})
	}

	// Too many points trips the cap.
	big := sweepBody("qaoa-4", 2, MaxSweepPoints+1)
	resp, data := post(t, ts.URL+"/v1/sweep", big)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "max") {
		t.Fatalf("oversized sweep: status %d: %.200s", resp.StatusCode, data)
	}
}

func TestSweepMetrics(t *testing.T) {
	_, ts := newTestServer(t)
	if resp, data := post(t, ts.URL+"/v1/sweep", sweepBody("qaoa-4", 2, 3)); resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: %d: %s", resp.StatusCode, data)
	}
	_, body := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"nisqd_sweep_points_total 3",
		"nisqd_sweep_compiles_saved_total 2",
		`nisqd_requests_total{endpoint="/v1/sweep"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestSweepArityRejectedBeforeCompile pins where symbol arity is
// checked: in the sweep plan, against the template's free symbols, so a
// malformed sweep is a 400 that never reaches the response cache (and
// so never pays for a compile).
func TestSweepArityRejectedBeforeCompile(t *testing.T) {
	_, ts := newTestServer(t)
	misses := func() string {
		_, body := get(t, ts.URL+"/metrics")
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "nisqd_cache_misses_total ") {
				return line
			}
		}
		t.Fatalf("metrics lack nisqd_cache_misses_total:\n%s", body)
		return ""
	}
	before := misses()
	resp, data := post(t, ts.URL+"/v1/sweep", `{"ansatz":"qaoa-4","points":[[0.1,0.2],[0.3]]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "point 1 has 1 values") {
		t.Fatalf("wrong-arity sweep: status %d: %s", resp.StatusCode, data)
	}
	if after := misses(); after != before {
		t.Errorf("wrong-arity sweep touched the cache: %q -> %q", before, after)
	}
}
