package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vaq/internal/serve"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// everything it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	return string(out)
}

// TestDaemonMatchesCLI is the service's core contract: for the same
// (workload, policy, seed, trials, device), the report embedded in a
// nisqd /v1/compile response is bit-identical to what the nisqc CLI
// prints. Both sides share serve.Run, and this test pins that neither
// drifts.
func TestDaemonMatchesCLI(t *testing.T) {
	const seed = 2019
	cases := []struct {
		workload, policy, dev string
		trials                int
	}{
		{"bv-8", "vqm", "q20", 20000},
		{"qft-4", "baseline", "q16", 5000},
		{"ghz-3", "vqa+vqm", "q5", 4000},
		{"alu", "native", "q20", 3000},
	}

	ts := daemon(t, serve.Config{Seed: seed, MaxTrials: 1000000})

	for _, tc := range cases {
		t.Run(tc.workload+"/"+tc.policy+"/"+tc.dev, func(t *testing.T) {
			cliOut := captureStdout(t, func() error {
				return run(parse(t, "-workload", tc.workload, "-policy", tc.policy, "-device", tc.dev,
					"-seed", fmt.Sprint(seed), "-trials", fmt.Sprint(tc.trials)))
			})

			body := fmt.Sprintf(`{"workload":%q,"policy":%q,"device":%q,"seed":%d,"trials":%d,"monte_carlo":true}`,
				tc.workload, tc.policy, tc.dev, seed, tc.trials)
			resp, err := http.Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			data, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("daemon: status %d: %s", resp.StatusCode, data)
			}
			var res struct {
				Report string `json:"report"`
			}
			if err := json.Unmarshal(data, &res); err != nil {
				t.Fatalf("daemon response: %v", err)
			}
			if res.Report != cliOut {
				t.Errorf("daemon report differs from CLI output\n--- daemon ---\n%s--- cli ---\n%s", res.Report, cliOut)
			}
		})
	}
}

// daemon serves a fresh nisqd handler until the test ends.
func daemon(t *testing.T, cfg serve.Config) *httptest.Server {
	t.Helper()
	srv, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return ts
}

// post sends a JSON body to the daemon and decodes a 200 response into v.
func post(t *testing.T, url, body string, v any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", url, err)
	}
}

// TestDaemonMatchesCLISweep pins the shared sweep pipeline: nisqc
// -ansatz -sweep and POST /v1/sweep over the same points report the same
// analytic PST and the same physical fingerprint for every point.
func TestDaemonMatchesCLISweep(t *testing.T) {
	points := `[[0.1,0.2],[0.3,0.4],[1.5,-0.7]]`
	path := filepath.Join(t.TempDir(), "pts.json")
	if err := os.WriteFile(path, []byte(points), 0o644); err != nil {
		t.Fatal(err)
	}
	cliOut := captureStdout(t, func() error { return run(parse(t, "-ansatz", "qaoa-6", "-sweep", path)) })

	ts := daemon(t, serve.Config{})
	var res serve.SweepResult
	post(t, ts.URL+"/v1/sweep", `{"ansatz":"qaoa-6","points":`+points+`}`, &res)

	if want := fmt.Sprintf("analytic PST %.4f ", res.AnalyticPST); !strings.Contains(cliOut, "\n"+want) {
		t.Errorf("CLI output lacks the daemon's %q:\n%s", want, cliOut)
	}
	var fps []string
	for _, line := range strings.Split(cliOut, "\n") {
		if f := strings.Fields(line); len(f) > 2 && len(f[len(f)-1]) == 16 && f[0] != "point" {
			fps = append(fps, f[len(f)-1])
		}
	}
	if len(fps) != len(res.Points) {
		t.Fatalf("CLI printed %d fingerprints, daemon returned %d points:\n%s", len(fps), len(res.Points), cliOut)
	}
	for i, p := range res.Points {
		if fps[i] != p.Fingerprint {
			t.Errorf("point %d: CLI fingerprint %s, daemon %s", i, fps[i], p.Fingerprint)
		}
	}
}

// TestCatalogMatchesDaemon pins the one device catalog: for built-ins
// and a zoo name, the device nisqc loads has the fingerprint nisqd's
// /v1/devices reports for the same name.
func TestCatalogMatchesDaemon(t *testing.T) {
	names := []string{"q20", "q16", "q5", "heavy-hex-20-mid"}
	ts := daemon(t, serve.Config{})
	// Zoo devices register on first use.
	var est map[string]any
	post(t, ts.URL+"/v1/estimate", `{"workload":"bv-4","device":"heavy-hex-20-mid"}`, &est)

	resp, err := http.Get(ts.URL + "/v1/devices")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var listing struct {
		Devices []struct {
			Name        string `json:"name"`
			Fingerprint string `json:"fingerprint"`
		} `json:"devices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	daemon := map[string]string{}
	for _, d := range listing.Devices {
		daemon[d.Name] = d.Fingerprint
	}
	for _, name := range names {
		d, _, err := loadDevice(name, "", serve.DefaultSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := fmt.Sprintf("%016x", d.Fingerprint()); got != daemon[name] {
			t.Errorf("%s: nisqc fingerprint %s, /v1/devices %q", name, got, daemon[name])
		}
	}
}
