package serve

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vaq/internal/calib"
)

// TestConcurrentMixedClients hammers one server with ~100 concurrent
// clients across every endpoint under the race detector. Every response
// must be either a success or a deliberate load-shed 429 — never a
// hang, panic, or malformed body — and the cached compile responses
// must stay bit-identical across clients.
func TestConcurrentMixedClients(t *testing.T) {
	cfg := testConfig()
	cfg.MaxInFlight = 32 // small enough that shedding actually happens
	s := mustNew(cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var archive bytes.Buffer
	if err := calib.Generate(calib.DefaultQ5Config(11)).WriteJSON(&archive); err != nil {
		t.Fatal(err)
	}
	archiveJSON := archive.String()

	compileReq := `{"workload":"bv-6","policy":"vqm","trials":2000}`
	var (
		wg        sync.WaitGroup
		shed      atomic.Int64
		served    atomic.Int64
		mu        sync.Mutex
		compileRe []byte
	)
	do := func(method, path, body string) {
		defer wg.Done()
		var resp *http.Response
		var err error
		if method == http.MethodGet {
			resp, err = http.Get(ts.URL + path)
		} else {
			resp, err = http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Errorf("%s %s read: %v", method, path, err)
			return
		}
		switch resp.StatusCode {
		case http.StatusOK:
			served.Add(1)
			if path == "/v1/compile" {
				mu.Lock()
				if compileRe == nil {
					compileRe = data
				} else if !bytes.Equal(compileRe, data) {
					t.Error("compile responses diverged across clients")
				}
				mu.Unlock()
			}
		case http.StatusTooManyRequests:
			shed.Add(1)
			if !bytes.Contains(data, []byte("capacity")) {
				t.Errorf("429 body unexpected: %s", data)
			}
		default:
			t.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
		}
	}

	const rounds = 10
	for i := 0; i < rounds; i++ {
		wg.Add(10)
		go do(http.MethodPost, "/v1/compile", compileReq)
		go do(http.MethodPost, "/v1/compile", compileReq)
		go do(http.MethodPost, "/v1/estimate", `{"workload":"ghz-3","policy":"baseline","device":"q5","trials":1000,"monte_carlo":true}`)
		go do(http.MethodPost, "/v1/estimate", fmt.Sprintf(`{"workload":"qft-4","policy":"baseline","trials":%d}`, 1000+i))
		go do(http.MethodPost, "/v1/batch", `{"items":[{"workload":"bv-4","policy":"baseline","trials":1000},{"workload":"nope"}]}`)
		go do(http.MethodPost, "/v1/calibration?name=race-q5", archiveJSON)
		go do(http.MethodGet, "/v1/devices", "")
		go do(http.MethodGet, "/healthz", "")
		go do(http.MethodGet, "/metrics", "")
		go do(http.MethodGet, "/debug/pprof/cmdline", "")
	}
	wg.Wait()

	if served.Load() == 0 {
		t.Fatal("no request succeeded")
	}
	t.Logf("served %d, shed %d", served.Load(), shed.Load())
	if got := s.met.inFlight.Load(); got != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0", got)
	}
}
