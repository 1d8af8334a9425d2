package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"vaq/internal/caldrift"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/clock"
)

// q5ArchiveJSON renders a Q5 archive with days cycles from one seed.
func q5ArchiveJSON(t *testing.T, seed int64, days int, mutate func(*calib.Archive)) string {
	t.Helper()
	cfg := calib.DefaultQ5Config(seed)
	cfg.Days, cfg.CyclesPerDay = days, 1
	arch := calib.Generate(cfg)
	if mutate != nil {
		mutate(arch)
	}
	var buf bytes.Buffer
	if err := arch.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// degradeLater multiplies every two-qubit error after the first cycle,
// guaranteeing the detector fires on the appended series.
func degradeLater(factor float64) func(*calib.Archive) {
	return func(arch *calib.Archive) {
		for _, s := range arch.Snapshots[1:] {
			for _, c := range arch.Topo.Couplings {
				s.TwoQubit[c] = min(0.4, s.TwoQubit[c]*factor)
			}
		}
	}
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

// registerQ5 uploads a fresh Q5 calibration under name.
func registerQ5(t *testing.T, url, name string) {
	t.Helper()
	resp, body := post(t, url+"/v1/calibration?name="+name, q5ArchiveJSON(t, 7, 1, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register %s: status %d: %s", name, resp.StatusCode, body)
	}
}

// warmHot caches one compile on the device so the canary has a target.
func warmHot(t *testing.T, url, device string) {
	t.Helper()
	resp, body := post(t, url+"/v1/compile",
		fmt.Sprintf(`{"workload":"triswap","policy":"vqm","device":%q,"trials":2000}`, device))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm compile: status %d: %s", resp.StatusCode, body)
	}
}

// appendResponse mirrors handleCalibrationAppend's envelope.
type appendResponse struct {
	Device   string           `json:"device"`
	Appended []int            `json:"appended"`
	Cycles   int              `json:"cycles"`
	Drift    *caldrift.Report `json:"drift"`
}

func TestDriftAppendReportAndCanary(t *testing.T) {
	_, ts := newTestServer(t)
	registerQ5(t, ts.URL, "lab-q5")
	warmHot(t, ts.URL, "lab-q5")

	resp, body := post(t, ts.URL+"/v1/calibration?name=lab-q5&append=true",
		q5ArchiveJSON(t, 7, 5, degradeLater(4)))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("append: status %d: %s", resp.StatusCode, body)
	}
	var ar appendResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatal(err)
	}
	if ar.Cycles != 5 || len(ar.Appended) != 5 || ar.Appended[0] != 0 {
		t.Fatalf("append bookkeeping: %+v", ar)
	}
	if ar.Drift == nil || !ar.Drift.Triggered {
		t.Fatalf("4x degradation did not trigger: %+v", ar.Drift)
	}
	if ar.Drift.Canary == nil || len(ar.Drift.Canary.Deltas) == 0 {
		t.Fatalf("triggered drift ran no canary: %+v", ar.Drift)
	}
	if d := ar.Drift.Canary.Deltas[0]; d.Err != "" || d.Delta <= 0 {
		t.Fatalf("canary predicted no recompile gain on poisoned device: %+v", d)
	}

	// The report endpoint serves the same verdict.
	resp, body = get(t, ts.URL+"/v1/drift/lab-q5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drift report: status %d: %s", resp.StatusCode, body)
	}
	var rep caldrift.Report
	if err := json.Unmarshal(body, &rep); err != nil {
		t.Fatal(err)
	}
	if !rep.Triggered || rep.Canary == nil {
		t.Fatalf("served report lost the canary: %+v", rep)
	}

	// Window query returns the tail of the series in wire format.
	resp, body = get(t, ts.URL+"/v1/calibration/lab-q5?window=2")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("window query: status %d: %s", resp.StatusCode, body)
	}
	win, err := calib.ReadJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("window body is not a calib archive: %v", err)
	}
	if len(win.Snapshots) != 2 || win.Snapshots[0].Cycle != 3 {
		t.Fatalf("window = cycles %d..%d (%d snaps)", win.Snapshots[0].Cycle,
			win.Snapshots[len(win.Snapshots)-1].Cycle, len(win.Snapshots))
	}

	// Metrics expose the plane.
	resp, body = get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatal("metrics not served")
	}
	for _, want := range []string{
		"nisqd_drift_cycles_total 5",
		"nisqd_drift_triggers_total 1",
		"nisqd_drift_canary_runs_total 1",
		`nisqd_drift_score{device="lab-q5"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

func TestDriftEndpointErrors(t *testing.T) {
	_, ts := newTestServer(t)
	registerQ5(t, ts.URL, "lab-q5")
	q5 := q5ArchiveJSON(t, 7, 2, nil)
	q20 := func() string {
		var buf bytes.Buffer
		cfg := calib.DefaultQ20Config(7)
		cfg.Days, cfg.CyclesPerDay = 1, 1
		if err := calib.Generate(cfg).WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}()

	cases := []struct {
		name, method, path, body string
		status                   int
	}{
		{"append without name", "POST", "/v1/calibration?append=true", q5, http.StatusBadRequest},
		{"append bad flag", "POST", "/v1/calibration?name=lab-q5&append=maybe", q5, http.StatusBadRequest},
		{"append unknown device", "POST", "/v1/calibration?name=never-seen&append=true", q5, http.StatusNotFound},
		{"append topology mismatch", "POST", "/v1/calibration?name=lab-q5&append=true", q20, http.StatusBadRequest},
		{"append bad archive", "POST", "/v1/calibration?name=lab-q5&append=true", `{"topology":`, http.StatusBadRequest},
		{"window zero", "GET", "/v1/calibration/lab-q5?window=0", "", http.StatusBadRequest},
		{"window non-numeric", "GET", "/v1/calibration/lab-q5?window=two", "", http.StatusBadRequest},
		{"window unknown device", "GET", "/v1/calibration/never-seen", "", http.StatusNotFound},
		{"window registered but empty", "GET", "/v1/calibration/lab-q5", "", http.StatusNotFound},
		{"drift report before cycles", "GET", "/v1/drift/lab-q5", "", http.StatusNotFound},
		{"drift unknown device", "GET", "/v1/drift/never-seen", "", http.StatusNotFound},
		{"drift events bad name", "GET", "/v1/drift/bad%2Fname/events", "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var resp *http.Response
			var body []byte
			if tc.method == "POST" {
				resp, body = post(t, ts.URL+tc.path, tc.body)
			} else {
				resp, body = get(t, ts.URL+tc.path)
			}
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

func TestDriftAppendBodyTooLarge(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 256
	_, ts := newTestServerConfig(t, cfg)
	resp, _ := post(t, ts.URL+"/v1/calibration?name=lab-q5&append=true",
		q5ArchiveJSON(t, 7, 3, nil))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
}

// TestDriftEventsSSE drives the drift feed over real HTTP: history
// replay on reconnect, live delivery, and a clean server-side
// continuation when a client closes mid-stream (drift feeds have no
// terminal event).
func TestDriftEventsSSE(t *testing.T) {
	_, ts := newTestServer(t)
	registerQ5(t, ts.URL, "lab-q5")

	// A subscriber connected before any cycles exist sees the events
	// live; close it mid-stream after the first batch arrives.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, "GET", ts.URL+"/v1/drift/lab-q5/events", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	live := bufio.NewScanner(resp.Body)
	lines := make(chan string, 64)
	go func() {
		for live.Scan() {
			lines <- live.Text()
		}
		close(lines)
	}()

	post(t, ts.URL+"/v1/calibration?name=lab-q5&append=true", q5ArchiveJSON(t, 7, 3, degradeLater(4)))

	sawCycle := false
	deadline := time.After(10 * time.Second)
	for !sawCycle {
		select {
		case line, ok := <-lines:
			if !ok {
				t.Fatal("live stream closed before any event")
			}
			if strings.HasPrefix(line, "event: "+DriftEventCycle) {
				sawCycle = true
			}
		case <-deadline:
			t.Fatal("no cycle event within 10s")
		}
	}
	cancel() // close mid-stream; the server must keep the feed usable
	resp.Body.Close()

	// A reconnecting subscriber replays the full history — including
	// events published while nobody was connected — with stable seqs.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	req2, _ := http.NewRequestWithContext(ctx2, "GET", ts.URL+"/v1/drift/lab-q5/events", nil)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	sc := bufio.NewScanner(resp2.Body)
	var events, cycles, drifts, lastSeq int
	lastSeq = -1
	for sc.Scan() {
		line := sc.Text()
		if data, ok := strings.CutPrefix(line, "data: "); ok {
			var ev struct {
				Seq     int    `json:"seq"`
				Type    string `json:"type"`
				Message string `json:"message"`
			}
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				t.Fatalf("bad event payload %q: %v", data, err)
			}
			if ev.Seq <= lastSeq {
				t.Fatalf("seq %d after %d", ev.Seq, lastSeq)
			}
			lastSeq = ev.Seq
			events++
			switch ev.Type {
			case DriftEventCycle:
				cycles++
			case DriftEventTriggered:
				drifts++
			}
			if events == 4 { // 3 cycles + 1 drift: full history replayed
				break
			}
		}
	}
	if cycles != 3 || drifts != 1 {
		t.Fatalf("replayed %d cycle + %d drift events, want 3 + 1", cycles, drifts)
	}
}

// TestDriftCanaryCooldown pins the injected-clock contract: canary
// spacing is decided on Config.Clock, so a fake clock drives the
// cooldown without real waiting.
func TestDriftCanaryCooldown(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	cfg := testConfig()
	cfg.DriftCanaryCooldown = time.Hour
	cfg.Clock = fake
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Adoption off: a canary win would otherwise drain the hot set and
	// this test isolates the cooldown, not the adoption loop.
	s.drift.adoptDelta = math.Inf(1)
	ts := startTestServer(t, s)
	registerQ5(t, ts.URL, "lab-q5")
	warmHot(t, ts.URL, "lab-q5")

	appendOnce := func(seed int64) *caldrift.Report {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/calibration?name=lab-q5&append=true",
			q5ArchiveJSON(t, seed, 3, degradeLater(4)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: status %d: %s", resp.StatusCode, body)
		}
		var ar appendResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		return ar.Drift
	}

	if rep := appendOnce(7); rep == nil || !rep.Triggered || rep.Canary == nil {
		t.Fatalf("first trigger did not canary: %+v", rep)
	}
	// Within the cooldown: triggered again, canary suppressed.
	if rep := appendOnce(8); rep == nil || !rep.Triggered || rep.Canary != nil {
		t.Fatalf("second trigger inside cooldown: %+v", rep)
	}
	fake.Advance(2 * time.Hour)
	if rep := appendOnce(9); rep == nil || !rep.Triggered || rep.Canary == nil {
		t.Fatalf("post-cooldown trigger did not canary: %+v", rep)
	}

	_, body := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "nisqd_drift_canary_suppressed_total 1") {
		t.Error("suppressed canary not counted")
	}
}

// TestDriftAutoAdopt pins the adoption loop on a fake clock: a canary
// win past the adoption delta invalidates the stale cached response
// (the next identical request is a cache miss that recompiles), while
// a canary inside the cooldown adopts nothing.
func TestDriftAutoAdopt(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	cfg := testConfig()
	cfg.DriftCanaryCooldown = time.Hour
	cfg.Clock = fake
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.drift.adoptDelta = 1e-12 // adopt on any predicted gain
	ts := startTestServer(t, s)
	registerQ5(t, ts.URL, "lab-q5")

	compileReq := `{"workload":"triswap","policy":"vqm","device":"lab-q5","trials":2000}`
	cacheState := func() string {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/compile", compileReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("compile: status %d: %s", resp.StatusCode, body)
		}
		return resp.Header.Get("X-Nisqd-Cache")
	}
	if got := cacheState(); got != "miss" {
		t.Fatalf("cold compile: cache %q", got)
	}
	if got := cacheState(); got != "hit" {
		t.Fatalf("warm compile: cache %q", got)
	}

	appendOnce := func(seed int64) *caldrift.Report {
		t.Helper()
		resp, body := post(t, ts.URL+"/v1/calibration?name=lab-q5&append=true",
			q5ArchiveJSON(t, seed, 3, degradeLater(4)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("append: status %d: %s", resp.StatusCode, body)
		}
		var ar appendResponse
		if err := json.Unmarshal(body, &ar); err != nil {
			t.Fatal(err)
		}
		return ar.Drift
	}

	rep := appendOnce(7)
	if rep == nil || rep.Canary == nil || len(rep.Canary.Deltas) == 0 {
		t.Fatalf("no canary ran: %+v", rep)
	}
	if d := rep.Canary.Deltas[0]; d.Err != "" || d.Delta <= 0 {
		t.Fatalf("canary predicted no gain, nothing to adopt: %+v", d)
	}
	// The win was adopted: the cached response is gone, so the same
	// request recompiles.
	if got := cacheState(); got != "miss" {
		t.Fatalf("post-adoption compile: cache %q, want miss (stale entry should be invalidated)", got)
	}
	if got := cacheState(); got != "hit" {
		t.Fatalf("re-warmed compile: cache %q", got)
	}

	// Inside the cooldown no canary runs, so nothing more is adopted and
	// the fresh entry survives.
	if rep := appendOnce(8); rep == nil || rep.Canary != nil {
		t.Fatalf("canary ran inside cooldown: %+v", rep)
	}
	if got := cacheState(); got != "hit" {
		t.Fatalf("compile after suppressed canary: cache %q, want hit", got)
	}

	// Past the cooldown the canary runs and adopts again.
	fake.Advance(2 * time.Hour)
	if rep := appendOnce(9); rep == nil || rep.Canary == nil {
		t.Fatalf("post-cooldown canary missing: %+v", rep)
	}
	if got := cacheState(); got != "miss" {
		t.Fatalf("post-cooldown adoption: cache %q, want miss", got)
	}

	_, body := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(body), "nisqd_drift_adoptions_total 2") {
		t.Errorf("adoptions not counted:\n%s", grepLines(string(body), "nisqd_drift"))
	}
}

// grepLines filters lines containing substr, for test failure output.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestDriftStorePersistence: cycles appended through the API survive a
// server restart on the same drift directory.
func TestDriftStorePersistence(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.DriftDir = dir
	_, ts := newTestServerConfig(t, cfg)
	registerQ5(t, ts.URL, "lab-q5")
	resp, _ := post(t, ts.URL+"/v1/calibration?name=lab-q5&append=true", q5ArchiveJSON(t, 7, 3, nil))
	if resp.StatusCode != http.StatusOK {
		t.Fatal("append failed")
	}

	cfg2 := testConfig()
	cfg2.DriftDir = dir
	_, ts2 := newTestServerConfig(t, cfg2)
	registerQ5(t, ts2.URL, "lab-q5")
	resp, body := get(t, ts2.URL+"/v1/calibration/lab-q5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("restarted server lost the series: %d %s", resp.StatusCode, body)
	}
	arch, err := calib.ReadJSON(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if len(arch.Snapshots) != 3 {
		t.Fatalf("recovered %d cycles, want 3", len(arch.Snapshots))
	}
}

// TestDriftHotSetBound pins the hot set, the only bound on a canary
// run's fan-out: it keeps the driftHotCircuits most recent keys, hands
// them out hottest first, and a hit moves a key to the back without
// adding or replacing its mapping.
func TestDriftHotSetBound(t *testing.T) {
	ds, err := newDriftState(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	const dev = "lab-q5"
	stale := make(map[string]*circuit.Circuit)
	for i := 0; i <= driftHotCircuits; i++ {
		key := fmt.Sprintf("k%d", i)
		stale[key] = circuit.New(key, 1)
		ds.noteHot(dev, key, circuit.New(key, 1), stale[key])
	}
	names := func() []string {
		var out []string
		for _, tg := range ds.targets(dev) {
			if tg.Stale != stale[tg.Name] {
				t.Fatalf("target %s carries a replaced mapping", tg.Name)
			}
			out = append(out, tg.Name)
		}
		return out
	}
	want := []string{"k8", "k7", "k6", "k5", "k4", "k3", "k2", "k1"}
	if got := names(); !slices.Equal(got, want) {
		t.Fatalf("hot set %v, want %v", got, want)
	}

	// A hit on a held key refreshes it; a hit on an unknown key (no
	// mapping) adds nothing.
	ds.noteHot(dev, "k3", nil, nil)
	ds.noteHot(dev, "k0", nil, nil)
	want = []string{"k3", "k8", "k7", "k6", "k5", "k4", "k2", "k1"}
	if got := names(); !slices.Equal(got, want) {
		t.Fatalf("after hits: hot set %v, want %v", got, want)
	}
}
