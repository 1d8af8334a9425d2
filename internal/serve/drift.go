package serve

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"vaq/internal/caldrift"
	"vaq/internal/calib"
	"vaq/internal/circuit"
	"vaq/internal/clock"
	"vaq/internal/jobs"
	"vaq/internal/metrics"
	"vaq/internal/portfolio"
)

// driftState is the server's calibration drift plane: the durable
// per-device cycle store, the latest drift report per device, the
// per-device hot-circuit set the canary recompiler draws targets from,
// and the SSE broker drift feeds hang off. All decision paths run on
// the injected clock; reports carry no wall-clock state.
type driftState struct {
	store     *caldrift.Store
	threshold float64
	canary    portfolio.Spec
	cool      time.Duration
	// adoptDelta is driftAdoptDelta; tests override it to switch
	// adoption off (+Inf) or adopt any gain.
	adoptDelta float64
	clk        clock.Clock
	events     *jobs.Broker

	mu      sync.Mutex
	hot     map[string][]hotCircuit
	reports map[string]*caldrift.Report
	// lastCanary gates canary runs per device under the cooldown (on
	// the injected clock, so tests drive it with a fake).
	lastCanary map[string]time.Time

	reg                                                 metrics.Registry
	cycles, triggers, canaryRuns, suppressed, adoptions *metrics.Counter
}

// hotCircuit is one LRU entry of a device's hot set: the logical
// program plus the stale physical mapping the response cache serves.
type hotCircuit struct {
	key   string
	prog  *circuit.Circuit
	stale *circuit.Circuit
}

// Drift plane constants. driftWindow is how many recent cycles the
// detector folds per append, and the canary's calibration window.
// driftHotCircuits bounds a device's hot set, the only bound on a
// canary run's fan-out. driftAdoptDelta is the canary-predicted
// analytic-PST gain past which the server adopts the recompile.
const (
	driftWindow      = 8
	driftHotCircuits = 8
	driftAdoptDelta  = 0.01
)

// Drift event types published on the device feeds.
const (
	DriftEventCycle     = "cycle"
	DriftEventTriggered = "drift"
	DriftEventAdopted   = "adopt"
)

func newDriftState(cfg Config) (*driftState, error) {
	store, err := caldrift.Open(cfg.DriftDir)
	if err != nil {
		return nil, err
	}
	ds := &driftState{
		store:      store,
		threshold:  cfg.DriftThreshold,
		canary:     canarySpec(cfg),
		cool:       cfg.DriftCanaryCooldown,
		adoptDelta: driftAdoptDelta,
		clk:        clock.Or(cfg.Clock),
		events:     jobs.NewBroker(),
		hot:        make(map[string][]hotCircuit),
		reports:    make(map[string]*caldrift.Report),
		lastCanary: make(map[string]time.Time),
	}
	r := &ds.reg
	ds.cycles = r.Counter("nisqd_drift_cycles_total", "Calibration cycles appended to the drift store.")
	ds.triggers = r.Counter("nisqd_drift_triggers_total", "Drift detections past threshold.")
	ds.canaryRuns = r.Counter("nisqd_drift_canary_runs_total", "Canary recompilations executed.")
	ds.suppressed = r.Counter("nisqd_drift_canary_suppressed_total", "Canary runs skipped by the cooldown.")
	ds.adoptions = r.Counter("nisqd_drift_adoptions_total", "Stale cached mappings invalidated on canary wins.")
	r.Func("counter", "nisqd_drift_store_corrupt_total", "Cycle envelopes quarantined at startup.",
		func() float64 { return float64(store.Corrupt()) })
	r.FloatGaugeFunc("nisqd_drift_score", "Latest drift score per device.", func(emit func(float64, ...string)) {
		ds.mu.Lock()
		defer ds.mu.Unlock()
		for dev, rep := range ds.reports {
			emit(rep.Score, dev)
		}
	}, "device")
	return ds, nil
}

// canarySpec keeps the speculative recompile cheap: the full policy
// grid on the drifted calibration window, but a single Monte-Carlo
// refinement slot with a small budget — the canary predicts analytic
// PST deltas, it does not serve candidates.
func canarySpec(cfg Config) portfolio.Spec {
	return portfolio.Spec{
		RootSeed:     DefaultSeed,
		Cycles:       driftWindow,
		RandomStarts: -1,
		TopK:         1,
		Trials:       2000,
		Workers:      cfg.Workers,
	}
}

// noteHot records a served compile in the device's hot set, the
// per-device LRU the canary drains (most recent last). A key already
// present just moves to the back; a new one joins with its mapping —
// stale, the freshest mapping the cache serves for key and the canary's
// recompile-from-scratch baseline. A cache hit passes no mapping, so it
// only refreshes.
func (ds *driftState) noteHot(device, key string, prog, stale *circuit.Circuit) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	set := ds.hot[device]
	for i, h := range set {
		if h.key == key {
			ds.hot[device] = append(append(set[:i:i], set[i+1:]...), h)
			return
		}
	}
	if stale == nil || prog == nil {
		return
	}
	set = append(set, hotCircuit{key: key, prog: prog, stale: stale})
	if len(set) > driftHotCircuits {
		set = set[len(set)-driftHotCircuits:]
	}
	ds.hot[device] = set
}

// dropHot removes a hot circuit whose mapping was adopted away — the
// next cache miss for the key re-registers the fresh mapping as the
// new canary baseline.
func (ds *driftState) dropHot(device, key string) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	set := ds.hot[device]
	for i, h := range set {
		if h.key == key {
			ds.hot[device] = append(set[:i:i], set[i+1:]...)
			return
		}
	}
}

// targets snapshots a device's hot set as canary targets, hottest
// first.
func (ds *driftState) targets(device string) []caldrift.CanaryTarget {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	set := ds.hot[device]
	out := make([]caldrift.CanaryTarget, 0, len(set))
	for i := len(set) - 1; i >= 0; i-- {
		h := set[i]
		out = append(out, caldrift.CanaryTarget{Name: h.key, Prog: h.prog, Stale: h.stale})
	}
	return out
}

// report returns the latest drift report for a device.
func (ds *driftState) report(device string) (*caldrift.Report, bool) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	rep, ok := ds.reports[device]
	return rep, ok
}

// canaryDue consults and arms the per-device cooldown on the injected
// clock.
func (ds *driftState) canaryDue(device string) bool {
	if ds.cool <= 0 {
		return true
	}
	now := ds.clk.Now()
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if last, ok := ds.lastCanary[device]; ok && now.Sub(last) < ds.cool {
		return false
	}
	ds.lastCanary[device] = now
	return true
}

// handleCalibrationAppend is the drift plane's ingest path, reached
// through POST /v1/calibration?append=true: every snapshot in the body
// becomes one durable cycle in the named device's series
// (persist-before-ack), then the drift detector — and past threshold,
// the canary recompiler — runs over the updated window.
func (s *Server) handleCalibrationAppend(w http.ResponseWriter, r *http.Request, name string, arch *calib.Archive) {
	if name == "" {
		writeError(w, http.StatusBadRequest, "append requires an explicit device name")
		return
	}
	if len(arch.Snapshots) == 0 {
		writeError(w, http.StatusBadRequest, "append requires at least one calibration cycle")
		return
	}
	// Appends target a registered device: the drift score is relative
	// to that device's fingerprinted baseline series, so an unknown
	// name is a 404, not an implicit registration.
	d, _, err := s.lookupDeviceArchive(name)
	if err != nil {
		writeError(w, errorStatus(err), err.Error())
		return
	}
	// The cycles must describe the registered device's topology — the
	// store's own first-append-fixes-topology rule would otherwise let
	// a wrong-device feed seed the series.
	dt := d.Topology()
	if arch.Topo.NumQubits != dt.NumQubits || len(arch.Topo.Couplings) != len(dt.Couplings) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf(
			"cycle topology (%d qubits, %d couplings) does not match device %q (%d qubits, %d couplings)",
			arch.Topo.NumQubits, len(arch.Topo.Couplings), name, dt.NumQubits, len(dt.Couplings)))
		return
	}
	for _, c := range arch.Topo.Couplings {
		if !dt.Adjacent(c.A, c.B) {
			writeError(w, http.StatusBadRequest, fmt.Sprintf(
				"cycle topology has link %d-%d, which device %q lacks", c.A, c.B, name))
			return
		}
	}
	var appended []int
	for _, snap := range arch.Snapshots {
		cyc, err := s.drift.store.Append(name, snap)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		appended = append(appended, cyc)
		s.drift.cycles.Add(1)
		s.drift.events.Publish(name, jobs.Event{
			Type:    DriftEventCycle,
			Attempt: cyc,
			Message: fmt.Sprintf("cycle %d appended", cyc),
		})
	}

	rep := s.runDrift(r.Context(), name)
	resp := struct {
		Device   string           `json:"device"`
		Appended []int            `json:"appended"`
		Cycles   int              `json:"cycles"`
		Drift    *caldrift.Report `json:"drift,omitempty"`
	}{Device: name, Appended: appended, Cycles: s.drift.store.Len(name), Drift: rep}
	writeJSON(w, http.StatusOK, resp)
}

// runDrift detects drift over the device's current window and, when
// triggered and due, runs the canary recompiler over the hot set. The
// resulting report is retained for GET /v1/drift/{device} and
// published on the device's event feed.
func (s *Server) runDrift(ctx context.Context, name string) *caldrift.Report {
	window := s.drift.store.Window(name, driftWindow)
	if len(window) < 2 {
		return nil
	}
	rep, err := caldrift.Detect(name, window, s.drift.threshold)
	if err != nil {
		return nil
	}
	if rep.Triggered {
		s.drift.triggers.Add(1)
		if s.drift.canaryDue(name) {
			if targets := s.drift.targets(name); len(targets) > 0 {
				canary, err := caldrift.Canary(ctx, window, targets, s.drift.canary)
				if err == nil {
					rep.Canary = canary
					s.drift.canaryRuns.Add(1)
					s.adoptCanary(name, canary)
				}
			}
		} else {
			s.drift.suppressed.Add(1)
		}
	}
	s.drift.mu.Lock()
	s.drift.reports[name] = rep
	s.drift.mu.Unlock()
	if rep.Triggered {
		msg := fmt.Sprintf("drift score %.4f over threshold %.4f", rep.Score, rep.Threshold)
		if rep.Canary != nil {
			msg += fmt.Sprintf("; canary: %d circuits, mean predicted delta %+.4f", rep.Canary.Targets, rep.Canary.MeanDelta)
		}
		s.drift.events.Publish(name, jobs.Event{Type: DriftEventTriggered, Message: msg})
	}
	return rep
}

// adoptCanary acts on a canary report: every target whose predicted
// recompile gain meets the adoption delta has its cached response
// invalidated (and its hot-set entry dropped), so the next request for
// that circuit recompiles against current state instead of being
// served the stale mapping forever.
func (s *Server) adoptCanary(device string, rep *caldrift.CanaryReport) {
	adopted := 0
	for _, d := range rep.Deltas {
		if d.Err != "" || d.Delta < s.drift.adoptDelta {
			continue
		}
		s.cache.delete(d.Name)
		s.drift.dropHot(device, d.Name)
		adopted++
	}
	if adopted > 0 {
		s.drift.adoptions.Add(float64(adopted))
		s.drift.events.Publish(device, jobs.Event{
			Type:    DriftEventAdopted,
			Message: fmt.Sprintf("adopted %d canary remapping(s): stale cached responses invalidated", adopted),
		})
	}
}

// handleCalibrationWindow serves GET /v1/calibration/{device}?window=K:
// the last K stored cycles in the self-describing calib wire format.
func (s *Server) handleCalibrationWindow(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("device")
	k, err := caldrift.ParseWindow(r.URL.Query().Get("window"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	arch, ok := s.drift.store.Archive(name, k)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("no calibration cycles stored for device %q", name))
		return
	}
	var buf bytes.Buffer
	if err := arch.WriteJSON(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes())
}

// handleDriftReport serves GET /v1/drift/{device}: the latest drift
// report, canary deltas included when one ran.
func (s *Server) handleDriftReport(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("device")
	rep, ok := s.drift.report(name)
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Sprintf("no drift report for device %q (append >= 2 calibration cycles first)", name))
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleDriftEvents streams a device's drift feed as Server-Sent
// Events over the same broker plumbing as the job feeds. Drift feeds
// never terminate server-side (calibration keeps arriving); the stream
// ends when the client goes away or the server drains.
func (s *Server) handleDriftEvents(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Add(1, "/v1/drift/{device}/events")
	name := r.PathValue("device")
	if !caldrift.ValidDeviceName(name) {
		writeError(w, http.StatusBadRequest, badName("device name"))
		return
	}
	history, ch, cancel := s.drift.events.Subscribe(name)
	defer cancel()
	serveEvents(w, r, history, ch)
}
