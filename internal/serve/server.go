package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vaq/internal/caldrift"
	"vaq/internal/calib"
	"vaq/internal/clock"
	"vaq/internal/device"
	"vaq/internal/jobs"
	"vaq/internal/topo"
)

// Config tunes a Server. The zero value is usable: withDefaults fills
// every field with the production defaults listed on it.
type Config struct {
	// Seed generates the catalog's built-in synthetic calibration
	// archives at startup and the zoo fleets on first use (default
	// DefaultSeed, also nisqc's -seed default).
	Seed int64
	// MaxTrials caps the per-request Monte-Carlo budget (default
	// 1000000, the paper's full budget).
	MaxTrials int
	// Workers bounds the goroutines per Monte-Carlo estimate and per
	// batch fan-out (0: one per CPU, <0: serial); outcomes are
	// bit-identical at any setting.
	Workers int
	// MaxInFlight is the concurrency limit beyond which requests are
	// shed with 429 instead of queued (default 64).
	MaxInFlight int
	// RequestTimeout is the per-request context deadline (0 or less:
	// 60s; there is no way to turn it off). The pipeline checks it
	// between stages (decode, compile, estimate) and responds 503 when
	// exceeded.
	RequestTimeout time.Duration
	// CacheEntries bounds the LRU response cache. The zero value (or
	// less) disables response caching; nisqd passes 512.
	CacheEntries int
	// MaxBodyBytes caps a request body (default 1 MiB — calibration
	// archives are the largest legitimate payload).
	MaxBodyBytes int64
	// DrainTimeout bounds graceful shutdown: how long Serve waits for
	// in-flight requests after its context is cancelled (default 30s).
	// The job plane's drain shares the same bound: jobs still running
	// when it expires are re-queued durably and resume after restart.
	DrainTimeout time.Duration
	// Jobs tunes the durable async job plane behind POST /v1/jobs. The
	// zero value runs it in-memory; set Jobs.Dir to make accepted jobs
	// survive restarts.
	Jobs jobs.Options
	// DriftDir roots the calibration drift plane's durable cycle store
	// ("" runs it in-memory; appended cycles then die with the
	// process).
	DriftDir string
	// DriftThreshold is the device drift score past which the canary
	// recompiler runs (default caldrift.DefaultThreshold).
	DriftThreshold float64
	// DriftCanaryCooldown is the minimum spacing between canary runs
	// per device, measured on Clock (0 disables the cooldown).
	DriftCanaryCooldown time.Duration
	// Clock is the time source behind the drift plane's canary
	// cooldown (default clock.Real). Drift reports themselves never
	// read it — they are pure functions of the calibration data.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	if c.MaxTrials <= 0 {
		c.MaxTrials = 1000000
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.CacheEntries < 0 {
		c.CacheEntries = 0
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Server is the nisqd service: an http.Handler exposing the
// compile-and-estimate API over a registry of device models, with a
// semaphore concurrency limiter, per-request deadlines, an LRU response
// cache and text-format metrics. Construct with New; a Server is safe
// for concurrent use.
type Server struct {
	cfg   Config
	mux   *http.ServeMux
	sem   chan struct{}
	cache *lruCache
	met   *serverMetrics
	jobs  *jobs.Manager
	drift *driftState

	mu      sync.RWMutex
	devices map[string]registered
}

// registered is one device registry entry: the device model and its
// full calibration archive (every cycle, not just the mean the model is
// built from) — the portfolio compiler's cycle window and the
// /v1/devices cycle counts come from the archive. Built-ins always have
// one; a device whose archive is unknown portfolio-compiles on its
// reference snapshot only.
type registered struct {
	dev  *device.Device
	arch *calib.Archive
}

// New builds a Server with the device catalog's built-ins
// (calib.Builtins, each generated once from cfg.Seed) already
// registered, and starts the job plane (recovering any persisted queue
// from cfg.Jobs.Dir). The error sources are the job and drift stores
// (built-in archives always build): an unusable directory must fail
// loudly at startup, not lose accepted work later.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		sem:     make(chan struct{}, cfg.MaxInFlight),
		cache:   newLRUCache(cfg.CacheEntries),
		met:     newServerMetrics(),
		devices: make(map[string]registered),
	}
	for _, b := range calib.Builtins() {
		arch := b.Archive(cfg.Seed)
		d, err := NewDevice(arch)
		if err != nil {
			return nil, err
		}
		s.devices[b.Name] = registered{d, arch}
	}

	// The drift plane shares the job store's failure posture: an
	// unusable cycle directory fails startup rather than silently
	// dropping acknowledged calibration later. It exists before the job
	// plane starts, because a recovered job may run (and feed the drift
	// hot set) at once.
	ds, err := newDriftState(cfg)
	if err != nil {
		return nil, err
	}
	s.drift = ds

	jm, err := jobs.NewManager(cfg.Jobs, s.executeJob)
	if err != nil {
		return nil, err
	}
	s.jobs = jm
	jm.Start()

	mux := http.NewServeMux()
	for _, op := range operations {
		mux.HandleFunc("POST "+op.endpoint, s.limited(op.endpoint, s.handle(op)))
	}
	mux.HandleFunc("POST /v1/calibration", s.limited("/v1/calibration", s.handleCalibration))
	mux.HandleFunc("GET /v1/calibration/{device}", s.instrumented("/v1/calibration/{device}", s.handleCalibrationWindow))
	mux.HandleFunc("GET /v1/drift/{device}", s.instrumented("/v1/drift/{device}", s.handleDriftReport))
	mux.HandleFunc("GET /v1/drift/{device}/events", s.handleDriftEvents)
	mux.HandleFunc("GET /v1/devices", s.instrumented("/v1/devices", s.handleDevices))
	// The job plane rides outside the compute semaphore: submission is
	// validation + enqueue (the pool bounds execution concurrency), and
	// status/result/SSE polling must stay responsive while every
	// semaphore slot is busy — that responsiveness is the point of
	// submitting asynchronously.
	mux.HandleFunc("POST /v1/jobs", s.instrumented("/v1/jobs", s.handleJobSubmit))
	mux.HandleFunc("GET /v1/jobs", s.instrumented("/v1/jobs", s.handleJobList))
	mux.HandleFunc("GET /v1/jobs/{id}", s.instrumented("/v1/jobs/{id}", s.handleJobGet))
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.instrumented("/v1/jobs/{id}/result", s.handleJobResult))
	mux.HandleFunc("DELETE /v1/jobs/{id}", s.instrumented("/v1/jobs/{id}", s.handleJobCancel))
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mux = mux
	return s, nil
}

// Drain shuts the job plane down: running jobs get until ctx to finish;
// stragglers are re-queued durably. Serve calls this itself — Drain is
// for handler-only deployments (tests, embedding) and is idempotent.
func (s *Server) Drain(ctx context.Context) error { return s.jobs.Drain(ctx) }

// Jobs exposes the job plane manager (tests, embedding).
func (s *Server) Jobs() *jobs.Manager { return s.jobs }

// Handler returns the daemon's routing table as an http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve accepts connections on l until ctx is cancelled, then shuts
// down gracefully: the listener closes (new requests are refused),
// requests already in flight get up to DrainTimeout to complete, and
// the job plane drains under the same bound — running jobs that don't
// finish in time are checkpointed back to the durable queue, where a
// restarted daemon resumes them. A nil return means a clean drain.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(l) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	jerr := s.jobs.Drain(dctx)
	<-errc // always http.ErrServerClosed after Shutdown
	return errors.Join(err, jerr)
}

// statusWriter records the status code a handler wrote, for metrics.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrumented wraps a handler with request/response/latency metrics.
func (s *Server) instrumented(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.met.requests.Add(1, endpoint)
		s.met.inFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		s.met.inFlight.Add(-1)
		s.met.responses.Add(1, strconv.Itoa(sw.code))
		s.met.latency.Observe(time.Since(start).Seconds())
	}
}

// limited adds the production posture to a compute endpoint: the
// semaphore concurrency limiter (full ⇒ immediate 429, the request is
// never queued), the per-request deadline, and the body-size cap — plus
// the instrumentation.
func (s *Server) limited(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return s.instrumented(endpoint, func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.sem <- struct{}{}:
		default:
			s.met.shed.Add(1)
			setRetryAfter(w, time.Second)
			writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
			return
		}
		defer func() { <-s.sem }()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		h(w, r)
	})
}

// errorBody is the JSON error envelope every non-2xx response carries.
type errorBody struct {
	Error struct {
		Status  int    `json:"status"`
		Message string `json:"message"`
	} `json:"error"`
}

func writeError(w http.ResponseWriter, status int, msg string) {
	var body errorBody
	body.Error.Status = status
	body.Error.Message = msg
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		http.Error(w, "encoding failure", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// errorStatus maps a pipeline error to its HTTP status.
func errorStatus(err error) int {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest
	case errors.Is(err, errUnknownDevice):
		return http.StatusNotFound
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

var errUnknownDevice = errors.New("unknown device")

// NewDevice builds the device model a calibration archive describes:
// its topology under the archive's mean snapshot. Catalog devices,
// uploaded archives and nisqc's -device and -calib all build it here.
func NewDevice(arch *calib.Archive) (*device.Device, error) {
	mean, err := arch.Mean()
	if err != nil {
		return nil, err
	}
	return device.New(arch.Topo, mean)
}

// lookupDeviceArchive resolves a device together with its calibration
// archive. The archive may be nil — the portfolio compiler treats that
// as a reference-device-only grid. Names not in the registry fall
// through to the device catalog, whose zoo names (e.g.
// heavy-hex-399-mid) materialize a deterministic variance-tiered fleet
// on first use that registers like any other device.
func (s *Server) lookupDeviceArchive(name string) (*device.Device, *calib.Archive, error) {
	s.mu.RLock()
	e, ok := s.devices[name]
	s.mu.RUnlock()
	if ok {
		return e.dev, e.arch, nil
	}
	d, arch, zooErr := s.resolveNamed(name)
	if zooErr == nil {
		return d, arch, nil
	}
	if zooName(name) {
		// The name targets a zoo family; its own error (bad size, bad
		// tier, registry full) is more useful than the registry listing.
		return nil, nil, fmt.Errorf("%w %q: %v", errUnknownDevice, name, zooErr)
	}
	s.mu.RLock()
	names := make([]string, 0, len(s.devices))
	for n := range s.devices {
		names = append(names, n)
	}
	s.mu.RUnlock()
	sort.Strings(names)
	return nil, nil, fmt.Errorf("%w %q (registered: %v; synthetic: %s, families %v, tiers %v)",
		errUnknownDevice, name, names, calib.ZooNaming, familyNames(), calib.Tiers())
}

// zooName reports whether name targets a zoo family ("<family>-…").
func zooName(name string) bool {
	for _, f := range topo.Families() {
		if strings.HasPrefix(name, f.Name+"-") {
			return true
		}
	}
	return false
}

func familyNames() []string {
	fams := topo.Families()
	out := make([]string, len(fams))
	for i, f := range fams {
		out[i] = f.Name
	}
	return out
}

// resolveNamed materializes a device the catalog names (built-ins are
// registered at startup, so in practice a zoo fleet), registering it
// and its archive under the same bounded registry as uploaded
// calibrations. Idempotent and deterministic: the fleet is a pure
// function of (name, server seed), so a concurrent double resolve
// builds identical devices and keeps the first.
func (s *Server) resolveNamed(name string) (*device.Device, *calib.Archive, error) {
	arch, err := calib.Named(name, s.cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	d, err := NewDevice(arch)
	if err != nil {
		return nil, nil, err
	}
	e, err := s.register(name, d, arch)
	return e.dev, e.arch, err
}

// register adds (d, arch) to the bounded registry under name and returns
// the entry name now holds: the existing one if name was taken (it is
// kept, archive included), else the new one. It fails only when name is
// new and the registry is full.
func (s *Server) register(name string, d *device.Device, arch *calib.Archive) (registered, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.devices[name]; ok {
		return e, nil
	}
	if len(s.devices) >= maxDevices {
		return registered{}, fmt.Errorf("device registry full (%d entries)", maxDevices)
	}
	e := registered{d, arch}
	s.devices[name] = e
	return e, nil
}

// readBody drains a capped request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	data, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body over %d bytes", tooLarge.Limit))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("read body: %v", err))
		}
		return nil, false
	}
	return data, true
}

// calibrationResponse acknowledges a registered calibration archive.
type calibrationResponse struct {
	Device      DeviceInfo `json:"device"`
	Snapshots   int        `json:"snapshots"`
	Quarantined []string   `json:"quarantined,omitempty"`
}

// badName is the client error for a device or tenant name outside the
// device-name rule (caldrift.ValidDeviceName).
func badName(what string) string { return what + " must match " + caldrift.DeviceNamePattern }

// maxDevices caps the registry of uploaded calibrations.
const maxDevices = 64

func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request) {
	data, ok := readBody(w, r)
	if !ok {
		return
	}
	name := r.URL.Query().Get("name")
	if name != "" && !caldrift.ValidDeviceName(name) {
		writeError(w, http.StatusBadRequest, badName("device name"))
		return
	}
	arch, quarantined, err := calib.ReadJSONLenient(bytes.NewReader(data))
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("calibration archive: %v", err))
		return
	}
	if appendParam := r.URL.Query().Get("append"); appendParam != "" {
		want, perr := strconv.ParseBool(appendParam)
		if perr != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("append must be a boolean, got %q", appendParam))
			return
		}
		if want {
			s.handleCalibrationAppend(w, r, name, arch)
			return
		}
	}
	d, err := NewDevice(arch)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("calibration archive: %v", err))
		return
	}
	if name == "" {
		name = fmt.Sprintf("fp-%016x", d.Fingerprint())
	}

	e, err := s.register(name, d, arch)
	if err != nil {
		writeError(w, http.StatusConflict, err.Error())
		return
	}
	if e.dev.Fingerprint() != d.Fingerprint() {
		writeError(w, http.StatusConflict,
			fmt.Sprintf("device %q already registered with a different calibration", name))
		return
	}

	resp := calibrationResponse{Device: Describe(d), Snapshots: len(arch.Snapshots)}
	resp.Device.Name = name
	for _, q := range quarantined {
		resp.Quarantined = append(resp.Quarantined, q.Error())
	}
	writeJSON(w, http.StatusOK, resp)
}

// devicesResponse lists the registered device models plus the
// parametric synthetic families any request may name on demand.
type devicesResponse struct {
	Devices []namedDevice `json:"devices"`
	// Families describes the synthetic device zoo: request one with a
	// device name of its family's Naming form (e.g.
	// "heavy-hex-399-high"); it is generated deterministically from the
	// server seed and registered on first use.
	Families []deviceFamily `json:"families"`
}

type deviceFamily struct {
	Family      string   `json:"family"`
	Description string   `json:"description"`
	MinQubits   int      `json:"min_qubits"`
	MaxQubits   int      `json:"max_qubits"`
	Tiers       []string `json:"tiers"`
	Naming      string   `json:"naming"`
}

// zooFamilies renders the topo family registry for /v1/devices; each
// family's Naming is calib.ZooNaming with the family filled in.
func zooFamilies() []deviceFamily {
	tiers := make([]string, 0, 3)
	for _, t := range calib.Tiers() {
		tiers = append(tiers, string(t))
	}
	fams := topo.Families()
	out := make([]deviceFamily, 0, len(fams))
	for _, f := range fams {
		out = append(out, deviceFamily{
			Family:      f.Name,
			Description: f.Description,
			MinQubits:   f.MinQubits,
			MaxQubits:   f.MaxQubits,
			Tiers:       tiers,
			Naming:      strings.Replace(calib.ZooNaming, "<family>", f.Name, 1),
		})
	}
	return out
}

type namedDevice struct {
	Name   string `json:"name"`
	Model  string `json:"model"`
	Qubits int    `json:"qubits"`
	Links  int    `json:"links"`
	// Cycles is the number of calibration snapshots in the device's
	// archive — the window /v1/portfolio can draw candidates from. 0
	// when no archive is known for the device.
	Cycles int `json:"cycles"`
	// Fingerprint is the calibration digest responses and caches key
	// on; two names with equal fingerprints are interchangeable.
	// FingerprintPrefix is its 8-hex-digit short form, the handle
	// humans paste into chat and dashboards.
	Fingerprint       string `json:"fingerprint"`
	FingerprintPrefix string `json:"fingerprint_prefix"`
}

func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	names := make([]string, 0, len(s.devices))
	for n := range s.devices {
		names = append(names, n)
	}
	sort.Strings(names)
	resp := devicesResponse{Devices: make([]namedDevice, 0, len(names)), Families: zooFamilies()}
	for _, n := range names {
		e := s.devices[n]
		d := e.dev
		cycles := 0
		if e.arch != nil {
			cycles = len(e.arch.Snapshots)
		}
		fp := fmt.Sprintf("%016x", d.Fingerprint())
		resp.Devices = append(resp.Devices, namedDevice{
			Name:              n,
			Model:             d.Topology().Name,
			Qubits:            d.NumQubits(),
			Links:             d.Topology().NumLinks(),
			Cycles:            cycles,
			Fingerprint:       fp,
			FingerprintPrefix: fp[:8],
		})
	}
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	n := len(s.devices)
	s.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{"status": "ok", "devices": n})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.met.reg.WriteText(w)
	s.jobs.WriteMetrics(w)
	s.drift.reg.WriteText(w)
}
