// Package caldrift is the calibration time-series plane behind nisqd:
// an append-only per-device store of calibration cycles, EWMA + CUSUM
// drift detection against each device's fingerprinted baseline, and a
// canary recompiler that speculatively re-runs hot circuits through the
// portfolio grid when a device drifts past threshold.
//
// The paper's core observation is temporal — error rates move every
// calibration cycle while "strong links stay strong" (Fig. 8) — and
// Pelofske et al. track exactly this device-quality evolution over
// months of production hardware. This package productionizes the
// reaction loop: ingest cycles, detect the drift, predict what
// recompilation would recover, before users burn shots on a stale
// mapping.
//
// Everything here keeps the repository's determinism contract: reports
// are pure functions of the calibration data and configuration,
// bit-identical at any worker count, with no wall-clock reads in any
// decision path (callers inject a clock.Clock where pacing is needed).
package caldrift

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"

	"vaq/internal/calib"
	"vaq/internal/checkpoint"
	"vaq/internal/topo"
)

// MaxCyclesPerDevice bounds one device's in-memory series; beyond it
// the oldest cycles are dropped from memory and disk. 512 cycles is
// ~8 months of twice-daily calibration — far past any detection window
// — while bounding a malicious feed's memory to the series, not the
// uptime.
const MaxCyclesPerDevice = 512

// DeviceNamePattern is the one device-name rule: a device name is a
// path segment of the store's on-disk layout, so it must never contain
// separators or dot-tricks. The serve layer applies the same rule to
// registered device names and to job tenants.
const DeviceNamePattern = `[a-zA-Z0-9][a-zA-Z0-9_-]{0,63}`

var deviceNameRE = regexp.MustCompile(`^` + DeviceNamePattern + `$`)

// ValidDeviceName reports whether name is storable.
func ValidDeviceName(name string) bool { return deviceNameRE.MatchString(name) }

// Store is the append-only calibration cycle store: one ordered series
// of snapshots per device, durably persisted (one atomic envelope per
// cycle) when opened with a directory, in-memory when opened with "".
// Appends are persist-before-ack: a cycle is written and fsynced before
// it becomes visible to queries, so an acknowledged cycle survives a
// crash. Safe for concurrent use.
type Store struct {
	dir string

	mu      sync.Mutex
	devices map[string]*series
	corrupt int64 // quarantined envelope files found at Open
}

type series struct {
	topo  *topo.Topology // canonical topology every appended cycle is rebound to
	snaps []*calib.Snapshot
	// next is the on-disk sequence number of the next envelope, and the
	// next cycle's number; it only grows, so eviction never reuses a
	// filename and cycle numbers survive a restart.
	next int
}

// Open opens (or creates) a store rooted at dir, loading every
// persisted series. dir == "" runs the store in-memory. Corrupt or
// unreadable envelopes are renamed aside with a ".corrupt" suffix and
// counted — one damaged cycle must not take down the device's series,
// let alone the store.
func Open(dir string) (*Store, error) {
	s := &Store{dir: dir, devices: make(map[string]*series)}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("caldrift: open store: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("caldrift: open store: %w", err)
	}
	for _, e := range entries {
		if !e.IsDir() || !ValidDeviceName(e.Name()) {
			continue
		}
		if err := s.loadSeries(e.Name()); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// loadSeries reads one device directory in envelope order.
func (s *Store) loadSeries(device string) error {
	devDir := filepath.Join(s.dir, device)
	entries, err := os.ReadDir(devDir)
	if err != nil {
		return fmt.Errorf("caldrift: load %s: %w", device, err)
	}
	var files []string
	for _, e := range entries {
		name := e.Name()
		if matched, _ := filepath.Match("cycle-*.json", name); matched {
			files = append(files, name)
		}
	}
	sort.Strings(files) // zero-padded sequence numbers: lexicographic == numeric
	ser := &series{}
	for _, name := range files {
		path := filepath.Join(devDir, name)
		var seq int
		if _, err := fmt.Sscanf(name, "cycle-%06d.json", &seq); err != nil {
			s.quarantine(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			s.quarantine(path)
			continue
		}
		arch, err := calib.ReadJSON(bytes.NewReader(data))
		if err != nil || len(arch.Snapshots) != 1 {
			s.quarantine(path)
			continue
		}
		snap := arch.Snapshots[0]
		if ser.topo == nil {
			ser.topo = arch.Topo
		}
		bound, err := rebind(ser.topo, snap)
		if err != nil {
			s.quarantine(path)
			continue
		}
		bound.Cycle = seq
		ser.snaps = append(ser.snaps, bound)
		ser.next = seq + 1
	}
	if len(ser.snaps) > 0 {
		s.devices[device] = ser
	}
	return nil
}

func (s *Store) quarantine(path string) {
	os.Rename(path, path+".corrupt")
	s.corrupt++
}

// Append validates one calibration cycle and appends it to the
// device's series, persisting before acknowledging. The snapshot is
// rebound onto the series' canonical topology (its shape must match:
// same qubit count, same coupling set). The first cycle appended for a
// device fixes that topology. Returns the cycle's number.
func (s *Store) Append(device string, snap *calib.Snapshot) (int, error) {
	if !ValidDeviceName(device) {
		return 0, fmt.Errorf("caldrift: invalid device name %q", device)
	}
	if snap == nil || snap.Topo == nil {
		return 0, fmt.Errorf("caldrift: nil snapshot")
	}
	if err := snap.Validate(); err != nil {
		return 0, fmt.Errorf("caldrift: cycle rejected: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.devices[device]
	if !ok {
		ser = &series{topo: snap.Topo}
		s.devices[device] = ser
	}
	bound, err := rebind(ser.topo, snap)
	if err != nil {
		return 0, fmt.Errorf("caldrift: cycle rejected: %w", err)
	}
	bound.Cycle = ser.next

	// Durability before acknowledgement, exactly like the jobs plane:
	// if the envelope cannot be persisted the append is refused, so an
	// acknowledged cycle always survives a crash.
	if s.dir != "" {
		devDir := filepath.Join(s.dir, device)
		if err := os.MkdirAll(devDir, 0o755); err != nil {
			return 0, fmt.Errorf("caldrift: persist cycle: %w", err)
		}
		var buf bytes.Buffer
		one := &calib.Archive{Topo: bound.Topo, Snapshots: []*calib.Snapshot{bound}}
		if err := one.WriteJSON(&buf); err != nil {
			return 0, fmt.Errorf("caldrift: persist cycle: %w", err)
		}
		path := filepath.Join(devDir, fmt.Sprintf("cycle-%06d.json", ser.next))
		if err := checkpoint.AtomicWriteFile(path, buf.Bytes()); err != nil {
			return 0, fmt.Errorf("caldrift: persist cycle: %w", err)
		}
	}
	ser.next++
	ser.snaps = append(ser.snaps, bound)
	s.evictLocked(device, ser)
	return bound.Cycle, nil
}

// evictLocked drops the oldest cycles beyond the per-device cap,
// removing their envelopes from disk as well. A cycle's number is its
// envelope's sequence number, so the file to remove is the dropped
// cycle's own even when quarantined envelopes left gaps.
func (s *Store) evictLocked(device string, ser *series) {
	for len(ser.snaps) > MaxCyclesPerDevice {
		drop := ser.snaps[0]
		ser.snaps = ser.snaps[1:]
		if s.dir != "" {
			os.Remove(filepath.Join(s.dir, device, fmt.Sprintf("cycle-%06d.json", drop.Cycle)))
		}
	}
}

// Window returns the last k cycles of a device's series, oldest first
// (k <= 0 or beyond the series length returns the whole series). The
// returned snapshots are shared, not copied: callers must treat them as
// read-only.
func (s *Store) Window(device string, k int) []*calib.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.devices[device]
	if !ok {
		return nil
	}
	n := len(ser.snaps)
	if k <= 0 || k > n {
		k = n
	}
	out := make([]*calib.Snapshot, k)
	copy(out, ser.snaps[n-k:])
	return out
}

// Archive returns the last k cycles as a calib.Archive on the series'
// canonical topology — the calibration context the canary recompiler
// hands to the portfolio grid.
func (s *Store) Archive(device string, k int) (*calib.Archive, bool) {
	snaps := s.Window(device, k)
	if len(snaps) == 0 {
		return nil, false
	}
	return &calib.Archive{Topo: snaps[0].Topo, Snapshots: snaps}, true
}

// Len returns the number of retained cycles for a device.
func (s *Store) Len(device string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	ser, ok := s.devices[device]
	if !ok {
		return 0
	}
	return len(ser.snaps)
}

// Corrupt reports how many envelopes were quarantined at Open.
func (s *Store) Corrupt() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// rebind clones snap onto canonical topology t, verifying structural
// equality first (same qubit count and coupling set). Snapshots arrive
// decoded against their own topo.Topology instance; series consumers
// such as the portfolio grid require one shared instance.
func rebind(t *topo.Topology, snap *calib.Snapshot) (*calib.Snapshot, error) {
	if snap.Topo == t {
		return snap.Clone(), nil
	}
	if snap.Topo.NumQubits != t.NumQubits {
		return nil, fmt.Errorf("cycle has %d qubits, series has %d", snap.Topo.NumQubits, t.NumQubits)
	}
	if len(snap.Topo.Couplings) != len(t.Couplings) {
		return nil, fmt.Errorf("cycle has %d couplings, series has %d", len(snap.Topo.Couplings), len(t.Couplings))
	}
	out := calib.NewSnapshot(t)
	out.Cycle, out.Day = snap.Cycle, snap.Day
	for _, c := range t.Couplings {
		e, ok := snap.TwoQubit[c]
		if !ok {
			return nil, fmt.Errorf("cycle is missing link %d-%d of the series topology", c.A, c.B)
		}
		out.TwoQubit[c] = e
	}
	copy(out.OneQubit, snap.OneQubit)
	copy(out.Readout, snap.Readout)
	copy(out.T1Us, snap.T1Us)
	copy(out.T2Us, snap.T2Us)
	return out, nil
}
