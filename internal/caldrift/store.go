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
	"regexp"
	"strings"
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
// of snapshots per device, durably persisted when opened with a
// directory (one checkpoint.Dir record per cycle, <device>/cycle-N.json),
// in-memory when opened with "". Appends are persist-before-ack: a cycle
// is written and fsynced before it becomes visible to queries, so an
// acknowledged cycle survives a crash. Safe for concurrent use.
type Store struct {
	dir checkpoint.Dir

	mu      sync.Mutex
	devices map[string]*series
	corrupt int64 // quarantined envelope files found at Open
}

type series struct {
	dir   checkpoint.Dir // the device's own record directory
	topo  *topo.Topology // canonical topology every appended cycle is rebound to
	snaps []*calib.Snapshot
	// next is the on-disk sequence number of the next envelope, and the
	// next cycle's number; it only grows, so eviction never reuses a
	// filename and cycle numbers survive a restart.
	next int
}

// cycleName is the record name of a device's cycle seq; zero padding
// keeps name order equal to cycle order.
func cycleName(seq int) string { return fmt.Sprintf("cycle-%06d.json", seq) }

// Open opens (or creates) a store rooted at dir, loading every
// persisted series in cycle order. dir == "" runs the store in-memory.
// An envelope that does not load is quarantined by the checkpoint.Dir
// and counted: one damaged cycle must not take down the device's
// series, let alone the store.
func Open(dir string) (*Store, error) {
	root, err := checkpoint.OpenDir(dir)
	if err != nil {
		return nil, fmt.Errorf("caldrift: open store: %w", err)
	}
	s := &Store{dir: root, devices: make(map[string]*series)}
	corrupt, err := root.Load("*/cycle-*.json", s.loadCycle)
	if err != nil {
		return nil, fmt.Errorf("caldrift: open store: %w", err)
	}
	s.corrupt = int64(corrupt)
	return s, nil
}

// loadCycle appends one persisted envelope, named <device>/cycle-N.json,
// to its device's series. The first envelope that decodes fixes the
// series topology.
func (s *Store) loadCycle(name string, data []byte) error {
	device, file, _ := strings.Cut(name, "/")
	var seq int
	if _, err := fmt.Sscanf(file, "cycle-%06d.json", &seq); err != nil || !ValidDeviceName(device) {
		return fmt.Errorf("not a cycle envelope name: %s", name)
	}
	arch, err := calib.ReadJSON(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if len(arch.Snapshots) != 1 {
		return fmt.Errorf("envelope holds %d cycles, want 1", len(arch.Snapshots))
	}
	ser, ok := s.devices[device]
	if !ok {
		dir, err := s.dir.Sub(device)
		if err != nil {
			return err
		}
		ser = &series{dir: dir, topo: arch.Topo}
	}
	bound, err := rebind(ser.topo, arch.Snapshots[0])
	if err != nil {
		return err
	}
	bound.Cycle = seq
	ser.snaps = append(ser.snaps, bound)
	ser.next = seq + 1
	s.devices[device] = ser
	return nil
}

// Append validates one calibration cycle and appends it to the
// device's series, persisting before acknowledging. The snapshot is
// rebound onto the series' canonical topology (its shape must match:
// same qubit count, same coupling set). The first cycle persisted for a
// device fixes that topology; a refused first cycle fixes nothing.
// Returns the cycle's number.
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
		dir, err := s.dir.Sub(device)
		if err != nil {
			return 0, fmt.Errorf("caldrift: persist cycle: %w", err)
		}
		ser = &series{dir: dir, topo: snap.Topo}
	}
	bound, err := rebind(ser.topo, snap)
	if err != nil {
		return 0, fmt.Errorf("caldrift: cycle rejected: %w", err)
	}
	bound.Cycle = ser.next

	// Durability before acknowledgement, exactly like the jobs plane:
	// if the envelope cannot be persisted the append is refused, so an
	// acknowledged cycle always survives a crash.
	one := &calib.Archive{Topo: bound.Topo, Snapshots: []*calib.Snapshot{bound}}
	if err := ser.dir.Put(cycleName(bound.Cycle), one.WriteJSON); err != nil {
		return 0, fmt.Errorf("caldrift: persist cycle: %w", err)
	}
	s.devices[device] = ser
	ser.next++
	ser.snaps = append(ser.snaps, bound)
	ser.evictLocked()
	return bound.Cycle, nil
}

// evictLocked drops the oldest cycles beyond the per-device cap,
// removing their envelopes from disk as well. A cycle's number is its
// envelope's sequence number, so the file to remove is the dropped
// cycle's own even when quarantined envelopes left gaps.
func (ser *series) evictLocked() {
	for len(ser.snaps) > MaxCyclesPerDevice {
		ser.dir.Delete(cycleName(ser.snaps[0].Cycle))
		ser.snaps = ser.snaps[1:]
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
