// Package calib models device characterization data: per-link two-qubit
// error rates, per-qubit single-qubit and readout error rates, and T1/T2
// coherence times, as published after each calibration cycle of an IBM
// quantum machine.
//
// The paper's Section 3 analyzes 52 days (100+ cycles) of IBM-Q20
// characterization reports scraped from the IBM Quantum Experience website.
// That archive is no longer available, so this package also contains a
// synthetic generator (see generate.go) fitted to every statistic the
// paper reports. Policies consume a Snapshot — one calibration cycle —
// through exactly the same interface either way.
package calib

import (
	"errors"
	"fmt"
	"math"

	"vaq/internal/topo"
)

// ErrEmptyArchive is returned by Archive methods that need at least one
// snapshot (e.g. Mean) when the archive holds none.
var ErrEmptyArchive = errors.New("calib: empty archive")

// NoCouplingError reports a per-link figure queried or set for a qubit
// pair the topology does not couple.
type NoCouplingError struct {
	A, B int
	Topo string
}

func (e *NoCouplingError) Error() string {
	return fmt.Sprintf("calib: no coupling %d-%d on %s", e.A, e.B, e.Topo)
}

// Snapshot is the characterization report of one calibration cycle.
type Snapshot struct {
	Topo *topo.Topology
	// Cycle is the calibration cycle index within its archive (0-based).
	Cycle int
	// Day is the measurement day (0-based; two cycles per day by default).
	Day int
	// TwoQubit maps each coupling to the error rate of a CNOT across it.
	TwoQubit map[topo.Coupling]float64
	// OneQubit[q] is the single-qubit gate error rate of physical qubit q.
	OneQubit []float64
	// Readout[q] is the measurement error rate of physical qubit q.
	Readout []float64
	// T1Us[q] and T2Us[q] are the relaxation and dephasing times of qubit
	// q in microseconds.
	T1Us []float64
	T2Us []float64
}

// NewSnapshot allocates a zeroed snapshot for the topology.
func NewSnapshot(t *topo.Topology) *Snapshot {
	s := &Snapshot{
		Topo:     t,
		TwoQubit: make(map[topo.Coupling]float64, len(t.Couplings)),
		OneQubit: make([]float64, t.NumQubits),
		Readout:  make([]float64, t.NumQubits),
		T1Us:     make([]float64, t.NumQubits),
		T2Us:     make([]float64, t.NumQubits),
	}
	for _, c := range t.Couplings {
		s.TwoQubit[c] = 0
	}
	return s
}

// TwoQubitError returns the CNOT error rate across the a–b coupling, or
// a *NoCouplingError when a and b are not coupled. Querying a
// non-existent link is a boundary condition (bad external data, a policy
// bug), not a crash: callers that hold the structural invariant can use
// MustTwoQubitError.
func (s *Snapshot) TwoQubitError(a, b int) (float64, error) {
	if a > b {
		a, b = b, a
	}
	e, ok := s.TwoQubit[topo.Coupling{A: a, B: b}]
	if !ok {
		return 0, &NoCouplingError{A: a, B: b, Topo: s.Topo.Name}
	}
	return e, nil
}

// MustTwoQubitError is TwoQubitError for callers whose coupling is
// guaranteed by construction (e.g. iterating Topo.Couplings); it panics
// on a missing link.
func (s *Snapshot) MustTwoQubitError(a, b int) float64 {
	e, err := s.TwoQubitError(a, b)
	if err != nil {
		panic(err)
	}
	return e
}

// SetTwoQubitError sets the CNOT error rate across the a–b coupling,
// returning a *NoCouplingError when the pair is not coupled.
func (s *Snapshot) SetTwoQubitError(a, b int, e float64) error {
	if a > b {
		a, b = b, a
	}
	c := topo.Coupling{A: a, B: b}
	if _, ok := s.TwoQubit[c]; !ok {
		return &NoCouplingError{A: a, B: b, Topo: s.Topo.Name}
	}
	s.TwoQubit[c] = e
	return nil
}

// Validate checks that every rate is a probability and every coherence
// time is positive, and that the error maps cover the topology.
func (s *Snapshot) Validate() error {
	if s.Topo == nil {
		return fmt.Errorf("calib: snapshot without topology")
	}
	if len(s.TwoQubit) != len(s.Topo.Couplings) {
		return fmt.Errorf("calib: %d link rates for %d couplings", len(s.TwoQubit), len(s.Topo.Couplings))
	}
	for c, e := range s.TwoQubit {
		if e < 0 || e >= 1 || math.IsNaN(e) {
			return fmt.Errorf("calib: link %d-%d error %v out of [0,1)", c.A, c.B, e)
		}
	}
	for _, arr := range []struct {
		name string
		v    []float64
	}{{"one-qubit", s.OneQubit}, {"readout", s.Readout}} {
		if len(arr.v) != s.Topo.NumQubits {
			return fmt.Errorf("calib: %s rates length %d, want %d", arr.name, len(arr.v), s.Topo.NumQubits)
		}
		for q, e := range arr.v {
			if e < 0 || e >= 1 || math.IsNaN(e) {
				return fmt.Errorf("calib: %s error of qubit %d = %v out of [0,1)", arr.name, q, e)
			}
		}
	}
	for q := range s.T1Us {
		if s.T1Us[q] <= 0 || s.T2Us[q] <= 0 {
			return fmt.Errorf("calib: non-positive coherence time on qubit %d", q)
		}
	}
	return nil
}

// Clone returns a deep copy of the snapshot.
func (s *Snapshot) Clone() *Snapshot {
	c := NewSnapshot(s.Topo)
	c.Cycle, c.Day = s.Cycle, s.Day
	for k, v := range s.TwoQubit {
		c.TwoQubit[k] = v
	}
	copy(c.OneQubit, s.OneQubit)
	copy(c.Readout, s.Readout)
	copy(c.T1Us, s.T1Us)
	copy(c.T2Us, s.T2Us)
	return c
}

// ScaleErrors returns a copy with every gate/readout error rate
// transformed for the paper's Table 2 sensitivity study. meanFactor
// multiplies the population mean (e.g. 0.1 for "10× lower error rate").
// covMultiplier stretches each rate's deviation from the (scaled) mean:
// 1 preserves the coefficient of variation, 2 doubles it. Rates are
// clamped to [1e-6, 0.5).
func (s *Snapshot) ScaleErrors(meanFactor, covMultiplier float64) *Snapshot {
	out := s.Clone()
	scale := func(values []float64) {
		m := mean(values)
		for i, v := range values {
			nv := m*meanFactor + covMultiplier*(v-m)*meanFactor
			values[i] = clamp(nv, 1e-6, 0.499)
		}
	}
	link := make([]float64, 0, len(out.TwoQubit))
	keys := out.Topo.Couplings
	for _, k := range keys {
		link = append(link, out.TwoQubit[k])
	}
	scale(link)
	for i, k := range keys {
		out.TwoQubit[k] = link[i]
	}
	scale(out.OneQubit)
	scale(out.Readout)
	return out
}

// LinkRates returns the two-qubit error rates in coupling order.
func (s *Snapshot) LinkRates() []float64 {
	out := make([]float64, 0, len(s.Topo.Couplings))
	for _, c := range s.Topo.Couplings {
		out = append(out, s.TwoQubit[c])
	}
	return out
}

// StrongestLink and WeakestLink return the couplings with the lowest and
// highest two-qubit error rate.
func (s *Snapshot) StrongestLink() (topo.Coupling, float64) {
	best := topo.Coupling{A: -1, B: -1}
	bestE := math.Inf(1)
	for _, c := range s.Topo.Couplings {
		if e := s.TwoQubit[c]; e < bestE {
			bestE, best = e, c
		}
	}
	return best, bestE
}

func (s *Snapshot) WeakestLink() (topo.Coupling, float64) {
	worst := topo.Coupling{A: -1, B: -1}
	worstE := math.Inf(-1)
	for _, c := range s.Topo.Couplings {
		if e := s.TwoQubit[c]; e > worstE {
			worstE, worst = e, c
		}
	}
	return worst, worstE
}

// Archive is an ordered series of calibration snapshots (the 52-day study).
type Archive struct {
	Topo      *topo.Topology
	Snapshots []*Snapshot
}

// Mean returns a snapshot whose every figure is the arithmetic mean across
// the archive — the "average behavior of the link/qubit based on
// characterization data across 52 days" the paper uses for its main
// evaluations. An empty archive yields ErrEmptyArchive (external
// archives can legitimately arrive with every cycle quarantined).
func (a *Archive) Mean() (*Snapshot, error) {
	if len(a.Snapshots) == 0 {
		return nil, ErrEmptyArchive
	}
	m := NewSnapshot(a.Topo)
	n := float64(len(a.Snapshots))
	for _, s := range a.Snapshots {
		for _, c := range a.Topo.Couplings {
			m.TwoQubit[c] += s.TwoQubit[c] / n
		}
		for q := 0; q < a.Topo.NumQubits; q++ {
			m.OneQubit[q] += s.OneQubit[q] / n
			m.Readout[q] += s.Readout[q] / n
			m.T1Us[q] += s.T1Us[q] / n
			m.T2Us[q] += s.T2Us[q] / n
		}
	}
	return m, nil
}

// MustMean is Mean for archives known to be non-empty (generated ones
// always are); it panics on ErrEmptyArchive.
func (a *Archive) MustMean() *Snapshot {
	m, err := a.Mean()
	if err != nil {
		panic(err)
	}
	return m
}

// validateSnapshot checks one snapshot in the context of the archive:
// it must be on the archive's topology, within range, and on a
// non-negative day.
func (a *Archive) validateSnapshot(s *Snapshot) error {
	if s.Topo != a.Topo {
		return fmt.Errorf("snapshot on topology %q, archive on %q", s.Topo.Name, a.Topo.Name)
	}
	if s.Day < 0 {
		return fmt.Errorf("negative day %d", s.Day)
	}
	return s.Validate()
}

// Days returns the number of distinct measurement days in the archive.
func (a *Archive) Days() int {
	maxDay := -1
	for _, s := range a.Snapshots {
		if s.Day > maxDay {
			maxDay = s.Day
		}
	}
	return maxDay + 1
}

// DaySnapshots returns the snapshots taken on the given day.
func (a *Archive) DaySnapshots(day int) []*Snapshot {
	var out []*Snapshot
	for _, s := range a.Snapshots {
		if s.Day == day {
			out = append(out, s)
		}
	}
	return out
}

// LinkSeries returns the time series of two-qubit error rates for the a–b
// coupling across all snapshots (Figure 8).
func (a *Archive) LinkSeries(qa, qb int) []float64 {
	out := make([]float64, 0, len(a.Snapshots))
	for _, s := range a.Snapshots {
		out = append(out, s.MustTwoQubitError(qa, qb))
	}
	return out
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
