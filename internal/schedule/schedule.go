// Package schedule assigns start times to circuit operations: an ASAP
// (as-soon-as-possible) schedule with the physical gate durations of
// package gate. The simulator charges decoherence for the idle windows
// this schedule exposes, and the partitioning study uses the makespan as
// the trial latency. Unlike dependency layering (circuit.Layers), which
// quantizes time to the slowest gate of each layer, the schedule lets a
// fast single-qubit gate start as soon as its operand is free.
package schedule

import (
	"fmt"
	"strings"
	"time"

	"vaq/internal/circuit"
	"vaq/internal/gate"
)

// Op is one scheduled operation.
type Op struct {
	Kind       gate.Kind
	Qubits     []int
	Start, End time.Duration
}

// Schedule is a timed view of a circuit.
type Schedule struct {
	NumQubits int
	Ops       []Op
	Makespan  time.Duration
}

// ASAP schedules every gate at the earliest time all its operands are
// free. Barriers take zero time but synchronize their qubits. The ops'
// Qubits are copies of the gates' operands, cut from one backing slice.
func ASAP(c *circuit.Circuit) *Schedule {
	nops, nqubits := 0, 0
	for _, g := range c.Gates {
		if g.Kind != gate.Barrier {
			nops++
			nqubits += len(g.Qubits)
		}
	}
	s := &Schedule{NumQubits: c.NumQubits, Ops: make([]Op, 0, nops)}
	flat := make([]int, 0, nqubits)
	free := make([]time.Duration, c.NumQubits)
	for _, g := range c.Gates {
		start := time.Duration(0)
		for _, q := range g.Qubits {
			if free[q] > start {
				start = free[q]
			}
		}
		end := start + g.Kind.Duration()
		for _, q := range g.Qubits {
			free[q] = end
		}
		if g.Kind == gate.Barrier {
			continue // synchronizes, occupies no slot
		}
		lo := len(flat)
		flat = append(flat, g.Qubits...)
		s.Ops = append(s.Ops, Op{Kind: g.Kind, Qubits: flat[lo:len(flat):len(flat)], Start: start, End: end})
		if end > s.Makespan {
			s.Makespan = end
		}
	}
	return s
}

// IdleTimes returns, per qubit, the idle duration inside its active
// window (first operation start to last operation end) less the time it
// spends executing operations: the exposure the decoherence model
// charges. Unused qubits idle for zero time. One pass over Ops tracks
// each qubit's window and busy time.
func (s *Schedule) IdleTimes() []time.Duration {
	idle := make([]time.Duration, s.NumQubits)
	first := make([]time.Duration, s.NumQubits)
	last := make([]time.Duration, s.NumQubits)
	for q := range first {
		first[q] = -1 // unused so far
	}
	for _, op := range s.Ops {
		for _, q := range op.Qubits {
			if first[q] < 0 || op.Start < first[q] {
				first[q] = op.Start
			}
			if op.End > last[q] {
				last[q] = op.End
			}
			idle[q] -= op.End - op.Start
		}
	}
	for q := range idle {
		if first[q] >= 0 {
			idle[q] += last[q] - first[q]
		}
	}
	return idle
}

// Timeline renders an ASCII Gantt chart (one row per qubit, one column
// per timeStep), for CLI inspection. Columns are capped at maxCols with
// truncation marked by '…'.
func (s *Schedule) Timeline(timeStep time.Duration, maxCols int) string {
	if timeStep <= 0 {
		timeStep = 100 * time.Nanosecond
	}
	if maxCols <= 0 {
		maxCols = 120
	}
	cols := int(s.Makespan/timeStep) + 1
	truncated := false
	if cols > maxCols {
		cols = maxCols
		truncated = true
	}
	grid := make([][]byte, s.NumQubits)
	for q := range grid {
		grid[q] = []byte(strings.Repeat(".", cols))
	}
	for _, op := range s.Ops {
		c0 := int(op.Start / timeStep)
		c1 := int((op.End - 1) / timeStep)
		sym := symbol(op.Kind)
		for c := c0; c <= c1 && c < cols; c++ {
			for _, q := range op.Qubits {
				grid[q][c] = sym
			}
		}
	}
	var b strings.Builder
	for q := range grid {
		fmt.Fprintf(&b, "q%-3d %s", q, grid[q])
		if truncated {
			b.WriteString("…")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func symbol(k gate.Kind) byte {
	switch {
	case k == gate.SWAP:
		return 'S'
	case k == gate.Measure:
		return 'M'
	case k.TwoQubit():
		return 'C'
	default:
		return 'u'
	}
}
