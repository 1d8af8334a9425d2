package schedule

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"vaq/internal/circuit"
)

func TestASAPSequentialChain(t *testing.T) {
	// h(0); cx(0,1); measure(1): strictly sequential on shared qubits.
	c := circuit.New("chain", 2).H(0).CX(0, 1).Measure(1, 0)
	s := ASAP(c)
	if len(s.Ops) != 3 {
		t.Fatalf("ops = %d, want 3", len(s.Ops))
	}
	h, cx, m := s.Ops[0], s.Ops[1], s.Ops[2]
	if h.Start != 0 || h.End != 100*time.Nanosecond {
		t.Fatalf("h timing = %v-%v", h.Start, h.End)
	}
	if cx.Start != h.End || cx.End != h.End+300*time.Nanosecond {
		t.Fatalf("cx timing = %v-%v", cx.Start, cx.End)
	}
	if m.Start != cx.End {
		t.Fatalf("measure start = %v, want %v", m.Start, cx.End)
	}
	if s.Makespan != m.End {
		t.Fatalf("makespan = %v, want %v", s.Makespan, m.End)
	}
}

func TestASAPBeatsLayerQuantization(t *testing.T) {
	// Two h gates on qubit 0 while a cx runs on 1,2: layered duration
	// would charge two full layers; ASAP lets the h gates run back to
	// back under the cx.
	c := circuit.New("p", 3).H(0).H(0).CX(1, 2)
	s := ASAP(c)
	if s.Makespan != 300*time.Nanosecond {
		t.Fatalf("makespan = %v, want 300ns (cx dominates)", s.Makespan)
	}
	if got := layeredDuration(c); got <= s.Makespan {
		t.Fatalf("layered duration %v should exceed ASAP makespan %v here", got, s.Makespan)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	// Without barrier h(1) starts at 0; with it, after h(0).
	c := circuit.New("b", 2).H(0).Barrier().H(1)
	s := ASAP(c)
	if len(s.Ops) != 2 {
		t.Fatalf("barrier should not occupy a slot: %d ops", len(s.Ops))
	}
	if s.Ops[1].Start != 100*time.Nanosecond {
		t.Fatalf("post-barrier start = %v, want 100ns", s.Ops[1].Start)
	}
}

// refWindow is the per-qubit reference definition IdleTimes must match:
// the first operation start and last operation end of qubit q.
func refWindow(s *Schedule, q int) (first, last time.Duration, used bool) {
	first, last = time.Duration(1<<62), 0
	for _, op := range s.Ops {
		for _, oq := range op.Qubits {
			if oq != q {
				continue
			}
			if op.Start < first {
				first = op.Start
			}
			if op.End > last {
				last = op.End
			}
			used = true
		}
	}
	return first, last, used
}

// refBusyTime is the total time qubit q spends executing operations.
func refBusyTime(s *Schedule, q int) time.Duration {
	var busy time.Duration
	for _, op := range s.Ops {
		for _, oq := range op.Qubits {
			if oq == q {
				busy += op.End - op.Start
			}
		}
	}
	return busy
}

// refIdleTimes is the idle time inside each qubit's active window,
// computed qubit by qubit with two scans of Ops each.
func refIdleTimes(s *Schedule) []time.Duration {
	out := make([]time.Duration, s.NumQubits)
	for q := range out {
		if first, last, used := refWindow(s, q); used {
			out[q] = (last - first) - refBusyTime(s, q)
		}
	}
	return out
}

func TestIdleTime(t *testing.T) {
	// Qubit 1 waits from its first gate at t=0... construct: h(1) at 0,
	// then qubit 1 idles while qubit 0 runs 3 h gates, then cx(0,1).
	c := circuit.New("i", 2).H(1).H(0).H(0).H(0).CX(0, 1)
	idle := ASAP(c).IdleTimes()
	// Qubit 1: h [0,100), idle [100,300), cx [300,600).
	if idle[1] != 200*time.Nanosecond {
		t.Fatalf("idle(1) = %v, want 200ns", idle[1])
	}
	if idle[0] != 0 {
		t.Fatalf("idle(0) = %v, want 0 (always busy)", idle[0])
	}
}

func TestIdleTimeUnusedQubit(t *testing.T) {
	c := circuit.New("u", 3).H(0)
	if got := ASAP(c).IdleTimes()[2]; got != 0 {
		t.Fatalf("unused qubit idle = %v, want 0", got)
	}
}

func TestBusyTime(t *testing.T) {
	// Both qubits run back to back from their first gate to their last.
	c := circuit.New("b", 2).H(0).CX(0, 1)
	s := ASAP(c)
	if got := refBusyTime(s, 0); got != 400*time.Nanosecond {
		t.Fatalf("busy(0) = %v, want 400ns", got)
	}
	if got := refBusyTime(s, 1); got != 300*time.Nanosecond {
		t.Fatalf("busy(1) = %v, want 300ns", got)
	}
	for q, got := range s.IdleTimes() {
		if got != 0 {
			t.Fatalf("idle(%d) = %v, want 0", q, got)
		}
	}
}

// TestIdleTimesMatchesReferenceProperty checks the one-pass IdleTimes
// against the per-qubit reference on random circuits with one- and
// two-qubit gates, SWAPs, measures and (partial and full) barriers.
func TestIdleTimesMatchesReferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		c := circuit.New("r", n)
		for i := 0; i < 40; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			switch rng.Intn(6) {
			case 0:
				c.H(a)
			case 1:
				c.CX(a, b)
			case 2:
				c.Swap(a, b)
			case 3:
				c.Measure(a, a)
			case 4:
				c.Barrier(a, b)
			default:
				if rng.Intn(4) == 0 {
					c.Barrier()
				} else {
					c.T(a)
				}
			}
		}
		s := ASAP(c)
		return slices.Equal(s.IdleTimes(), refIdleTimes(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// layeredDuration is the layer-quantized duration ASAP improves on: the
// sum over c.Layers() of each layer's slowest gate.
func layeredDuration(c *circuit.Circuit) time.Duration {
	var total time.Duration
	for _, layer := range c.Layers() {
		var slowest time.Duration
		for _, gi := range layer {
			slowest = max(slowest, c.Gates[gi].Kind.Duration())
		}
		total += slowest
	}
	return total
}

func TestMakespanNeverExceedsLayeredDuration(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(6)
		c := circuit.New("r", n)
		for i := 0; i < 30; i++ {
			a := rng.Intn(n)
			switch rng.Intn(3) {
			case 0:
				c.H(a)
			case 1:
				b := (a + 1 + rng.Intn(n-1)) % n
				c.CX(a, b)
			default:
				c.Measure(a, a)
			}
		}
		s := ASAP(c)
		return s.Makespan <= layeredDuration(c)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSchedulePreservesPerQubitOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		c := circuit.New("r", n)
		for i := 0; i < 25; i++ {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			c.CX(a, b)
		}
		s := ASAP(c)
		// Ops touching the same qubit must not overlap and must appear in
		// gate order.
		for q := 0; q < n; q++ {
			var prevEnd time.Duration
			var prevIdx = -1
			for _, op := range s.Ops {
				touches := false
				for _, oq := range op.Qubits {
					if oq == q {
						touches = true
					}
				}
				if !touches {
					continue
				}
				if op.Start < prevEnd || op.GateIndex < prevIdx {
					return false
				}
				prevEnd = op.End
				prevIdx = op.GateIndex
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeline(t *testing.T) {
	c := circuit.New("t", 2).H(0).CX(0, 1).Swap(0, 1).Measure(0, 0)
	s := ASAP(c)
	tl := s.Timeline(100*time.Nanosecond, 200)
	for _, sym := range []string{"u", "C", "S", "M", "q0", "q1"} {
		if !strings.Contains(tl, sym) {
			t.Fatalf("timeline missing %q:\n%s", sym, tl)
		}
	}
	// Truncation path.
	long := circuit.New("l", 1)
	for i := 0; i < 300; i++ {
		long.H(0)
	}
	tl = ASAP(long).Timeline(100*time.Nanosecond, 50)
	if !strings.Contains(tl, "…") {
		t.Fatal("long timeline not truncated")
	}
}

func TestOpsCopyOperands(t *testing.T) {
	c := circuit.New("o", 3).CX(0, 1).Barrier().H(2).Measure(1, 0)
	s := ASAP(c)
	want := [][]int{{0, 1}, {2}, {1}}
	for i, op := range s.Ops {
		if !slices.Equal(op.Qubits, want[i]) {
			t.Fatalf("op %d qubits = %v, want %v", i, op.Qubits, want[i])
		}
	}
	// Growing one op's operands must not write into its neighbour's,
	// and the schedule must not alias the circuit.
	_ = append(s.Ops[0].Qubits, 9)
	c.Gates[2].Qubits[0] = 0
	if s.Ops[1].Qubits[0] != 2 {
		t.Fatalf("op 1 qubits = %v, want [2]", s.Ops[1].Qubits)
	}
}
