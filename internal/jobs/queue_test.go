package jobs

import (
	"testing"
	"time"
)

func qjob(seq uint64, class Class) *job {
	return &job{Spec: Spec{Class: class, Kind: KindCompile}, ID: newID(), State: StateQueued, Seq: seq}
}

func TestQueueClassOrder(t *testing.T) {
	q := &queue{}
	t0 := time.Unix(1000, 0)
	bg := qjob(1, ClassBackground)
	ia := qjob(2, ClassInteractive)
	ba := qjob(3, ClassBatch)
	q.push(bg, t0)
	q.push(ia, t0)
	q.push(ba, t0)

	want := []*job{ia, ba, bg}
	for i, w := range want {
		j, _ := q.pop(t0)
		if j != w {
			t.Fatalf("pop %d = %v, want %v", i, j, w)
		}
	}
	if j, wait := q.pop(t0); j != nil || wait != 0 {
		t.Fatalf("empty pop = %v, %v", j, wait)
	}
}

func TestQueueAgingPreventsStarvation(t *testing.T) {
	aging := agingInterval
	q := &queue{}
	t0 := time.Unix(1000, 0)
	bg := qjob(1, ClassBackground)
	q.push(bg, t0)

	// A fresh interactive job outranks a background job that has waited
	// less than its rank gap (2 aging intervals)...
	ia1 := qjob(2, ClassInteractive)
	q.push(ia1, t0.Add(aging))
	if j, _ := q.pop(t0.Add(aging)); j != ia1 {
		t.Fatalf("fresh interactive should win at +1 interval, got %v", j)
	}

	// ...but once the background job has aged past the gap, it wins even
	// against a brand-new interactive submission.
	ia2 := qjob(3, ClassInteractive)
	late := t0.Add(3 * aging)
	q.push(ia2, late)
	if j, _ := q.pop(late); j != bg {
		t.Fatalf("aged background should outrank fresh interactive, got %+v", j)
	}
	if j, _ := q.pop(late); j != ia2 {
		t.Fatalf("interactive should pop next, got %v", j)
	}
}

func TestQueueTieBreaksOnSeq(t *testing.T) {
	q := &queue{}
	t0 := time.Unix(1000, 0)
	a := qjob(5, ClassBatch)
	b := qjob(4, ClassInteractive)
	// Same effective priority: batch that aged exactly one interval vs
	// fresh interactive. Lower Seq wins.
	q.push(a, t0.Add(-agingInterval))
	q.push(b, t0)
	if j, _ := q.pop(t0); j != b {
		t.Fatalf("tie should break to lower seq, got %+v", j)
	}
}

func TestQueueDelayedRelease(t *testing.T) {
	q := &queue{}
	t0 := time.Unix(1000, 0)
	j1 := qjob(1, ClassBatch)
	q.pushDelayed(j1, t0.Add(50*time.Millisecond))

	got, wait := q.pop(t0)
	if got != nil || wait != 50*time.Millisecond {
		t.Fatalf("pop before due = %v, %v; want nil, 50ms hint", got, wait)
	}
	got, _ = q.pop(t0.Add(50 * time.Millisecond))
	if got != j1 {
		t.Fatalf("pop at due = %v, want released job", got)
	}
}

func TestQueueLazyDiscardCancelled(t *testing.T) {
	q := &queue{}
	t0 := time.Unix(1000, 0)
	dead := qjob(1, ClassBatch)
	live := qjob(2, ClassBatch)
	q.push(dead, t0)
	q.push(live, t0)
	dead.State = StateCancelled

	if j, _ := q.pop(t0); j != live {
		t.Fatalf("pop should skip cancelled head, got %v", j)
	}
	if j, _ := q.pop(t0); j != nil {
		t.Fatalf("queue not drained: popped %v", j)
	}

	// Cancelled delayed jobs are discarded at release time too.
	d2 := qjob(3, ClassBatch)
	q.pushDelayed(d2, t0.Add(time.Millisecond))
	d2.State = StateCancelled
	if j, wait := q.pop(t0.Add(time.Millisecond)); j != nil || wait != 0 {
		t.Fatalf("cancelled delayed job dispatched: %v, %v", j, wait)
	}
}
