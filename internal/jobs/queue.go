package jobs

import (
	"container/heap"
	"time"
)

// queue is the dispatcher's ready structure: one FIFO per priority
// class plus a time-ordered heap of backoff-delayed retries. It is not
// self-locking — the manager mutex guards it.
//
// Dispatch order is priority with aging: a queued job's effective
// priority is its class rank minus the number of aging intervals it has
// waited, and the lowest effective value wins (ties break on admission
// order). Within one class FIFO order is always effective-priority
// order (equal rank, monotone waits), so only the class heads compete —
// a pop is O(classes + released retries), not O(queue).
type queue struct {
	classes [3][]*job
	delayed delayedHeap
}

// agingInterval is how long a queued job waits to gain one priority
// rank.
const agingInterval = 30 * time.Second

// push makes j dispatchable now.
func (q *queue) push(j *job, now time.Time) {
	j.enqueuedAt = now
	j.readyAt = time.Time{}
	r := j.Class.rank()
	q.classes[r] = append(q.classes[r], j)
}

// pushDelayed schedules j to become dispatchable at ready.
func (q *queue) pushDelayed(j *job, ready time.Time) {
	j.readyAt = ready
	heap.Push(&q.delayed, j)
}

// pop returns the best dispatchable job, or (nil, wait) where wait is
// how long the caller may sleep before anything can change (0 means
// "nothing pending, wait for a push"). Jobs whose state is no longer
// queued (cancelled while waiting) are discarded lazily here.
func (q *queue) pop(now time.Time) (*job, time.Duration) {
	// Release due retries into their class FIFOs. Aging restarts at
	// release: the backoff was the job's own doing, not queue pressure.
	for q.delayed.Len() > 0 && !q.delayed[0].readyAt.After(now) {
		j := heap.Pop(&q.delayed).(*job)
		if j.State == StateQueued {
			q.push(j, now)
		}
	}
	best, bestRank := (*job)(nil), 0.0
	for r := range q.classes {
		// Drop stale heads (cancelled while queued).
		for len(q.classes[r]) > 0 && q.classes[r][0].State != StateQueued {
			q.classes[r] = q.classes[r][1:]
		}
		if len(q.classes[r]) == 0 {
			continue
		}
		h := q.classes[r][0]
		eff := float64(r) - now.Sub(h.enqueuedAt).Seconds()/agingInterval.Seconds()
		if best == nil || eff < bestRank || (eff == bestRank && h.Seq < best.Seq) {
			best, bestRank = h, eff
		}
	}
	if best != nil {
		r := best.Class.rank()
		q.classes[r] = q.classes[r][1:]
		return best, 0
	}
	if q.delayed.Len() > 0 {
		return nil, q.delayed[0].readyAt.Sub(now)
	}
	return nil, 0
}

// delayedHeap orders retried jobs by readyAt (ties on Seq for
// determinism).
type delayedHeap []*job

func (h delayedHeap) Len() int { return len(h) }
func (h delayedHeap) Less(a, b int) bool {
	if !h[a].readyAt.Equal(h[b].readyAt) {
		return h[a].readyAt.Before(h[b].readyAt)
	}
	return h[a].Seq < h[b].Seq
}
func (h delayedHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *delayedHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *delayedHeap) Pop() any {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return j
}
