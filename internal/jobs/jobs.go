// Package jobs is the durable asynchronous job plane behind nisqd: a
// persistent, priority-aware work queue that converts the daemon from
// request/response to a production control plane. A submitted job is
// persisted atomically before it is acknowledged (the same
// tmp+fsync+rename discipline of checkpoint.AtomicWriteFile), so a
// daemon crash can never lose an accepted job; on restart the queue is
// recovered from disk and interrupted jobs re-execute, and because every
// pipeline in this repository is deterministic (seeded Monte-Carlo
// streams, fingerprint-scoped caches), a resumed job's result is
// byte-identical to an uninterrupted run of the same spec.
//
// The plane provides:
//
//   - bounded worker-pool execution through a pluggable Backend (the
//     in-process pool today; the interface is the seam for remote
//     workers), with per-attempt deadlines and panic quarantine into
//     typed Failure records (stack included) via parallel.Protect;
//   - bounded retry with exponential backoff and deterministic
//     per-(job, attempt) jitter for retryable failures — permanent
//     failures (validation, unknown devices) fail fast;
//   - priority classes with aging: every queued job's effective
//     priority improves as it waits, so background work can never
//     starve behind a stream of interactive submissions;
//   - per-tenant admission control: a token-bucket submission rate
//     limit plus a cap on each tenant's queued+running jobs, shed with
//     a typed ShedError the HTTP layer maps to 429 + Retry-After;
//   - per-job lifecycle events (queued, started, progress, retrying,
//     terminal) with replay + live subscription, the feed behind the
//     SSE endpoint.
package jobs

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"
)

// Kind names the request shape a job carries; each kind maps to one of
// the daemon's synchronous endpoints and produces exactly the bytes
// that endpoint would have returned.
type Kind string

const (
	KindCompile   Kind = "compile"
	KindEstimate  Kind = "estimate"
	KindBatch     Kind = "batch"
	KindPortfolio Kind = "portfolio"
	KindSweep     Kind = "sweep"
)

// Kinds lists the accepted job kinds, for validation messages.
func Kinds() []Kind {
	return []Kind{KindCompile, KindEstimate, KindBatch, KindPortfolio, KindSweep}
}

// ValidKind reports whether k names a known job kind.
func ValidKind(k Kind) bool {
	for _, v := range Kinds() {
		if k == v {
			return true
		}
	}
	return false
}

// Class is a job's priority class. Lower rank dispatches first, but
// rank is not absolute: a queued job's effective priority improves by
// one rank per aging interval waited, so background work eventually
// outranks fresh interactive work (no starvation).
type Class string

const (
	ClassInteractive Class = "interactive"
	ClassBatch       Class = "batch"
	ClassBackground  Class = "background"
)

// DefaultClass is the class applied when a submission names none.
const DefaultClass = ClassBatch

// Classes lists the accepted priority classes, best-first.
func Classes() []Class { return []Class{ClassInteractive, ClassBatch, ClassBackground} }

// rank is the class's base priority (lower dispatches first).
func (c Class) rank() int {
	switch c {
	case ClassInteractive:
		return 0
	case ClassBatch:
		return 1
	default:
		return 2
	}
}

// ValidClass reports whether c names a known priority class.
func ValidClass(c Class) bool {
	for _, v := range Classes() {
		if c == v {
			return true
		}
	}
	return false
}

// State is a job's lifecycle state. The machine is
//
//	queued → running → succeeded | failed | cancelled
//	              ↘ queued (retry after backoff, or interrupted by
//	                        drain/crash — re-queued for resume)
//
// succeeded, failed and cancelled are terminal.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateSucceeded State = "succeeded"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether s is a final state.
func (s State) Terminal() bool {
	return s == StateSucceeded || s == StateFailed || s == StateCancelled
}

// Failure is the typed record of a job attempt's failure, quarantined
// the way the experiment harness quarantines a failing unit: message,
// panic disposition with the captured stack, and whether the failure
// was classified permanent (no retry).
type Failure struct {
	Message   string `json:"message"`
	Panic     bool   `json:"panic,omitempty"`
	Stack     string `json:"stack,omitempty"`
	Permanent bool   `json:"permanent,omitempty"`
	// Attempt is the 1-based attempt that produced this failure.
	Attempt int `json:"attempt"`
}

// maxStackBytes bounds the stack captured into a Failure so a job file
// stays small.
const maxStackBytes = 4096

// Spec is a job submission: everything the caller chooses.
type Spec struct {
	Tenant  string          `json:"tenant,omitempty"`
	Class   Class           `json:"class,omitempty"`
	Kind    Kind            `json:"kind"`
	Request json.RawMessage `json:"request"`
}

// Work is the read-only view of a job a Backend executes: identity plus
// the raw request. Attempt is 1-based.
type Work struct {
	ID      string
	Kind    Kind
	Tenant  string
	Attempt int
	Request json.RawMessage
}

// View is a point-in-time snapshot of a job, safe to hold and marshal
// after the manager has moved on. It is the JSON shape of the status
// endpoint.
type View struct {
	ID            string   `json:"id"`
	Tenant        string   `json:"tenant"`
	Class         Class    `json:"class"`
	Kind          Kind     `json:"kind"`
	State         State    `json:"state"`
	Attempt       int      `json:"attempt"`
	Interruptions int      `json:"interruptions,omitempty"`
	CancelRequest bool     `json:"cancel_requested,omitempty"`
	Failure       *Failure `json:"failure,omitempty"`
	HasResult     bool     `json:"has_result,omitempty"`
}

// job is the manager's mutable record. All fields are guarded by the
// manager mutex; workers operate on copies.
type job struct {
	Spec
	ID            string
	State         State
	Attempt       int // attempts started (1-based once running)
	Interruptions int // crash/drain re-queues (not counted as attempts)
	Seq           uint64
	Failure       *Failure
	Result        []byte // verbatim response bytes of the successful attempt
	CancelRequest bool

	// enqueuedAt drives aging; reset every time the job (re)enters the
	// queue. readyAt delays a retried job until its backoff expires.
	enqueuedAt time.Time
	readyAt    time.Time
}

func (j *job) view() *View {
	v := &View{
		ID:            j.ID,
		Tenant:        j.Tenant,
		Class:         j.Class,
		Kind:          j.Kind,
		State:         j.State,
		Attempt:       j.Attempt,
		Interruptions: j.Interruptions,
		CancelRequest: j.CancelRequest,
		HasResult:     len(j.Result) > 0,
	}
	if j.Failure != nil {
		f := *j.Failure
		v.Failure = &f
	}
	return v
}

// ErrPermanent marks a failure that must not be retried: the job's
// inputs are wrong (validation, unknown device, oversized program), so
// re-running the same spec can only fail the same way. Wrap with
// Permanent; classify with errors.Is(err, ErrPermanent).
var ErrPermanent = errors.New("permanent failure")

// Permanent wraps err as a permanent (non-retryable) failure.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrPermanent, err)
}

// ErrUnknownJob is returned for operations on an id the manager does
// not know.
var ErrUnknownJob = errors.New("unknown job")

// ErrNotCancellable is returned when cancelling a job already in a
// terminal state.
var ErrNotCancellable = errors.New("job already finished")

// ShedError is the typed admission refusal: the HTTP layer maps it to
// 429 with a (jittered) Retry-After derived from RetryAfter.
type ShedError struct {
	// Reason is a stable label for metrics: "rate", "tenant_quota" or
	// "queue_full".
	Reason string
	// RetryAfter is the earliest time a retry could plausibly be
	// admitted (for the rate limiter, the token refill time; for the
	// quotas, a coarse hint).
	RetryAfter time.Duration
	Msg        string
}

func (e *ShedError) Error() string { return e.Msg }
