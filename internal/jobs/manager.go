package jobs

import (
	"cmp"
	"context"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"time"

	"vaq/internal/clock"
	"vaq/internal/metrics"
	"vaq/internal/parallel"
)

// Options tunes a Manager. The zero value is production-usable
// (in-memory, one worker per CPU); withDefaults documents the
// defaults.
type Options struct {
	// Dir is the durable store directory; "" runs the plane in-memory
	// (jobs do not survive a restart).
	Dir string
	// Workers bounds concurrently executing jobs (parallel.Workers
	// semantics: 0 one per CPU, <0 serial).
	Workers int
	// QueueMax caps jobs waiting in the queue, across all tenants
	// (default 1024); beyond it submissions shed.
	QueueMax int
	// Retry bounds retries of retryable failures.
	Retry Policy
	// Quota is the per-tenant admission policy.
	Quota Quota
	// Retention caps terminal jobs kept (in memory and on disk);
	// beyond it the oldest finished jobs are evicted (default 4096).
	Retention int
	// Clock is the time source behind admission timestamps, token
	// buckets, retry scheduling, and the worker loop's backoff timers
	// (default clock.Real). Tests inject a clock.Fake and Advance it
	// instead of sleeping.
	Clock clock.Clock
}

func (o Options) withDefaults() Options {
	o.Workers = parallel.Workers(o.Workers)
	if o.QueueMax <= 0 {
		o.QueueMax = 1024
	}
	o.Retry = o.Retry.withDefaults()
	o.Quota = o.Quota.withDefaults()
	if o.Retention <= 0 {
		o.Retention = 4096
	}
	o.Clock = clock.Or(o.Clock)
	return o
}

// attemptTimeout is the per-attempt execution deadline.
const attemptTimeout = 10 * time.Minute

// Cancellation causes, distinguished when an attempt comes back: a
// user cancel terminates the job, an interruption re-queues it for
// resume.
var (
	errCancelRequested = errors.New("cancelled by request")
	errInterrupted     = errors.New("interrupted by shutdown")
)

// Manager is the durable job control plane: admission (quota + queue
// bound), the priority-aging dispatcher, the bounded worker pool,
// retry/backoff, persistence and crash recovery, and the event feed.
// Construct with NewManager (which recovers any prior queue from Dir),
// then Start; Drain stops it. Safe for concurrent use.
type Manager struct {
	opts Options
	be   Backend
	st   *store
	br   *Broker

	mu            sync.Mutex
	jobs          map[string]*job
	q             *queue
	quotas        *quotas
	running       map[string]context.CancelCauseFunc
	seq           uint64
	queued        int // jobs currently in StateQueued
	terminalOrder []string
	draining      bool

	reg                                                     metrics.Registry
	submitted, outcomes, shed                               *metrics.Counter
	retries, interrupted, recovered, corrupt, persistErrors *metrics.Counter

	wake      chan struct{}
	stopClaim chan struct{}
	wg        sync.WaitGroup
	started   bool
}

// NewManager opens (or creates) the store under opts.Dir, recovers its
// queue — terminal jobs are retained for status queries, queued jobs
// re-enter the queue, and jobs found mid-run (a crash) are re-queued
// with an interruption mark, to be re-executed deterministically — and
// returns a manager ready to Start. Corrupt store files are quarantined
// and counted, never fatal.
func NewManager(opts Options, be Backend) (*Manager, error) {
	if be == nil {
		return nil, fmt.Errorf("jobs: nil backend")
	}
	opts = opts.withDefaults()
	st, err := openStore(opts.Dir)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		opts:      opts,
		be:        be,
		st:        st,
		br:        newBroker(),
		jobs:      make(map[string]*job),
		q:         &queue{},
		quotas:    newQuotas(opts.Quota),
		running:   make(map[string]context.CancelCauseFunc),
		wake:      make(chan struct{}, 1),
		stopClaim: make(chan struct{}),
	}
	m.registerMetrics()
	loaded, corrupt, err := st.load()
	if err != nil {
		return nil, err
	}
	m.corrupt.Add(float64(corrupt))
	now := opts.Clock.Now()
	for _, j := range loaded {
		if j.Seq > m.seq {
			m.seq = j.Seq
		}
		m.jobs[j.ID] = j
		switch {
		case j.State.Terminal():
			m.terminalOrder = append(m.terminalOrder, j.ID)
		case j.CancelRequest:
			// A cancel was accepted but the crash beat the terminal
			// transition; honor it now rather than re-running work the
			// user disowned.
			j.State = StateCancelled
			m.outcomes.Add(1, string(j.State), string(j.Class), j.Tenant)
			m.terminalOrder = append(m.terminalOrder, j.ID)
			m.persistLocked(j)
			m.br.Publish(j.ID, Event{Type: EventCancelled, State: StateCancelled, Attempt: j.Attempt})
		default:
			if j.State == StateRunning {
				// Crashed mid-attempt: the attempt never finished, so it
				// does not count against the retry budget.
				if j.Attempt > 0 {
					j.Attempt--
				}
				j.Interruptions++
				m.interrupted.Add(1)
				j.State = StateQueued
				m.persistLocked(j)
			}
			m.recovered.Add(1)
			m.quotas.live[j.Tenant]++
			m.q.push(j, now)
			m.queued++
			m.br.Publish(j.ID, Event{Type: EventRecovered, State: StateQueued, Attempt: j.Attempt,
				Message: fmt.Sprintf("recovered from store (interruptions: %d)", j.Interruptions)})
		}
	}
	m.evictLocked()
	return m, nil
}

// Start launches the worker pool. Idempotent.
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.draining {
		m.mu.Unlock()
		return
	}
	m.started = true
	m.mu.Unlock()
	for i := 0; i < m.opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
}

// Drain stops the plane: no new jobs are claimed (submissions shed),
// running jobs get until ctx's deadline to finish, and any still
// running after that are cancelled and re-queued to the durable store
// as interrupted — the checkpoint a restarted daemon resumes from. A
// nil return means every running job finished inside the deadline.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		return nil
	}
	m.draining = true
	m.mu.Unlock()
	close(m.stopClaim)

	done := make(chan struct{})
	go func() { m.wg.Wait(); close(done) }()
	select {
	case <-done:
		m.br.Close()
		return nil
	case <-ctx.Done():
	}
	m.mu.Lock()
	n := len(m.running)
	for _, cancel := range m.running {
		cancel(errInterrupted)
	}
	m.mu.Unlock()
	<-done
	m.br.Close()
	if n > 0 {
		return fmt.Errorf("jobs: drain deadline: %d running job(s) interrupted and re-queued", n)
	}
	return nil
}

// Submit validates, admits, persists, and enqueues one job, returning
// its accepted snapshot. Over-quota and over-capacity submissions
// return a *ShedError before any state is created.
func (m *Manager) Submit(spec Spec) (*View, error) {
	if !ValidKind(spec.Kind) {
		return nil, fmt.Errorf("jobs: unknown kind %q (valid: %v)", spec.Kind, Kinds())
	}
	if spec.Class == "" {
		spec.Class = DefaultClass
	}
	if !ValidClass(spec.Class) {
		return nil, fmt.Errorf("jobs: unknown class %q (valid: %v)", spec.Class, Classes())
	}
	if spec.Tenant == "" {
		spec.Tenant = "anonymous"
	}

	m.mu.Lock()
	now := m.opts.Clock.Now()
	if m.draining {
		m.shed.Add(1, "draining")
		m.mu.Unlock()
		return nil, &ShedError{Reason: "draining", RetryAfter: 5 * time.Second, Msg: "daemon is draining"}
	}
	if m.queued >= m.opts.QueueMax {
		m.shed.Add(1, "queue_full")
		m.mu.Unlock()
		return nil, &ShedError{Reason: "queue_full", RetryAfter: time.Second,
			Msg: fmt.Sprintf("job queue full (%d queued)", m.opts.QueueMax)}
	}
	if err := m.quotas.admit(spec.Tenant, now); err != nil {
		var se *ShedError
		if errors.As(err, &se) {
			m.shed.Add(1, se.Reason)
		}
		m.mu.Unlock()
		return nil, err
	}
	m.seq++
	j := &job{
		Spec:  spec,
		ID:    newID(),
		State: StateQueued,
		Seq:   m.seq,
	}
	// Durability before acknowledgement: if the spec cannot be
	// persisted, the job is refused — an accepted job must survive a
	// crash.
	if m.st != nil {
		if err := m.st.save(j); err != nil {
			m.quotas.release(spec.Tenant, now)
			m.mu.Unlock()
			return nil, err
		}
	}
	m.jobs[j.ID] = j
	m.submitted.Add(1, string(j.Class), j.Tenant)
	m.q.push(j, now)
	m.queued++
	v := j.view()
	m.mu.Unlock()
	m.br.Publish(v.ID, Event{Type: EventQueued, State: StateQueued})
	m.wakeOne()
	return v, nil
}

// Get returns a job's current snapshot.
func (m *Manager) Get(id string) (*View, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, false
	}
	return j.view(), true
}

// List snapshots every known job in admission order.
func (m *Manager) List() []*View {
	m.mu.Lock()
	defer m.mu.Unlock()
	jobs := make([]*job, 0, len(m.jobs))
	for _, j := range m.jobs {
		jobs = append(jobs, j)
	}
	// Admission order — stable and meaningful for dashboards.
	slices.SortFunc(jobs, func(a, b *job) int { return cmp.Compare(a.Seq, b.Seq) })
	out := make([]*View, len(jobs))
	for i, j := range jobs {
		out[i] = j.view()
	}
	return out
}

// Result returns the verbatim response bytes of a succeeded job. The
// returned slice must not be mutated.
func (m *Manager) Result(id string) ([]byte, State, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, "", false
	}
	return j.Result, j.State, true
}

// Cancel requests cancellation: a queued job terminates immediately; a
// running job's attempt context is cancelled and the job terminates
// when the attempt returns. Cancelling a terminal job returns
// ErrNotCancellable with the (unchanged) snapshot.
func (m *Manager) Cancel(id string) (*View, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, ErrUnknownJob
	}
	now := m.opts.Clock.Now()
	switch {
	case j.State.Terminal():
		v := j.view()
		m.mu.Unlock()
		return v, ErrNotCancellable
	case j.State == StateQueued:
		j.CancelRequest = true
		j.State = StateCancelled
		m.queued--
		m.finishLocked(j, now)
		v := j.view()
		m.mu.Unlock()
		m.br.Publish(id, Event{Type: EventCancelled, State: StateCancelled, Attempt: v.Attempt})
		return v, nil
	default: // running
		j.CancelRequest = true
		cancel := m.running[id]
		m.persistLocked(j)
		v := j.view()
		m.mu.Unlock()
		if cancel != nil {
			cancel(errCancelRequested)
		}
		return v, nil
	}
}

// Subscribe returns id's event history plus a live feed (closed after
// the terminal event; immediately if the job already finished).
func (m *Manager) Subscribe(id string) (history []Event, ch <-chan Event, cancel func(), err error) {
	m.mu.Lock()
	_, ok := m.jobs[id]
	m.mu.Unlock()
	if !ok {
		return nil, nil, nil, ErrUnknownJob
	}
	history, ch, cancel = m.br.Subscribe(id)
	return history, ch, cancel, nil
}

// worker is one pool goroutine: claim the best ready job, execute it,
// repeat; sleep when nothing is ready, bounded by the next retry's due
// time.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		m.mu.Lock()
		if m.draining {
			m.mu.Unlock()
			return
		}
		now := m.opts.Clock.Now()
		j, wait := m.q.pop(now)
		if j != nil {
			m.queued--
			j.State = StateRunning
			j.Attempt++
			jctx, cancel := context.WithCancelCause(context.Background())
			m.running[j.ID] = cancel
			w := Work{ID: j.ID, Kind: j.Kind, Tenant: j.Tenant, Attempt: j.Attempt, Request: j.Request}
			m.persistLocked(j)
			more := m.queued > 0
			m.mu.Unlock()
			if more {
				m.wakeOne() // chain-wake: more ready work than awake workers
			}
			m.br.Publish(w.ID, Event{Type: EventStarted, State: StateRunning, Attempt: w.Attempt})
			m.attempt(jctx, cancel, j, w)
			continue
		}
		m.mu.Unlock()
		var timerC <-chan time.Time
		var timer clock.Timer
		if wait > 0 {
			// The injected clock schedules the retry-due wakeup, so a
			// fake clock drives backoff tests without real sleeping.
			timer = m.opts.Clock.NewTimer(wait)
			timerC = timer.C()
		}
		select {
		case <-m.stopClaim:
			if timer != nil {
				timer.Stop()
			}
			return
		case <-m.wake:
		case <-timerC:
		}
		if timer != nil {
			timer.Stop()
		}
	}
}

// attempt executes one claimed job attempt through the backend under
// the per-attempt deadline, with panics quarantined by
// parallel.Protect, then applies the outcome to the state machine.
func (m *Manager) attempt(jctx context.Context, cancel context.CancelCauseFunc, j *job, w Work) {
	actx, acancel := context.WithTimeout(jctx, attemptTimeout)
	var body []byte
	err := parallel.Protect(func() error {
		b, e := m.be.Execute(actx, w, func(msg string) {
			m.br.Publish(w.ID, Event{Type: EventProgress, State: StateRunning, Attempt: w.Attempt, Message: msg})
		})
		body = b
		return e
	})
	acancel()
	cause := context.Cause(jctx)
	cancel(nil)

	m.mu.Lock()
	delete(m.running, j.ID)
	now := m.opts.Clock.Now()
	var ev Event
	switch {
	case err == nil:
		// Success stands even if a cancel raced in too late to matter.
		j.State = StateSucceeded
		j.Result = body
		j.Failure = nil
		m.finishLocked(j, now)
		ev = Event{Type: EventSucceeded, State: StateSucceeded, Attempt: w.Attempt}
	case errors.Is(cause, errInterrupted):
		// Drain interrupted the attempt: back to the durable queue; the
		// attempt does not count, and a restart re-runs the spec
		// deterministically.
		j.State = StateQueued
		j.Attempt--
		j.Interruptions++
		m.interrupted.Add(1)
		m.q.push(j, now)
		m.queued++
		m.persistLocked(j)
		ev = Event{Type: EventRecovered, State: StateQueued, Attempt: j.Attempt,
			Message: "interrupted by shutdown; re-queued"}
	case j.CancelRequest || errors.Is(cause, errCancelRequested):
		j.State = StateCancelled
		j.Failure = failureFrom(err, w.Attempt)
		m.finishLocked(j, now)
		ev = Event{Type: EventCancelled, State: StateCancelled, Attempt: w.Attempt}
	case Retryable(err) && j.Attempt < m.opts.Retry.MaxAttempts:
		delay := m.opts.Retry.Backoff(j.ID, j.Attempt)
		j.State = StateQueued
		j.Failure = failureFrom(err, w.Attempt)
		m.retries.Add(1)
		m.q.pushDelayed(j, now.Add(delay))
		m.queued++
		m.persistLocked(j)
		ev = Event{Type: EventRetrying, State: StateQueued, Attempt: w.Attempt,
			Message: fmt.Sprintf("attempt %d failed (%v); retrying in %v", w.Attempt, err, delay.Round(time.Millisecond))}
	default:
		j.State = StateFailed
		j.Failure = failureFrom(err, w.Attempt)
		m.finishLocked(j, now)
		ev = Event{Type: EventFailed, State: StateFailed, Attempt: w.Attempt, Message: err.Error()}
	}
	m.mu.Unlock()
	m.br.Publish(w.ID, ev)
	if ev.Type == EventRetrying || ev.Type == EventRecovered {
		m.wakeOne()
	}
}

// finishLocked applies the bookkeeping of a terminal transition:
// release the tenant's quota slot, count the outcome, persist, and
// evict beyond retention.
func (m *Manager) finishLocked(j *job, now time.Time) {
	m.quotas.release(j.Tenant, now)
	m.outcomes.Add(1, string(j.State), string(j.Class), j.Tenant)
	m.terminalOrder = append(m.terminalOrder, j.ID)
	m.persistLocked(j)
	m.evictLocked()
}

func (m *Manager) persistLocked(j *job) {
	if err := m.st.save(j); err != nil {
		m.persistErrors.Add(1)
	}
}

// evictLocked drops the oldest terminal jobs beyond the retention cap:
// memory record, event feed, and store file.
func (m *Manager) evictLocked() {
	for len(m.terminalOrder) > m.opts.Retention {
		id := m.terminalOrder[0]
		m.terminalOrder = m.terminalOrder[1:]
		if j, ok := m.jobs[id]; ok && j.State.Terminal() {
			delete(m.jobs, id)
			m.st.remove(id)
			m.br.Drop(id)
		}
	}
}

func (m *Manager) wakeOne() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// registerMetrics declares the plane's metric families in exposition
// order; queued and running are read under mu at scrape time.
func (m *Manager) registerMetrics() {
	r := &m.reg
	r.Func("gauge", "nisqd_jobs_queued", "Jobs waiting in the queue (including backoff delays).", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(m.queued)
	})
	r.Func("gauge", "nisqd_jobs_running", "Jobs currently executing.", func() float64 {
		m.mu.Lock()
		defer m.mu.Unlock()
		return float64(len(m.running))
	})
	m.submitted = r.Counter("nisqd_jobs_submitted_total", "Jobs accepted, by class and tenant.", "class", "tenant")
	m.outcomes = r.Counter("nisqd_jobs_outcomes_total", "Jobs finished, by terminal state, class and tenant.", "state", "class", "tenant")
	m.shed = r.Counter("nisqd_jobs_shed_total", "Submissions refused before admission, by reason.", "reason")
	m.retries = r.Counter("nisqd_jobs_retries_total", "Attempts re-queued under the backoff policy.")
	m.interrupted = r.Counter("nisqd_jobs_interrupted_total", "Running jobs re-queued by a drain or crash.")
	m.recovered = r.Counter("nisqd_jobs_recovered_total", "Jobs recovered from the store at startup.")
	m.corrupt = r.Counter("nisqd_jobs_store_corrupt_total", "Store files quarantined at startup.")
	m.persistErrors = r.Counter("nisqd_jobs_persist_errors_total", "Job state transitions that failed to persist.")
}

// WriteMetrics writes the plane's gauges and counters as Prometheus
// text exposition.
func (m *Manager) WriteMetrics(w io.Writer) error { return m.reg.WriteText(w) }

// newID returns a 16-hex-digit random job id.
func newID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("jobs: id entropy unavailable: %v", err))
	}
	return hex.EncodeToString(b[:])
}
