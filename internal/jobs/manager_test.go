package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vaq/internal/clock"
)

// pending counts jobs queued or running.
func (m *Manager) pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.queued + len(m.running)
}

// echoBackend succeeds immediately, returning the request bytes.
func echoBackend() Backend {
	return Backend(func(_ context.Context, w Work, _ func(string)) ([]byte, error) {
		return append([]byte("result:"), w.Request...), nil
	})
}

// blockingBackend blocks until released (or ctx fires). release is safe
// to call once; started receives one value per attempt begun.
type blockingBackend struct {
	started chan string
	release chan struct{}
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{started: make(chan string, 64), release: make(chan struct{})}
}

func (b *blockingBackend) Execute(ctx context.Context, w Work, _ func(string)) ([]byte, error) {
	b.started <- w.ID
	select {
	case <-b.release:
		return []byte("done:" + w.ID), nil
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

func submitOK(t *testing.T, m *Manager, spec Spec) *View {
	t.Helper()
	v, err := m.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	return v
}

func spec(kind Kind, req string) Spec {
	return Spec{Kind: kind, Request: []byte(req)}
}

// waitState polls until job id reaches want (or the deadline trips).
func waitState(t *testing.T, m *Manager, id string, want State) *View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State == want {
			return v
		}
		time.Sleep(2 * time.Millisecond)
	}
	v, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (now %+v)", id, want, v)
	return nil
}

func TestSubmitExecuteResult(t *testing.T) {
	m, err := NewManager(Options{Workers: 2}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	v := submitOK(t, m, spec(KindCompile, `{"x":1}`))
	if v.State != StateQueued || v.Tenant != "anonymous" || v.Class != DefaultClass {
		t.Fatalf("unexpected accepted view: %+v", v)
	}
	final := waitState(t, m, v.ID, StateSucceeded)
	if !final.HasResult || final.Attempt != 1 {
		t.Fatalf("unexpected final view: %+v", final)
	}
	body, st, ok := m.Result(v.ID)
	if !ok || st != StateSucceeded || string(body) != `result:{"x":1}` {
		t.Fatalf("Result = %q, %s, %v", body, st, ok)
	}
	if got := m.outcomes.Value(string(StateSucceeded), string(DefaultClass), "anonymous"); got != 1 {
		t.Fatalf("outcome counter = %v, want 1", got)
	}
}

func TestSubmitValidation(t *testing.T) {
	m, err := NewManager(Options{}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(Spec{Kind: "nope"}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := m.Submit(Spec{Kind: KindCompile, Class: "vip"}); err == nil {
		t.Fatal("unknown class accepted")
	}
}

// waitStateClocked is waitState for managers on a fake clock: whenever
// the worker loop is parked on a backoff timer, the clock is advanced
// past it instead of sleeping through the backoff for real.
func waitStateClocked(t *testing.T, m *Manager, f *clock.Fake, id string, want State) *View {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		v, ok := m.Get(id)
		if !ok {
			t.Fatalf("job %s vanished", id)
		}
		if v.State == want {
			return v
		}
		if f.Pending() > 0 {
			f.Advance(12 * time.Hour) // past any hour-scale backoff
		} else {
			time.Sleep(time.Millisecond)
		}
	}
	v, _ := m.Get(id)
	t.Fatalf("job %s never reached %s (now %+v)", id, want, v)
	return nil
}

func TestRetryBackoffThenSuccess(t *testing.T) {
	// Hour-scale backoffs on a fake clock: the test can only pass inside
	// its 10-second wall-clock deadline if the retry schedule runs on
	// the injected clock, never on real sleeps.
	fake := clock.NewFake(time.Unix(1700000000, 0))
	var calls atomic.Int32
	be := Backend(func(_ context.Context, w Work, _ func(string)) ([]byte, error) {
		if calls.Add(1) < 3 {
			return nil, fmt.Errorf("transient glitch %d", w.Attempt)
		}
		return []byte("ok"), nil
	})
	m, err := NewManager(Options{
		Workers: 1,
		Clock:   fake,
		Retry:   Policy{MaxAttempts: 3, Base: time.Hour, Max: 4 * time.Hour},
	}, be)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	v := submitOK(t, m, spec(KindEstimate, `{}`))
	final := waitStateClocked(t, m, fake, v.ID, StateSucceeded)
	if final.Attempt != 3 {
		t.Fatalf("Attempt = %d, want 3", final.Attempt)
	}
	if got := m.retries.Value(); got != 2 {
		t.Fatalf("retries = %v, want 2", got)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	fake := clock.NewFake(time.Unix(1700000000, 0))
	be := Backend(func(context.Context, Work, func(string)) ([]byte, error) {
		return nil, errors.New("always broken")
	})
	m, err := NewManager(Options{
		Workers: 1,
		Clock:   fake,
		Retry:   Policy{MaxAttempts: 2, Base: time.Hour, Max: 4 * time.Hour},
	}, be)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	v := submitOK(t, m, spec(KindCompile, `{}`))
	final := waitStateClocked(t, m, fake, v.ID, StateFailed)
	if final.Attempt != 2 || final.Failure == nil || final.Failure.Permanent {
		t.Fatalf("unexpected final view: %+v (failure %+v)", final, final.Failure)
	}
}

func TestPermanentFailureSkipsRetry(t *testing.T) {
	var calls atomic.Int32
	be := Backend(func(context.Context, Work, func(string)) ([]byte, error) {
		calls.Add(1)
		return nil, Permanent(errors.New("bad request shape"))
	})
	m, err := NewManager(Options{Workers: 1}, be)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	v := submitOK(t, m, spec(KindCompile, `{}`))
	final := waitState(t, m, v.ID, StateFailed)
	if final.Attempt != 1 || calls.Load() != 1 {
		t.Fatalf("permanent failure was retried: attempt=%d calls=%d", final.Attempt, calls.Load())
	}
	if final.Failure == nil || !final.Failure.Permanent {
		t.Fatalf("failure not marked permanent: %+v", final.Failure)
	}
}

func TestPanicQuarantined(t *testing.T) {
	be := Backend(func(context.Context, Work, func(string)) ([]byte, error) {
		panic("kernel exploded")
	})
	m, err := NewManager(Options{Workers: 1, Retry: Policy{MaxAttempts: 1, Base: time.Millisecond}}, be)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	v := submitOK(t, m, spec(KindCompile, `{}`))
	final := waitState(t, m, v.ID, StateFailed)
	f := final.Failure
	if f == nil || !f.Panic || !strings.Contains(f.Message, "kernel exploded") || f.Stack == "" {
		t.Fatalf("panic not quarantined into failure: %+v", f)
	}
}

func TestCancelQueued(t *testing.T) {
	// No Start: jobs stay queued forever.
	m, err := NewManager(Options{Workers: 1}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	v := submitOK(t, m, spec(KindCompile, `{}`))
	cv, err := m.Cancel(v.ID)
	if err != nil || cv.State != StateCancelled {
		t.Fatalf("Cancel = %+v, %v", cv, err)
	}
	if _, err := m.Cancel(v.ID); !errors.Is(err, ErrNotCancellable) {
		t.Fatalf("second Cancel err = %v, want ErrNotCancellable", err)
	}
	if _, err := m.Cancel("deadbeef"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown Cancel err = %v, want ErrUnknownJob", err)
	}
}

func TestCancelRunning(t *testing.T) {
	be := newBlockingBackend()
	m, err := NewManager(Options{Workers: 1}, be.Execute)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	v := submitOK(t, m, spec(KindCompile, `{}`))
	<-be.started
	if _, err := m.Cancel(v.ID); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	final := waitState(t, m, v.ID, StateCancelled)
	if !final.CancelRequest {
		t.Fatalf("cancel_requested not recorded: %+v", final)
	}
}

func TestQuotaRateShed(t *testing.T) {
	m, err := NewManager(Options{Quota: Quota{Rate: 0.001, Burst: 1, MaxPerTenant: 10}}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(spec(KindCompile, `{}`)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = m.Submit(spec(KindCompile, `{}`))
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "rate" || se.RetryAfter <= 0 {
		t.Fatalf("second submit err = %v, want rate ShedError with positive RetryAfter", err)
	}
	if got := m.shed.Value("rate"); got != 1 {
		t.Fatalf("shed{rate} = %v, want 1", got)
	}
}

func TestTenantQuotaIsolation(t *testing.T) {
	m, err := NewManager(Options{Quota: Quota{Rate: 1000, Burst: 1000, MaxPerTenant: 1}}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	// No Start: the first job occupies tenant A's only slot.
	if _, err := m.Submit(Spec{Tenant: "a", Kind: KindCompile, Request: []byte(`{}`)}); err != nil {
		t.Fatalf("tenant a first submit: %v", err)
	}
	_, err = m.Submit(Spec{Tenant: "a", Kind: KindCompile, Request: []byte(`{}`)})
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "tenant_quota" {
		t.Fatalf("tenant a second submit err = %v, want tenant_quota", err)
	}
	// Tenant B is unaffected.
	if _, err := m.Submit(Spec{Tenant: "b", Kind: KindCompile, Request: []byte(`{}`)}); err != nil {
		t.Fatalf("tenant b submit sheds with tenant a at quota: %v", err)
	}
}

func TestQueueFullShed(t *testing.T) {
	m, err := NewManager(Options{QueueMax: 1}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit(spec(KindCompile, `{}`)); err != nil {
		t.Fatalf("first submit: %v", err)
	}
	_, err = m.Submit(spec(KindCompile, `{}`))
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "queue_full" {
		t.Fatalf("err = %v, want queue_full ShedError", err)
	}
}

func TestDurabilityAndRecovery(t *testing.T) {
	dir := t.TempDir()

	// Manager A accepts jobs but never runs them (no Start) — then
	// "crashes" (is dropped).
	a, err := NewManager(Options{Dir: dir}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	v1 := submitOK(t, a, spec(KindCompile, `{"p":1}`))
	v2 := submitOK(t, a, spec(KindEstimate, `{"p":2}`))
	cv, err := a.Cancel(v2.ID)
	if err != nil || cv.State != StateCancelled {
		t.Fatalf("cancel before crash: %+v, %v", cv, err)
	}

	// Manager B recovers the queue from disk and completes it.
	b, err := NewManager(Options{Dir: dir, Workers: 1}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.recovered.Value(); got != 1 {
		t.Fatalf("recovered = %v, want 1 (the queued job)", got)
	}
	if v, ok := b.Get(v2.ID); !ok || v.State != StateCancelled {
		t.Fatalf("cancelled job not retained across restart: %+v ok=%v", v, ok)
	}
	b.Start()
	defer b.Drain(context.Background())
	final := waitState(t, b, v1.ID, StateSucceeded)
	if body, _, _ := b.Result(final.ID); string(body) != `result:{"p":1}` {
		t.Fatalf("recovered job result = %q", body)
	}
}

func TestRunningJobRecoveredAsInterrupted(t *testing.T) {
	dir := t.TempDir()
	be := newBlockingBackend()
	a, err := NewManager(Options{Dir: dir, Workers: 1}, be.Execute)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	v := submitOK(t, a, spec(KindCompile, `{"p":3}`))
	<-be.started // the job's file on disk now says "running"

	// Simulate a crash: boot manager B from the same dir without
	// draining A. B must treat the running job as interrupted and re-run
	// it from the spec.
	b, err := NewManager(Options{Dir: dir, Workers: 1}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	bv, ok := b.Get(v.ID)
	if !ok || bv.State != StateQueued || bv.Interruptions != 1 || bv.Attempt != 0 {
		t.Fatalf("recovered view = %+v, want queued with 1 interruption, attempt reset", bv)
	}
	if got := b.interrupted.Value(); got != 1 {
		t.Fatalf("interrupted = %v, want 1", got)
	}
	b.Start()
	defer b.Drain(context.Background())
	final := waitState(t, b, v.ID, StateSucceeded)
	if final.Attempt != 1 || final.Interruptions != 1 {
		t.Fatalf("final view = %+v", final)
	}
	// Unblock A's worker and drain it, so its final persist cannot race
	// the test directory's cleanup.
	close(be.release)
	a.Drain(context.Background())
}

func TestCorruptStoreFilesQuarantined(t *testing.T) {
	dir := t.TempDir()
	a, err := NewManager(Options{Dir: dir}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	v := submitOK(t, a, spec(KindCompile, `{}`))

	// Three flavors of damage beside the healthy file.
	if err := os.WriteFile(filepath.Join(dir, "job-aaaa.json"), []byte("{truncat"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-bbbb.json"), []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Wrong-key envelope: valid JSON whose internal id contradicts the
	// filename (a copied or renamed file must not be trusted).
	healthy, err := os.ReadFile(filepath.Join(dir, "job-"+v.ID+".json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "job-cccc.json"), healthy, 0o644); err != nil {
		t.Fatal(err)
	}

	b, err := NewManager(Options{Dir: dir, Workers: 1}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	if got := b.corrupt.Value(); got != 3 {
		t.Fatalf("corrupt = %v, want 3", got)
	}
	if _, ok := b.Get(v.ID); !ok {
		t.Fatal("healthy job lost during quarantine")
	}
	for _, name := range []string{"job-aaaa.json.corrupt", "job-bbbb.json.corrupt", "job-cccc.json.corrupt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("quarantine file %s missing: %v", name, err)
		}
	}
	// And the quarantined copies are not re-counted at the next boot.
	c, err := NewManager(Options{Dir: dir}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.corrupt.Value(); got != 0 {
		t.Fatalf("corrupt after quarantine = %v, want 0", got)
	}
}

func TestDrainInterruptsAndRequeues(t *testing.T) {
	dir := t.TempDir()
	be := newBlockingBackend()
	a, err := NewManager(Options{Dir: dir, Workers: 1}, be.Execute)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	v := submitOK(t, a, spec(KindCompile, `{"p":9}`))
	<-be.started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := a.Drain(ctx); err == nil {
		t.Fatal("Drain with a stuck job returned nil")
	}
	av, _ := a.Get(v.ID)
	if av.State != StateQueued || av.Interruptions != 1 {
		t.Fatalf("after drain: %+v, want queued with 1 interruption", av)
	}

	// A restarted daemon picks the job back up and finishes it.
	b, err := NewManager(Options{Dir: dir, Workers: 1}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	b.Start()
	defer b.Drain(context.Background())
	final := waitState(t, b, v.ID, StateSucceeded)
	if body, _, _ := b.Result(final.ID); string(body) != `result:{"p":9}` {
		t.Fatalf("resumed result = %q", body)
	}
}

func TestDrainGracefulWithinDeadline(t *testing.T) {
	be := newBlockingBackend()
	m, err := NewManager(Options{Workers: 1}, be.Execute)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	v := submitOK(t, m, spec(KindCompile, `{}`))
	<-be.started
	close(be.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if fv, _ := m.Get(v.ID); fv.State != StateSucceeded {
		t.Fatalf("job after graceful drain: %+v", fv)
	}
	// Submissions shed while draining.
	if _, err := m.Submit(spec(KindCompile, `{}`)); err == nil {
		t.Fatal("submit during drain accepted")
	}
}

func TestEventsReplayAndLive(t *testing.T) {
	be := newBlockingBackend()
	m, err := NewManager(Options{Workers: 1}, be.Execute)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	v := submitOK(t, m, spec(KindCompile, `{}`))
	<-be.started
	history, ch, cancel, err := m.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	// queued and started already happened — replay must carry them.
	var types []string
	for _, ev := range history {
		types = append(types, ev.Type)
	}
	if len(types) < 2 || types[0] != EventQueued || types[1] != EventStarted {
		t.Fatalf("replayed history = %v", types)
	}
	close(be.release)
	var last Event
	for ev := range ch {
		last = ev
	}
	if last.Type != EventSucceeded || !last.State.Terminal() {
		t.Fatalf("live feed ended with %+v, want succeeded", last)
	}
	// Sequences are contiguous from replay into live delivery.
	if history[len(history)-1].Seq >= last.Seq {
		t.Fatalf("seq did not advance: history tail %d, last %d", history[len(history)-1].Seq, last.Seq)
	}

	// Subscribing after the terminal event: full replay, closed channel.
	h2, ch2, cancel2, err := m.Subscribe(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel2()
	if _, open := <-ch2; open {
		t.Fatal("channel for finished job not closed")
	}
	if h2[len(h2)-1].Type != EventSucceeded {
		t.Fatalf("post-terminal replay = %+v", h2)
	}

	if _, _, _, err := m.Subscribe("unknown"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("Subscribe(unknown) err = %v", err)
	}
}

func TestRetentionEvictsOldTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	m, err := NewManager(Options{Dir: dir, Workers: 1, Retention: 2, Quota: Quota{Rate: 1e6, Burst: 1 << 20}}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())
	var ids []string
	for i := 0; i < 5; i++ {
		v := submitOK(t, m, spec(KindCompile, fmt.Sprintf(`{"i":%d}`, i)))
		waitState(t, m, v.ID, StateSucceeded)
		ids = append(ids, v.ID)
	}
	if _, ok := m.Get(ids[0]); ok {
		t.Fatal("oldest terminal job survived retention")
	}
	if _, ok := m.Get(ids[4]); !ok {
		t.Fatal("newest terminal job evicted")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("store holds %d files, want 2 (retention)", len(entries))
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	p := Policy{Base: 100 * time.Millisecond, Max: 5 * time.Second, MaxAttempts: 10}
	for attempt := 1; attempt <= 8; attempt++ {
		d1 := p.Backoff("job-x", attempt)
		d2 := p.Backoff("job-x", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic (%v vs %v)", attempt, d1, d2)
		}
		base := float64(100*time.Millisecond) * float64(int(1)<<(attempt-1))
		if base > float64(5*time.Second) {
			base = float64(5 * time.Second)
		}
		if float64(d1) < base || float64(d1) >= base*1.5 {
			t.Fatalf("attempt %d: %v outside [%v, %v)", attempt, d1, time.Duration(base), time.Duration(base*1.5))
		}
	}
	if p.Backoff("job-x", 1) == p.Backoff("job-y", 1) {
		t.Fatal("different jobs got identical jitter (suspicious)")
	}
}

func TestManagerConcurrentMixedClients(t *testing.T) {
	m, err := NewManager(Options{
		Workers: 4,
		Quota:   Quota{Rate: 1e6, Burst: 1 << 20, MaxPerTenant: 1 << 20},
	}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	const clients = 32
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tenant := fmt.Sprintf("t%d", c%4)
			for i := 0; i < 8; i++ {
				v, err := m.Submit(Spec{Tenant: tenant, Kind: KindCompile, Request: []byte(`{}`)})
				if err != nil {
					errs <- err
					return
				}
				switch i % 3 {
				case 0:
					m.Get(v.ID)
				case 1:
					m.Cancel(v.ID) // may race with completion; both fine
				default:
					if _, ch, cancel, err := m.Subscribe(v.ID); err == nil {
						go func() {
							for range ch {
							}
						}()
						defer cancel()
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("client error: %v", err)
	}
	// Everything settles to a terminal state.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if m.pending() == 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("queue never drained: %d jobs queued or running", m.pending())
}

func TestResultBytesRoundTripExactly(t *testing.T) {
	// The durability contract: result bytes survive a store round-trip
	// byte-for-byte, including whitespace that raw-JSON embedding would
	// destroy.
	dir := t.TempDir()
	exact := []byte("{\n  \"deep\": [1, 2, 3]\n}\n")
	be := Backend(func(context.Context, Work, func(string)) ([]byte, error) {
		return exact, nil
	})
	a, err := NewManager(Options{Dir: dir, Workers: 1}, be)
	if err != nil {
		t.Fatal(err)
	}
	a.Start()
	v := submitOK(t, a, spec(KindCompile, `{}`))
	waitState(t, a, v.ID, StateSucceeded)
	a.Drain(context.Background())

	b, err := NewManager(Options{Dir: dir}, be)
	if err != nil {
		t.Fatal(err)
	}
	body, st, ok := b.Result(v.ID)
	if !ok || st != StateSucceeded || !bytes.Equal(body, exact) {
		t.Fatalf("restart result = %q (%s, %v), want exact bytes", body, st, ok)
	}
}

// TestListAdmissionOrder: List returns jobs in admission order although
// they finish in reverse.
func TestListAdmissionOrder(t *testing.T) {
	const n = 16
	release := make([]chan struct{}, n)
	for i := range release {
		release[i] = make(chan struct{})
	}
	be := Backend(func(ctx context.Context, w Work, _ func(string)) ([]byte, error) {
		var i int
		if _, err := fmt.Sscanf(string(w.Request), `{"i":%d}`, &i); err != nil {
			return nil, err
		}
		select {
		case <-release[i]:
			return w.Request, nil
		case <-ctx.Done():
			return nil, context.Cause(ctx)
		}
	})
	m, err := NewManager(Options{Workers: n}, be)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	defer m.Drain(context.Background())

	ids := make([]string, n)
	for i := range ids {
		ids[i] = submitOK(t, m, spec(KindCompile, fmt.Sprintf(`{"i":%d}`, i))).ID
	}
	for i := n - 1; i >= 0; i-- {
		close(release[i])
		waitState(t, m, ids[i], StateSucceeded)
	}
	var got []string
	for _, v := range m.List() {
		got = append(got, v.ID)
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("List order %v, admission order %v", got, ids)
	}
}

// TestBackoffJitterKnownAnswers pins the deterministic jitter: the delay
// is a pure function of (policy, job ID, attempt).
func TestBackoffJitterKnownAnswers(t *testing.T) {
	p := Policy{MaxAttempts: 5, Base: time.Second, Max: time.Minute}
	for _, tc := range []struct {
		id      string
		attempt int
		want    time.Duration
	}{
		{"", 1, 1381847262},
		{"j-1", 1, 1115385717},
		{"j-1", 2, 2568718637},
		{"job-000042", 4, 10937260455},
	} {
		if got := p.Backoff(tc.id, tc.attempt); got != tc.want {
			t.Errorf("Backoff(%q, %d) = %d, want %d", tc.id, tc.attempt, got, tc.want)
		}
	}
}
