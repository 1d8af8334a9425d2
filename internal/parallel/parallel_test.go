package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-5); got != 1 {
		t.Fatalf("Workers(-5) = %d, want 1 (serial)", got)
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{-1, 1, 2, 8} {
		out, err := Map(workers, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 100 {
			t.Fatalf("workers=%d: %d results", workers, len(out))
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachRunsEveryItem(t *testing.T) {
	var ran atomic.Int64
	if err := ForEach(4, 57, func(i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 57 {
		t.Fatalf("ran %d items, want 57", ran.Load())
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	if err := ForEach(4, 0, func(i int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := ForEach(4, -3, func(i int) error { t.Fatal("called"); return nil }); err != nil {
		t.Fatal(err)
	}
}

func TestErrorCarriesItemIndex(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 20, func(i int) error {
			if i == 7 {
				return boom
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
		var pe *Error
		if !errors.As(err, &pe) || pe.Index != 7 {
			t.Fatalf("workers=%d: err = %v, want *Error at index 7", workers, err)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: cause not unwrapped: %v", workers, err)
		}
	}
}

func TestLowestIndexErrorWins(t *testing.T) {
	// Serial path: the scan guarantees the lowest failing index. Parallel
	// failures report a deterministic index too, because ForEach drains all
	// started items and scans errs in order.
	err := ForEach(1, 10, func(i int) error {
		if i >= 3 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	var pe *Error
	if !errors.As(err, &pe) || pe.Index != 3 {
		t.Fatalf("err = %v, want index 3", err)
	}
}

func TestPanicCapturedNotDeadlocked(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := ForEach(workers, 8, func(i int) error {
			if i == 2 {
				panic("kaboom")
			}
			return nil
		})
		var pe *Error
		if !errors.As(err, &pe) || pe.Index != 2 {
			t.Fatalf("workers=%d: err = %v, want *Error at index 2", workers, err)
		}
		var pan *PanicError
		if !errors.As(err, &pan) || pan.Value != "kaboom" {
			t.Fatalf("workers=%d: panic value lost: %v", workers, err)
		}
	}
}

func TestMapDiscardsPartialResultsOnError(t *testing.T) {
	out, err := Map(4, 10, func(i int) (int, error) {
		if i == 5 {
			return 0, errors.New("bad")
		}
		return i, nil
	})
	if err == nil || out != nil {
		t.Fatalf("Map on failure = (%v, %v), want (nil, err)", out, err)
	}
}

// TestConcurrentStress drives the pool with more items than workers under
// contention; it exists chiefly for go test -race (scripts/check.sh).
func TestConcurrentStress(t *testing.T) {
	var sum atomic.Int64
	n := 2000
	if testing.Short() {
		n = 200
	}
	if err := ForEach(8, n, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := int64(n) * int64(n-1) / 2
	if sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestCollectReturnsAllFailuresInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Collect(context.Background(), workers, 10, func(i int) error {
			ran.Add(1)
			if i%2 == 1 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if ran.Load() != 10 {
			t.Fatalf("workers=%d: ran %d items, want all 10 despite failures", workers, ran.Load())
		}
		var joined interface{ Unwrap() []error }
		if !errors.As(err, &joined) {
			t.Fatalf("workers=%d: Collect error is not a join: %v", workers, err)
		}
		errs := joined.Unwrap()
		if len(errs) != 5 {
			t.Fatalf("workers=%d: %d failures, want all 5", workers, len(errs))
		}
		for k, e := range errs {
			var pe *Error
			if !errors.As(e, &pe) || pe.Index != 2*k+1 {
				t.Fatalf("workers=%d: failure %d = %v, want index %d", workers, k, e, 2*k+1)
			}
		}
	}
}

func TestCollectPanicCarriesStack(t *testing.T) {
	err := Collect(context.Background(), 4, 6, func(i int) error {
		if i == 3 {
			panic("unit exploded")
		}
		return nil
	})
	var pan *PanicError
	if !errors.As(err, &pan) {
		t.Fatalf("panic not captured: %v", err)
	}
	if pan.Value != "unit exploded" {
		t.Fatalf("panic value = %v", pan.Value)
	}
	if !strings.Contains(string(pan.Stack), "parallel_test.go") {
		t.Fatalf("stack does not point at the panic site:\n%s", pan.Stack)
	}
}

func TestForEachCtxCancellationMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	err := ForEachCtx(ctx, 2, 1000, func(i int) error {
		if started.Add(1) == 5 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := started.Load(); n >= 1000 {
		t.Fatalf("cancellation did not stop the claim loop (%d items ran)", n)
	}
}

func TestCollectCtxCancellationJoinsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := Collect(ctx, 4, 50, func(i int) error { ran.Add(1); return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled joined", err)
	}
	if ran.Load() != 0 {
		t.Fatalf("pre-cancelled Collect still ran %d items", ran.Load())
	}
}

// TestErrorsUnpacksCollect pins the Collect-error unpacking: item
// failures come back in index order, the joined context error is
// skipped, and nil unpacks to nothing.
func TestErrorsUnpacksCollect(t *testing.T) {
	if got := Errors(nil); got != nil {
		t.Fatalf("Errors(nil) = %v", got)
	}
	ctx, cancel := context.WithCancel(context.Background())
	err := Collect(ctx, -1, 6, func(i int) error {
		if i == 4 {
			cancel()
		}
		if i%2 == 0 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context error joined", err)
	}
	items := Errors(err)
	if len(items) != 3 {
		t.Fatalf("Errors = %v, want the 3 item failures only", items)
	}
	for k, ie := range items {
		if ie.Index != 2*k || ie.Err.Error() != fmt.Sprintf("fail-%d", 2*k) {
			t.Errorf("failure %d = %v, want index %d", k, ie, 2*k)
		}
	}
}

func TestMapCtxDiscardsPartialsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out, err := MapCtx(ctx, 4, 20, func(i int) (int, error) { return i, nil })
	if out != nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("MapCtx after cancel = (%v, %v)", out, err)
	}
}

// TestSerialParallelIdentical pins the determinism contract: the same
// inputs produce the same outputs at every worker count.
func TestSerialParallelIdentical(t *testing.T) {
	compute := func(workers int) []int {
		out, err := Map(workers, 64, func(i int) (int, error) { return i*i + 7, nil })
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	serial := compute(-1)
	for _, workers := range []int{1, 2, 8, 32} {
		got := compute(workers)
		for i := range serial {
			if got[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %d, serial %d", workers, i, got[i], serial[i])
			}
		}
	}
}

func TestProtect(t *testing.T) {
	// A plain error passes through untouched.
	sentinel := errors.New("boom")
	if err := Protect(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("Protect error = %v, want sentinel", err)
	}
	// A success passes through as nil.
	if err := Protect(func() error { return nil }); err != nil {
		t.Fatalf("Protect success = %v", err)
	}
	// A panic is quarantined into *PanicError with the stack captured.
	err := Protect(func() error { panic("quarantine me") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Protect panic = %v (%T), want *PanicError", err, err)
	}
	if pe.Value != "quarantine me" || len(pe.Stack) == 0 {
		t.Fatalf("PanicError = %+v, want value and stack", pe)
	}
}
