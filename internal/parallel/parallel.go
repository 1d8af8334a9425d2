// Package parallel provides the bounded worker pools behind every
// concurrent loop in the repository: the block-sharded Monte-Carlo
// simulator (package sim) and the experiment fan-outs (package
// experiments). The helpers preserve item order, propagate failures and
// panics with their item index, and degrade to a plain serial loop for
// degenerate worker counts, so callers get identical results at any
// parallelism level.
//
// Two failure disciplines are offered. ForEach/ForEachCtx/Map/MapCtx
// abort on the first observed failure and return the failure with the
// lowest item index — the right contract when any failure invalidates
// the whole batch. Collect runs every item to completion regardless of
// failures and returns all of them joined (errors.Join) in index order —
// the contract the fault-isolated experiment harness needs, where one
// bad unit must not discard its siblings' results.
//
// The context-aware variants stop claiming new items once the context is
// cancelled; items already started always run to completion (work is
// never preempted mid-item, which is what keeps completed results valid
// for checkpointing).
package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested worker count: n > 0 is taken literally,
// n == 0 means one worker per available CPU (runtime.GOMAXPROCS), and
// n < 0 forces serial execution.
func Workers(n int) int {
	switch {
	case n > 0:
		return n
	case n == 0:
		return runtime.GOMAXPROCS(0)
	default:
		return 1
	}
}

// Error wraps a failure of one work item with the index it occurred at.
type Error struct {
	Index int
	Err   error
}

func (e *Error) Error() string { return fmt.Sprintf("item %d: %v", e.Index, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *Error) Unwrap() error { return e.Err }

// PanicError is the error recorded when a work item panics: the pool
// recovers the panic instead of crashing the process or deadlocking the
// dispatcher, and reports it like any other item failure. Stack holds
// the panicking goroutine's stack trace as captured by
// runtime/debug.Stack at the recovery point, so a quarantined unit can
// be diagnosed after the run.
type PanicError struct {
	Value any
	Stack []byte
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// engine is the shared pool behind every exported loop. failFast selects
// the first-failure-abort discipline; otherwise every claimable item
// runs. A nil ctx means "never cancelled". The returned slice has one
// slot per item; slots of skipped or successful items stay nil.
func engine(ctx context.Context, workers, n int, fn func(i int) error, failFast bool) []error {
	if n <= 0 {
		return nil
	}
	errs := make([]error, n)
	w := Workers(workers)
	if w > n {
		w = n
	}
	cancelled := func() bool { return ctx != nil && ctx.Err() != nil }
	if w <= 1 {
		for i := 0; i < n; i++ {
			if cancelled() {
				break
			}
			if errs[i] = protect(i, fn); errs[i] != nil && failFast {
				break
			}
		}
		return errs
	}
	var (
		next   atomic.Int64 // next item index to claim
		failed atomic.Bool  // stop claiming new items after a failure (failFast)
		wg     sync.WaitGroup
	)
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || cancelled() || (failFast && failed.Load()) {
					return
				}
				if err := protect(i, fn); err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

// first returns the failure with the lowest item index, or nil.
func first(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ForEach runs fn(i) for every i in [0, n) on up to workers goroutines
// (resolved via Workers). It blocks until all started items finish and
// returns the failure with the lowest item index, wrapped in *Error; a
// panicking fn is captured as *Error wrapping *PanicError. After the
// first observed failure, not-yet-started items are skipped.
//
// With workers resolved to 1 (or n < 2) the loop runs on the calling
// goroutine with no pool overhead — but identical semantics.
func ForEach(workers, n int, fn func(i int) error) error {
	return first(engine(nil, workers, n, fn, true))
}

// ForEachCtx is ForEach under a context: once ctx is cancelled no new
// items are claimed (started items finish). It returns the lowest-index
// item failure if any, else ctx.Err() if the run was cut short, else nil.
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	if err := first(engine(ctx, workers, n, fn, true)); err != nil {
		return err
	}
	return ctx.Err()
}

// Collect runs every item to completion — a failing or panicking item
// never prevents its siblings from running — and returns all failures
// joined via errors.Join in item-index order, each wrapped in *Error
// (panics as *PanicError with the captured stack). Cancelling ctx stops
// new items from being claimed; ctx.Err() is then joined after the item
// failures. A nil return means every item ran and succeeded.
func Collect(ctx context.Context, workers, n int, fn func(i int) error) error {
	errs := engine(ctx, workers, n, fn, false)
	all := errs[:0]
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	if err := ctx.Err(); err != nil {
		all = append(all, err)
	}
	return errors.Join(all...)
}

// Errors unpacks a Collect error into its per-item failures, in index
// order. The context's own error, joined after them on cancellation, is
// not an item failure and is skipped; a nil err yields none.
func Errors(err error) []*Error {
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return nil
	}
	var out []*Error
	for _, e := range joined.Unwrap() {
		if ie, ok := e.(*Error); ok {
			out = append(out, ie)
		}
	}
	return out
}

// Protect runs fn on the calling goroutine with the pool's panic
// discipline but no pool: a panic is recovered into a *PanicError
// carrying the stack captured at the recovery point, instead of
// crashing the process. It is the quarantine primitive for callers that
// run one long-lived work item at a time — the job plane's worker loop
// wraps every backend attempt in it, so a panicking job becomes a typed
// failure on that job alone.
func Protect(fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// protect invokes fn(i), converting an error or panic into an
// index-tagged *Error.
func protect(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &Error{Index: i, Err: &PanicError{Value: r, Stack: debug.Stack()}}
		}
	}()
	if e := fn(i); e != nil {
		return &Error{Index: i, Err: e}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on up to workers goroutines and
// returns the results in item order, regardless of completion order.
// Error and panic semantics match ForEach; on failure the partial results
// are discarded.
func Map[T any](workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	out := make([]T, n)
	err := ForEach(workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MapCtx is Map under a context, with ForEachCtx's cancellation
// semantics: on item failure or cancellation the partial results are
// discarded and the error is returned.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	out := make([]T, n)
	err := ForEachCtx(ctx, workers, n, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
