// Package cliutil centralizes validation of the flag values shared by
// the repository's binaries (repro, nisqc, calgen, nisqd). Before it
// existed each binary let bad values fall through to confusing
// downstream behavior: a negative -trials was silently replaced by the
// simulator's default budget, a negative timeout produced a context
// that expired before any work started, and a negative -days was
// silently ignored. Every binary now rejects such values up front with
// one consistent message.
package cliutil

import (
	"errors"
	"fmt"
	"time"
)

// Bounds for the shared flags. The maxima are far above any sensible
// run (the paper's full budget is 1M trials) and exist so a typo like
// -trials 2000000000000 fails fast instead of running for a week.
const (
	MaxTrials  = 100_000_000
	MaxWorkers = 65_536
	MaxTimeout = 24 * time.Hour
	MaxDays    = 10_000
)

// Trials validates a Monte-Carlo trial budget: it must be positive and
// at most MaxTrials. name is the flag name used in the message.
func Trials(name string, n int) error {
	if n <= 0 {
		return fmt.Errorf("-%s must be positive (got %d)", name, n)
	}
	if n > MaxTrials {
		return fmt.Errorf("-%s too large (got %d, max %d)", name, n, MaxTrials)
	}
	return nil
}

// Workers validates a worker-count flag. The pool contract gives every
// value a meaning — positive is a literal count, 0 is one per CPU, and
// negative forces serial execution — so only absurd magnitudes are
// rejected.
func Workers(name string, n int) error {
	if n > MaxWorkers {
		return fmt.Errorf("-%s too large (got %d, max %d)", name, n, MaxWorkers)
	}
	return nil
}

// Timeout validates a duration flag where 0 means "no limit": negative
// durations (a context that expires immediately) and durations beyond
// MaxTimeout are rejected.
func Timeout(name string, d time.Duration) error {
	if d < 0 {
		return fmt.Errorf("-%s must not be negative (got %v)", name, d)
	}
	if d > MaxTimeout {
		return fmt.Errorf("-%s too large (got %v, max %v)", name, d, MaxTimeout)
	}
	return nil
}

// Days validates an observation-day count where 0 means "use the device
// default".
func Days(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("-%s must not be negative (got %d)", name, n)
	}
	if n > MaxDays {
		return fmt.Errorf("-%s too large (got %d, max %d)", name, n, MaxDays)
	}
	return nil
}

// NonNegative validates a flag where 0 is meaningful ("disabled") but
// negative values are not (nisqd's -cache-entries).
func NonNegative(name string, n int) error {
	if n < 0 {
		return fmt.Errorf("-%s must not be negative (got %d)", name, n)
	}
	return nil
}

// Positive validates a flag that must be strictly positive (nisqd's
// -max-inflight and -cache-entries style limits).
func Positive(name string, n int) error {
	if n <= 0 {
		return fmt.Errorf("-%s must be positive (got %d)", name, n)
	}
	return nil
}

// All joins the non-nil errors of a validation batch, so a binary can
// report every bad flag in one shot instead of one per invocation.
func All(errs ...error) error {
	return errors.Join(errs...)
}
