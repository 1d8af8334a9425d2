package jobs

import (
	"errors"
	"hash/fnv"
	"time"

	"vaq/internal/parallel"
	"vaq/internal/splitmix"
)

// Policy bounds retries of retryable failures: exponential backoff with
// deterministic per-(job, attempt) jitter. Jitter is derived from the
// job id, not a global RNG, so two daemons replaying the same queue
// spread retries identically and tests are reproducible.
type Policy struct {
	// MaxAttempts is the total attempts a job may start (default 3).
	MaxAttempts int
	// Base is the delay before the first retry (default 100ms).
	Base time.Duration
	// Max caps the grown delay before jitter (default 5s).
	Max time.Duration
}

// backoffMultiplier grows the delay per retry; jitterFrac adds up to
// that fraction of the delay as jitter (delay ∈ [d, 1.5d)).
const (
	backoffMultiplier = 2
	jitterFrac        = 0.5
)

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 3
	}
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Max <= 0 {
		p.Max = 5 * time.Second
	}
	return p
}

// Backoff returns the delay before attempt+1 may start, given that
// 1-based attempt just failed: Base·2^(attempt−1) capped at Max, plus
// deterministic jitter in [0, jitterFrac·delay).
func (p Policy) Backoff(id string, attempt int) time.Duration {
	p = p.withDefaults()
	d := float64(p.Base)
	for i := 1; i < attempt; i++ {
		d *= backoffMultiplier
		if d >= float64(p.Max) {
			d = float64(p.Max)
			break
		}
	}
	if d > float64(p.Max) {
		d = float64(p.Max)
	}
	// Output attempt of the SplitMix64 stream seeded at fnv(id) → uniform
	// in [0,1).
	h := fnv.New64a()
	h.Write([]byte(id))
	u := float64(splitmix.At(h.Sum64(), uint64(attempt))>>11) / (1 << 53)
	return time.Duration(d * (1 + jitterFrac*u))
}

// Retryable classifies a failed attempt: permanent failures (wrapped
// ErrPermanent) never retry; everything else — transient pipeline
// errors, per-attempt deadline expiry, panics quarantined by
// parallel.Protect — is worth another attempt under backoff.
func Retryable(err error) bool {
	if err == nil {
		return false
	}
	return !errors.Is(err, ErrPermanent)
}

// failureFrom builds the typed Failure record for a failed attempt,
// extracting the quarantined panic stack when the attempt panicked.
func failureFrom(err error, attempt int) *Failure {
	f := &Failure{Message: err.Error(), Permanent: !Retryable(err), Attempt: attempt}
	var pe *parallel.PanicError
	if errors.As(err, &pe) {
		f.Panic = true
		stack := string(pe.Stack)
		if len(stack) > maxStackBytes {
			stack = stack[:maxStackBytes] + "\n…truncated"
		}
		f.Stack = stack
	}
	return f
}
