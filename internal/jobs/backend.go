package jobs

import "context"

// Backend executes one job attempt and returns the verbatim response
// bytes a synchronous request for the same spec would have produced.
// It is the job plane's execution seam: the in-process backend (the
// serve layer's pipeline) is the only implementation today, but the
// contract is deliberately remote-worker-shaped — a Work value is
// self-contained (id, kind, raw request), progress is a message stream,
// and the result is opaque bytes.
//
// Contract:
//   - A backend must honor ctx: the manager cancels it on per-attempt
//     deadline expiry, job cancellation, and drain. Work already done
//     when ctx fires is discarded; the job is re-run from its spec, and
//     determinism (seeded streams) makes the re-run byte-identical.
//   - An error wrapped with Permanent is never retried; any other
//     error (including a panic, which the manager quarantines) retries
//     under the backoff policy.
//   - progress may be called at any cadence; each call becomes one
//     "progress" event on the job's feed. It must not be called after
//     the backend returns.
type Backend func(ctx context.Context, w Work, progress func(message string)) ([]byte, error)
