package jobs

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// BenchmarkJobThroughput measures the control plane's own overhead —
// submit, persist (in-memory store here), dispatch, execute, finish —
// with a backend that returns instantly, so ns/op is the queue's cost
// per job, not the pipeline's. The worker-count axis shows how far the
// single manager mutex scales before it is the bottleneck.
func BenchmarkJobThroughput(b *testing.B) {
	counts := []int{1, 2, runtime.GOMAXPROCS(0)}
	if counts[2] <= 2 {
		counts = counts[:2]
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m, err := NewManager(Options{
				Workers:  workers,
				QueueMax: b.N + 1,
				Quota:    Quota{Rate: 1e12, Burst: 1 << 30, MaxPerTenant: 1 << 30},
			}, Backend(func(ctx context.Context, w Work, progress func(string)) ([]byte, error) {
				return []byte("{}"), nil
			}))
			if err != nil {
				b.Fatal(err)
			}
			m.Start()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Submit(Spec{Kind: KindEstimate, Request: []byte("{}")}); err != nil {
					b.Fatal(err)
				}
			}
			// Throughput includes draining the queue: the benchmark is done
			// when every submitted job has reached a terminal state.
			for m.pending() > 0 {
				time.Sleep(50 * time.Microsecond)
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			if elapsed > 0 {
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "jobs/s")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			m.Drain(ctx)
			cancel()
		})
	}
}
