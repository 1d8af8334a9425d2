package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchCompile drives POST /v1/compile through the full middleware
// stack (limiter, metrics, cache) with httptest recorders — no network.
func benchCompile(b *testing.B, s *Server, body string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		b.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
}

// BenchmarkServeCompile measures the response cache: "hot" replays one
// request so every iteration after the first is an LRU hit; "cold"
// varies the seed each iteration so every request misses and runs the
// full compile-verify-estimate pipeline. The acceptance bar is hot ≥5×
// faster than cold.
func BenchmarkServeCompile(b *testing.B) {
	const body = `{"workload":"bv-8","policy":"vqm","trials":2000,"monte_carlo":true}`
	b.Run("hot", func(b *testing.B) {
		s := mustNew(Config{Seed: 2019, CacheEntries: 64})
		benchCompile(b, s, body) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchCompile(b, s, body)
		}
	})
	b.Run("cold", func(b *testing.B) {
		s := mustNew(Config{Seed: 2019, CacheEntries: 64})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			benchCompile(b, s, fmt.Sprintf(
				`{"workload":"bv-8","policy":"vqm","trials":2000,"seed":%d,"monte_carlo":true}`, i+1))
		}
	})
}

// BenchmarkSweepServe measures POST /v1/sweep end to end: one compile
// fanned out over a 64-point binding grid per request ("cold" varies
// the grid each iteration so every request misses the response cache;
// "hot" replays one grid so every iteration after the first is an LRU
// hit). The per-point marginal cost is the serve-layer complement of
// core's BenchmarkRebindVsRecompile.
func BenchmarkSweepServe(b *testing.B) {
	sweepBody := func(variant int) string {
		var pts strings.Builder
		for p := 0; p < 64; p++ {
			if p > 0 {
				pts.WriteByte(',')
			}
			fmt.Fprintf(&pts, "[%g,%g]", 0.1+float64(p)*0.01+float64(variant), 0.2+float64(p)*0.02)
		}
		return fmt.Sprintf(`{"ansatz":"qaoa-6","policy":"vqm","points":[%s]}`, pts.String())
	}
	bench := func(b *testing.B, s *Server, body string) {
		b.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(body))
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
	}
	b.Run("hot", func(b *testing.B) {
		s := mustNew(Config{Seed: 2019, CacheEntries: 64})
		body := sweepBody(0)
		bench(b, s, body) // prime the cache
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bench(b, s, body)
		}
	})
	b.Run("cold", func(b *testing.B) {
		s := mustNew(Config{Seed: 2019, CacheEntries: 64})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bench(b, s, sweepBody(i+1))
		}
	})
}
