package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one traced call into a layer. Spans of one benchmark op share
// Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, ID: len(t.spans) + 1, Parent: parent, Start: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs fn inside a span.
func (t *tracer) do(name string, op, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// selfTimes returns, per span name, the summed self time — a span's
// duration minus the part of it its children cover — and the number of
// spans with that name.
func (t *tracer) selfTimes() (self map[string]time.Duration, count map[string]int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self, count = map[string]time.Duration{}, map[string]int{}
	for _, s := range t.spans {
		covered := coverage(s, children[s.ID])
		self[s.Name] += time.Duration(s.End - s.Start - covered)
		count[s.Name]++
	}
	return self, count
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's (children of concurrent work may overlap).
func coverage(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	return total + curE - curS
}

// durations returns every span duration with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// selfUS converts the summed self time of each listed span name into a
// per-op layer metric in µs.
func selfUS(out *outcome, self map[string]time.Duration, ops int, names map[string]string) {
	for metricName, spanName := range names {
		out.layers[metricName] = metric{float64(self[spanName].Nanoseconds()) / 1e3 / float64(ops), "us"}
	}
}

// finishTrace writes the spans, prints the self-time table and the
// tracing overhead (traced minus untraced, as a share of untraced).
func finishTrace(out *outcome, tr *tracer, path string, untraced, traced float64, what string) error {
	if err := tr.write(path); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	self, count := tr.selfTimes()
	for _, name := range sortedKeys(self) {
		out.note("self %-26s %6d spans %12.3f ms", name, count[name], float64(self[name].Nanoseconds())/1e6)
	}
	overhead := 0.0
	if untraced > 0 {
		overhead = (traced - untraced) / untraced
	}
	out.note("tracing overhead (%s): untraced %.4f, traced %.4f, overhead %+.2f%%; spans in %s",
		what, untraced, traced, 100*overhead, path)
	return nil
}
