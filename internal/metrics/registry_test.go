package metrics

import (
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestRegistryEmptyFamilies(t *testing.T) {
	var r Registry
	r.Counter("a_total", "Unlabeled.")
	r.Counter("b_total", "Labeled.", "reason")
	want := `# HELP a_total Unlabeled.
# TYPE a_total counter
a_total 0
# HELP b_total Labeled.
# TYPE b_total counter
`
	if got := render(t, &r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistrySortsByLabelTuple(t *testing.T) {
	var r Registry
	c := r.Counter("jobs_total", "By state and tenant.", "state", "tenant")
	c.Add(1, "succeeded", "b")
	c.Add(2, "cancelled", "z")
	c.Add(3, "succeeded", "a")
	c.Add(4, "succeeded", "b")
	r.FloatGaugeFunc("score", "Scores.", func(emit func(float64, ...string)) {
		emit(0.5, "q5")
		emit(0.125, "lab")
	}, "device")
	want := `# HELP jobs_total By state and tenant.
# TYPE jobs_total counter
jobs_total{state="cancelled",tenant="z"} 2
jobs_total{state="succeeded",tenant="a"} 3
jobs_total{state="succeeded",tenant="b"} 5
# HELP score Scores.
# TYPE score gauge
score{device="lab"} 0.125
score{device="q5"} 0.5
`
	if got := render(t, &r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
	if v := c.Value("succeeded", "b"); v != 5 {
		t.Fatalf("Value = %v, want 5", v)
	}
	if v := c.Value("failed", "b"); v != 0 {
		t.Fatalf("Value of an unseen tuple = %v, want 0", v)
	}
}

func TestHistogramCumulativeInclusive(t *testing.T) {
	var r Registry
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.5, 1, 2.5})
	for _, v := range []float64{1, 0.25, 2.5, 3, 1} {
		h.Observe(v)
	}
	// A value equal to a bound lands in that bound's bucket.
	want := `# HELP lat_seconds Latency.
# TYPE lat_seconds histogram
lat_seconds_bucket{le="0.5"} 1
lat_seconds_bucket{le="1"} 3
lat_seconds_bucket{le="2.5"} 4
lat_seconds_bucket{le="+Inf"} 5
lat_seconds_sum 7.75
lat_seconds_count 5
`
	if got := render(t, &r); got != want {
		t.Fatalf("got:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryValueFormatting: integer families print every digit,
// where %g would print 1.004e+06; float families keep %g.
func TestRegistryValueFormatting(t *testing.T) {
	var r Registry
	r.Counter("trials_total", "Trials.", "kernel").Add(1004000, "packed")
	r.FloatCounter("seconds_total", "Seconds.", "kernel").Add(1004000, "packed")
	r.Func("gauge", "in_flight", "In flight.", func() float64 { return 12345678 })
	r.FloatCounter("small_total", "Small.").Add(0.0001)
	got := render(t, &r)
	for _, want := range []string{
		`trials_total{kernel="packed"} 1004000` + "\n",
		`seconds_total{kernel="packed"} 1.004e+06` + "\n",
		"in_flight 12345678\n",
		"small_total 0.0001\n",
		"# TYPE in_flight gauge\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("missing %q in:\n%s", want, got)
		}
	}
}

// TestRegistryConcurrent adds from many goroutines while others scrape
// (run under -race by scripts/check.sh); no update may be lost.
func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	c := r.Counter("ops_total", "Ops.", "worker")
	h := r.Histogram("op_seconds", "Op latency.", []float64{1})
	const workers, each = 8, 500
	labels := []string{"even", "odd"}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Add(1, labels[w%2])
				h.Observe(0.5)
			}
		}(w)
		go func() {
			defer wg.Done()
			var b strings.Builder
			for i := 0; i < 20; i++ {
				b.Reset()
				if err := r.WriteText(&b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Value("even") + c.Value("odd"); got != workers*each {
		t.Fatalf("lost updates: %v, want %d", got, workers*each)
	}
	if !strings.Contains(render(t, &r), "op_seconds_count 4000\n") {
		t.Fatalf("histogram lost observations:\n%s", render(t, &r))
	}
}
