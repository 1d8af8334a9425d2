package metrics

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Registry is an ordered set of metric families rendered as Prometheus
// text exposition (format 0.0.4). Families print in registration order
// and the samples of each family sorted by label values, so a scrape of
// the same state is byte-identical. A Registry and everything it
// returns are safe for concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*family
}

// family is one registered metric family: read produces its samples at
// scrape time, or hist renders it when it is a histogram.
type family struct {
	name, help, typ string
	labels          []string
	float           bool // values print with %g; otherwise as integers
	read            func() []sample
	hist            *Histogram
}

// sample is one labeled value; values align with the family's labels.
type sample struct {
	values []string
	v      float64
}

func (r *Registry) add(f *family) {
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
}

// Counter is a counter family whose values the registry owns, one per
// tuple of label values.
type Counter struct {
	mu   sync.Mutex
	vals map[string]*sample // by label values joined with "\xff"
}

// Counter registers an integer-valued counter family with the given
// label names.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.counter(name, help, false, labels)
}

// FloatCounter registers a counter family whose values print with %g.
func (r *Registry) FloatCounter(name, help string, labels ...string) *Counter {
	return r.counter(name, help, true, labels)
}

func (r *Registry) counter(name, help string, float bool, labels []string) *Counter {
	c := &Counter{vals: make(map[string]*sample)}
	r.add(&family{name: name, help: help, typ: "counter", labels: labels, float: float, read: c.samples})
	return c
}

// Add adds v to the sample with the given label values, one per label
// name in registration order.
func (c *Counter) Add(v float64, values ...string) {
	key := strings.Join(values, "\xff")
	c.mu.Lock()
	s := c.vals[key]
	if s == nil {
		s = &sample{values: slices.Clone(values)}
		c.vals[key] = s
	}
	s.v += v
	c.mu.Unlock()
}

// Value reads the sample with the given label values (0 if never
// added to).
func (c *Counter) Value(values ...string) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.vals[strings.Join(values, "\xff")]; s != nil {
		return s.v
	}
	return 0
}

func (c *Counter) samples() []sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]sample, 0, len(c.vals))
	for _, s := range c.vals {
		out = append(out, *s)
	}
	return out
}

// Func registers an unlabeled integer family of type typ ("counter"
// or "gauge") read from f at scrape time, for a value another package
// owns.
func (r *Registry) Func(typ, name, help string, f func() float64) {
	r.add(&family{name: name, help: help, typ: typ, read: func() []sample { return []sample{{v: f()}} }})
}

// FloatGaugeFunc registers a gauge family whose samples f emits at
// scrape time, one emit call per tuple of label values; values print
// with %g.
func (r *Registry) FloatGaugeFunc(name, help string, f func(emit func(v float64, values ...string)), labels ...string) {
	r.add(&family{name: name, help: help, typ: "gauge", labels: labels, float: true, read: func() (out []sample) {
		f(func(v float64, values ...string) { out = append(out, sample{values: values, v: v}) })
		return out
	}})
}

// Histogram is an unlabeled histogram over fixed bucket upper bounds.
type Histogram struct {
	bounds []float64
	mu     sync.Mutex
	counts []uint64 // per bound, then +Inf
	sum    float64
}

// Histogram registers a histogram family with the given ascending
// bucket upper bounds; an implicit +Inf bucket follows the last.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	r.add(&family{name: name, help: help, typ: "histogram", hist: h})
	return h
}

// Observe records one value in the first bucket whose bound is >= v.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.mu.Unlock()
}

func (h *Histogram) write(w *bufio.Writer, name string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	cum := uint64(0)
	for i, c := range h.counts {
		cum += c
		le := "+Inf"
		if i < len(h.bounds) {
			le = formatFloat(h.bounds[i])
		}
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum)
	}
	fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(h.sum), name, cum)
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// WriteText writes every family in registration order: its HELP and
// TYPE lines, then its samples sorted by label values. An unlabeled
// family with no samples prints one 0 sample; a labeled one prints
// only its HELP and TYPE lines.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	fams := slices.Clone(r.fams)
	r.mu.Unlock()
	bw := bufio.NewWriter(w)
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		if f.hist != nil {
			f.hist.write(bw, f.name)
			continue
		}
		ss := f.read()
		if len(ss) == 0 && len(f.labels) == 0 {
			ss = []sample{{}}
		}
		sort.Slice(ss, func(a, b int) bool { return slices.Compare(ss[a].values, ss[b].values) < 0 })
		for _, s := range ss {
			bw.WriteString(f.name)
			sep := "{"
			for i, l := range f.labels {
				fmt.Fprintf(bw, "%s%s=%q", sep, l, s.values[i])
				sep = ","
			}
			if sep == "," {
				bw.WriteByte('}')
			}
			if f.float {
				fmt.Fprintf(bw, " %s\n", formatFloat(s.v))
			} else {
				fmt.Fprintf(bw, " %d\n", int64(s.v))
			}
		}
	}
	return bw.Flush()
}
