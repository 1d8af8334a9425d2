package experiments

import (
	"fmt"
	"sort"
	"strings"

	"vaq/internal/calib"
	"vaq/internal/parallel"
	"vaq/internal/topo"
)

// Fig5Result holds the coherence-time distributions of Figure 5.
type Fig5Result struct {
	T1Summary, T2Summary calib.Summary
}

// Fig5CoherenceDistributions reproduces Figure 5: the distribution of T1
// and T2 coherence times over all 20 qubits across the archive (the paper
// reports T1 μ=80.32µs σ=35.23µs, T2 μ=42.13µs σ=13.34µs).
func Fig5CoherenceDistributions(cfg Config) Fig5Result {
	cfg = cfg.withDefaults()
	arch := cfg.archive()
	return Fig5Result{
		T1Summary: calib.Summarize(arch.ArchiveT1s()),
		T2Summary: calib.Summarize(arch.ArchiveT2s()),
	}
}

// Table renders the Figure 5 summary.
func (r Fig5Result) Table() Table {
	return Table{
		Title:  "Figure 5: T1/T2 coherence-time distributions (µs)",
		Header: []string{"metric", "samples", "mean", "std", "min", "max"},
		Rows: [][]string{
			{"T1", fmt.Sprint(r.T1Summary.N), f2(r.T1Summary.Mean), f2(r.T1Summary.Std), f2(r.T1Summary.Min), f2(r.T1Summary.Max)},
			{"T2", fmt.Sprint(r.T2Summary.N), f2(r.T2Summary.Mean), f2(r.T2Summary.Std), f2(r.T2Summary.Min), f2(r.T2Summary.Max)},
		},
		Caption: "paper: T1 µ=80.32 σ=35.23, T2 µ=42.13 σ=13.34",
	}
}

// Fig6Result holds the single-qubit error distribution of Figure 6.
type Fig6Result struct {
	Summary           calib.Summary
	FractionBelow1Pct float64
}

// Fig6SingleQubitErrors reproduces Figure 6: the distribution of
// single-qubit gate error rates ("a large fraction of the error-rate below
// 1%").
func Fig6SingleQubitErrors(cfg Config) Fig6Result {
	cfg = cfg.withDefaults()
	rates := cfg.archive().ArchiveOneQubitRates()
	below := 0
	for _, e := range rates {
		if e < 0.01 {
			below++
		}
	}
	return Fig6Result{
		Summary:           calib.Summarize(rates),
		FractionBelow1Pct: float64(below) / float64(len(rates)),
	}
}

// Table renders the Figure 6 summary.
func (r Fig6Result) Table() Table {
	return Table{
		Title:  "Figure 6: single-qubit gate error distribution",
		Header: []string{"samples", "mean", "std", "max", "below 1%"},
		Rows: [][]string{{
			fmt.Sprint(r.Summary.N), fmt.Sprintf("%.4f", r.Summary.Mean),
			fmt.Sprintf("%.4f", r.Summary.Std), fmt.Sprintf("%.4f", r.Summary.Max),
			fmt.Sprintf("%.0f%%", 100*r.FractionBelow1Pct),
		}},
		Caption: "paper: bulk of the distribution below 1%",
	}
}

// Fig7Result holds the two-qubit error distribution of Figure 7.
type Fig7Result struct {
	Summary calib.Summary
	Links   int
}

// Fig7TwoQubitErrors reproduces Figure 7: the distribution of two-qubit
// (CNOT) error rates over all links × cycles (the paper reports μ=4.3%
// σ=3.02% over 76 links × 100 observations).
func Fig7TwoQubitErrors(cfg Config) Fig7Result {
	cfg = cfg.withDefaults()
	arch := cfg.archive()
	rates := arch.ArchiveLinkRates()
	return Fig7Result{
		Summary: calib.Summarize(rates),
		Links:   arch.Topo.NumLinks(),
	}
}

// Table renders the Figure 7 summary.
func (r Fig7Result) Table() Table {
	return Table{
		Title:  "Figure 7: two-qubit gate error distribution",
		Header: []string{"links", "samples", "mean", "std", "min", "max"},
		Rows: [][]string{{
			fmt.Sprint(r.Links), fmt.Sprint(r.Summary.N),
			fmt.Sprintf("%.4f", r.Summary.Mean), fmt.Sprintf("%.4f", r.Summary.Std),
			fmt.Sprintf("%.4f", r.Summary.Min), fmt.Sprintf("%.4f", r.Summary.Max),
		}},
		Caption: "paper: 76 links, µ=4.3% σ=3.02%",
	}
}

// Fig8Link is one tracked link's time series.
type Fig8Link struct {
	Name   string
	Series []float64
	Mean   float64
}

// Fig8Result holds the temporal-variation series of Figure 8.
type Fig8Result struct {
	Links []Fig8Link
	// StrongStaysStrongFraction is the fraction of cycles in which the
	// link with the lowest mean error also has the lowest instantaneous
	// error among the tracked links.
	StrongStaysStrongFraction float64
}

// Fig8TemporalVariation reproduces Figure 8: the per-cycle two-qubit error
// of the three links the paper tracks (CX6_5, CX19_13, CX5_11), showing
// that strong links tend to remain strong across calibration cycles.
func Fig8TemporalVariation(cfg Config) Fig8Result {
	cfg = cfg.withDefaults()
	arch := cfg.archive()
	tracked := []struct {
		name string
		a, b int
	}{
		{"CX6_5", 5, 6},
		{"CX19_13", 13, 19},
		{"CX5_11", 5, 11},
	}
	var res Fig8Result
	for _, l := range tracked {
		series := arch.LinkSeries(l.a, l.b)
		res.Links = append(res.Links, Fig8Link{
			Name:   l.name,
			Series: series,
			Mean:   calib.Summarize(series).Mean,
		})
	}
	// Identify the strongest tracked link by mean and count how often it
	// is instantaneously strongest.
	strongest := 0
	for i, l := range res.Links {
		if l.Mean < res.Links[strongest].Mean {
			strongest = i
		}
	}
	cycles := len(res.Links[0].Series)
	// Each calibration cycle is judged independently; the fan-out mirrors
	// the per-cycle structure the heavier experiments share.
	won, _ := parallel.Map(cfg.Workers, cycles, func(t int) (bool, error) {
		for i := range res.Links {
			if i != strongest && res.Links[i].Series[t] < res.Links[strongest].Series[t] {
				return false, nil
			}
		}
		return true, nil
	})
	wins := 0
	for _, w := range won {
		if w {
			wins++
		}
	}
	res.StrongStaysStrongFraction = float64(wins) / float64(cycles)
	return res
}

// Table renders the Figure 8 summary.
func (r Fig8Result) Table() Table {
	t := Table{
		Title:  "Figure 8: temporal variation of tracked links (per-cycle CNOT error)",
		Header: []string{"link", "mean", "min", "max", "cycles"},
		Caption: fmt.Sprintf("strongest tracked link is instantaneously strongest in %.0f%% of cycles",
			100*r.StrongStaysStrongFraction),
	}
	for _, l := range r.Links {
		s := calib.Summarize(l.Series)
		t.Rows = append(t.Rows, []string{l.Name, fmt.Sprintf("%.4f", l.Mean),
			fmt.Sprintf("%.4f", s.Min), fmt.Sprintf("%.4f", s.Max), fmt.Sprint(len(l.Series))})
	}
	return t
}

// Fig9Result holds the spatial variation of Figure 9.
type Fig9Result struct {
	// MeanRates maps each coupling to its archive-mean failure rate.
	MeanRates map[topo.Coupling]float64
	Strongest topo.Coupling
	Weakest   topo.Coupling
	MinRate   float64
	MaxRate   float64
	Spread    float64
}

// Fig9SpatialVariation reproduces Figure 9: the IBM-Q20 layout annotated
// with each link's average failure probability (paper: best 0.02, worst
// 0.15 on Q14–Q18, 7.5× spread).
func Fig9SpatialVariation(cfg Config) Fig9Result {
	cfg = cfg.withDefaults()
	mean := cfg.archive().MustMean()
	res := Fig9Result{MeanRates: map[topo.Coupling]float64{}}
	for _, c := range mean.Topo.Couplings {
		res.MeanRates[c] = mean.TwoQubit[c]
	}
	res.Strongest, res.MinRate = mean.StrongestLink()
	res.Weakest, res.MaxRate = mean.WeakestLink()
	if res.MinRate > 0 {
		res.Spread = res.MaxRate / res.MinRate
	}
	return res
}

// Layout renders the IBM-Q20 grid with each link's mean failure rate —
// the textual form of the paper's Figure 9 diagram. Grid links appear in
// place; diagonal links are listed below.
func (r Fig9Result) Layout() string {
	const rows, cols = 4, 5
	id := func(row, col int) int { return row*cols + col }
	rate := func(a, b int) (float64, bool) {
		if a > b {
			a, b = b, a
		}
		v, ok := r.MeanRates[topo.Coupling{A: a, B: b}]
		return v, ok
	}
	var b strings.Builder
	for row := 0; row < rows; row++ {
		// Qubit row with horizontal links.
		for col := 0; col < cols; col++ {
			fmt.Fprintf(&b, "Q%-2d", id(row, col))
			if col+1 < cols {
				if v, ok := rate(id(row, col), id(row, col+1)); ok {
					fmt.Fprintf(&b, " --%.2f-- ", v)
				} else {
					b.WriteString("          ")
				}
			}
		}
		b.WriteByte('\n')
		// Vertical links to the next row.
		if row+1 < rows {
			for col := 0; col < cols; col++ {
				if v, ok := rate(id(row, col), id(row+1, col)); ok {
					fmt.Fprintf(&b, " %.2f", v)
				} else {
					b.WriteString("     ")
				}
				if col+1 < cols {
					b.WriteString("         ")
				}
			}
			b.WriteByte('\n')
		}
	}
	// Diagonals (everything not horizontal/vertical on the grid).
	var diags []string
	for _, c := range sortedCouplings(r.MeanRates) {
		rowA, colA := c.A/cols, c.A%cols
		rowB, colB := c.B/cols, c.B%cols
		if rowA == rowB || colA == colB {
			continue
		}
		diags = append(diags, fmt.Sprintf("Q%d-Q%d %.2f", c.A, c.B, r.MeanRates[c]))
	}
	if len(diags) > 0 {
		fmt.Fprintf(&b, "diagonals: %s\n", strings.Join(diags, ", "))
	}
	return b.String()
}

func sortedCouplings(m map[topo.Coupling]float64) []topo.Coupling {
	out := make([]topo.Coupling, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Table renders the Figure 9 summary (full per-link rates come from the
// MeanRates map; the table shows the extremes the paper calls out).
func (r Fig9Result) Table() Table {
	return Table{
		Title:  "Figure 9: spatial variation of mean link failure rates (IBM-Q20)",
		Header: []string{"", "link", "failure rate"},
		Rows: [][]string{
			{"strongest", fmt.Sprintf("Q%d-Q%d", r.Strongest.A, r.Strongest.B), fmt.Sprintf("%.3f", r.MinRate)},
			{"weakest", fmt.Sprintf("Q%d-Q%d", r.Weakest.A, r.Weakest.B), fmt.Sprintf("%.3f", r.MaxRate)},
			{"spread", "", fmt.Sprintf("%.1fx", r.Spread)},
		},
		Caption: "paper: best 0.02, worst 0.15 (Q14-Q18), 7.5x spread",
	}
}
