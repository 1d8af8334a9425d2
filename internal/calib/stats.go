package calib

import "math"

// Summary holds the descriptive statistics reported throughout Section 3
// of the paper.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes descriptive statistics over values.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		return Summary{}
	}
	s := Summary{N: len(values), Min: math.Inf(1), Max: math.Inf(-1)}
	for _, v := range values {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= float64(len(values))
	for _, v := range values {
		d := v - s.Mean
		s.Std += d * d
	}
	s.Std = math.Sqrt(s.Std / float64(len(values)))
	return s
}

// ArchiveLinkRates flattens every two-qubit error observation in the
// archive (links × cycles), the population of the paper's Figure 7.
func (a *Archive) ArchiveLinkRates() []float64 {
	var out []float64
	for _, s := range a.Snapshots {
		out = append(out, s.LinkRates()...)
	}
	return out
}

// ArchiveOneQubitRates flattens every single-qubit gate error observation
// (Figure 6 population).
func (a *Archive) ArchiveOneQubitRates() []float64 {
	var out []float64
	for _, s := range a.Snapshots {
		out = append(out, s.OneQubit...)
	}
	return out
}

// ArchiveT1s and ArchiveT2s flatten the coherence-time observations
// (Figure 5 populations), in microseconds.
func (a *Archive) ArchiveT1s() []float64 {
	var out []float64
	for _, s := range a.Snapshots {
		out = append(out, s.T1Us...)
	}
	return out
}

func (a *Archive) ArchiveT2s() []float64 {
	var out []float64
	for _, s := range a.Snapshots {
		out = append(out, s.T2Us...)
	}
	return out
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total / float64(len(values))
}
