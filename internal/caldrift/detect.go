package caldrift

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"vaq/internal/calib"
)

// Detector constants: the EWMA smoothing factor (higher weighs the
// newest cycle more), the CUSUM slack k (relative deviation below it is
// calibration noise, not drift) and decision interval h (a series
// alarms when its one-sided cumulative sum exceeds it), the default
// device-level trigger, and how many per-series rows a report carries.
const (
	DefaultLambda    = 0.3
	DefaultSlack     = 0.25
	DefaultDecision  = 1.5
	DefaultThreshold = 0.25
	DefaultTopSeries = 16
)

// errFloor keeps relative deviations of near-zero error rates bounded:
// a link calibrated at 0.1% that moves to 0.4% is a 3x-floor jump, not
// a 300% one.
const errFloor = 0.01

// SeriesDrift is one metric series' drift state after folding the
// window through the detector.
type SeriesDrift struct {
	// Name identifies the series: "cx:a-b" (two-qubit link), "sq:q"
	// (one-qubit gate), "ro:q" (readout), "t1:q" / "t2:q" (coherence).
	Name string `json:"name"`
	// Baseline and Latest are the raw metric values (error rate, or
	// microseconds for coherence series).
	Baseline float64 `json:"baseline"`
	Latest   float64 `json:"latest"`
	// EWMA is the smoothed relative deviation from baseline; positive
	// means degradation for every series (coherence deviations are
	// sign-flipped so shrinking T1 reads as positive drift).
	EWMA float64 `json:"ewma"`
	// Cusum is max(S+, S-) after the window; Alarm reports whether it
	// crossed the decision interval.
	Cusum float64 `json:"cusum"`
	Alarm bool    `json:"alarm"`
}

// Report is the drift verdict for one device: a score in [0, 1]
// against its baseline cycle, the alarmed series, and — when the score
// crossed the threshold and a canary ran — the predicted recompilation
// gains. Reports are pure functions of (baseline, window, threshold):
// no timestamps, no wall-clock reads, bit-identical on every run.
type Report struct {
	Device    string  `json:"device"`
	Cycles    int     `json:"cycles"`
	BaseCycle int     `json:"base_cycle"`
	LastCycle int     `json:"last_cycle"`
	Score     float64 `json:"score"`
	Threshold float64 `json:"threshold"`
	Triggered bool    `json:"triggered"`
	// Alarms counts series whose CUSUM crossed the decision interval.
	Alarms int           `json:"alarms"`
	Series []SeriesDrift `json:"series,omitempty"`
	Canary *CanaryReport `json:"canary,omitempty"`
}

// seriesValues extracts every tracked metric series from a snapshot in
// a deterministic order: two-qubit links (coupling order), then
// one-qubit, readout, T1, T2 per qubit.
func seriesValues(s *calib.Snapshot) (names []string, vals []float64, coherence []bool) {
	for _, c := range s.Topo.Couplings {
		names = append(names, "cx:"+strconv.Itoa(c.A)+"-"+strconv.Itoa(c.B))
		vals = append(vals, s.TwoQubit[c])
		coherence = append(coherence, false)
	}
	for q := 0; q < s.Topo.NumQubits; q++ {
		names = append(names, "sq:"+strconv.Itoa(q))
		vals = append(vals, s.OneQubit[q])
		coherence = append(coherence, false)
	}
	for q := 0; q < s.Topo.NumQubits; q++ {
		names = append(names, "ro:"+strconv.Itoa(q))
		vals = append(vals, s.Readout[q])
		coherence = append(coherence, false)
	}
	for q := 0; q < s.Topo.NumQubits; q++ {
		names = append(names, "t1:"+strconv.Itoa(q))
		vals = append(vals, s.T1Us[q])
		coherence = append(coherence, true)
	}
	for q := 0; q < s.Topo.NumQubits; q++ {
		names = append(names, "t2:"+strconv.Itoa(q))
		vals = append(vals, s.T2Us[q])
		coherence = append(coherence, true)
	}
	return names, vals, coherence
}

// deviation is the signed relative deviation of x from baseline b,
// oriented so positive always means degradation. Error-rate series
// degrade upward and are scaled by max(b, errFloor); coherence series
// degrade downward and are scaled by the baseline itself.
func deviation(b, x float64, coherence bool) float64 {
	if coherence {
		if b <= 0 {
			return 0
		}
		return (b - x) / b
	}
	return (x - b) / math.Max(b, errFloor)
}

// Detect folds a window of calibration cycles (oldest first) through
// per-series EWMA and two-sided CUSUM detectors against the window's
// first cycle as baseline, and scores the device's overall drift as
// the mean of min(1, |EWMA|) across series; the device is triggered
// when the score exceeds threshold (<= 0: DefaultThreshold). It returns
// a report with the DefaultTopSeries most-drifted series; Canary is
// left nil for the caller to fill.
func Detect(device string, window []*calib.Snapshot, threshold float64) (*Report, error) {
	if threshold <= 0 {
		threshold = DefaultThreshold
	}
	if len(window) < 2 {
		return nil, fmt.Errorf("caldrift: detect needs >= 2 cycles, have %d", len(window))
	}
	base := window[0]
	names, baseVals, coherence := seriesValues(base)

	ewma := make([]float64, len(names))
	sPos := make([]float64, len(names))
	sNeg := make([]float64, len(names))
	var lastVals []float64
	for _, snap := range window[1:] {
		if snap.Topo != base.Topo {
			return nil, fmt.Errorf("caldrift: window mixes topologies")
		}
		_, vals, _ := seriesValues(snap)
		for i := range names {
			r := deviation(baseVals[i], vals[i], coherence[i])
			ewma[i] = (1-DefaultLambda)*ewma[i] + DefaultLambda*r
			sPos[i] = math.Max(0, sPos[i]+r-DefaultSlack)
			sNeg[i] = math.Max(0, sNeg[i]-r-DefaultSlack)
		}
		lastVals = vals
	}

	rep := &Report{
		Device:    device,
		Cycles:    len(window),
		BaseCycle: base.Cycle,
		LastCycle: window[len(window)-1].Cycle,
		Threshold: threshold,
	}
	rows := make([]SeriesDrift, len(names))
	var sum float64
	for i := range names {
		cusum := math.Max(sPos[i], sNeg[i])
		alarm := cusum > DefaultDecision
		if alarm {
			rep.Alarms++
		}
		sum += math.Min(1, math.Abs(ewma[i]))
		rows[i] = SeriesDrift{
			Name:     names[i],
			Baseline: baseVals[i],
			Latest:   lastVals[i],
			EWMA:     ewma[i],
			Cusum:    cusum,
			Alarm:    alarm,
		}
	}
	rep.Score = sum / float64(len(names))
	rep.Triggered = rep.Score > threshold

	// Most-drifted first; name breaks ties so the order is total and
	// the report is byte-stable.
	sort.Slice(rows, func(i, j int) bool {
		ai, aj := math.Abs(rows[i].EWMA), math.Abs(rows[j].EWMA)
		if ai != aj {
			return ai > aj
		}
		return rows[i].Name < rows[j].Name
	})
	if len(rows) > DefaultTopSeries {
		rows = rows[:DefaultTopSeries]
	}
	rep.Series = rows
	return rep, nil
}

// ParseWindow parses the ?window=K query parameter: empty means 0
// (whole series), otherwise a decimal in [1, MaxCyclesPerDevice].
func ParseWindow(s string) (int, error) {
	if s == "" {
		return 0, nil
	}
	k, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("window must be an integer, got %q", s)
	}
	if k < 1 || k > MaxCyclesPerDevice {
		return 0, fmt.Errorf("window must be in [1, %d], got %d", MaxCyclesPerDevice, k)
	}
	return k, nil
}
