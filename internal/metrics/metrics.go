// Package metrics holds the figures of merit of the paper's evaluation:
// relative PST (Probability of a Successful Trial) between policies,
// Successful Trials Per unit Time (STPT, Section 8), and the geometric
// mean used for cross-benchmark summaries.
package metrics

import (
	"math"
	"time"
)

// Relative returns the improvement factor of candidate over baseline
// (e.g. 1.7 means "1.7× the baseline PST"). A zero baseline yields +Inf
// for a positive candidate and 1 when both are zero.
func Relative(candidate, baseline float64) float64 {
	if baseline == 0 {
		if candidate == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return candidate / baseline
}

// STPT is the rate of successful trials per second when each trial takes
// latency: PST / latency.
func STPT(pst float64, latency time.Duration) float64 {
	if latency <= 0 {
		return 0
	}
	return pst / latency.Seconds()
}

// GeoMean returns the geometric mean of positive values; zero or negative
// entries yield 0 (a failed benchmark kills the geomean, mirroring the
// paper's summary convention).
func GeoMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range values {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(values)))
}

// MinMax returns the extremes of values (0,0 for empty input).
func MinMax(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// Mean returns the arithmetic mean (0 for empty input).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total / float64(len(values))
}
