package metrics

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRelative(t *testing.T) {
	if got := Relative(0.34, 0.2); math.Abs(got-1.7) > 1e-12 {
		t.Fatalf("Relative = %v, want 1.7", got)
	}
	if got := Relative(0.1, 0); !math.IsInf(got, 1) {
		t.Fatalf("Relative over zero baseline = %v, want +Inf", got)
	}
	if got := Relative(0, 0); got != 1 {
		t.Fatalf("Relative(0,0) = %v, want 1", got)
	}
}

func TestSTPT(t *testing.T) {
	// PST 0.5 at 1ms per trial → 500 successes/second.
	if got := STPT(0.5, time.Millisecond); math.Abs(got-500) > 1e-9 {
		t.Fatalf("STPT = %v, want 500", got)
	}
	if got := STPT(0.5, 0); got != 0 {
		t.Fatalf("STPT with zero latency = %v, want 0", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1.22, 1.09, 1.90, 1.35}); math.Abs(got-1.358) > 0.01 {
		t.Fatalf("GeoMean = %v, want ≈1.36 (the paper's Table 3 geomean)", got)
	}
	if got := GeoMean([]float64{2, 8}); got != 4 {
		t.Fatalf("GeoMean = %v, want 4", got)
	}
	if GeoMean(nil) != 0 || GeoMean([]float64{1, 0}) != 0 {
		t.Fatal("degenerate geomeans should be 0")
	}
}

func TestGeoMeanBetweenMinMaxProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var vals []float64
		for _, v := range raw {
			if v > 0 && !math.IsInf(v, 0) && !math.IsNaN(v) && v < 1e100 {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			return true
		}
		g := GeoMean(vals)
		lo, hi := MinMax(vals)
		return g >= lo-1e-9*lo && g <= hi+1e-9*hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestMinMaxMean(t *testing.T) {
	lo, hi := MinMax([]float64{3, 1, 2})
	if lo != 1 || hi != 3 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
	// Ascending input exercises the max-update branch.
	if lo, hi := MinMax([]float64{1, 2, 3}); lo != 1 || hi != 3 {
		t.Fatalf("MinMax ascending = %v,%v", lo, hi)
	}
	if lo, hi := MinMax([]float64{7}); lo != 7 || hi != 7 {
		t.Fatalf("MinMax singleton = %v,%v", lo, hi)
	}
	if lo, hi := MinMax(nil); lo != 0 || hi != 0 {
		t.Fatal("MinMax(nil) should be 0,0")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v, want 2", got)
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil) should be 0")
	}
}
