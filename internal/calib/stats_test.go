package calib

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 || s.Mean != 2.5 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(1.25)) > 1e-12 {
		t.Fatalf("std = %v, want sqrt(1.25)", s.Std)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if s := Summarize(nil); s.N != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeMatchesManualComputation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		values := make([]float64, n)
		var sum float64
		lo, hi := math.Inf(1), math.Inf(-1)
		for i := range values {
			values[i] = rng.Float64() * 10
			sum += values[i]
			if values[i] < lo {
				lo = values[i]
			}
			if values[i] > hi {
				hi = values[i]
			}
		}
		s := Summarize(values)
		return math.Abs(s.Mean-sum/float64(n)) < 1e-9 && s.Min == lo && s.Max == hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
