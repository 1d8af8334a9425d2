package caldrift

import (
	"encoding/json"
	"math"
	"testing"

	"vaq/internal/calib"
)

// steadyWindow repeats one cycle n times: zero drift by construction.
func steadyWindow(t *testing.T, n int) []*calib.Snapshot {
	t.Helper()
	base := genCycles(t, 42, 1)[0]
	out := make([]*calib.Snapshot, n)
	for i := range out {
		c := base.Clone()
		c.Cycle = i
		out[i] = c
	}
	return out
}

func TestDetectSteadyDeviceScoresZero(t *testing.T) {
	rep, err := Detect("q5", steadyWindow(t, 4), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Score != 0 {
		t.Fatalf("steady device scored %v", rep.Score)
	}
	if rep.Triggered || rep.Alarms != 0 {
		t.Fatalf("steady device triggered=%v alarms=%d", rep.Triggered, rep.Alarms)
	}
	if rep.BaseCycle != 0 || rep.LastCycle != 3 || rep.Cycles != 4 {
		t.Fatalf("cycle bookkeeping: %+v", rep)
	}
}

func TestDetectDegradedLinkAlarms(t *testing.T) {
	win := steadyWindow(t, 5)
	// Degrade one link 4x from cycle 1 on: its series must alarm and
	// rank first.
	worst := win[0].Topo.Couplings[0]
	for _, s := range win[1:] {
		s.TwoQubit[worst] *= 4
	}
	rep, err := Detect("q5", win, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alarms == 0 {
		t.Fatal("4x-degraded link raised no alarm")
	}
	top := rep.Series[0]
	if top.Alarm != true || top.EWMA <= 0 {
		t.Fatalf("top series %+v is not a positive alarm", top)
	}
	wantName := "cx:" + itoa(worst.A) + "-" + itoa(worst.B)
	if top.Name != wantName {
		t.Fatalf("top series is %s, want %s", top.Name, wantName)
	}
	if rep.Score <= 0 {
		t.Fatal("degraded device scored 0")
	}
}

func itoa(n int) string {
	b, _ := json.Marshal(n)
	return string(b)
}

func TestDetectCoherenceDropReadsAsDegradation(t *testing.T) {
	win := steadyWindow(t, 6)
	for _, s := range win[1:] {
		for q := range s.T1Us {
			s.T1Us[q] *= 0.4 // T1 collapse: 60% coherence loss
			s.T2Us[q] *= 0.4
		}
	}
	rep, err := Detect("q5", win, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Sign convention: shrinking coherence is positive drift.
	for _, row := range rep.Series {
		if row.Name[:3] == "t1:" || row.Name[:3] == "t2:" {
			if row.EWMA <= 0 {
				t.Fatalf("coherence series %s has EWMA %v, want > 0", row.Name, row.EWMA)
			}
		}
	}
	if rep.Alarms == 0 {
		t.Fatal("coherence collapse raised no alarm")
	}
}

func TestDetectImprovementDoesNotTriggerOneSided(t *testing.T) {
	// A large *improvement* still drifts (two-sided CUSUM alarms; the
	// mapping is stale either way — better links elsewhere mean
	// recompilation can win).
	win := steadyWindow(t, 5)
	worst := win[0].Topo.Couplings[0]
	for _, s := range win[1:] {
		s.TwoQubit[worst] *= 0.2
	}
	rep, err := Detect("q5", win, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Alarms == 0 {
		t.Fatal("5x improvement raised no alarm (two-sided CUSUM should catch it)")
	}
	if rep.Series[0].EWMA >= 0 {
		t.Fatalf("improvement EWMA = %v, want negative", rep.Series[0].EWMA)
	}
}

func TestDetectThresholdGate(t *testing.T) {
	win := steadyWindow(t, 4)
	for _, s := range win[1:] {
		for _, c := range s.Topo.Couplings {
			s.TwoQubit[c] *= 3
		}
	}
	low, err := Detect("q5", win, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if !low.Triggered {
		t.Fatalf("score %v did not trigger threshold 0.01", low.Score)
	}
	high, err := Detect("q5", win, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if high.Triggered {
		t.Fatalf("score %v triggered threshold 0.99", high.Score)
	}
	if low.Score != high.Score {
		t.Fatal("threshold changed the score itself")
	}
}

func TestDetectErrors(t *testing.T) {
	if _, err := Detect("q5", nil, 0); err == nil {
		t.Fatal("empty window accepted")
	}
	if _, err := Detect("q5", steadyWindow(t, 1), 0); err == nil {
		t.Fatal("1-cycle window accepted")
	}
	mixed := steadyWindow(t, 2)
	mixed[1] = genCycles(t, 9, 1)[0] // different Topo instance
	if _, err := Detect("q5", mixed, 0); err == nil {
		t.Fatal("mixed-topology window accepted")
	}
}

func TestDetectDeterministicBytes(t *testing.T) {
	win := genCycles(t, 2019, 6)
	var want []byte
	for i := 0; i < 3; i++ {
		rep, err := Detect("q5", win, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			t.Fatalf("run %d produced different report bytes", i)
		}
	}
}

func TestDetectTopSeriesBound(t *testing.T) {
	win := genCycles(t, 3, 4)
	rep, err := Detect("q5", win, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Q5 tracks 26 series (6 links, then 5 each of sq, ro, t1, t2), so
	// the bound is what cuts the report short.
	if len(rep.Series) != DefaultTopSeries {
		t.Fatalf("report kept %d rows, want %d", len(rep.Series), DefaultTopSeries)
	}
	for i := 1; i < len(rep.Series); i++ {
		if math.Abs(rep.Series[i].EWMA) > math.Abs(rep.Series[i-1].EWMA) {
			t.Fatal("series rows not sorted by |EWMA| descending")
		}
	}
}

func TestParseWindow(t *testing.T) {
	cases := []struct {
		in      string
		want    int
		wantErr bool
	}{
		{"", 0, false},
		{"1", 1, false},
		{"512", 512, false},
		{"0", 0, true},
		{"-3", 0, true},
		{"513", 0, true},
		{"abc", 0, true},
		{"1e2", 0, true},
	}
	for _, c := range cases {
		got, err := ParseWindow(c.in)
		if (err != nil) != c.wantErr {
			t.Errorf("ParseWindow(%q) err = %v, wantErr %v", c.in, err, c.wantErr)
		}
		if err == nil && got != c.want {
			t.Errorf("ParseWindow(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
