package caldrift

import (
	"bytes"
	"testing"

	"vaq/internal/calib"
)

// validArchiveJSON renders a 2-cycle Q5 archive in the calib wire
// format — the well-formed seed the mutator works outward from.
func validArchiveJSON(tb testing.TB) []byte {
	tb.Helper()
	cfg := calib.DefaultQ5Config(3)
	cfg.Days, cfg.CyclesPerDay = 2, 1
	var buf bytes.Buffer
	if err := calib.Generate(cfg).WriteJSON(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCycleAppend feeds arbitrary bytes through the full ingest path —
// lenient JSON decode, snapshot validation, topology rebind, append —
// and asserts the store never panics and never accepts a cycle it
// cannot account for.
func FuzzCycleAppend(f *testing.F) {
	f.Add("q5", validArchiveJSON(f))
	f.Add("q5", []byte("{"))
	f.Add("../evil", []byte(`{"topology":{"name":"x","num_qubits":1,"couplings":[]}}`))
	f.Add("q5", []byte(`{"topology":{"name":"x","num_qubits":2,"couplings":[[0,1]]},"snapshots":[]}`))
	f.Fuzz(func(t *testing.T, device string, data []byte) {
		s, err := Open("")
		if err != nil {
			t.Fatal(err)
		}
		arch, _, err := calib.ReadJSONLenient(bytes.NewReader(data))
		if err != nil || arch == nil {
			return
		}
		appended := 0
		for _, snap := range arch.Snapshots {
			if _, err := s.Append(device, snap); err == nil {
				appended++
			}
		}
		if got := s.Len(device); got != appended {
			t.Fatalf("accepted %d cycles but Len = %d", appended, got)
		}
		if appended > 0 {
			if a, ok := s.Archive(device, 0); !ok {
				t.Fatal("non-empty series has no archive")
			} else {
				for _, snap := range a.Snapshots {
					if snap.Topo != a.Topo || snap.Validate() != nil {
						t.Fatalf("accepted series holds an invalid cycle %d", snap.Cycle)
					}
				}
			}
		}
	})
}

// FuzzDriftWindowQuery hammers the query surface: ParseWindow on
// arbitrary strings, then Window/Detect on arbitrary window sizes over
// a populated series. Nothing here may panic, and windows must respect
// the series bounds.
func FuzzDriftWindowQuery(f *testing.F) {
	f.Add("", 0)
	f.Add("3", 2)
	f.Add("-1", -7)
	f.Add("999999999999999999999", 1<<30)
	f.Add("2e3", 513)
	seed := validArchiveJSON(f)
	f.Fuzz(func(t *testing.T, winStr string, k int) {
		if n, err := ParseWindow(winStr); err == nil && (n < 0 || n > MaxCyclesPerDevice) {
			t.Fatalf("ParseWindow(%q) = %d outside [0, %d]", winStr, n, MaxCyclesPerDevice)
		}
		s, _ := Open("")
		arch, _, err := calib.ReadJSONLenient(bytes.NewReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		for _, snap := range arch.Snapshots {
			if _, err := s.Append("q5", snap); err != nil {
				t.Fatal(err)
			}
		}
		w := s.Window("q5", k)
		if len(w) > s.Len("q5") {
			t.Fatalf("Window(%d) returned %d cycles of a %d-cycle series", k, len(w), s.Len("q5"))
		}
		if len(w) >= 2 {
			if _, err := Detect("q5", w, 0); err != nil {
				t.Fatalf("Detect over store window failed: %v", err)
			}
		}
	})
}
