package caldrift

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"vaq/internal/calib"
)

// genCycles produces n drifting Q5 calibration cycles from one seed.
func genCycles(t *testing.T, seed int64, n int) []*calib.Snapshot {
	t.Helper()
	cfg := calib.DefaultQ5Config(seed)
	cfg.Days = n
	cfg.CyclesPerDay = 1
	arch := calib.Generate(cfg)
	if len(arch.Snapshots) != n {
		t.Fatalf("generated %d cycles, want %d", len(arch.Snapshots), n)
	}
	return arch.Snapshots
}

func TestStoreAppendWindow(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	snaps := genCycles(t, 7, 4)
	for i, snap := range snaps {
		cyc, err := s.Append("q5", snap)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if cyc != i {
			t.Fatalf("append %d returned cycle %d", i, cyc)
		}
	}
	if got := s.Len("q5"); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	w := s.Window("q5", 2)
	if len(w) != 2 || w[0].Cycle != 2 || w[1].Cycle != 3 {
		t.Fatalf("Window(2) = cycles %v", cyclesOf(w))
	}
	if w := s.Window("q5", 0); len(w) != 4 {
		t.Fatalf("Window(0) returned %d cycles, want whole series", len(w))
	}
	if w := s.Window("q5", 99); len(w) != 4 {
		t.Fatalf("oversized window returned %d cycles", len(w))
	}
	if w := s.Window("nope", 1); w != nil {
		t.Fatalf("unknown device returned %d cycles", len(w))
	}
}

func cyclesOf(snaps []*calib.Snapshot) []int {
	out := make([]int, len(snaps))
	for i, s := range snaps {
		out[i] = s.Cycle
	}
	return out
}

func TestStoreRejections(t *testing.T) {
	s, _ := Open("")
	snaps := genCycles(t, 1, 1)
	if _, err := s.Append("../evil", snaps[0]); err == nil {
		t.Fatal("path-traversal device name accepted")
	}
	if _, err := s.Append("q5", nil); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	// Shape mismatch: a 20-qubit cycle on a 5-qubit series.
	if _, err := s.Append("q5", snaps[0]); err != nil {
		t.Fatal(err)
	}
	q20 := calib.Generate(calib.DefaultQ20Config(1))
	if _, err := s.Append("q5", q20.Snapshots[0]); err == nil {
		t.Fatal("topology-mismatched cycle accepted")
	}
	// An invalid snapshot (negative error rate) is rejected.
	bad := snaps[0].Clone()
	bad.Readout[0] = -0.5
	if _, err := s.Append("q5", bad); err == nil {
		t.Fatal("invalid snapshot accepted")
	}
}

func TestStorePersistAndReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := genCycles(t, 11, 3)
	for _, snap := range snaps {
		if _, err := s.Append("q5", snap); err != nil {
			t.Fatal(err)
		}
	}
	// Every acknowledged cycle has a durable envelope.
	files, _ := filepath.Glob(filepath.Join(dir, "q5", "cycle-*.json"))
	if len(files) != 3 {
		t.Fatalf("%d envelopes on disk, want 3", len(files))
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.Len("q5"); got != 3 {
		t.Fatalf("reloaded Len = %d, want 3", got)
	}
	// Reloaded cycles carry the same data.
	orig, rel := s.Window("q5", 0), re.Window("q5", 0)
	for i := range orig {
		for _, c := range orig[i].Topo.Couplings {
			if orig[i].TwoQubit[c] != rel[i].TwoQubit[c] {
				t.Fatalf("cycle %d link %v differs after reload", i, c)
			}
		}
	}
	// Appends continue after reload without clobbering envelopes.
	more := genCycles(t, 12, 1)
	cyc, err := re.Append("q5", more[0])
	if err != nil {
		t.Fatal(err)
	}
	if cyc != 3 {
		t.Fatalf("post-reload append returned cycle %d, want 3", cyc)
	}
}

func TestStoreQuarantinesCorruptEnvelope(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	for _, snap := range genCycles(t, 3, 3) {
		if _, err := s.Append("q5", snap); err != nil {
			t.Fatal(err)
		}
	}
	victim := filepath.Join(dir, "q5", "cycle-000001.json")
	if err := os.WriteFile(victim, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatalf("corrupt envelope failed the whole store: %v", err)
	}
	if got := re.Corrupt(); got != 1 {
		t.Fatalf("Corrupt = %d, want 1", got)
	}
	if got := re.Len("q5"); got != 2 {
		t.Fatalf("Len after quarantine = %d, want 2", got)
	}
	if _, err := os.Stat(victim + ".corrupt"); err != nil {
		t.Fatalf("quarantined file not renamed aside: %v", err)
	}
}

func TestStoreArchiveValidates(t *testing.T) {
	s, _ := Open("")
	for _, snap := range genCycles(t, 5, 3) {
		if _, err := s.Append("q5", snap); err != nil {
			t.Fatal(err)
		}
	}
	arch, ok := s.Archive("q5", 0)
	if !ok {
		t.Fatal("Archive returned no data")
	}
	// Rebinding must leave the archive internally consistent — pointer
	// topology equality included.
	for _, snap := range arch.Snapshots {
		if snap.Topo != arch.Topo {
			t.Fatalf("cycle %d is not on the archive's topology", snap.Cycle)
		}
		if err := snap.Validate(); err != nil {
			t.Fatalf("stored cycle %d fails calib validation: %v", snap.Cycle, err)
		}
	}
	if _, ok := s.Archive("nope", 0); ok {
		t.Fatal("Archive for unknown device reported ok")
	}
}

// TestStoreRestartAfterEviction pins cycle numbering across a restart:
// a cycle's number is its envelope's sequence number, so a reopened
// store reports the same cycles it acknowledged, and eviction removes
// the dropped cycle's own envelope even after a quarantine left a gap.
func TestStoreRestartAfterEviction(t *testing.T) {
	dir := t.TempDir()
	snaps := genCycles(t, 21, 4)
	appendN := func(s *Store, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := s.Append("q5", snaps[i%len(snaps)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(s, MaxCyclesPerDevice+3)
	before := cyclesOf(s.Window("q5", 0))
	if first, last := before[0], before[len(before)-1]; first != 3 || last != MaxCyclesPerDevice+2 {
		t.Fatalf("retained cycles %d..%d, want 3..%d", first, last, MaxCyclesPerDevice+2)
	}

	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if after := cyclesOf(re.Window("q5", 0)); !slices.Equal(after, before) {
		t.Fatalf("cycles renumbered across restart: last two %v, want %v",
			after[len(after)-2:], before[len(before)-2:])
	}

	victim := before[len(before)/2]
	path := filepath.Join(dir, "q5", fmt.Sprintf("cycle-%06d.json", victim))
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	appendN(re, 5)
	files, _ := filepath.Glob(filepath.Join(dir, "q5", "cycle-*.json"))
	onDisk := make([]int, 0, len(files))
	for _, f := range files {
		var seq int
		if _, err := fmt.Sscanf(filepath.Base(f), "cycle-%06d.json", &seq); err != nil {
			t.Fatalf("unexpected envelope name %s", f)
		}
		onDisk = append(onDisk, seq)
	}
	slices.Sort(onDisk)
	kept := cyclesOf(re.Window("q5", 0))
	for i := range max(len(onDisk), len(kept)) {
		if i >= len(onDisk) || i >= len(kept) || onDisk[i] != kept[i] {
			t.Fatalf("envelope sequence numbers diverge from retained cycles at index %d (%d on disk, %d retained)",
				i, len(onDisk), len(kept))
		}
	}
}

// TestCycleFormatFixture loads a cycle file written by nisqd before the
// store was rebuilt on checkpoint.Dir, and appends the loaded cycle to
// a fresh store: the new file must reproduce the fixture byte for byte,
// so a cycle directory survives an upgrade unchanged.
func TestCycleFormatFixture(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "records", "cycle-000000.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Mkdir(filepath.Join(dir, "fx-q5"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "fx-q5", "cycle-000000.json"), want, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Corrupt() != 0 || s.Len("fx-q5") != 1 {
		t.Fatalf("fixture loaded %d cycles with %d corrupt, want 1 and 0", s.Len("fx-q5"), s.Corrupt())
	}
	out := t.TempDir()
	fresh, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fresh.Append("fx-q5", s.Window("fx-q5", 0)[0]); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(out, "fx-q5", "cycle-000000.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("cycle written back as\n%s\nwant\n%s", got, want)
	}
}

// TestRefusedFirstAppendFixesNothing pins persist-before-insert for a
// new device: a first cycle that cannot be persisted is refused and
// leaves no series behind, so it cannot fix the topology that the next
// (acknowledged) first cycle is checked against.
func TestRefusedFirstAppendFixesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// A regular file where the device directory belongs makes the
	// append's persist step fail.
	blocker := filepath.Join(dir, "dev")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append("dev", genCycles(t, 1, 1)[0]); err == nil {
		t.Fatal("append succeeded without a device directory")
	}
	if n := s.Len("dev"); n != 0 {
		t.Fatalf("refused append left %d cycles", n)
	}
	if err := os.Remove(blocker); err != nil {
		t.Fatal(err)
	}
	q20 := calib.Generate(calib.DefaultQ20Config(1))
	cyc, err := s.Append("dev", q20.Snapshots[0])
	if err != nil {
		t.Fatalf("first acknowledged cycle refused: %v", err)
	}
	if cyc != 0 || s.Len("dev") != 1 {
		t.Fatalf("append returned cycle %d with %d stored, want cycle 0 of 1", cyc, s.Len("dev"))
	}
}
