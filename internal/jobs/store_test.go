package jobs

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// recordFixtures are job records written by nisqd before the store was
// rebuilt on checkpoint.Dir: one still queued, and one that succeeded
// with its verbatim response bytes. They pin the on-disk format.
var recordFixtures = []struct {
	id    string
	state State
}{
	{"dc0ff81427b3e762", StateQueued},
	{"2f13e5fca593ed92", StateSucceeded},
}

// TestRecordFormatFixtures loads each fixture through NewManager and
// writes the loaded job back: the rewrite must reproduce the fixture
// byte for byte, so a queue directory survives an upgrade unchanged.
func TestRecordFormatFixtures(t *testing.T) {
	dir := t.TempDir()
	want := make(map[string][]byte)
	for _, fx := range recordFixtures {
		name := "job-" + fx.id + ".json"
		data, err := os.ReadFile(filepath.Join("testdata", "records", name))
		if err != nil {
			t.Fatal(err)
		}
		want[fx.id] = data
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	m, err := NewManager(Options{Dir: dir}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.corrupt.Value(); got != 0 {
		t.Fatalf("corrupt = %v, want 0", got)
	}
	for _, fx := range recordFixtures {
		v, ok := m.Get(fx.id)
		if !ok || v.State != fx.state {
			t.Fatalf("fixture %s: loaded %v (state %v), want state %s", fx.id, ok, v, fx.state)
		}
		m.mu.Lock()
		m.persistLocked(m.jobs[fx.id])
		m.mu.Unlock()
		got, err := os.ReadFile(filepath.Join(dir, "job-"+fx.id+".json"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want[fx.id]) {
			t.Errorf("fixture %s: written back as\n%s\nwant\n%s", fx.id, got, want[fx.id])
		}
	}
	if res, _, _ := m.Result("2f13e5fca593ed92"); !bytes.HasPrefix(res, []byte("{\n \"program\"")) {
		t.Errorf("succeeded fixture result = %.40q..., want the compile response", res)
	}
}

// TestUnknownStateQuarantined pins the state check on load: a parseable
// record whose state is no lifecycle state is quarantined like any
// other inconsistent record. Trusted, it would be re-queued, count as
// queued and hold a tenant quota slot, but the dispatcher would never
// run it, so it would never finish and never free the slot.
func TestUnknownStateQuarantined(t *testing.T) {
	dir := t.TempDir()
	const id = "0123456789abcdef"
	rec := `{"id":"` + id + `","job":{"id":"` + id + `","tenant":"lab","class":"batch","kind":"compile",` +
		`"request":{},"state":"bogus","attempt":0,"interruptions":0,"seq":1}}`
	path := filepath.Join(dir, "job-"+id+".json")
	if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Options{Dir: dir}, echoBackend())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.corrupt.Value(); got != 1 {
		t.Errorf("corrupt = %v, want 1", got)
	}
	if _, ok := m.Get(id); ok {
		t.Error("job with unknown state loaded")
	}
	if m.queued != 0 || m.quotas.live["lab"] != 0 {
		t.Errorf("queued = %d, tenant live = %d, want 0 and 0", m.queued, m.quotas.live["lab"])
	}
	if _, err := os.Stat(path + ".corrupt"); err != nil {
		t.Errorf("record not renamed aside: %v", err)
	}
}
