package checkpoint

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := AtomicWriteFile(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	// Overwrite: the replacement is complete, and no temp file survives.
	if err := AtomicWriteFile(path, []byte("v2 with more bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "v2 with more bytes" {
		t.Fatalf("ReadFile = %q, %v", got, err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("dir holds %d entries, want just the target file", len(entries))
	}
	// A missing parent directory is an error, not a panic, and leaves no
	// debris.
	if err := AtomicWriteFile(filepath.Join(dir, "nope", "x"), []byte("v")); err == nil {
		t.Fatal("write into missing directory succeeded")
	}
}

func TestNoTempFilesLeftBehind(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "k.json")
	for i := 0; i < 8; i++ {
		if err := AtomicWriteFile(path, []byte{byte('0' + i)}); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("%d entries for one path, want 1 (last write wins)", len(entries))
	}
}

// TestConcurrentWritesSamePath races writers on one path: the survivor
// is one writer's complete payload, never a mix.
func TestConcurrentWritesSamePath(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "shared.json")
	payload := func(i int) string { return strings.Repeat(string(rune('a'+i)), 4096) }
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := AtomicWriteFile(path, []byte(payload(i))); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		if string(got) == payload(i) {
			return
		}
	}
	t.Fatalf("torn file: %d bytes starting %q", len(got), got[:min(len(got), 16)])
}

func put(t *testing.T, d Dir, name, body string) {
	t.Helper()
	if err := d.Put(name, func(w io.Writer) error {
		_, err := io.WriteString(w, body)
		return err
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDirLoadOrderAndQuarantine pins Load's contract: matching records
// in name order, one directory level per "/" in the pattern, and every
// record the loader rejects renamed aside and counted exactly once.
func TestDirLoadOrderAndQuarantine(t *testing.T) {
	root := t.TempDir()
	d, err := OpenDir(root)
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.Sub("b")
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.Sub("a")
	if err != nil {
		t.Fatal(err)
	}
	put(t, b, "r-1.json", "ok")
	put(t, a, "r-2.json", "bad")
	put(t, a, "r-1.json", "ok")
	put(t, d, "r-0.json", "top level: not one directory down")
	put(t, a, "other.json", "no match")

	var seen []string
	load := func(name string, data []byte) error {
		seen = append(seen, name)
		if string(data) != "ok" {
			return errors.New("rejected")
		}
		return nil
	}
	corrupt, err := d.Load("*/r-*.json", load)
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"a/r-1.json", "a/r-2.json", "b/r-1.json"}; !slices.Equal(seen, want) || corrupt != 1 {
		t.Fatalf("Load visited %v with %d corrupt, want %v with 1", seen, corrupt, want)
	}
	if _, err := os.Stat(filepath.Join(root, "a", "r-2.json.corrupt")); err != nil {
		t.Fatalf("rejected record not renamed aside: %v", err)
	}
	seen = nil
	if corrupt, err := d.Load("*/r-*.json", load); err != nil || corrupt != 0 || len(seen) != 2 {
		t.Fatalf("second Load visited %v with %d corrupt (%v), want the 2 good records", seen, corrupt, err)
	}

	b.Delete("r-1.json")
	b.Delete("r-1.json") // already gone: no error to report
	if _, err := os.Stat(filepath.Join(root, "b", "r-1.json")); !os.IsNotExist(err) {
		t.Fatalf("deleted record still there: %v", err)
	}
}

func TestDirPutKeepsOldRecordOnEncodeError(t *testing.T) {
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	put(t, d, "k.json", "v1")
	if err := d.Put("k.json", func(io.Writer) error { return errors.New("boom") }); err == nil {
		t.Fatal("encode error not returned")
	}
	var got string
	if _, err := d.Load("k.json", func(_ string, data []byte) error { got = string(data); return nil }); err != nil || got != "v1" {
		t.Fatalf("record after failed Put = %q (%v), want v1", got, err)
	}
}

// TestInMemoryDir pins the zero Dir: nothing is encoded, written or
// found.
func TestInMemoryDir(t *testing.T) {
	d, err := OpenDir("")
	if err != nil || d != (Dir{}) {
		t.Fatalf("OpenDir(\"\") = %v, %v; want the zero Dir", d, err)
	}
	sub, err := d.Sub("x")
	if err != nil || sub != (Dir{}) {
		t.Fatalf("Sub of the in-memory Dir = %v, %v", sub, err)
	}
	if err := d.Put("k", func(io.Writer) error { t.Fatal("in-memory Put encoded"); return nil }); err != nil {
		t.Fatal(err)
	}
	d.Delete("k")
	n, err := d.Load("*", func(string, []byte) error { t.Fatal("in-memory Load found a record"); return nil })
	if n != 0 || err != nil {
		t.Fatalf("Load = %d, %v", n, err)
	}
}
