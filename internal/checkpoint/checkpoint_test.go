package checkpoint

import (
	"os"
	"path/filepath"
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
