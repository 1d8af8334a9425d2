// Package checkpoint holds the one durable-write primitive the job and
// drift planes share: AtomicWriteFile.
package checkpoint

import (
	"os"
	"path/filepath"
)

// AtomicWriteFile writes data to path durably: write to a unique temp
// file in the same directory, fsync, then rename over path. A crash or
// power cut at any point leaves either the old file or the new one,
// never a torn mix — the invariant the job queue and the drift store
// rely on. Safe for concurrent writers to the same path: temp names are
// unique and rename is atomic, so the last writer wins cleanly.
func AtomicWriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".atomic-*.tmp")
	if err != nil {
		return err
	}
	tmp := f.Name()
	_, werr := f.Write(data)
	if werr == nil {
		werr = f.Sync()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp, path)
	}
	if werr != nil {
		os.Remove(tmp)
		return werr
	}
	return nil
}
