// Package checkpoint owns the record-directory contract the job and
// drift planes share: whole-file atomic writes (AtomicWriteFile), and
// Dir, a directory of named records that loads in name order and
// quarantines what it cannot load.
package checkpoint

import (
	"bytes"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"strings"
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

// Dir is a directory of records, one file per record, each named by its
// key and written whole with AtomicWriteFile. Every record is verified
// on load: one that cannot be read, or that its loader rejects, is
// renamed aside with a ".corrupt" suffix and counted, so it is never
// fatal, never silently trusted and never re-parsed at the next open.
//
// The zero Dir is the in-memory mode: Put and Delete do nothing (Put
// does not even encode) and Load finds no records.
type Dir struct {
	path string
}

// OpenDir opens the record directory dir, creating it if needed.
// dir == "" returns the in-memory Dir.
func OpenDir(dir string) (Dir, error) {
	if dir == "" {
		return Dir{}, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Dir{}, err
	}
	return Dir{path: dir}, nil
}

// Sub opens the child directory name of d, creating it if needed. The
// child of the in-memory Dir is in-memory.
func (d Dir) Sub(name string) (Dir, error) {
	if d.path == "" {
		return d, nil
	}
	return OpenDir(filepath.Join(d.path, name))
}

// Put durably replaces record name with the bytes encode writes. An
// error from encode or from the write leaves the previous record.
func (d Dir) Put(name string, encode func(io.Writer) error) error {
	if d.path == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := encode(&buf); err != nil {
		return err
	}
	return AtomicWriteFile(d.file(name), buf.Bytes())
}

// Delete removes record name, best effort: a record that is already
// gone, or cannot be removed, is left to the next Load's loader.
func (d Dir) Delete(name string) {
	if d.path != "" {
		os.Remove(d.file(name))
	}
}

// file is record name's path. It concatenates rather than calling
// filepath.Join, whose result may alias name: that would make every
// name escape, and the in-memory mode allocate one per call.
func (d Dir) file(name string) string {
	return d.path + string(filepath.Separator) + name
}

// Load calls fn with the name (slash-separated, relative to d) and
// bytes of every record whose name matches pattern (path.Match syntax;
// "*/cycle-*.json" matches one level down), in name order. A record
// that cannot be read, or that fn rejects, is quarantined; Load returns
// how many were. Only a directory that cannot be listed is an error.
func (d Dir) Load(pattern string, fn func(name string, data []byte) error) (corrupt int, err error) {
	if d.path == "" {
		return 0, nil
	}
	depth := strings.Count(pattern, "/")
	err = filepath.WalkDir(d.path, func(p string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(d.path, p)
		name := filepath.ToSlash(rel)
		if e.IsDir() {
			if p != d.path && strings.Count(name, "/") >= depth {
				return filepath.SkipDir
			}
			return nil
		}
		if ok, _ := path.Match(pattern, name); !ok {
			return nil
		}
		data, err := os.ReadFile(p)
		if err == nil {
			err = fn(name, data)
		}
		if err != nil {
			// A failed rename only means the next Load finds and counts
			// the record again.
			os.Rename(p, p+".corrupt")
			corrupt++
		}
		return nil
	})
	return corrupt, err
}
