// Package vfs is the pluggable filesystem seam under the durable layers
// (internal/store, internal/journal): a small interface over exactly the
// operations crash safety depends on — create, write, fsync, atomic
// rename, truncate — with two implementations. OS passes straight
// through to the real filesystem; FaultFS wraps any FS and injects
// deterministic disk faults (short writes, fsync errors, ENOSPC,
// post-write crashes) from a chaos.Failpoints registry, so the recovery
// paths above it can be exercised byte-for-byte reproducibly. Over
// either, WriteAtomic and RemoveTemps are the one crash-safe rewrite
// protocol the durable layers share.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// File is the handle surface the durable layers use: sequential reads
// and writes, durability via Sync, and the name for error reports.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Name() string
	Sync() error
}

// FS is the filesystem surface the durable layers use. Implementations
// must give Rename the same same-directory atomicity the OS provides:
// after a crash, the destination holds either the old or the new
// content, never a mix.
type FS interface {
	MkdirAll(path string) error
	// Create opens name for writing, truncating it if it exists.
	Create(name string) (File, error)
	// CreateTemp creates a new temp file in dir; pattern as os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Open opens name read-only.
	Open(name string) (File, error)
	// OpenAppend opens name for appending, creating it if needed.
	OpenAppend(name string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	Truncate(name string, size int64) error
	Stat(name string) (fs.FileInfo, error)
	ReadDir(name string) ([]fs.DirEntry, error)
}

// OS is the real filesystem.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string) error { return os.MkdirAll(path, 0o755) }

func (osFS) Create(name string) (File, error) { return os.Create(name) }

func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }

func (osFS) Open(name string) (File, error) { return os.Open(name) }

func (osFS) OpenAppend(name string) (File, error) {
	return os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) WriteFile(name string, data []byte) error { return os.WriteFile(name, data, 0o644) }

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) Truncate(name string, size int64) error { return os.Truncate(name, size) }

func (osFS) Stat(name string) (fs.FileInfo, error) { return os.Stat(name) }

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// WriteAtomic replaces path with data so that a crash at any instant
// leaves path holding exactly its old bytes or exactly data, never a
// mix. It is the durable layers' one rewrite protocol: data goes to a
// temp file created from pattern (as CreateTemp) in path's directory,
// which is fsynced and closed before it is renamed over path. On failure
// the temp file is removed; a crash can still leave it behind, which is
// what RemoveTemps with the same pattern sweeps at the next open. The
// error is the failing operation's, for the caller to prefix.
func WriteAtomic(fsys FS, path, pattern string, data []byte) error {
	tmp, err := fsys.CreateTemp(filepath.Dir(path), pattern)
	if err != nil {
		return err
	}
	defer fsys.Remove(tmp.Name()) // no-op after a successful rename
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fsys.Rename(tmp.Name(), path)
	}
	return err
}

// RemoveTemps deletes every file in dir that CreateTemp could have named
// from pattern (its last "*" standing for any text), the temp files of
// WriteAtomic calls that crashed. A temp file is never read, and the
// live name it was meant to replace still holds whole bytes, so deleting
// it is always safe. Errors are ignored: debris that survives one sweep
// is swept at the next.
func RemoveTemps(fsys FS, dir, pattern string) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return
	}
	prefix, suffix := pattern, ""
	if i := strings.LastIndex(pattern, "*"); i >= 0 {
		prefix, suffix = pattern[:i], pattern[i+1:]
	}
	for _, e := range ents {
		name := e.Name()
		if len(name) >= len(prefix)+len(suffix) && strings.HasPrefix(name, prefix) && strings.HasSuffix(name, suffix) {
			fsys.Remove(filepath.Join(dir, name))
		}
	}
}
