package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"sync/atomic"

	"repro/internal/chaos"
)

// ErrInjected is the failure FaultFS injects for FPError: an I/O error
// whose aftermath is unknown to the caller, like a real EIO from fsync.
var ErrInjected = errors.New("vfs: injected I/O error")

// ErrNoSpace is the failure FaultFS injects for FPENOSPC.
var ErrNoSpace = errors.New("vfs: injected ENOSPC: no space left on device")

// ErrCrashed is returned by every operation after a crash failpoint
// fired with no OnCrash hook: the filesystem is wedged, modeling the
// process having died. Whatever bytes reached the underlying FS before
// the crash point stay there — exactly what a restart would find.
var ErrCrashed = errors.New("vfs: simulated crash: filesystem wedged")

// FaultFS injects deterministic disk faults into a base FS, driven by a
// chaos.Failpoints registry. Operation classes evaluated against the
// registry: "create", "open", "write", "sync", "rename", "remove",
// "truncate" (ReadFile/WriteFile evaluate "open"/"write" with the full
// path). A crash failpoint completes the operation first — the
// post-write crash window — then calls OnCrash; if OnCrash is nil or
// returns, the FaultFS wedges and every later operation fails with
// ErrCrashed, so in-process tests get powercut semantics while the
// daemon can pass an OnCrash that hard-exits the process.
type FaultFS struct {
	Base    FS
	FP      *chaos.Failpoints
	OnCrash func()

	crashed atomic.Bool
}

// Crashed reports whether a crash failpoint has wedged the filesystem.
func (f *FaultFS) Crashed() bool { return f.crashed.Load() }

// crash completes the simulated death. It never returns a usable
// filesystem: either OnCrash exits the process or the FS stays wedged.
func (f *FaultFS) crash() error {
	f.crashed.Store(true)
	if f.OnCrash != nil {
		f.OnCrash()
	}
	return ErrCrashed
}

// apply runs one operation through the registry, the one place an
// action takes effect. land performs a mutating operation; a crash lands
// it first — the post-op crash window, the interesting instant for
// rename-based atomicity and fsync durability arguments — and then kills
// the process or wedges the filesystem. A nil land is a non-mutating op
// (open, create) the caller performs after a nil return: a crash fires
// before it, which reaches the same on-disk states as a crash an instant
// earlier. torn, a write's, lands half of it for FPShort; elsewhere
// FPShort is a plain injected error.
func (f *FaultFS) apply(op, path string, land func() error, torn func()) error {
	if f.crashed.Load() {
		return ErrCrashed
	}
	switch f.FP.Eval(op, path) {
	case chaos.FPNone:
		if land == nil {
			return nil
		}
		return land()
	case chaos.FPENOSPC:
		return fmt.Errorf("%s %s: %w", op, path, ErrNoSpace)
	case chaos.FPCrash:
		if land != nil {
			land() // the operation lands, then the process dies
		}
		return f.crash()
	case chaos.FPShort:
		if torn != nil {
			torn() // the torn half lands
		}
	}
	return fmt.Errorf("%s %s: %w", op, path, ErrInjected)
}

func (f *FaultFS) MkdirAll(path string) error {
	if f.crashed.Load() {
		return ErrCrashed
	}
	return f.Base.MkdirAll(path)
}

func (f *FaultFS) Create(name string) (File, error) {
	if err := f.apply("create", name, nil, nil); err != nil {
		return nil, err
	}
	file, err := f.Base.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	if err := f.apply("create", dir, nil, nil); err != nil {
		return nil, err
	}
	file, err := f.Base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	if err := f.apply("open", name, nil, nil); err != nil {
		return nil, err
	}
	file, err := f.Base.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) OpenAppend(name string) (File, error) {
	if err := f.apply("open", name, nil, nil); err != nil {
		return nil, err
	}
	file, err := f.Base.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	if err := f.apply("open", name, nil, nil); err != nil {
		return nil, err
	}
	return f.Base.ReadFile(name)
}

func (f *FaultFS) WriteFile(name string, data []byte) error {
	return f.apply("write", name, func() error { return f.Base.WriteFile(name, data) },
		func() { f.Base.WriteFile(name, data[:len(data)/2]) })
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	return f.apply("rename", newpath, func() error { return f.Base.Rename(oldpath, newpath) }, nil)
}

func (f *FaultFS) Remove(name string) error {
	return f.apply("remove", name, func() error { return f.Base.Remove(name) }, nil)
}

func (f *FaultFS) Truncate(name string, size int64) error {
	return f.apply("truncate", name, func() error { return f.Base.Truncate(name, size) }, nil)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	if f.crashed.Load() {
		return nil, ErrCrashed
	}
	return f.Base.Stat(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if f.crashed.Load() {
		return nil, ErrCrashed
	}
	return f.Base.ReadDir(name)
}

// faultFile threads the registry through a file handle's writes and
// syncs, keyed by the file's own name.
type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (n int, err error) {
	err = ff.fs.apply("write", ff.Name(), func() (err error) {
		n, err = ff.File.Write(p)
		return err
	}, func() { n, _ = ff.File.Write(p[:len(p)/2]) })
	return n, err
}

func (ff *faultFile) Sync() error {
	return ff.fs.apply("sync", ff.Name(), ff.File.Sync, nil)
}

func (ff *faultFile) Close() error {
	// Close always reaches the base handle: a wedged FS must not leak
	// file descriptors out of the test process.
	return ff.File.Close()
}

var _ FS = (*FaultFS)(nil)
