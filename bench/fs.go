package main

import (
	"io/fs"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/vfs"
)

// countingFS wraps a vfs.FS and counts and times the operations that
// durability costs: Sync, Write, Rename, Open and ReadFile. It is handed
// to the server as service.Config.FS.
//
// On timed runs Sync is a counted no-op: writes still reach the page
// cache, but the disk is never waited for. On this shared ext4 disk a
// real fsync is ~75% of a warm job's latency and swings pass time 2x
// from run to run, so wall time measures the program and the exact sync
// count measures what the program asks of the disk. realSync turns the
// real call back on for the one informational real-disk pass.
type countingFS struct {
	inner    vfs.FS
	realSync atomic.Bool
	tr       atomic.Pointer[tracer] // nil unless the pass is traced

	syncs, writes, renames, opens, readFiles atomic.Int64
	writeBytes, journalBytes                 atomic.Int64
	opNS                                     atomic.Int64 // time inside the five counted operations

	mu         sync.Mutex
	realSyncMS []float64 // each real Sync's duration, while realSync is on
}

// takeRealSyncMS returns and clears the real-disk sync durations.
func (c *countingFS) takeRealSyncMS() []float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.realSyncMS
	c.realSyncMS = nil
	return out
}

// fsCounts is a snapshot of a countingFS.
type fsCounts struct {
	Syncs, Writes, Renames, Opens, ReadFiles int64
	WriteBytes, JournalBytes, OpNS           int64
}

func (c *countingFS) counts() fsCounts {
	return fsCounts{
		Syncs: c.syncs.Load(), Writes: c.writes.Load(), Renames: c.renames.Load(),
		Opens: c.opens.Load(), ReadFiles: c.readFiles.Load(),
		WriteBytes: c.writeBytes.Load(), JournalBytes: c.journalBytes.Load(), OpNS: c.opNS.Load(),
	}
}

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{
		Syncs: a.Syncs - b.Syncs, Writes: a.Writes - b.Writes, Renames: a.Renames - b.Renames,
		Opens: a.Opens - b.Opens, ReadFiles: a.ReadFiles - b.ReadFiles,
		WriteBytes: a.WriteBytes - b.WriteBytes, JournalBytes: a.JournalBytes - b.JournalBytes,
		OpNS: a.OpNS - b.OpNS,
	}
}

// timed counts one operation, adds its duration to the total, and records
// a span when a traced pass is watching.
func (c *countingFS) timed(name string, n *atomic.Int64, op func()) {
	start := time.Now()
	op()
	end := time.Now()
	n.Add(1)
	c.opNS.Add(int64(end.Sub(start)))
	c.tr.Load().record(name, start, end)
}

func (c *countingFS) wrap(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c, journal: strings.HasSuffix(f.Name(), ".wal")}, nil
}

func (c *countingFS) MkdirAll(path string) error { return c.inner.MkdirAll(path) }

func (c *countingFS) Create(name string) (vfs.File, error) { return c.wrap(c.inner.Create(name)) }

func (c *countingFS) CreateTemp(dir, pattern string) (vfs.File, error) {
	return c.wrap(c.inner.CreateTemp(dir, pattern))
}

func (c *countingFS) Open(name string) (f vfs.File, err error) {
	c.timed("vfs.open", &c.opens, func() { f, err = c.wrap(c.inner.Open(name)) })
	return f, err
}

func (c *countingFS) OpenAppend(name string) (vfs.File, error) {
	return c.wrap(c.inner.OpenAppend(name))
}

func (c *countingFS) ReadFile(name string) (b []byte, err error) {
	c.timed("vfs.readfile", &c.readFiles, func() { b, err = c.inner.ReadFile(name) })
	return b, err
}

func (c *countingFS) WriteFile(name string, data []byte) error {
	return c.inner.WriteFile(name, data)
}

func (c *countingFS) Rename(oldpath, newpath string) (err error) {
	c.timed("vfs.rename", &c.renames, func() { err = c.inner.Rename(oldpath, newpath) })
	return err
}

func (c *countingFS) Remove(name string) error { return c.inner.Remove(name) }

func (c *countingFS) Truncate(name string, size int64) error { return c.inner.Truncate(name, size) }

func (c *countingFS) Stat(name string) (fs.FileInfo, error) { return c.inner.Stat(name) }

func (c *countingFS) ReadDir(name string) ([]fs.DirEntry, error) { return c.inner.ReadDir(name) }

// countingFile counts Write and Sync; Read, Close and Name pass through
// the embedded file.
type countingFile struct {
	vfs.File
	fs      *countingFS
	journal bool
}

func (f *countingFile) Write(p []byte) (n int, err error) {
	f.fs.timed("vfs.write", &f.fs.writes, func() { n, err = f.File.Write(p) })
	f.fs.writeBytes.Add(int64(n))
	if f.journal {
		f.fs.journalBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() (err error) {
	f.fs.timed("vfs.sync", &f.fs.syncs, func() {
		if !f.fs.realSync.Load() {
			return
		}
		start := time.Now()
		err = f.File.Sync()
		ms := time.Since(start).Seconds() * 1e3
		f.fs.mu.Lock()
		f.fs.realSyncMS = append(f.fs.realSyncMS, ms)
		f.fs.mu.Unlock()
	})
	return err
}
