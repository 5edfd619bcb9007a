package main

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/vfs"
)

// spyFS records which methods were called, over the real filesystem.
type spyFS struct {
	vfs.FS
	calls map[string]int
}

func (s *spyFS) hit(name string) { s.calls[name]++ }

func (s *spyFS) MkdirAll(p string) error { s.hit("MkdirAll"); return s.FS.MkdirAll(p) }
func (s *spyFS) Create(n string) (vfs.File, error) {
	s.hit("Create")
	return s.spy(s.FS.Create(n))
}
func (s *spyFS) CreateTemp(d, p string) (vfs.File, error) {
	s.hit("CreateTemp")
	return s.spy(s.FS.CreateTemp(d, p))
}
func (s *spyFS) Open(n string) (vfs.File, error) { s.hit("Open"); return s.spy(s.FS.Open(n)) }
func (s *spyFS) OpenAppend(n string) (vfs.File, error) {
	s.hit("OpenAppend")
	return s.spy(s.FS.OpenAppend(n))
}
func (s *spyFS) ReadFile(n string) ([]byte, error)  { s.hit("ReadFile"); return s.FS.ReadFile(n) }
func (s *spyFS) WriteFile(n string, b []byte) error { s.hit("WriteFile"); return s.FS.WriteFile(n, b) }
func (s *spyFS) Rename(a, b string) error           { s.hit("Rename"); return s.FS.Rename(a, b) }
func (s *spyFS) Remove(n string) error              { s.hit("Remove"); return s.FS.Remove(n) }
func (s *spyFS) Truncate(n string, z int64) error   { s.hit("Truncate"); return s.FS.Truncate(n, z) }
func (s *spyFS) Stat(n string) (fs.FileInfo, error) { s.hit("Stat"); return s.FS.Stat(n) }
func (s *spyFS) ReadDir(n string) ([]fs.DirEntry, error) {
	s.hit("ReadDir")
	return s.FS.ReadDir(n)
}

func (s *spyFS) spy(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &spyFile{File: f, fs: s}, nil
}

type spyFile struct {
	vfs.File
	fs *spyFS
}

func (f *spyFile) Read(p []byte) (int, error)  { f.fs.hit("File.Read"); return f.File.Read(p) }
func (f *spyFile) Write(p []byte) (int, error) { f.fs.hit("File.Write"); return f.File.Write(p) }
func (f *spyFile) Sync() error                 { f.fs.hit("File.Sync"); return f.File.Sync() }
func (f *spyFile) Close() error                { f.fs.hit("File.Close"); return f.File.Close() }

func TestCountingFSForwardsEveryMethod(t *testing.T) {
	spy := &spyFS{FS: vfs.OS, calls: map[string]int{}}
	c := &countingFS{inner: spy}
	dir := filepath.Join(t.TempDir(), "d")
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	write := func(f vfs.File, err error) string {
		t.Helper()
		must(err)
		_, err = f.Write([]byte("abc"))
		must(err)
		must(f.Sync())
		must(f.Close())
		return f.Name()
	}

	must(c.MkdirAll(dir))
	a := write(c.Create(filepath.Join(dir, "a")))
	tmp := write(c.CreateTemp(dir, "t-*.tmp"))
	wal := write(c.OpenAppend(filepath.Join(dir, "jobs.wal")))
	must(c.WriteFile(filepath.Join(dir, "w"), []byte("xy")))
	must(c.Rename(tmp, filepath.Join(dir, "b")))
	f, err := c.Open(a)
	must(err)
	buf := make([]byte, 8)
	if n, _ := f.Read(buf); string(buf[:n]) != "abc" {
		t.Errorf("read %q through the wrapper, want abc", buf[:n])
	}
	must(f.Close())
	if b, err := c.ReadFile(wal); err != nil || string(b) != "abc" {
		t.Errorf("ReadFile = %q, %v", b, err)
	}
	must(c.Truncate(a, 1))
	if st, err := c.Stat(a); err != nil || st.Size() != 1 {
		t.Errorf("Stat after Truncate: %v, %v", st, err)
	}
	if ents, err := c.ReadDir(dir); err != nil || len(ents) != 4 {
		t.Errorf("ReadDir: %d entries, %v", len(ents), err)
	}
	must(c.Remove(a))

	// Every method of vfs.FS and vfs.File (Name has no side to forward)
	// reached the filesystem underneath — except Sync, which on a timed
	// run is counted and not performed.
	var want []string
	for _, typ := range []reflect.Type{reflect.TypeOf((*vfs.FS)(nil)).Elem(), reflect.TypeOf((*vfs.File)(nil)).Elem()} {
		for i := 0; i < typ.NumMethod(); i++ {
			name := typ.Method(i).Name
			if typ.Name() == "File" {
				if name == "Name" || name == "Sync" {
					continue
				}
				name = "File." + name
			}
			want = append(want, name)
		}
	}
	var got []string
	for name := range spy.calls {
		got = append(got, name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("methods forwarded:\n got %v\nwant %v", got, want)
	}

	counts := c.counts()
	wantCounts := fsCounts{Syncs: 3, Writes: 3, Renames: 1, Opens: 1, ReadFiles: 1, WriteBytes: 9, JournalBytes: 3, OpNS: counts.OpNS}
	if counts != wantCounts {
		t.Errorf("counts = %+v, want %+v", counts, wantCounts)
	}
	if counts.OpNS <= 0 {
		t.Error("no time recorded inside the counted operations")
	}

	// With realSync on, Sync is performed, timed and still counted.
	c.realSync.Store(true)
	write(c.Create(filepath.Join(dir, "r")))
	if spy.calls["File.Sync"] != 1 {
		t.Errorf("real Sync forwarded %d times, want 1", spy.calls["File.Sync"])
	}
	if ms := c.takeRealSyncMS(); len(ms) != 1 || ms[0] < 0 {
		t.Errorf("real sync durations = %v", ms)
	}
	if got := c.counts().Syncs; got != 4 {
		t.Errorf("Syncs = %d, want 4", got)
	}
	if _, err := os.Stat(filepath.Join(dir, "r")); err != nil {
		t.Error(err)
	}
}
