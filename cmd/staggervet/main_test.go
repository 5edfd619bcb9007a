package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a throwaway module from path→source pairs and
// returns its root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	files["go.mod"] = "module repro\n\ngo 1.22\n"
	for p, src := range files {
		full := filepath.Join(root, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// vet runs the full staggervet driver over a fixture module and returns
// (exit code, output).
func vet(t *testing.T, files map[string]string) (int, string) {
	t.Helper()
	root := writeTree(t, files)
	var sb strings.Builder
	code := run(root, nil, &sb, false)
	return code, sb.String()
}

// The acceptance scenario: an injected time.Now in internal/htm must
// fail the build with a file:line diagnostic.
func TestDeterminismFlagsInjectedTimeNow(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/htm/clock.go": `package htm

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "clock.go:5:") || !strings.Contains(out, "[determinism]") ||
		!strings.Contains(out, "time.Now") {
		t.Fatalf("missing file:line time.Now diagnostic:\n%s", out)
	}
}

func TestDeterminismFlagsGlobalRandAndMapRange(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/sched/pick.go": `package sched

import "math/rand"

func Pick(m map[int]int) int {
	for k := range m { // result-affecting package: flagged
		if k > 10 {
			return k
		}
	}
	return rand.Intn(8)
}

func Seeded(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }
`,
		"internal/backend/occ/validate.go": `package occ

func Validate(reads map[uint64]uint64, load func(uint64) uint64) bool {
	for a, v := range reads { // validation order reaches the simulated access stream: flagged
		if load(a) != v {
			return false
		}
	}
	return true
}
`,
		"internal/mem/words.go": `package mem

func Words(set map[uint64]uint64) (out []uint64) {
	for a := range set { // hands map order to every consumer: flagged
		out = append(out, a)
	}
	return out
}
`,
		"internal/harness/ok.go": `package harness

// Map iteration outside the deterministic core is not flagged.
func Sum(m map[int]int) (s int) {
	for _, v := range m {
		s += v
	}
	return s
}
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "rand.Intn") || !strings.Contains(out, "map iteration order") {
		t.Fatalf("missing rand/map diagnostics:\n%s", out)
	}
	if strings.Contains(out, "ok.go") || strings.Contains(out, "rand.New") {
		t.Fatalf("false positive on seeded rand or out-of-scope map range:\n%s", out)
	}
	if !strings.Contains(out, "validate.go:4:") || !strings.Contains(out, "words.go:4:") {
		t.Fatalf("map range in internal/backend/occ or internal/mem not flagged:\n%s", out)
	}
	if got := strings.Count(out, "[determinism]"); got != 4 {
		t.Fatalf("want exactly 4 determinism findings, got %d:\n%s", got, out)
	}
}

// fakeHTM is a miniature internal/htm with the nontransactional API
// shape the ntstore and siteattr analyzers match on.
const fakeHTM = `package htm

type Core struct{ mem map[uint64]uint64 }

func (c *Core) Load(pc uint64, site uint32, a uint64) uint64 { return c.mem[a] }
func (c *Core) Store(pc uint64, site uint32, a uint64, v uint64) { c.mem[a] = v }
func (c *Core) NTLoad(a uint64) uint64                 { return c.mem[a] }
func (c *Core) NTStore(a uint64, v uint64)             { c.mem[a] = v }
func (c *Core) NTCas(a, old, new uint64) bool          { return true }
`

func TestNTStoreRestrictedToLockWordAPI(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/htm/core.go": fakeHTM,
		"internal/stagger/locks.go": `package stagger

import "repro/internal/htm"

// The lock-word API may write nontransactionally.
func Release(c *htm.Core, lock uint64) { c.NTStore(lock, 0) }
`,
		"internal/chaos/inject.go": `package chaos

import "repro/internal/htm"

func Corrupt(c *htm.Core, a uint64) {
	c.NTStore(a, 0xdead) // outside the API: flagged
	if !c.NTCas(a, 0xdead, 0) { // flagged
		_ = c.NTLoad(a) // reads are fine
	}
}
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "inject.go:6:") || !strings.Contains(out, "[ntstore]") {
		t.Fatalf("missing NTStore diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "inject.go:7:") {
		t.Fatalf("missing NTCas diagnostic:\n%s", out)
	}
	if strings.Contains(out, "locks.go") || strings.Contains(out, "NTLoad") {
		t.Fatalf("false positive on lock-word API or NTLoad:\n%s", out)
	}
}

func TestSiteAttrFlagsUnattributedAccesses(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/htm/core.go": fakeHTM,
		"internal/stagger/txctx.go": `package stagger

import "repro/internal/htm"

type Site struct{ ID uint32 }

type TxCtx struct{ c *htm.Core }

func (t *TxCtx) Load(s *Site, a uint64) uint64  { return t.c.Load(0, s.ID, a) }
func (t *TxCtx) Store(s *Site, a uint64, v uint64) { t.c.Store(0, s.ID, a, v) }
`,
		"internal/workloads/body.go": `package workloads

import (
	"repro/internal/htm"
	"repro/internal/stagger"
)

func Body(tc *stagger.TxCtx, c *htm.Core, a uint64) {
	tc.Load(nil, a)     // nil site: flagged
	c.Store(0, 0, a, 1) // site 0 outside htm: flagged
	tc.Store(&stagger.Site{ID: 3}, a, 1)
	c.Load(0, 7, a)
}
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "body.go:9:") || !strings.Contains(out, "nil site") {
		t.Fatalf("missing nil-site diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "body.go:10:") || !strings.Contains(out, "site 0") {
		t.Fatalf("missing site-0 diagnostic:\n%s", out)
	}
	if got := strings.Count(out, "[siteattr]"); got != 2 {
		t.Fatalf("want exactly 2 siteattr findings, got %d:\n%s", got, out)
	}
}

func TestAllowCommentSuppresses(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/oracle/emit.go": `package oracle

func Apply(m map[uint64]uint64, store func(uint64, uint64)) {
	//staggervet:allow determinism distinct words; order-independent
	for k, v := range m {
		store(k, v)
	}
}

func Bad(m map[uint64]uint64) (s uint64) {
	for _, v := range m {
		s ^= s<<1 + v // order-sensitive, unannotated
	}
	return s
}
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if strings.Contains(out, "emit.go:5:") {
		t.Fatalf("allow comment did not suppress:\n%s", out)
	}
	if !strings.Contains(out, "emit.go:11:") {
		t.Fatalf("unannotated map range not flagged:\n%s", out)
	}
}

// TestWallClockWaiverScopedToServiceLayer pins the waiver boundary:
// the same time.Now call is legal in the service layer (deadlines and
// drain grace are operational, not simulated) and still flagged one
// package below it — and the waiver does not leak to math/rand.
func TestWallClockWaiverScopedToServiceLayer(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/service/deadline.go": `package service

import "time"

func Deadline(grace time.Duration) time.Time { return time.Now().Add(grace) }
`,
		"internal/harness/stamp.go": `package harness

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if strings.Contains(out, "deadline.go") {
		t.Fatalf("wall clock flagged inside the exempt service layer:\n%s", out)
	}
	if !strings.Contains(out, "stamp.go:5:") {
		t.Fatalf("wall clock below the service layer not flagged:\n%s", out)
	}

	code, out = vet(t, map[string]string{
		"internal/service/pick.go": `package service

import "math/rand"

func Pick() int { return rand.Intn(4) }
`,
	})
	if code != 1 || !strings.Contains(out, "rand.Intn") {
		t.Fatalf("global math/rand must stay banned in the service layer (exit %d):\n%s", code, out)
	}
}

// TestRepoIsVetClean runs the real analyzers over the real repository:
// the tree must stay free of determinism, ntstore, and siteattr
// violations (this is `make vet` in test form).
func TestRepoIsVetClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if code := run(root, nil, &sb, false); code != 0 {
		t.Fatalf("staggervet on the repo exited %d:\n%s", code, sb.String())
	}
}

// TestErrShadowReproducesJournalFsyncBug is the regression fixture for
// the err-shadowing bug the journal PR fixed: a Write error overwritten
// by the Sync assignment before anything checks it, silently swallowing
// the torn write. The fixed shape (check between the two) must stay
// clean.
func TestErrShadowReproducesJournalFsyncBug(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/journal/append.go": `package journal

type file interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
}

func initEmpty(f file) error {
	_, err := f.Write([]byte("hdr"))
	err = f.Sync() // overwrites the unchecked Write error
	if err != nil {
		return err
	}
	return f.Close()
}

func initEmptyFixed(f file) error {
	_, err := f.Write([]byte("hdr"))
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		return err
	}
	return f.Close()
}
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "append.go:11:") || !strings.Contains(out, "[errshadow]") ||
		!strings.Contains(out, "overwritten before it is checked") {
		t.Fatalf("missing errshadow diagnostic at the Sync overwrite:\n%s", out)
	}
	if got := strings.Count(out, "[errshadow]"); got != 1 {
		t.Fatalf("want exactly 1 errshadow finding (the fixed shape must stay clean), got %d:\n%s", got, out)
	}
}

// fakeVFS is a miniature internal/vfs with the seam surface fsyncpath
// matches on.
const fakeVFS = `package vfs

type File interface {
	Write([]byte) (int, error)
	Sync() error
	Close() error
	Name() string
}

type FS interface {
	CreateTemp(dir, pattern string) (File, error)
	Rename(oldpath, newpath string) error
}
`

func TestFsyncPathSeamAndOrdering(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/vfs/vfs.go": fakeVFS,
		"internal/store/put.go": `package store

import (
	"os"

	"repro/internal/vfs"
)

func PutTorn(fs vfs.FS, dir, dst string) error {
	tmp, err := fs.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if _, err := tmp.Write([]byte("x")); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return fs.Rename(tmp.Name(), dst) // published without Sync: flagged
}

func PutGood(fs vfs.FS, dir, dst string) error {
	tmp, err := fs.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	return fs.Rename(tmp.Name(), dst)
}

// quarantine-style move of already-durable bytes: no create, not flagged.
func Sideline(fs vfs.FS, path, dst string) error {
	return fs.Rename(path, dst)
}

func Sweep(dir string) { os.Remove(dir) } // bypasses the seam: flagged
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "put.go:20:") || !strings.Contains(out, "without an fsync") {
		t.Fatalf("missing rename-without-sync diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "os.Remove") || !strings.Contains(out, "vfs seam") {
		t.Fatalf("missing os-bypass diagnostic:\n%s", out)
	}
	if got := strings.Count(out, "[fsyncpath]"); got != 2 {
		t.Fatalf("want exactly 2 fsyncpath findings (PutGood and Sideline must stay clean), got %d:\n%s", got, out)
	}
}

func TestCtxDoneFlagsUnstoppableLoops(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/service/spin.go": `package service

import "context"

func Spin(ctx context.Context, work func()) {
	go func() {
		for { // never observes cancellation: flagged
			work()
		}
	}()
	go func() { // one-shot: exempt
		work()
	}()
	go func() {
		for { // consults ctx.Err: fine
			if ctx.Err() != nil {
				return
			}
			work()
		}
	}()
}

func Pump(ch chan int, work func(int)) {
	go pump(ch, work)
}

func pump(ch chan int, work func(int)) {
	for v := range ch { // ends when the sender closes ch: exempt
		work(v)
	}
}
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "spin.go:7:") || !strings.Contains(out, "[ctxdone]") {
		t.Fatalf("missing ctxdone diagnostic on the unstoppable loop:\n%s", out)
	}
	if got := strings.Count(out, "[ctxdone]"); got != 1 {
		t.Fatalf("want exactly 1 ctxdone finding, got %d:\n%s", got, out)
	}
}

// TestAllowDirectiveAnchorsOnAnalyzerName pins the waiver matcher fix:
// a run-on directive must not suppress anything, unknown analyzer names
// are reported, and a waiver matching no finding is itself a finding.
func TestAllowDirectiveAnchorsOnAnalyzerName(t *testing.T) {
	code, out := vet(t, map[string]string{
		"internal/htm/a.go": `package htm

func A(m map[int]int) (s int) {
	//staggervet:allowdeterminism smashed against the marker
	for _, v := range m {
		s += v
	}
	return s
}
`,
		"internal/htm/b.go": `package htm

//staggervet:allow nosuchcheck it never existed
func B() {}
`,
		"internal/htm/c.go": `package htm

func C() int {
	//staggervet:allow determinism nothing to suppress here
	return 1
}
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "a.go:5:") || !strings.Contains(out, "map iteration order") {
		t.Fatalf("run-on directive suppressed the finding it should not reach:\n%s", out)
	}
	if !strings.Contains(out, "a.go:4:") || !strings.Contains(out, "malformed directive") {
		t.Fatalf("run-on directive not reported as malformed:\n%s", out)
	}
	if !strings.Contains(out, `unknown analyzer "nosuchcheck"`) {
		t.Fatalf("unknown analyzer name not reported:\n%s", out)
	}
	if !strings.Contains(out, "c.go:4:") || !strings.Contains(out, "unused staggervet:allow determinism waiver") {
		t.Fatalf("stale waiver not reported:\n%s", out)
	}
	if got := strings.Count(out, "[waiver]"); got != 3 {
		t.Fatalf("want exactly 3 waiver findings, got %d:\n%s", got, out)
	}
}

// TestJSONReport checks the -json contract: stable fields, repo-relative
// paths, ok mirroring the exit code.
func TestJSONReport(t *testing.T) {
	root := writeTree(t, map[string]string{
		"internal/htm/clock.go": `package htm

import "time"

func Stamp() int64 { return time.Now().UnixNano() }
`,
	})
	var sb strings.Builder
	code := run(root, nil, &sb, true)
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, sb.String())
	}
	var rep struct {
		Tool     string `json:"tool"`
		Mode     string `json:"mode"`
		OK       bool   `json:"ok"`
		Findings []struct {
			File     string `json:"file"`
			Line     int    `json:"line"`
			Analyzer string `json:"analyzer"`
			Msg      string `json:"msg"`
		} `json:"findings"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &rep); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, sb.String())
	}
	if rep.Tool != "staggervet" || rep.OK || len(rep.Findings) != 1 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	f := rep.Findings[0]
	if f.File != "internal/htm/clock.go" || f.Line != 5 || f.Analyzer != "determinism" {
		t.Fatalf("unexpected finding: %+v", f)
	}
}

// TestRefEngineForcesFactory pins the oracle-bypass guard: building a
// coopEngine outside its constructor, calling a constructor outside
// newEngine, or calling newEngine with a hard-coded bool are each a
// finding, while the sanctioned constructor→factory→Config.RefEngine
// chain is clean.
func TestRefEngineForcesFactory(t *testing.T) {
	sanctioned := `package htm

type Scheduler interface{}

type Config struct{ RefEngine bool }

type engine interface{ run() }

type coopEngine struct{ n int }

func (e *coopEngine) run() {}

type refEngine struct{ n int }

func (e *refEngine) run() {}

func newCoopEngine(n int, sched Scheduler) *coopEngine { return &coopEngine{n: n} }

func newRefEngine(n int, sched Scheduler) *refEngine { return &refEngine{n: n} }

func newEngine(n int, sched Scheduler, ref bool) engine {
	if ref {
		return newRefEngine(n, sched)
	}
	return newCoopEngine(n, sched)
}

type Machine struct{ cfg Config }

func (m *Machine) start(n int) engine { return newEngine(n, nil, m.cfg.RefEngine) }
`
	code, out := vet(t, map[string]string{"internal/htm/engine.go": sanctioned})
	if code != 0 {
		t.Fatalf("sanctioned factory chain flagged:\n%s", out)
	}

	code, out = vet(t, map[string]string{
		"internal/htm/engine.go": sanctioned,
		"internal/htm/bypass.go": `package htm

func sneakCoop(n int) engine { return &coopEngine{n: n} }

func sneakCtor(n int) engine { return newCoopEngine(n, nil) }

func sneakBool(n int) engine { return newEngine(n, nil, false) }
`,
	})
	if code != 1 {
		t.Fatalf("exit = %d, want 1; output:\n%s", code, out)
	}
	for _, want := range []string{
		"bypass.go:3:", "coopEngine constructed outside newCoopEngine",
		"bypass.go:5:", "newCoopEngine called outside the newEngine factory",
		"bypass.go:7:", "RefEngine config field",
		"[refengine]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in refengine diagnostics:\n%s", want, out)
		}
	}
}
