// Package store is a crash-safe, content-addressed result store: the
// durable generalization of the harness's in-process memoization cache.
// Entries are keyed by a canonical key string (the service layer builds
// it from the job's full configuration plus harness.CacheSchema), and
// because every simulation is a pure function of that configuration, a
// stored payload can be served byte-identically to any client, across
// daemon restarts, forever — or until the schema embedded in the key
// changes, at which point old entries are simply never found again and
// age out as misses.
//
// Crash safety is the whole point of the design:
//
//   - writes go to a temp file in the same directory and are fsynced
//     before an atomic rename (vfs.WriteAtomic, the protocol the journal
//     shares), so a crash mid-Put leaves either the old
//     state or the new state, never a torn entry under the live name;
//   - reads verify a magic header, the format version, the stored key
//     (hash collisions or hand-misplaced files), the payload length,
//     and a SHA-256 checksum before returning a byte;
//   - an entry failing any of those checks is removed, counted, and
//     reported as a miss naming its reason, so the caller transparently
//     recomputes and rewrites it. Corruption costs one recompute, never
//     a wrong answer and never an unservable key.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/vfs"
)

// FormatVersion is the on-disk entry container version. Entries written
// under any other version are removed on read (reason "version") and
// recomputed; they are never decoded under the wrong layout.
const FormatVersion = 1

// magic is the first header token of every entry file.
const magic = "staggerstore"

// ErrNotFound is returned by Get when the key has no usable entry —
// including when an entry existed but failed verification and was
// removed (the *CorruptError is wrapped alongside it).
var ErrNotFound = errors.New("store: not found")

// CorruptError describes an entry that failed verification and was
// removed. Key is the requested key, or for GC, which has no key in hand,
// the entry's file name.
type CorruptError struct {
	Key    string
	Reason string // "magic", "version", "key", "length", "checksum", "header"
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("store: entry %q corrupt (%s), removed", e.Key, e.Reason)
}

// Stats counts store traffic since Open.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Corrupt   uint64 `json:"corrupt"`    // entries that failed verification, removed
	GCRemoved uint64 `json:"gc_removed"` // entries evicted by GC's keep predicate
}

// Store is a durable key→payload map under one root directory. All
// methods are safe for concurrent use; cross-process writers are safe
// against each other thanks to the temp+rename protocol (last writer
// wins with a complete entry, which for deterministic payloads is the
// same bytes anyway).
type Store struct {
	root string
	fs   vfs.FS

	hits, misses, puts, corrupt, gcRemoved atomic.Uint64
}

// Open creates (if needed) and opens a store rooted at dir on the real
// filesystem.
func Open(dir string) (*Store, error) { return OpenFS(vfs.OS, dir) }

// OpenFS opens a store over an explicit filesystem — the seam the
// disk-fault harness injects through. It also sweeps crash debris:
// temp files a previous life created but never renamed into place.
func OpenFS(fsys vfs.FS, dir string) (*Store, error) {
	if err := fsys.MkdirAll(filepath.Join(dir, objectsDir)); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	s := &Store{root: dir, fs: fsys}
	// A crash inside Put can orphan its temp file; the live names were
	// never touched, so deleting the orphans is safe.
	vfs.RemoveTemps(fsys, filepath.Join(dir, objectsDir), putPattern)
	return s, nil
}

const objectsDir = "objects"

// entryPath maps a key to its object file: content-addressed by the
// SHA-256 of the key string, so arbitrary key text never meets the
// filesystem's name rules.
func (s *Store) entryPath(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.root, objectsDir, hex.EncodeToString(sum[:])+".entry")
}

// putPattern names Put's temp files in the objects directory.
const putPattern = "put-*.tmp"

// Put durably stores payload under key through vfs.WriteAtomic: a temp
// file in the objects directory, fsynced, then renamed over the live
// name. Re-putting an existing key overwrites it whole (deterministic
// payloads make this a byte-level no-op; it also heals a key whose
// corrupt entry was removed).
func (s *Store) Put(key string, payload []byte) error {
	sum := sha256.Sum256(payload)
	entry := fmt.Appendf(make([]byte, 0, 128+len(key)+len(payload)),
		"%s %d\nkey %s\nsha256 %s\nbytes %d\n\n",
		magic, FormatVersion, encodeKey(key), hex.EncodeToString(sum[:]), len(payload))
	entry = append(entry, payload...)
	if err := vfs.WriteAtomic(s.fs, s.entryPath(key), putPattern, entry); err != nil {
		return fmt.Errorf("store: put %q: %w", key, err)
	}
	s.puts.Add(1)
	return nil
}

// Get returns the payload stored under key. A missing entry returns
// ErrNotFound; an entry that fails verification is removed and the
// error wraps both ErrNotFound and the *CorruptError, so callers can
// treat every non-nil error as "recompute" while still logging why.
func (s *Store) Get(key string) ([]byte, error) {
	path := s.entryPath(key)
	raw, err := s.fs.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: get %q: %w", key, err)
	}
	payload, reason := verifyEntry(raw, key)
	if reason != "" {
		s.drop(path)
		s.misses.Add(1)
		return nil, fmt.Errorf("%w: %w", ErrNotFound, &CorruptError{Key: key, Reason: reason})
	}
	s.hits.Add(1)
	return payload, nil
}

// entryHeader is the parsed, not-yet-verified header of one entry.
type entryHeader struct {
	key  string
	sum  []byte // hex SHA-256 of the payload
	size int
}

// headerLines is how many lines an entry header spans, counting the
// blank line that closes it.
const headerLines = 5

// parseHeader parses and validates the header at the front of b,
// returning it with the bytes after its closing blank line, or a
// non-empty corruption reason. It is the store's one header parser: Get
// hands it a whole entry, GC only the header lines.
func parseHeader(b []byte) (h entryHeader, rest []byte, reason string) {
	line := func() ([]byte, bool) {
		l, after, ok := bytes.Cut(b, []byte{'\n'})
		b = after
		return l, ok
	}
	head, ok := line()
	if !ok {
		return h, nil, "header"
	}
	gotMagic, gotVer, found := bytes.Cut(head, []byte{' '})
	if !found || string(gotMagic) != magic {
		return h, nil, "magic"
	}
	if v, err := strconv.Atoi(string(gotVer)); err != nil || v != FormatVersion {
		return h, nil, "version"
	}
	keyLine, ok := line()
	enc, found := bytes.CutPrefix(keyLine, []byte("key "))
	if !ok || !found {
		return h, nil, "header"
	}
	h.key = decodeKey(string(enc))
	sumLine, ok := line()
	h.sum, found = bytes.CutPrefix(sumLine, []byte("sha256 "))
	if !ok || !found {
		return h, nil, "header"
	}
	lenLine, ok := line()
	size, found := bytes.CutPrefix(lenLine, []byte("bytes "))
	if !ok || !found {
		return h, nil, "header"
	}
	n, err := strconv.Atoi(string(size))
	if err != nil || n < 0 {
		return h, nil, "header"
	}
	h.size = n
	if blank, ok := line(); !ok || len(blank) != 0 {
		return h, nil, "header"
	}
	return h, b, ""
}

// verifyEntry verifies one whole entry as read from disk. It returns the
// payload, a sub-slice of raw, or a non-empty corruption reason. The
// declared length is only ever compared with the bytes actually present,
// never allocated, so a damaged length field costs a recompute, not the
// process.
func verifyEntry(raw []byte, key string) ([]byte, string) {
	h, payload, reason := parseHeader(raw)
	if reason != "" {
		return nil, reason
	}
	if h.key != key {
		return nil, "key"
	}
	// Exactly h.size payload bytes must follow the header: fewer is a torn
	// write that escaped rename atomicity, more is damage.
	if len(payload) != h.size {
		return nil, "length"
	}
	sum := sha256.Sum256(payload)
	var got [2 * sha256.Size]byte
	hex.Encode(got[:], sum[:])
	if !bytes.Equal(got[:], h.sum) {
		return nil, "checksum"
	}
	return payload, ""
}

// readHeaderLines reads the headerLines lines an entry's header spans,
// so GC can parse a header without taking in the payload that follows.
func readHeaderLines(f io.Reader) []byte {
	r := bufio.NewReader(f)
	var b []byte
	for range headerLines {
		l, err := r.ReadString('\n')
		b = append(b, l...)
		if err != nil {
			break
		}
	}
	return b
}

// drop removes an entry that failed verification. Nothing reads a
// damaged entry again, so it is not kept; a concurrent Put that already
// replaced it only costs that key one more recompute.
func (s *Store) drop(path string) {
	s.fs.Remove(path)
	s.corrupt.Add(1)
}

// GC walks every entry and removes those whose header key fails keep —
// the eviction path for entries written under an old CacheSchema, which
// age out as misses (the schema is baked into the key) but would
// otherwise occupy disk forever. Entries whose header cannot even be
// parsed are removed too, and the returned error joins a *CorruptError
// for each. GC races safely with concurrent traffic: it only ever
// removes a live name, which a concurrent Put simply recreates whole.
func (s *Store) GC(keep func(key string) bool) (removed int, err error) {
	dir := filepath.Join(s.root, objectsDir)
	ents, err := s.fs.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("store: gc: %w", err)
	}
	var corrupt []error
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".entry") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := s.fs.Open(path)
		if err != nil {
			continue // raced with a Get that dropped it, or a concurrent GC
		}
		h, _, reason := parseHeader(readHeaderLines(f))
		f.Close()
		if reason != "" {
			s.drop(path)
			corrupt = append(corrupt, &CorruptError{Key: e.Name(), Reason: reason})
			continue
		}
		if !keep(h.key) {
			if s.fs.Remove(path) == nil {
				removed++
				s.gcRemoved.Add(1)
			}
		}
	}
	return removed, errors.Join(corrupt...)
}

// Stats snapshots the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Puts:      s.puts.Load(),
		Corrupt:   s.corrupt.Load(),
		GCRemoved: s.gcRemoved.Load(),
	}
}

// encodeKey makes a key string newline-safe for the text header.
func encodeKey(key string) string {
	if strings.ContainsAny(key, "\n\r") {
		return "hex:" + hex.EncodeToString([]byte(key))
	}
	return key
}

func decodeKey(enc string) string {
	if rest, ok := strings.CutPrefix(enc, "hex:"); ok {
		if b, err := hex.DecodeString(rest); err == nil {
			return string(b)
		}
	}
	return enc
}
