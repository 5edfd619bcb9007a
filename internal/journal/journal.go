// Package journal is the crash-safe write-ahead job journal behind
// staggerd: an append-only, fsync'd, CRC-framed record log of job
// submissions and state transitions, so that a daemon killed at any
// instant can replay its accepted work on boot. The design trades a
// cheap, bounded cost on the submit path (one buffered write plus one
// fsync per record) for a hard guarantee on the recovery path — the
// same fast-path/slow-path discipline the simulator's advisory locks
// apply to transactions.
//
// On-disk layout: a fixed magic header line, then records framed as
//
//	uint32 payload length | uint32 IEEE CRC of payload | payload (JSON)
//
// both integers little-endian. The CRC makes torn appends detectable:
// replay stops at the first frame that is short, oversized, or fails
// its checksum, and truncates the journal back to its last valid frame,
// counting the bytes it cut. A record is durable — guaranteed to survive
// any crash — iff Append returned nil; a failed Append may leave a torn
// (never a corrupt-but-valid) tail, and the journal wedges until
// reopened so one bad write cannot scribble over later records.
//
// The journal stores facts, not obligations: because every simulation
// is a pure function of its configuration, replaying an "accepted" job
// twice, or re-running a job that already finished but whose terminal
// record was lost, can only waste compute, never corrupt results. All
// failure modes therefore degrade toward at-least-once execution.
package journal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/vfs"
)

// magic is the first line of every journal file; the trailing digit is
// the format version. Open refuses a non-empty file that does not start
// with it (a damaged header could hide acknowledged records), and starts
// fresh only on an empty file or a strict prefix of it: an init that
// crashed mid-header under daemons that wrote it in place.
const magic = "staggerwal 1\n"

// maxRecord bounds one frame's payload; a length field beyond it is
// treated as tail corruption, not an allocation request.
const maxRecord = 8 << 20

// Record types: one submission fact and the terminal transitions.
const (
	RecAccepted = "accepted"
	RecDone     = "done"
	RecFailed   = "failed"
	RecCanceled = "canceled"
)

// Terminal reports whether a record type ends a job's lifecycle. Jobs
// whose latest record is non-terminal are re-enqueued on replay; that
// includes the "running" records older daemons appended, which fold
// like RecAccepted.
func Terminal(t string) bool {
	return t == RecDone || t == RecFailed || t == RecCanceled
}

// Record is one journal entry. Accepted records carry the full job spec,
// which the daemon re-plans on replay and which holds the client's
// idempotency key; transition records carry just the job reference.
// Replay order is file order. Older daemons also wrote "seq" and "idem"
// keys, which decoding ignores.
type Record struct {
	Type  string          `json:"type"`
	Job   string          `json:"job"`
	Spec  json.RawMessage `json:"spec,omitempty"`
	Error string          `json:"error,omitempty"`
}

// ErrWedged is returned by Append after a previous Append failed: the
// file may end in a torn frame, and appending past it would orphan
// every later record. Reopening (normally: restarting the daemon)
// truncates the torn tail and repairs the journal.
var ErrWedged = errors.New("journal: wedged after a failed append; reopen to repair")

// Replay is what Open found in an existing journal.
type Replay struct {
	// Records, in append order, up to the last valid frame.
	Records []Record
	// TruncatedBytes counts the damaged tail bytes cut from the file;
	// zero means the journal was clean.
	TruncatedBytes int
}

// Stats counts journal traffic since Open.
type Stats struct {
	Appends        uint64 `json:"appends"`
	AppendErrors   uint64 `json:"append_errors"`
	Replayed       uint64 `json:"replayed_records"`
	TruncatedBytes uint64 `json:"truncated_tail_bytes"`
}

// Journal is an open write-ahead log. All methods are safe for
// concurrent use; appends are serialized internally.
type Journal struct {
	fs   vfs.FS
	path string

	mu     sync.Mutex
	f      vfs.File
	closed bool
	// wedged is written under mu but read without it by Wedged, which
	// must not wait behind another caller's fsync.
	wedged atomic.Bool

	appends, appendErrs, replayed, truncated uint64
}

// Open opens (creating if needed) the journal at path, removes the temp
// file of a rewrite that crashed, replays the journal's valid prefix,
// truncates any damaged tail, and leaves the file open for appending.
// The returned Replay is never nil. A non-empty file that does not start
// with the journal header is an error, and is left as it is.
func Open(fsys vfs.FS, path string) (*Journal, *Replay, error) {
	j := &Journal{fs: fsys, path: path}
	rep := &Replay{}
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	// A crash inside a rewrite, before or after its rename, leaves a valid
	// journal and possibly the temp file; the temp is never replayed, so
	// deleting it is safe.
	vfs.RemoveTemps(fsys, dir, j.tempPattern())
	raw, err := fsys.ReadFile(path) // a missing file is initialized below
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	switch {
	case bytes.HasPrefix(raw, []byte(magic)):
		if err := j.replay(raw, rep); err != nil {
			return nil, nil, err
		}
	case !bytes.HasPrefix([]byte(magic), raw):
		return nil, nil, fmt.Errorf("journal: open %s: not a journal (no %q header); move it aside to start a fresh one", path, magic)
	}
	// A missing or empty file, a torn header and a bare header get a
	// fresh one.
	if len(raw) <= len(magic) {
		if err := j.rewrite(nil); err != nil {
			return nil, nil, fmt.Errorf("journal: init %s: %w", path, err)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open %s: %w", path, err)
	}
	j.f = f
	j.replayed = uint64(len(rep.Records))
	j.truncated = uint64(rep.TruncatedBytes)
	return j, rep, nil
}

// replay parses raw, which starts with the magic header, fills rep, and
// repairs the on-disk file so it ends at its last valid frame.
func (j *Journal) replay(raw []byte, rep *Replay) error {
	off := len(magic)
	for off < len(raw) {
		if len(raw)-off < 8 {
			break // torn frame header
		}
		n := binary.LittleEndian.Uint32(raw[off:])
		crc := binary.LittleEndian.Uint32(raw[off+4:])
		if n == 0 || n > maxRecord || int(n) > len(raw)-off-8 {
			break // absurd length or torn payload
		}
		payload := raw[off+8 : off+8+int(n)]
		if crc32.ChecksumIEEE(payload) != crc {
			break // bit rot or a torn rewrite
		}
		var r Record
		if err := json.Unmarshal(payload, &r); err != nil {
			break // valid frame, unintelligible payload: treat as damage
		}
		rep.Records = append(rep.Records, r)
		off += 8 + int(n)
	}
	if off < len(raw) {
		if err := j.fs.Truncate(j.path, int64(off)); err != nil {
			return fmt.Errorf("journal: truncate damaged tail of %s: %w", j.path, err)
		}
		rep.TruncatedBytes = len(raw) - off
	}
	return nil
}

// appendFrame appends r to buf as one CRC frame.
func appendFrame(buf []byte, r Record) ([]byte, error) {
	payload, err := json.Marshal(&r)
	if err != nil {
		return buf, fmt.Errorf("journal: encode record: %w", err)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...), nil
}

// tempPattern names the temp file of every journal rewrite (the init
// and Compact): <journal>.compact-<random>, next to the journal, so Open
// can find and remove its own debris.
func (j *Journal) tempPattern() string { return filepath.Base(j.path) + ".compact-*" }

// rewrite atomically replaces the journal file with the magic header
// followed by recs.
func (j *Journal) rewrite(recs []Record) error {
	buf := []byte(magic)
	for _, r := range recs {
		var err error
		if buf, err = appendFrame(buf, r); err != nil {
			return err
		}
	}
	return vfs.WriteAtomic(j.fs, j.path, j.tempPattern(), buf)
}

// Append frames r, writes it, and fsyncs. When Append returns nil the
// record is durable; when it returns an error the record may be torn on
// disk and the journal wedges (ErrWedged thereafter) until reopened.
func (j *Journal) Append(r Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if j.wedged.Load() {
		j.appendErrs++
		return ErrWedged
	}
	frame, err := appendFrame(nil, r)
	if err != nil {
		return err
	}
	_, err = j.f.Write(frame)
	if err == nil {
		err = j.f.Sync()
	}
	if err != nil {
		j.wedged.Store(true)
		j.appendErrs++
		return fmt.Errorf("journal: append: %w", err)
	}
	j.appends++
	return nil
}

// Compact atomically rewrites the journal to exactly live, dropping
// every other record — the boot-time truncation of terminal entries. It
// also unwedges a journal whose append handle died, since the rewrite
// starts from a fresh file.
func (j *Journal) Compact(live []Record) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("journal: closed")
	}
	if err := j.rewrite(live); err != nil {
		return fmt.Errorf("journal: compact: %w", err)
	}
	// Swap the append handle onto the fresh file.
	if j.f != nil {
		j.f.Close()
	}
	f, err := j.fs.OpenAppend(j.path)
	if err != nil {
		j.wedged.Store(true)
		return fmt.Errorf("journal: compact reopen: %w", err)
	}
	j.f = f
	j.wedged.Store(false)
	return nil
}

// Wedged reports whether a failed append has wedged the journal, so
// every Append fails with ErrWedged until it is reopened.
func (j *Journal) Wedged() bool { return j.wedged.Load() }

// Close closes the append handle; further Appends fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	j.closed = true
	if j.f != nil {
		return j.f.Close()
	}
	return nil
}

// Stats snapshots the journal's counters.
func (j *Journal) Stats() Stats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return Stats{
		Appends:        j.appends,
		AppendErrors:   j.appendErrs,
		Replayed:       j.replayed,
		TruncatedBytes: j.truncated,
	}
}
