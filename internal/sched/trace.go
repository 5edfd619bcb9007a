package sched

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
)

// TraceVersion is the current trace format version. Version 1 headers
// spelled a subset of the run by hand (no lazy, naive, oracle or fault
// fields), so they cannot say what they replay and are rejected.
const TraceVersion = 2

// Trace is a recorded schedule plus the experiment cell it was recorded
// under, which is everything needed to rebuild the run on any machine:
// the cell pins down the workload, the system, every seed and the
// scheduler spec (whose window pins down the candidate sets), and Picks
// pins down every scheduling decision. The cell is kept as raw JSON
// because its type lives above this package (harness.Cell, whose
// DecodeTrace is the one strict decoder).
//
// On disk a trace is two lines: a JSON header, {"version":2,"cell":{…}},
// and a base64(varint) encoding of the decision sequence. The header
// stays human-greppable; the picks stay compact (a 100k-decision trace
// of a 16-core run is ~130 KB).
type Trace struct {
	Version int             `json:"version"`
	Cell    json.RawMessage `json:"cell"`

	Picks []uint32 `json:"-"`
}

// Encode renders the trace in the two-line on-disk format.
func (t *Trace) Encode() []byte {
	var buf bytes.Buffer
	hdr, err := json.Marshal(t)
	if err != nil {
		panic(err) // the cell is JSON the caller marshalled
	}
	buf.Write(hdr)
	buf.WriteByte('\n')
	var raw []byte
	var tmp [binary.MaxVarintLen32]byte
	for _, p := range t.Picks {
		raw = append(raw, tmp[:binary.PutUvarint(tmp[:], uint64(p))]...)
	}
	buf.WriteString(base64.StdEncoding.EncodeToString(raw))
	buf.WriteByte('\n')
	return buf.Bytes()
}

// Decode parses the two-line on-disk format.
func Decode(data []byte) (*Trace, error) {
	lines := bytes.SplitN(data, []byte("\n"), 3)
	if len(lines) < 2 {
		return nil, fmt.Errorf("sched: trace truncated (want header and picks lines)")
	}
	t := &Trace{Picks: []uint32{}} // never nil: replays as is, even empty
	if err := json.Unmarshal(lines[0], t); err != nil {
		return nil, fmt.Errorf("sched: bad trace header: %v", err)
	}
	if t.Version != TraceVersion {
		return nil, fmt.Errorf("sched: trace version %d, want %d", t.Version, TraceVersion)
	}
	raw, err := base64.StdEncoding.DecodeString(string(bytes.TrimSpace(lines[1])))
	if err != nil {
		return nil, fmt.Errorf("sched: bad picks encoding: %v", err)
	}
	for len(raw) > 0 {
		v, n := binary.Uvarint(raw)
		if n <= 0 || v > 1<<32-1 {
			return nil, fmt.Errorf("sched: corrupt varint in picks")
		}
		t.Picks = append(t.Picks, uint32(v))
		raw = raw[n:]
	}
	return t, nil
}

// WriteFile writes the trace to path.
func (t *Trace) WriteFile(path string) error {
	return os.WriteFile(path, t.Encode(), 0o644)
}
