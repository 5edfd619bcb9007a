package sched

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
)

// TraceVersion is the current trace format version.
const TraceVersion = 1

// Trace is a recorded schedule plus enough run metadata to reproduce the
// run exactly on any machine: the workload identity and seed pin down
// every per-core PRNG and data-structure layout, mode, backend and
// capacity pin down the concurrency control, the window pins down the
// candidate sets, and Picks pins down every scheduling decision. Traces
// written before backends existed name none; their mode selects one.
//
// On disk a trace is two lines: a JSON header (everything but Picks) and
// a base64(varint) encoding of the decision sequence. The header stays
// human-greppable; the picks stay compact (a 100k-decision trace of a
// 16-core run is ~130 KB).
type Trace struct {
	Version  int    `json:"version"`
	Spec     string `json:"spec"` // scheduler spec that generated the run
	Seed     int64  `json:"seed"` // scheduler seed (not the workload seed)
	Bench    string `json:"bench"`
	Mode     string `json:"mode"`
	Backend  string `json:"backend,omitempty"`  // registry name ("" = selected by Mode)
	Capacity int    `json:"capacity,omitempty"` // "limited" backend's line capacity (0 = its default)
	Threads  int    `json:"threads"`
	WlSeed   int64  `json:"wl_seed"`       // workload/machine seed
	Ops      int    `json:"ops,omitempty"` // total operations (0 = workload default)
	Window   uint64 `json:"window"`

	Picks []uint32 `json:"-"`
}

// Encode renders the trace in the two-line on-disk format.
func (t *Trace) Encode() []byte {
	var buf bytes.Buffer
	hdr, err := json.Marshal(t)
	if err != nil {
		panic(err) // no unmarshalable fields by construction
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
	t := &Trace{}
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

// ReadTraceFile reads a trace from path.
func ReadTraceFile(path string) (*Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Decode(data)
}
