package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"

	"repro/internal/harness"
	"repro/internal/htm"
	"repro/internal/mem"
)

// Chrome trace-event export. The output is the JSON Object Format of the
// Trace Event specification, which Perfetto and chrome://tracing load
// directly: a top-level object with "traceEvents" plus "otherData" run
// tags. The mapping from the engine's virtual-time stream:
//
//   - each simulated core is a thread (tid = core id) in one process,
//     named by M metadata events;
//   - a transaction attempt is a duration slice: ph "B" at TraceBegin,
//     ph "E" at TraceCommit/TraceAbort, with the outcome and abort
//     details in the E event's args;
//   - an abort caused by another core gets a flow arrow (ph "s" on the
//     killer core's timeline, ph "f" on the victim's) so the causality
//     reads as an arrow between timelines;
//   - an advisory-lock holding period is an async interval (ph "b"/"e",
//     category "ablock", id = lock address) — async because locks are
//     released after the owning transaction's E slice closes, so a
//     nested B/E pair would be malformed;
//   - irrevocable (global-lock) sections are duration slices named
//     "irrevocable".
//
// Virtual cycles are reported as microseconds (ts is cycles verbatim):
// the viewer only needs a consistent unit, and integer timestamps keep
// the output byte-stable. All args maps are encoded by encoding/json,
// which sorts keys, so the export is deterministic given the event
// stream — which is itself deterministic given the RunConfig.

// TraceMeta tags an exported trace with the run cell that produced it,
// so a timeline loaded days later identifies its seed and schedule.
// Everything lands in the top-level otherData object.
type TraceMeta struct {
	Cell harness.Cell
	// Extra carries campaign-specific tags (exploration run index,
	// minimized-prefix length, ...). Keys are sorted by encoding/json on
	// output.
	Extra map[string]string
}

// TraceMetaOf tags a trace with the cell that produced it. Pass the
// result's Config — the cell as normalized — so the backend is spelled
// even when the caller left it to the mode. A run with no cell encoding
// (see harness.CellOf) is an error.
func TraceMetaOf(rc harness.RunConfig) (TraceMeta, error) {
	c, err := harness.CellOf(rc)
	return TraceMeta{Cell: c}, err
}

// traceFile is the JSON Object Format top level.
type traceFile struct {
	TraceEvents     []traceEvent      `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData"`
}

// traceEvent is one Trace Event spec event. Fields beyond the common
// four are optional per phase type and omitted when empty.
type traceEvent struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	Ph   string `json:"ph"`
	Ts   uint64 `json:"ts"`
	Pid  int    `json:"pid"`
	Tid  int    `json:"tid"`
	ID   string `json:"id,omitempty"`
	BP   string `json:"bp,omitempty"`

	Args map[string]any `json:"args,omitempty"`
}

// WriteTrace renders a recorded event stream as a Chrome trace-event
// JSON object. The stream must come from one run with EnableTraceExt if
// lock/irrevocable intervals are wanted; a plain begin/commit/abort
// stream still produces a valid (slices-only) timeline.
func WriteTrace(w io.Writer, meta TraceMeta, events []htm.TraceEvent) error {
	out := make([]traceEvent, 0, len(events)+16)

	// Process and per-core thread names, so the viewer labels timelines
	// "core 0..N-1" instead of bare tids.
	out = append(out, traceEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": fmt.Sprintf("%s/%s", meta.Cell.Bench, meta.Cell.Mode)},
	})
	cores := map[int]bool{}
	for _, e := range events {
		cores[e.Core] = true
	}
	coreIDs := make([]int, 0, len(cores))
	for c := range cores {
		coreIDs = append(coreIDs, c)
	}
	sort.Ints(coreIDs)
	for _, c := range coreIDs {
		out = append(out, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: c,
			Args: map[string]any{"name": fmt.Sprintf("core %d", c)},
		})
	}

	// openHolds maps (core, lock) to the async id of the open holding
	// interval so the matching release closes the right one. flowID
	// numbers abort arrows; holdID numbers holding periods. Both counters
	// are derived purely from stream order, hence deterministic.
	type holdKey struct {
		core int
		lock mem.Addr
	}
	openHolds := map[holdKey]int{}
	holdID := 0
	flowID := 0

	for _, e := range events {
		switch e.Kind {
		case htm.TraceBegin:
			out = append(out, traceEvent{
				Name: "tx", Cat: "tx", Ph: "B", Ts: e.Time, Pid: 0, Tid: e.Core,
			})
		case htm.TraceCommit:
			out = append(out, traceEvent{
				Name: "tx", Cat: "tx", Ph: "E", Ts: e.Time, Pid: 0, Tid: e.Core,
				Args: map[string]any{"outcome": "commit"},
			})
		case htm.TraceAbort:
			out = append(out, traceEvent{
				Name: "tx", Cat: "tx", Ph: "E", Ts: e.Time, Pid: 0, Tid: e.Core,
				Args: map[string]any{
					"outcome":   "abort",
					"reason":    e.Reason.String(),
					"conf_addr": fmt.Sprintf("%#x", uint64(e.ConfAddr)),
					"conf_pc":   fmt.Sprintf("%#x", e.ConfPC),
					"by_core":   e.ByCore,
				},
			})
			if e.Reason == htm.AbortConflict && e.ByCore != e.Core {
				// Flow arrow killer → victim. Both ends carry the same id;
				// bp "e" binds the start to the killer's enclosing slice if
				// one is open at that instant.
				id := fmt.Sprintf("abort-%d", flowID)
				flowID++
				args := map[string]any{"reason": e.Reason.String()}
				out = append(out,
					traceEvent{Name: "abort", Cat: "conflict", Ph: "s", Ts: e.Time,
						Pid: 0, Tid: e.ByCore, ID: id, BP: "e", Args: args},
					traceEvent{Name: "abort", Cat: "conflict", Ph: "f", Ts: e.Time,
						Pid: 0, Tid: e.Core, ID: id, BP: "e", Args: args},
				)
			}
		case htm.TraceLockAcquire:
			k := holdKey{e.Core, e.ConfAddr}
			id := holdID
			holdID++
			openHolds[k] = id
			out = append(out, traceEvent{
				Name: lockName(e.ConfAddr), Cat: "ablock", Ph: "b", Ts: e.Time,
				Pid: 0, Tid: e.Core, ID: fmt.Sprintf("hold-%d", id),
				Args: map[string]any{"lock": fmt.Sprintf("%#x", uint64(e.ConfAddr))},
			})
		case htm.TraceLockRelease:
			k := holdKey{e.Core, e.ConfAddr}
			id, ok := openHolds[k]
			if !ok {
				continue // release without recorded acquire (trace truncated)
			}
			delete(openHolds, k)
			out = append(out, traceEvent{
				Name: lockName(e.ConfAddr), Cat: "ablock", Ph: "e", Ts: e.Time,
				Pid: 0, Tid: e.Core, ID: fmt.Sprintf("hold-%d", id),
			})
		case htm.TraceIrrevBegin:
			out = append(out, traceEvent{
				Name: "irrevocable", Cat: "irrev", Ph: "B", Ts: e.Time, Pid: 0, Tid: e.Core,
			})
		case htm.TraceIrrevEnd:
			out = append(out, traceEvent{
				Name: "irrevocable", Cat: "irrev", Ph: "E", Ts: e.Time, Pid: 0, Tid: e.Core,
			})
		}
	}

	// A bounded trace can cut off mid-hold; close the leftovers at the
	// last event's time so the viewer never sees a dangling interval.
	// Deterministic order: sort leftover holds by their async id.
	if len(openHolds) != 0 && len(events) != 0 {
		end := events[len(events)-1].Time
		type leftover struct {
			k  holdKey
			id int
		}
		rest := make([]leftover, 0, len(openHolds))
		for k, id := range openHolds {
			rest = append(rest, leftover{k, id})
		}
		sort.Slice(rest, func(i, j int) bool { return rest[i].id < rest[j].id })
		for _, l := range rest {
			out = append(out, traceEvent{
				Name: lockName(l.k.lock), Cat: "ablock", Ph: "e", Ts: end,
				Pid: 0, Tid: l.k.core, ID: fmt.Sprintf("hold-%d", l.id),
				Args: map[string]any{"truncated": true},
			})
		}
	}

	f := traceFile{
		TraceEvents:     out,
		DisplayTimeUnit: "ns",
		OtherData:       otherData(meta),
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&f)
}

// lockName renders an advisory lock's interval name. Including the
// address makes same-lock holds share a Perfetto track.
func lockName(lock mem.Addr) string { return fmt.Sprintf("ablock %#x", uint64(lock)) }

// otherData flattens run tags for the trace's otherData object: every
// cell field under its JSON name, zero values included, then Extra.
func otherData(meta TraceMeta) map[string]string {
	od := map[string]string{}
	v := reflect.ValueOf(meta.Cell)
	for i := 0; i < v.NumField(); i++ {
		name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
		od[name] = fmt.Sprint(v.Field(i).Interface())
	}
	for k, v := range meta.Extra {
		od[k] = v
	}
	return od
}
