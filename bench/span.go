package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from this directory's files, around calls into each package's public
// functions; nothing inside the program under test is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // rootSpan for a top-level span
	Name   string `json:"name"`
	Group  string `json:"group,omitempty"` // the cell or job every span of one unit shares
	Start  int64  `json:"start_ns"`        // since the tracer was created
	End    int64  `json:"end_ns"`
}

const (
	rootSpan   = -1
	orphanSpan = -2 // recorded off the driving goroutine; adopt resolves it
)

// tracer keeps spans in memory until the run ends. A nil *tracer accepts
// every call and records nothing, so traced and untraced passes run the
// same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	open  []int // the driving goroutine's open spans, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span nested under the driving goroutine's innermost open
// span. Only one goroutine may call begin/end.
func (t *tracer) begin(name, group string) int {
	if t == nil {
		return rootSpan
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := rootSpan
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		if group == "" {
			group = t.spans[parent].Group
		}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Group: group,
		Start: int64(time.Since(t.t0))})
	t.open = append(t.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("bench: span end out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].End = now
}

// record adds a finished span from any goroutine (the counting
// filesystem runs on the server's goroutines). Its parent is whichever
// driving-goroutine span contains its start; adopt works that out.
func (t *tracer) record(name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: orphanSpan, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// adopt gives every orphan the innermost begin/end span whose interval
// contains the orphan's start, and that span's group. The begin/end spans
// of one goroutine nest properly, so the innermost container is found by
// taking the latest span started at or before the orphan and climbing to
// the first ancestor still open at that instant.
func (t *tracer) adopt() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var nested []int
	for i := range t.spans {
		if t.spans[i].Parent != orphanSpan {
			nested = append(nested, i)
		}
	}
	sort.SliceStable(nested, func(a, b int) bool { return t.spans[nested[a]].Start < t.spans[nested[b]].Start })
	for i := range t.spans {
		o := &t.spans[i]
		if o.Parent != orphanSpan {
			continue
		}
		o.Parent = rootSpan
		k := sort.Search(len(nested), func(k int) bool { return t.spans[nested[k]].Start > o.Start })
		if k == 0 {
			continue
		}
		for c := nested[k-1]; c != rootSpan; c = t.spans[c].Parent {
			if t.spans[c].End > o.Start {
				o.Parent, o.Group = c, t.spans[c].Group
				break
			}
		}
	}
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = (s.End - s.Start) - covered
	}
	return self
}

// spanTotals aggregates a finished trace by span name.
type spanTotals struct {
	Count  int   `json:"count"`
	DurNS  int64 `json:"dur_ns"`
	SelfNS int64 `json:"self_ns"`
}

func (t *tracer) totals() map[string]*spanTotals {
	out := map[string]*spanTotals{}
	if t == nil {
		return out
	}
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		st := out[s.Name]
		if st == nil {
			st = &spanTotals{}
			out[s.Name] = st
		}
		st.Count++
		st.DurNS += s.End - s.Start
		st.SelfNS += self[i]
	}
	return out
}

// write stores the spans and their per-name totals as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(struct {
		Workload string                 `json:"workload"`
		Seed     int64                  `json:"seed"`
		Totals   map[string]*spanTotals `json:"totals"`
		Spans    []span                 `json:"spans"`
	}{workload, seed, t.totals(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
