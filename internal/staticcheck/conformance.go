package staticcheck

import (
	"fmt"
	"sort"

	"repro/internal/anchor"
	"repro/internal/prog"
)

// Conformance is check (d): the static/dynamic bridge. Installed as the
// stagger runtime's SiteRecorder, it observes every transactional access
// a workload attributes to a static site, then Check proves each
// observation against the IR: the site must exist in the module (the
// exact *prog.Site the ID resolves to — a stale pointer is IR drift),
// the dynamic access kind must match the site's declared kind, and the
// executed atomic block's unified table and DSA universe must cover the
// site. Because the hand-written IR and the workload Go code are
// maintained separately, this is the check that fails loudly when they
// drift apart.
//
// Conformance is not safe for concurrent use; the simulator serializes
// all cores on one goroutine, so recording from workload bodies is fine.
type Conformance struct {
	seen map[obsKey]*obs
}

type obsKey struct {
	abID    int
	siteID  uint32
	isStore bool
}

type obs struct {
	ab    *prog.AtomicBlock
	site  *prog.Site
	count int
}

// NewConformance returns an empty recorder.
func NewConformance() *Conformance {
	return &Conformance{seen: make(map[obsKey]*obs)}
}

// RecordAccess implements backend.SiteRecorder.
func (r *Conformance) RecordAccess(ab *prog.AtomicBlock, s *prog.Site, isStore bool) {
	key := obsKey{siteID: siteID(s), isStore: isStore}
	if ab != nil {
		key.abID = ab.ID
	}
	if o := r.seen[key]; o != nil {
		o.count++
		return
	}
	r.seen[key] = &obs{ab: ab, site: s, count: 1}
}

func siteID(s *prog.Site) uint32 {
	if s == nil {
		return 0
	}
	return s.ID
}

// Observations returns how many distinct (atomic block, site, kind)
// triples were recorded.
func (r *Conformance) Observations() int { return len(r.seen) }

// Check validates every recorded observation against the compiled
// module, returning violations in deterministic (block, site, kind)
// order.
func (r *Conformance) Check(c *anchor.Compiled) []Violation {
	keys := make([]obsKey, 0, len(r.seen))
	for k := range r.seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.abID != b.abID {
			return a.abID < b.abID
		}
		if a.siteID != b.siteID {
			return a.siteID < b.siteID
		}
		return !a.isStore && b.isStore
	})
	var out []Violation
	for _, k := range keys {
		out = append(out, r.checkObs(c, k, r.seen[k])...)
	}
	return out
}

func (r *Conformance) checkObs(c *anchor.Compiled, k obsKey, o *obs) []Violation {
	kind := "load"
	if k.isStore {
		kind = "store"
	}
	if o.site == nil {
		return []Violation{{Check: CheckConformance, AB: k.abID,
			Msg: fmt.Sprintf("dynamic %s attributed to a nil site (%d times)", kind, o.count)}}
	}
	id := o.site.ID
	if id == 0 || int(id) >= len(c.Mod.SiteByID) || c.Mod.SiteByID[id] != o.site {
		return []Violation{{Check: CheckConformance, AB: k.abID, Site: id,
			Msg: fmt.Sprintf("dynamic %s attributed to a site the IR does not contain (IR drift, %d times)",
				kind, o.count)}}
	}
	var out []Violation
	if o.site.IsStore != k.isStore {
		want := "load"
		if o.site.IsStore {
			want = "store"
		}
		out = append(out, Violation{Check: CheckConformance, AB: k.abID, Site: id,
			Msg: fmt.Sprintf("dynamic %s executed at a site the IR declares a %s (IR drift, %d times)",
				kind, want, o.count)})
	}
	if o.ab == nil {
		out = append(out, Violation{Check: CheckConformance, Site: id,
			Msg: fmt.Sprintf("dynamic %s outside any atomic block", kind)})
		return out
	}
	u := c.Unified[o.ab]
	if u == nil {
		out = append(out, Violation{Check: CheckConformance, AB: k.abID, Site: id,
			Msg: fmt.Sprintf("executed atomic block %q has no unified table", o.ab.Name)})
		return out
	}
	if u.EntryForSite(id) == nil {
		out = append(out, Violation{Check: CheckConformance, AB: k.abID, Site: id,
			Msg: fmt.Sprintf("site (%s) executed inside atomic block %q but absent from its unified table (IR call graph drift)",
				o.site, o.ab.Name)})
	} else if !u.Graph.Covers(o.site) {
		out = append(out, Violation{Check: CheckConformance, AB: k.abID, Site: id,
			Msg: fmt.Sprintf("site (%s) has no DSA node in atomic block %q's universe", o.site, o.ab.Name)})
	}
	return out
}
