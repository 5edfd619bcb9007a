package stagger

import (
	"repro/internal/anchor"
	"repro/internal/htm"
	"repro/internal/mem"
)

// activate is the runtime's ActivateALPoint (Figure 6): called from the
// abort handler, it classifies the recent conflict pattern of the atomic
// block and arms an advisory locking point accordingly.
//
// Four behaviours, keyed on the recurrence of the conflicting PC (p) and
// conflicting data address (a) in the recent abort history:
//
//	p && a  → precise mode: arm the anchor, expect this exact address
//	p && !a → coarse-grain mode: arm the anchor with a wild-card address;
//	          after PromThr further failures, locking promotion walks up
//	          the anchor's parent chain (list node → whole table, etc.)
//	!p      → training mode: keep gathering statistics
func (th *Thread) activate(info htm.AbortInfo, attempt int) {
	rt, abc := th.rt, th.abc
	if info.Reason != htm.AbortConflict {
		return
	}
	// Conflict-pattern characterization (all modes, Table 1): histogram
	// conflicting line addresses and true initial-access anchors.
	rt.confAddrs[mem.LineOf(info.ConfAddr)]++
	if abc.u != nil && info.TrueSite != 0 {
		if truth := abc.u.AnchorFor(abc.u.EntryForSite(info.TrueSite)); truth != nil {
			rt.confPCs[truth.Site.ID]++
		}
	}
	// Fully attributed pairs only: a killer site or block of 0 means the
	// other side was a runtime access (advisory-lock word, NT store)
	// outside the IR, which the static matrix deliberately excludes.
	if info.TrueSite != 0 && info.KillerSite != 0 && info.KillerAB != 0 {
		rt.confPairs[ConflictPair{
			VictimAB:   abc.ab.ID,
			VictimSite: info.TrueSite,
			KillerAB:   info.KillerAB,
			KillerSite: info.KillerSite,
		}]++
	}
	if rt.cfg.Mode == ModeHTM {
		return
	}
	// Count troubled INSTANCES, not raw aborts: a retry burst within one
	// transaction instance is one data point for decision (1), or the
	// windowed rate would spike on every burst. Deep chains feed the
	// wasted-work signal behind coarse-grain locking.
	abm := abc.m
	if attempt == 0 {
		abc.confAbortsW++
		abm.ConfAborts++
	}
	if attempt == 3 {
		abc.deepW++
		abm.Deep++
	}
	if rt.cfg.Mode == ModeAddrOnly {
		rt.activateAddrOnly(abc, info)
		return
	}
	// Decision (1): is this atomic block contended enough to pay for
	// advisory locking at all? Frequent conflicts or deep retry chains
	// both qualify; otherwise keep training.
	if !abc.contended() && !abc.contendedHeavily() {
		rt.Metrics.ActTraining++
		abm.Training++
		rec := abortRecord{addr: mem.LineOf(info.ConfAddr)}
		abc.appendHistory(rt.cfg.HistLen, rec)
		return
	}

	// Resolve the conflicting access back to an anchor.
	var en *anchor.UEntry
	switch rt.cfg.Mode {
	case ModeStaggeredHW:
		if info.HasPC {
			en = abc.u.SearchByPC(info.ConfPC)
		}
	case ModeStaggeredSW:
		if site := th.swLookup(info.ConfAddr); site != 0 {
			en = abc.u.EntryForSite(site)
		} else {
			rt.Metrics.SWMisses++
		}
	}
	en = abc.u.AnchorFor(en) // always begin with an anchor (line 3)

	// Ground-truth accuracy bookkeeping (simulator-only; Table 3).
	if info.TrueSite != 0 {
		rt.Metrics.AccTotal++
		if truth := abc.u.AnchorFor(abc.u.EntryForSite(info.TrueSite)); truth != nil && truth == en {
			rt.Metrics.AccHits++
		}
	}

	a := abc.countAddr(info.ConfAddr) > rt.cfg.AddrThr
	p := en != nil && abc.countAnchor(en.Site.ID) > rt.cfg.PCThr
	switch {
	case p && a: // case 1: precise mode
		abc.activeAnchor = en.Site.ID
		abc.blockAddr = mem.LineOf(info.ConfAddr)
		rt.Metrics.ActPrecise++
		abm.Precise++
	case p: // cases 2 and 3
		if !abc.contendedHeavily() {
			// Coarse-grain locking serializes a whole structure; below
			// the heavy-contention bar that costs more than the aborts.
			abc.activeAnchor = 0
			abc.blockAddr = 0
			rt.Metrics.ActTraining++
			abm.Training++
			break
		}
		target := en
		// Locking promotion (Figure 6 case 3): when THIS transaction
		// instance has already retried PromThr times and coarse-grain
		// locking still did not save it, climb to the parent anchor —
		// e.g. from a bucket's list to the whole hash table.
		if attempt >= rt.cfg.PromThr {
			if parent := abc.u.Parent(target); parent != nil {
				target = parent
			}
		}
		abc.activeAnchor = target.Site.ID
		abc.blockAddr = 0
		if target != en {
			rt.Metrics.ActPromote++
			abm.Promote++
		} else {
			rt.Metrics.ActCoarse++
			abm.Coarse++
		}
	default: // case 4: training mode
		abc.activeAnchor = 0
		abc.blockAddr = 0
		rt.Metrics.ActTraining++
		abm.Training++
	}

	rec := abortRecord{addr: mem.LineOf(info.ConfAddr)}
	if en != nil {
		rec.anchorSite = en.Site.ID
	}
	abc.appendHistory(rt.cfg.HistLen, rec)
}

// activateAddrOnly is the policy of the "AddrOnly" comparison system: a
// single fixed locking point at the start of the atomic block, precise
// mode only.
func (rt *Runtime) activateAddrOnly(abc *ABContext, info htm.AbortInfo) {
	if abc.countAddr(info.ConfAddr) > rt.cfg.AddrThr {
		abc.blockAddr = mem.LineOf(info.ConfAddr)
		rt.Metrics.ActPrecise++
	} else {
		abc.blockAddr = 0
		rt.Metrics.ActTraining++
	}
	abc.appendHistory(rt.cfg.HistLen, abortRecord{addr: mem.LineOf(info.ConfAddr)})
}

// appendHistory pushes a record into the bounded abort history.
func (c *ABContext) appendHistory(limit int, rec abortRecord) {
	c.history = append(c.history, rec)
	if len(c.history) > limit {
		c.history = c.history[len(c.history)-limit:]
	}
}

// countAddr counts history records with the given conflicting line.
func (c *ABContext) countAddr(a mem.Addr) int {
	line := mem.LineOf(a)
	n := 0
	for _, r := range c.history {
		if r.addr != 0 && r.addr == line {
			n++
		}
	}
	return n
}

// countAnchor counts history records resolved to the given anchor.
func (c *ABContext) countAnchor(site uint32) int {
	n := 0
	for _, r := range c.history {
		if r.anchorSite != 0 && r.anchorSite == site {
			n++
		}
	}
	return n
}
