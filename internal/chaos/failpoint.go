package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// This file is the disk-fault sibling of the simulator's fault injector:
// a deterministic failpoint registry for the durable layers
// (internal/store, internal/journal) reached through the vfs.FaultFS
// filesystem seam. Where the Injector above perturbs the simulated
// machine, Failpoints perturb the host I/O the daemon depends on for
// crash safety — short writes, failed fsyncs, a full disk, and the
// process dying right after a write lands. Every decision is a count
// ("the Nth matching operation", or every one), so a fault schedule is
// exactly reproducible from its spec string.

// FPAction is what an armed failpoint does to the I/O operation that
// tripped it.
type FPAction int

const (
	// FPNone leaves the operation alone.
	FPNone FPAction = iota
	// FPError fails the operation with a generic injected I/O error
	// (the fsync-returned-EIO case: the bytes' fate is unknown).
	FPError
	// FPENOSPC fails the operation with an injected "no space left on
	// device".
	FPENOSPC
	// FPShort lets roughly half of a write land, then fails it — the
	// torn-write case rename atomicity and CRC framing must absorb.
	FPShort
	// FPCrash lets the operation complete, then kills the process (or
	// wedges the filesystem, under test): the post-write crash window.
	FPCrash
)

// String names the action as it appears in spec strings.
func (a FPAction) String() string {
	switch a {
	case FPError:
		return "error"
	case FPENOSPC:
		return "enospc"
	case FPShort:
		return "short"
	case FPCrash:
		return "crash"
	default:
		return "none"
	}
}

func parseFPAction(s string) (FPAction, error) {
	switch s {
	case "error":
		return FPError, nil
	case "enospc":
		return FPENOSPC, nil
	case "short":
		return FPShort, nil
	case "crash":
		return FPCrash, nil
	default:
		return FPNone, fmt.Errorf("unknown failpoint action %q (want error|enospc|short|crash)", s)
	}
}

// failpoint is one armed injection site.
type failpoint struct {
	op     string // operation class: write, sync, create, rename, remove, truncate, open
	sub    string // "" or a path substring filter
	action FPAction
	nth    uint64 // fire on exactly the nth matching hit (1-based); 0 = every hit
	hits   uint64
	fired  uint64
}

func (p *failpoint) spec() string {
	s := p.op
	if p.sub != "" {
		s += ":" + p.sub
	}
	s += "=" + p.action.String() + "@"
	if p.nth == 0 {
		return s + "*"
	}
	return s + strconv.FormatUint(p.nth, 10)
}

// Failpoints is a set of armed failpoints, safe for concurrent
// evaluation. The zero value (and a nil *Failpoints) injects nothing.
type Failpoints struct {
	mu  sync.Mutex
	pts []*failpoint
}

// ParseFailpoints parses a failpoint spec string:
//
//	spec     := clause (';' clause)*
//	clause   := op [':' pathsub] '=' action '@' (n | '*')
//	op       := write | sync | create | rename | remove | truncate | open
//	action   := error | enospc | short | crash
//
// '@n' fires on exactly the nth matching operation (1-based, counted
// deterministically per failpoint); '@*' fires on every matching
// operation. The optional pathsub filters by substring of the
// operation's file path ("jobs.wal", "objects", ...). An empty spec
// yields an empty (inert) set.
func ParseFailpoints(spec string) (*Failpoints, error) {
	f := &Failpoints{}
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return f, nil
	}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		site, rhs, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("failpoint %q: missing '='", clause)
		}
		op, sub, _ := strings.Cut(site, ":")
		switch op {
		case "write", "sync", "create", "rename", "remove", "truncate", "open":
		default:
			return nil, fmt.Errorf("failpoint %q: unknown op %q", clause, op)
		}
		p := &failpoint{op: op, sub: sub}
		actStr, nStr, ok := strings.Cut(rhs, "@")
		if !ok {
			return nil, fmt.Errorf("failpoint %q: need '@n' or '@*'", clause)
		}
		if nStr != "*" {
			n, err := strconv.ParseUint(nStr, 10, 64)
			if err != nil || n == 0 {
				return nil, fmt.Errorf("failpoint %q: bad count %q", clause, nStr)
			}
			p.nth = n
		}
		act, err := parseFPAction(actStr)
		if err != nil {
			return nil, fmt.Errorf("failpoint %q: %w", clause, err)
		}
		p.action = act
		f.pts = append(f.pts, p)
	}
	return f, nil
}

// Eval records one I/O operation against the set and returns the action
// to inject (FPNone almost always). Every matching failpoint counts the
// hit — so '@n' positions stay deterministic even when several clauses
// watch one op — and the first one that fires wins.
func (f *Failpoints) Eval(op, path string) FPAction {
	if f == nil {
		return FPNone
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	act := FPNone
	for _, p := range f.pts {
		if p.op != op || (p.sub != "" && !strings.Contains(path, p.sub)) {
			continue
		}
		p.hits++
		if p.nth == 0 || p.hits == p.nth {
			p.fired++
			if act == FPNone {
				act = p.action
			}
		}
	}
	return act
}

// FPStat reports one failpoint's traffic.
type FPStat struct {
	Spec  string
	Hits  uint64
	Fired uint64
}

// Report snapshots every failpoint's hit and fire counts, in spec order.
func (f *Failpoints) Report() []FPStat {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]FPStat, len(f.pts))
	for i, p := range f.pts {
		out[i] = FPStat{Spec: p.spec(), Hits: p.hits, Fired: p.fired}
	}
	return out
}

// Enabled reports whether any failpoint is armed.
func (f *Failpoints) Enabled() bool { return f != nil && len(f.pts) > 0 }
