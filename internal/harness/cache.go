package harness

import (
	"context"
	"fmt"
	"reflect"
	"sync"
)

// Table and figure generators share experiment cells (Table 4's baseline
// runs are Figure 7's denominators, for example). Because every run is
// deterministic in its RunConfig, results can be memoized safely. Only
// results writes to the memo — the sweep runner does not, so a long-lived
// process that only sweeps (staggerd) retains no Result.

// CacheSchema versions the meaning of a cached result: bump it whenever
// the simulation's observable output for an unchanged RunConfig changes
// (new machine defaults, changed cycle accounting, new Result fields) or
// the canonical spelling of a cell does. It prefixes Cell.Key, which is
// both the in-process memo key and the durable store key
// (internal/service), so entries written by an older schema are simply
// never found — they age out as misses and are recomputed, never
// deserialized under the wrong interpretation.
//
// Schema history: 2 added the conflicting-pair histogram
// (Result.ConfPairs and the report's conflicting_pairs section); 3
// added concurrency-control backend selection (RunConfig.Backend and
// Capacity join the key, and backend resolution can rewrite the
// effective mode); 4 keys the normalized cell (Backend and ops always
// explicit, Mode as resolved, Capacity only on "limited"), so the
// spellings of one simulation that 3 stored apart share one entry; 5
// dropped the service's `hardened` cell field and the report's
// locks.reclaimed counter with the runtime mechanisms behind them.
const CacheSchema = 5

// A non-zero uncacheable RunConfig field is a machine/runtime override
// or a run-scoped side channel (trace capture, fault injection,
// watchdogs, pick recording/replay), so the run executes for real every
// time. Every other field is simulation input that its Cell encodes, and
// the memo key is that Cell's Key (TestRunConfigFieldsKeyedOrUncacheable).
var uncacheable = []string{"TraceN", "ExtTrace", "Machine", "Stagger", "Chaos", "Watchdog",
	"WatchdogTrace", "Record", "ReplayPicks"}

var (
	cacheMu sync.Mutex
	cache   = map[string]*Result{}
)

// cacheableKey reports whether a normalized rc is eligible for
// memoization and, if so, its memo key.
func cacheableKey(rc RunConfig) (string, bool) {
	v := reflect.ValueOf(rc)
	for _, f := range uncacheable {
		if !v.FieldByName(f).IsZero() {
			return "", false
		}
	}
	c, err := CellOf(rc) // every override is uncacheable: never fails
	return c.Key(), err == nil
}

func cached(key string) *Result {
	cacheMu.Lock()
	defer cacheMu.Unlock()
	return cache[key]
}

func memoize(key string, r *Result) {
	cacheMu.Lock()
	cache[key] = r
	cacheMu.Unlock()
}

// simulate is the sweep runner results hands its misses to; a variable
// so that a test can count the cells that reach it.
var simulate = RunAll

// results returns one run per cell, in input order. It is the only way
// runs enter or leave the memo: cells the memo holds are answered from
// it, the distinct misses are simulated once each through simulate (at most
// Workers() at a time) and stored, and a cell with an override or side
// channel (see uncacheable) runs every time and is never stored. A cell
// that cannot run, or whose workload Verify failed, is an error, never a
// data point — a correctness bug cannot silently become a (meaningless)
// performance number. Every cell runs whatever its siblings do, and the
// first error in input order is the one returned, so the text is the
// same at every worker count.
func results(cells []RunConfig) ([]*Result, error) {
	out := make([]*Result, len(cells))
	errs := make([]error, len(cells))
	src := make([]int, len(cells)) // cell i is answered by todo[src[i]]
	var todo []RunConfig
	var keys []string // keys[j] is todo[j]'s memo key, "" when uncacheable
	pending := map[string]int{}
	for i, rc := range cells {
		c, err := normalize(rc)
		if err != nil {
			errs[i] = err
			continue
		}
		key, ok := cacheableKey(c.rc)
		if ok {
			if out[i] = cached(key); out[i] != nil {
				continue
			}
			if j, dup := pending[key]; dup {
				src[i] = j
				continue
			}
			pending[key] = len(todo)
		}
		src[i] = len(todo)
		todo = append(todo, c.rc)
		keys = append(keys, key)
	}
	ran := simulate(context.Background(), todo, Workers())
	for j, o := range ran {
		if o.Err == nil && keys[j] != "" {
			memoize(keys[j], o.Res)
		}
	}
	for i, rc := range cells {
		if out[i] == nil && errs[i] == nil {
			out[i], errs[i] = ran[src[i]].Res, ran[src[i]].Err
		}
		if errs[i] != nil {
			return nil, errs[i]
		}
		if err := out[i].VerifyErr; err != nil {
			return nil, fmt.Errorf("harness: %s (%s, %d threads): verify failed: %w",
				rc.Benchmark, rc.Mode, rc.Threads, err)
		}
	}
	return out, nil
}

// RunCached is results for one cell: Run through the memo, with a failed
// Verify an error.
func RunCached(rc RunConfig) (*Result, error) {
	rs, err := results([]RunConfig{rc})
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// ClearCache drops all memoized results (tests use it for isolation).
func ClearCache() {
	cacheMu.Lock()
	cache = map[string]*Result{}
	cacheMu.Unlock()
}
