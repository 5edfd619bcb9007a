package harness

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
)

// Table and figure generators share experiment cells (Table 4's baseline
// runs are Figure 7's denominators, for example). Because every run is
// deterministic in its RunConfig, results can be memoized safely. Only
// RunCached and warm write to the memo — the sweep runner does not, so a
// long-lived process that only sweeps (staggerd) retains no Result.

// CacheSchema versions the meaning of a cached result: bump it whenever
// the simulation's observable output for an unchanged RunConfig changes
// (new machine defaults, changed cycle accounting, new Result fields) or
// the canonical spelling of a cell does. It is part of every in-process
// memo key and embedded in every durable store key (internal/service),
// so entries written by an older schema are simply never found — they
// age out as misses and are recomputed, never deserialized under the
// wrong interpretation.
//
// Schema history: 2 added the conflicting-pair histogram
// (Result.ConfPairs and the report's conflicting_pairs section); 3
// added concurrency-control backend selection (RunConfig.Backend and
// Capacity join the key, and backend resolution can rewrite the
// effective mode); 4 keys the normalized cell (Backend and ops always
// explicit, Mode as resolved, Capacity only on "limited"), so the
// spellings of one simulation that 3 stored apart share one entry.
const CacheSchema = 4

// Every RunConfig field is named in exactly one of these lists
// (TestRunConfigFieldsKeyedOrUncacheable): keyed fields are simulation
// input and make up the memo key; a non-zero uncacheable field is a
// machine/runtime override or a run-scoped side channel (trace capture,
// fault injection, watchdogs, pick recording/replay, site recording), so
// the run executes for real every time.
var (
	keyed = []string{"Benchmark", "Mode", "Backend", "Capacity", "Threads", "Seed",
		"TotalOps", "Naive", "Lazy", "Sched", "SchedSeed", "Oracle"}
	uncacheable = []string{"TraceN", "ExtTrace", "Machine", "Stagger", "Chaos", "Watchdog",
		"WatchdogTrace", "Record", "ReplayPicks", "UnsafeEarlyRelease", "SiteRecorder"}
)

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
	var b strings.Builder
	fmt.Fprintf(&b, "v%d", CacheSchema)
	for _, f := range keyed {
		fmt.Fprintf(&b, "|%#v", v.FieldByName(f).Interface())
	}
	return b.String(), true
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

// RunCached is Run with memoization over the default machine and runtime
// configurations. Configs with overrides bypass the cache, and a failed
// run is never cached.
func RunCached(rc RunConfig) (*Result, error) {
	c, err := normalize(rc)
	if err != nil {
		return nil, err
	}
	key, ok := cacheableKey(c.rc)
	if !ok {
		return c.run(context.Background())
	}
	if r := cached(key); r != nil {
		return r, nil
	}
	r, err := c.run(context.Background())
	if err != nil {
		return nil, err
	}
	memoize(key, r)
	return r, nil
}

// ClearCache drops all memoized results (tests use it for isolation).
func ClearCache() {
	cacheMu.Lock()
	cache = map[string]*Result{}
	cacheMu.Unlock()
}
