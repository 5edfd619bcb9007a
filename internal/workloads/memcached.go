package workloads

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/backend"
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/oracle"
	"repro/internal/prog"
	"repro/internal/simds"
)

// memcached: an in-memory key-value store (modeled on memcached 1.4.9
// with the network code elided, fed synthetic memslap-style traffic).
// Every GET and SET transaction updates the global statistics block in
// the middle of the transaction — the paper's Table 1 identifies
// "statistics information" as the contention source, with stable
// conflicting addresses and PCs (precise-mode territory).

const (
	mcBuckets  = 128
	mcInitKeys = 256
	mcKeySpace = 512

	statGets   = 0
	statSets   = 1
	statHits   = 2
	statMisses = 3
)

func init() { register("memcached", 3200, buildMemcached) }

func buildMemcached() *Workload {
	mod := prog.NewModule("memcached")
	ht := simds.DeclareHashTable(mod)
	sb := simds.DeclareStats(mod)

	// The item table and stats block are module globals bound into both
	// roots, as GET and SET share them at run time.
	gHT := mod.Global("itemTable")
	gStats := mod.Global("stats")

	// GET: lookup, then bump gets + hits/misses mid-transaction.
	getRoot := mod.NewFunc("process_get", "htPtr", "statsPtr")
	getRoot.Entry().Call(ht.FnLookup, gHT)
	getRoot.Entry().Call(sb.FnBump, gStats)
	getRoot.Entry().Call(sb.FnBump, gStats)
	abGet := mod.Atomic("get", getRoot)

	// SET: insert/update, then bump sets.
	setRoot := mod.NewFunc("process_set", "htPtr", "statsPtr", "item")
	setRoot.Entry().Call(ht.FnInsert, gHT, setRoot.Param(2))
	setRoot.Entry().Call(sb.FnBump, gStats)
	abSet := mod.Atomic("set", setRoot)
	mod.MustFinalize()

	var table, stats mem.Addr
	return &Workload{
		Name:        "memcached",
		Description: "in-memory key-value storage, 90% GET / 10% SET",
		Contention:  "high",
		Mod:         mod,
		Setup: func(m *htm.Machine, seed int64) {
			table = simds.NewHashTable(m, mcBuckets)
			stats = simds.NewStats(m.Alloc)
			for _, k := range mcSeedKeys(seed) {
				simds.SeedHashTable(m, table, k, k*3, m.Alloc.AllocLines(1))
			}
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			rng := threadRNG(seed, tid)
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				// Hoisted body closures: see kmeans for why in-loop
				// literals cost one heap allocation per op.
				var k uint64
				var node mem.Addr
				getBody := func(tc simds.Ctx) {
					tc.Compute(60) // request parsing
					val, hit := ht.Lookup(tc, table, k)
					tc.Compute(40)
					sb.Bump(tc, stats, statGets, 1)
					if hit {
						sb.Bump(tc, stats, statHits, 1)
					} else {
						sb.Bump(tc, stats, statMisses, 1)
					}
					tc.Compute(40) // response formatting
					tc.Op(mcOp{key: k, val: val, hit: hit})
				}
				setBody := func(tc simds.Ctx) {
					tc.Compute(200)
					isNew := ht.Insert(tc, table, k, k*7, node)
					sb.Bump(tc, stats, statSets, 1)
					tc.Compute(100)
					tc.Op(mcOp{set: true, key: k, val: k * 7, hit: !isNew})
				}
				for i := 0; i < ops; i++ {
					k = uint64(rng.Intn(mcKeySpace) + 1)
					if rng.Intn(100) < 90 {
						th.Atomic(c, abGet, getBody)
					} else {
						node = c.Machine().Alloc.AllocLines(1)
						th.Atomic(c, abSet, setBody)
					}
					c.Compute(500)
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			gets := simds.Counter(m.Mem, stats, statGets)
			sets := simds.Counter(m.Mem, stats, statSets)
			hits := simds.Counter(m.Mem, stats, statHits)
			misses := simds.Counter(m.Mem, stats, statMisses)
			if gets+sets != uint64(totalOps) {
				return fmt.Errorf("gets+sets = %d, want %d", gets+sets, totalOps)
			}
			if hits+misses != gets {
				return fmt.Errorf("hits+misses = %d, gets = %d", hits+misses, gets)
			}
			if n := simds.HTCount(m, table); n < mcInitKeys/2 || n > mcKeySpace {
				return fmt.Errorf("implausible table size %d", n)
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			kv := make(map[uint64]uint64, mcInitKeys)
			for _, k := range mcSeedKeys(seed) { // the contents Setup seeded
				kv[k] = k * 3
			}
			return &mcModel{m: m, ht: ht, table: table, stats: stats, kv: kv}
		},
	}
}

// mcSeedKeys are the keys Setup seeds the table with (each maps to
// k*3), in insertion order, repeats included.
func mcSeedKeys(seed int64) []uint64 {
	rng := threadRNG(seed, 999)
	keys := make([]uint64, mcInitKeys)
	for i := range keys {
		keys[i] = uint64(rng.Intn(mcKeySpace) + 1)
	}
	return keys
}

// mcOp tags one committed cache request with its observed result. For a
// GET, hit/val are the lookup's outcome; for a SET, hit records whether
// the key already existed (in-place update) and val the stored value.
type mcOp struct {
	set bool
	key uint64
	val uint64
	hit bool
}

// mcModel is the sequential cache: a Go map plus the four statistics
// counters, stepped in commit order.
type mcModel struct {
	m            *htm.Machine
	ht           *simds.HashTable
	table, stats mem.Addr
	kv           map[uint64]uint64

	gets, sets, hits, misses uint64
}

func (md *mcModel) Step(tag any) error {
	op, ok := tag.(mcOp)
	if !ok {
		return fmt.Errorf("memcached: unexpected tag %T", tag)
	}
	val, present := md.kv[op.key]
	if op.set {
		md.sets++
		if op.hit != present {
			return fmt.Errorf("set(%d) existing = %v, sequential cache says %v", op.key, op.hit, present)
		}
		md.kv[op.key] = op.val
		return nil
	}
	md.gets++
	if op.hit != present {
		return fmt.Errorf("get(%d) hit = %v, sequential cache says %v", op.key, op.hit, present)
	}
	if present {
		md.hits++
		if op.val != val {
			return fmt.Errorf("get(%d) = %d, sequential cache says %d", op.key, op.val, val)
		}
	} else {
		md.misses++
	}
	return nil
}

func (md *mcModel) Finish() error {
	// Fixed check order: map iteration would report a random stat (or
	// key) when several diverge at once.
	stats := []struct {
		name      string
		got, want uint64
	}{
		{"gets", simds.Counter(md.m.Mem, md.stats, statGets), md.gets},
		{"sets", simds.Counter(md.m.Mem, md.stats, statSets), md.sets},
		{"hits", simds.Counter(md.m.Mem, md.stats, statHits), md.hits},
		{"misses", simds.Counter(md.m.Mem, md.stats, statMisses), md.misses},
	}
	for _, s := range stats {
		if s.got != s.want {
			return fmt.Errorf("stat %s = %d, sequential model says %d", s.name, s.got, s.want)
		}
	}
	if n := simds.HTCount(md.m, md.table); n != len(md.kv) {
		return fmt.Errorf("final table has %d keys, model has %d", n, len(md.kv))
	}
	for _, k := range slices.Sorted(maps.Keys(md.kv)) {
		if got, _ := md.ht.Lookup(simds.Direct(md.m), md.table, k); got != md.kv[k] {
			return fmt.Errorf("final table[%d] = %d, model has %d", k, got, md.kv[k])
		}
	}
	return nil
}
