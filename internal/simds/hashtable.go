package simds

import (
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// HashTable is a fixed-size chained hash table (genome's
// uniqueSegmentsPtr and memcached's item table): a header object holding
// numBucket and an inline array of bucket pointers, each pointing to a
// separately allocated chain list. Chain nodes are {key, val, next}, one
// line each.
//
// The chain-traversal code follows genome's TMlist_find shape (Figure 3
// of the paper): a prev/cur pointer pair collapses header and cells into
// one DSNode, so the first chain load is the anchor (A 35) and its parent
// in the unified table is the hash-table anchor (A 42) — the chain the
// locking-promotion path climbs to lock the whole table.
type HashTable struct {
	FnLookup *prog.Func
	FnInsert *prog.Func

	sLkNum, sLkBucket, sLkFirst, sLkKey, sLkNext *prog.Site
	sLkVal                                       *prog.Site
	sInNum, sInBucket, sInFirst, sInKey, sInNext *prog.Site
	sInNewKey, sInNewVal, sInNewNext, sInLink    *prog.Site
	sUpVal                                       *prog.Site
}

const (
	htNumOff    = 0 // header word 0: numBucket
	htBucketOff = 1 // header words 1..numBucket: chain list pointers

	chainHeadOff = 0 // chain header word 0: first node
	cnKeyOff     = 0
	cnValOff     = 1
	cnNextOff    = 2
)

// DeclareHashTable registers the table's static code in m.
func DeclareHashTable(m *prog.Module) *HashTable {
	h := &HashTable{}

	// chainFind(listPtr): genome-style traversal with prev/cur merging.
	declChain := func(f *prog.Func, withVal bool) (sFirst, sKey, sNext, sVal *prog.Site) {
		entry, loop, exit := f.Entry(), f.NewBlock("loop"), f.NewBlock("exit")
		entry.To(loop)
		loop.To(loop, exit)
		prev0 := entry.Field("prevPtr0", f.Param(0), "head")
		n0, s35 := entry.LoadPtr("node0", prev0, "next")
		cur := f.Phi("node")
		prev := f.Phi("prev")
		f.Bind(cur, n0)
		f.Bind(prev, prev0)
		f.Bind(prev, cur)
		sKey = loop.Load(cur, "key")
		n1, s38 := loop.LoadPtr("node1", cur, "next")
		f.Bind(cur, n1)
		if withVal {
			sVal = exit.Load(cur, "val")
		}
		return s35, sKey, s38, sVal
	}

	h.FnLookup = m.NewFunc("ht_lookup", "htPtr")
	{
		f := h.FnLookup
		b := f.Entry()
		h.sLkNum = b.Load(f.Param(0), "numBucket")
		bucket, sBucket := b.LoadPtr("bucket", f.Param(0), "buckets")
		h.sLkBucket = sBucket
		chain := m.NewFunc("chain_find", "listPtr")
		h.sLkFirst, h.sLkKey, h.sLkNext, h.sLkVal = declChain(chain, true)
		b.Call(chain, bucket)
	}

	h.FnInsert = m.NewFunc("ht_insert", "htPtr", "node")
	{
		f := h.FnInsert
		b := f.Entry()
		h.sInNum = b.Load(f.Param(0), "numBucket")
		bucket, sBucket := b.LoadPtr("bucket", f.Param(0), "buckets")
		h.sInBucket = sBucket
		chain := m.NewFunc("chain_insert", "listPtr", "node")
		h.sInFirst, h.sInKey, h.sInNext, _ = declChain(chain, false)
		exit := chain.Blocks[2]
		h.sInNewKey = exit.Store(chain.Param(1), "key")
		h.sInNewVal = exit.Store(chain.Param(1), "val")
		h.sInNewNext = exit.Store(chain.Param(1), "next")
		// Linking through the prev phi: its node is the collapsed chain.
		h.sInLink = exit.StorePtr(chain.Param(0), "next", chain.Param(1))
		h.sUpVal = exit.Store(chain.Param(1), "val")
		b.Call(chain, bucket, f.Param(1))
	}
	return h
}

// NewHashTable allocates a table with numBucket chains, all empty.
func NewHashTable(m *htm.Machine, numBucket int) mem.Addr {
	lines := (1 + numBucket + 7) / 8
	ht := m.Alloc.AllocLines(lines)
	m.Mem.Store(ht+w(htNumOff), uint64(numBucket))
	for i := 0; i < numBucket; i++ {
		chain := m.Alloc.AllocLines(1)
		m.Mem.Store(ht+w(htBucketOff+i), uint64(chain))
	}
	return ht
}

// htHash picks a bucket for a key.
func htHash(key, numBucket uint64) uint64 {
	return (key * 0x9E3779B97F4A7C15 >> 33) % numBucket
}

// SeedHashTable sets key→val directly in memory (setup, untimed). Unlike
// Insert, it links a new key's node at the head of its chain; a present
// key's value is overwritten and node goes unused.
func SeedHashTable(m *htm.Machine, ht mem.Addr, key, val uint64, node mem.Addr) {
	nb := m.Mem.Load(ht + w(htNumOff))
	chain := mem.Addr(m.Mem.Load(ht + w(htBucketOff+int(htHash(key, nb)))))
	first := m.Mem.Load(chain + w(chainHeadOff))
	for cur := mem.Addr(first); cur != nilPtr; cur = mem.Addr(m.Mem.Load(cur + w(cnNextOff))) {
		if m.Mem.Load(cur+w(cnKeyOff)) == key {
			m.Mem.Store(cur+w(cnValOff), val)
			return
		}
	}
	m.Mem.Store(node+w(cnKeyOff), key)
	m.Mem.Store(node+w(cnValOff), val)
	m.Mem.Store(node+w(cnNextOff), first)
	m.Mem.Store(chain+w(chainHeadOff), uint64(node))
}

// Lookup returns the value stored under key.
func (h *HashTable) Lookup(tc Ctx, ht mem.Addr, key uint64) (uint64, bool) {
	nb := tc.Load(h.sLkNum, ht+w(htNumOff))
	bi := htHash(key, nb)
	chain := mem.Addr(tc.Load(h.sLkBucket, ht+w(htBucketOff+int(bi))))
	cur := mem.Addr(tc.Load(h.sLkFirst, chain+w(chainHeadOff)))
	for cur != nilPtr {
		k := tc.Load(h.sLkKey, cur+w(cnKeyOff))
		if k == key {
			return tc.Load(h.sLkVal, cur+w(cnValOff)), true
		}
		cur = mem.Addr(tc.Load(h.sLkNext, cur+w(cnNextOff)))
		tc.Compute(4)
	}
	return 0, false
}

// Insert adds key→val using the caller-provided fresh node; when the key
// already exists it updates the value in place and the node is unused.
// Returns true when a new key was inserted.
func (h *HashTable) Insert(tc Ctx, ht mem.Addr, key, val uint64, node mem.Addr) bool {
	nb := tc.Load(h.sInNum, ht+w(htNumOff))
	bi := htHash(key, nb)
	chain := mem.Addr(tc.Load(h.sInBucket, ht+w(htBucketOff+int(bi))))
	prev, prevOff := chain, w(chainHeadOff)
	cur := mem.Addr(tc.Load(h.sInFirst, chain+w(chainHeadOff)))
	for cur != nilPtr {
		k := tc.Load(h.sInKey, cur+w(cnKeyOff))
		if k == key {
			tc.Store(h.sUpVal, cur+w(cnValOff), val)
			return false
		}
		prev, prevOff = cur, w(cnNextOff)
		cur = mem.Addr(tc.Load(h.sInNext, cur+w(cnNextOff)))
		tc.Compute(4)
	}
	tc.Store(h.sInNewKey, node+w(cnKeyOff), key)
	tc.Store(h.sInNewVal, node+w(cnValOff), val)
	tc.Store(h.sInNewNext, node+w(cnNextOff), nilPtr)
	tc.Store(h.sInLink, prev+prevOff, uint64(node))
	return true
}

// HTCount counts entries directly from memory (untimed verification).
func HTCount(m *htm.Machine, ht mem.Addr) int {
	nb := int(m.Mem.Load(ht + w(htNumOff)))
	n := 0
	for i := 0; i < nb; i++ {
		chain := mem.Addr(m.Mem.Load(ht + w(htBucketOff+i)))
		cur := mem.Addr(m.Mem.Load(chain + w(chainHeadOff)))
		for cur != nilPtr {
			n++
			cur = mem.Addr(m.Mem.Load(cur + w(cnNextOff)))
		}
	}
	return n
}
