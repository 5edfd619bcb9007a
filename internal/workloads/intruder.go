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

// intruder: STAMP's network intrusion detector. Threads pop packet
// fragments from a shared task queue, reassemble flows in a shared
// fragment map, and — at the end of the long decoder transaction — push
// completed flows onto the result queue. Table 1 names the task queue as
// the contention source; the enqueue near the end of TMdecoder_process
// is what staggered transactions serialize for the paper's biggest abort
// reduction (89%).

const (
	intrFlows    = 128
	intrFragsPer = 2
	intrBuckets  = 64
)

// One op processes one fragment.
func init() { register("intruder", intrFlows*intrFragsPer, buildIntruder) }

func buildIntruder() *Workload {
	mod := prog.NewModule("intruder")
	q := simds.DeclareQueue(mod)
	ht := simds.DeclareHashTable(mod)

	// The three shared structures are module globals bound into the
	// blocks' root calls, as producer and consumer share resultQ at run
	// time.
	gPacketQ := mod.Global("packetQ")
	gResultQ := mod.Global("resultQ")
	gFragMap := mod.Global("fragMap")

	// AB 1: fetch a fragment from the packet queue.
	popRoot := mod.NewFunc("get_packet", "qPtr")
	popRoot.Entry().Call(q.FnPop, gPacketQ)
	abPop := mod.Atomic("get_packet", popRoot)

	// AB 2: the decoder: look up the flow's fragment count, update the
	// fragment map, and when the flow is complete, enqueue it on the
	// result queue at the END of the transaction. The lookup call was
	// missing from the IR until the static/dynamic conformance checker
	// flagged the body's ht.Lookup sites as absent from this block's
	// unified table.
	decRoot := mod.NewFunc("decoder_process", "mapPtr", "resultQ", "frag")
	decRoot.Entry().Call(ht.FnLookup, gFragMap)
	decRoot.Entry().Call(ht.FnInsert, gFragMap, decRoot.Param(2))
	decRoot.Entry().Call(q.FnPush, gResultQ, decRoot.Param(2))
	abDec := mod.Atomic("decoder_process", decRoot)

	// AB 3: the detector pops completed flows and scans them.
	detRoot := mod.NewFunc("detector", "resultQ")
	detRoot.Entry().Call(q.FnPop, gResultQ)
	abDet := mod.Atomic("detector", detRoot)
	mod.MustFinalize()

	var packetQ, resultQ, fragMap mem.Addr
	return &Workload{
		Name:        "intruder",
		Description: "packet reassembly: shared task queue + fragment map",
		Contention:  "high",
		Mod:         mod,
		Setup: func(m *htm.Machine, seed int64) {
			packetQ = simds.NewQueue(m.Alloc)
			resultQ = simds.NewQueue(m.Alloc)
			fragMap = simds.NewHashTable(m, intrBuckets)
			for _, f := range intrPackets(seed) {
				q.Push(simds.Direct(m), packetQ, f, m.Alloc.AllocLines(1))
			}
		},
		Body: func(rt backend.Runtime, tid, threads, ops int, seed int64) func(*htm.Core) {
			return func(c *htm.Core) {
				th := rt.Thread(c.ID())
				al := c.Machine().Alloc
				// Hoisted body closures: see kmeans for why in-loop
				// literals cost one heap allocation per op.
				var frag, flow uint64
				var ok bool
				var mapNode, resNode mem.Addr
				popBody := func(tc simds.Ctx) {
					frag, ok = q.Pop(tc, packetQ)
					tc.Op(itPop{frag: frag, ok: ok})
				}
				decBody := func(tc simds.Ctx) {
					tc.Compute(450) // decode fragment payload
					// Count this flow's fragments in the shared map.
					cnt, _ := ht.Lookup(tc, fragMap, flow+1)
					ht.Insert(tc, fragMap, flow+1, cnt+1, mapNode)
					tc.Compute(450) // checksum / reassembly work
					// Hand the decoded fragment to the detector: the
					// enqueue near the end of the long decoder
					// transaction is intruder's dominant conflict
					// (Section 6.2 of the paper).
					q.Push(tc, resultQ, frag, resNode)
					tc.Op(itDec{flow: flow, cnt: cnt, frag: frag})
				}
				detBody := func(tc simds.Ctx) {
					f2, ok2 := q.Pop(tc, resultQ)
					if ok2 {
						tc.Compute(200) // signature scan
					}
					tc.Op(itDet{frag: f2, ok: ok2})
				}
				for {
					th.Atomic(abPop, popBody)
					if !ok {
						break
					}
					flow = frag >> 8
					mapNode = al.AllocLines(1)
					resNode = al.AllocLines(1)
					th.Atomic(abDec, decBody)
					th.Atomic(abDet, detBody)
					c.Compute(50)
				}
			}
		},
		Verify: func(m *htm.Machine, threads, totalOps int) error {
			if n := simds.QueueLen(m, packetQ); n != 0 {
				return fmt.Errorf("%d fragments left in packet queue", n)
			}
			// All flows fully assembled in the map.
			for fl := 0; fl < intrFlows; fl++ {
				cur, _ := ht.Lookup(simds.Direct(m), fragMap, uint64(fl)+1)
				if cur != intrFragsPer {
					return fmt.Errorf("flow %d assembled %d/%d fragments", fl, cur, intrFragsPer)
				}
			}
			return nil
		},
		RefModel: func(m *htm.Machine, seed int64) oracle.RefModel {
			return &itModel{
				m: m, ht: ht, fragMap: fragMap, resultQ: resultQ,
				packets: intrPackets(seed), // the queue Setup seeded
				counts:  make(map[uint64]uint64, intrFlows),
			}
		},
	}
}

// intrPackets is the packet queue's seeded order: every flow's
// fragments (flowID<<8 | fragIdx), shuffled.
func intrPackets(seed int64) []uint64 {
	frags := make([]uint64, 0, intrFlows*intrFragsPer)
	for f := 0; f < intrFragsPer; f++ {
		for fl := 0; fl < intrFlows; fl++ {
			frags = append(frags, uint64(fl)<<8|uint64(f))
		}
	}
	rng := threadRNG(seed, 888)
	rng.Shuffle(len(frags), func(i, j int) { frags[i], frags[j] = frags[j], frags[i] })
	return frags
}

// Tags for the three intruder atomic blocks.
type itPop struct { // packet-queue pop
	frag uint64
	ok   bool
}
type itDec struct { // decoder: cnt is the fragment count the tx observed
	flow uint64
	cnt  uint64
	frag uint64
}
type itDet struct { // detector: result-queue pop
	frag uint64
	ok   bool
}

// itModel is the sequential pipeline: a FIFO packet queue (rebuilt from
// the setup seed), the fragment-count map, and a FIFO result queue.
// Duplicate pops of one fragment, lost map updates, or reordered result
// queues all diverge from it.
type itModel struct {
	m                *htm.Machine
	ht               *simds.HashTable
	fragMap, resultQ mem.Addr
	packets          []uint64
	counts           map[uint64]uint64
	results          []uint64
}

func (md *itModel) Step(tag any) error {
	switch op := tag.(type) {
	case itPop:
		if !op.ok {
			if len(md.packets) != 0 {
				return fmt.Errorf("packet pop returned empty with %d fragments queued", len(md.packets))
			}
			return nil
		}
		if len(md.packets) == 0 {
			return fmt.Errorf("packet pop returned %#x from an empty queue", op.frag)
		}
		if md.packets[0] != op.frag {
			return fmt.Errorf("packet pop = %#x, sequential queue head is %#x", op.frag, md.packets[0])
		}
		md.packets = md.packets[1:]
	case itDec:
		if got := md.counts[op.flow+1]; got != op.cnt {
			return fmt.Errorf("decoder observed flow %d count %d, sequential map says %d",
				op.flow, op.cnt, got)
		}
		md.counts[op.flow+1] = op.cnt + 1
		md.results = append(md.results, op.frag)
	case itDet:
		if !op.ok {
			if len(md.results) != 0 {
				return fmt.Errorf("detector pop returned empty with %d flows queued", len(md.results))
			}
			return nil
		}
		if len(md.results) == 0 {
			return fmt.Errorf("detector pop returned %#x from an empty queue", op.frag)
		}
		if md.results[0] != op.frag {
			return fmt.Errorf("detector pop = %#x, sequential queue head is %#x", op.frag, md.results[0])
		}
		md.results = md.results[1:]
	default:
		return fmt.Errorf("intruder: unexpected tag %T", tag)
	}
	return nil
}

func (md *itModel) Finish() error {
	if n := simds.QueueLen(md.m, md.resultQ); n != len(md.results) {
		return fmt.Errorf("final result queue has %d entries, model has %d", n, len(md.results))
	}
	// Visit flows in sorted order so a multi-flow divergence always
	// reports the same flow (map iteration would pick one at random).
	for _, flow := range slices.Sorted(maps.Keys(md.counts)) {
		if got, _ := md.ht.Lookup(simds.Direct(md.m), md.fragMap, flow); got != md.counts[flow] {
			return fmt.Errorf("final fragment count[%d] = %d, model has %d", flow, got, md.counts[flow])
		}
	}
	return nil
}
