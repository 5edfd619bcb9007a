package simds

import (
	"repro/internal/htm"
	"repro/internal/mem"
	"repro/internal/prog"
)

// Queue is a FIFO task queue (intruder's work queue): a header line with
// head and tail pointers, and one line per element node {val, next}.
// Pops hit the head pointer and the head node; pushes hit the tail — the
// paper's intruder contention source ("task queue").
type Queue struct {
	FnPop  *prog.Func
	FnPush *prog.Func

	sPopHead, sPopVal, sPopNext, sPopSetHead, sPopClearTail *prog.Site
	sPushTail, sPushVal, sPushNext, sPushLink, sPushSetTail *prog.Site
	sPushSetHead                                            *prog.Site
}

const (
	qHeadOff = 0
	qTailOff = 1
	qValOff  = 0
	qNextOff = 1
)

// DeclareQueue registers the queue's static code in m.
func DeclareQueue(m *prog.Module) *Queue {
	q := &Queue{}

	q.FnPop = m.NewFunc("queue_pop", "qPtr")
	{
		f := q.FnPop
		b := f.Entry()
		node, sHead := b.LoadPtr("node", f.Param(0), "head")
		sVal := b.Load(node, "val")
		next, sNext := b.LoadPtr("next", node, "next")
		sSetHead := b.StorePtr(f.Param(0), "head", next)
		sClearTail := b.StorePtr(f.Param(0), "tail", next)
		q.sPopHead, q.sPopVal, q.sPopNext = sHead, sVal, sNext
		q.sPopSetHead, q.sPopClearTail = sSetHead, sClearTail
	}

	q.FnPush = m.NewFunc("queue_push", "qPtr", "node")
	{
		f := q.FnPush
		b := f.Entry()
		tail, sTail := b.LoadPtr("tail", f.Param(0), "tail")
		sVal := b.Store(f.Param(1), "val")
		sNext := b.Store(f.Param(1), "next")
		sLink := b.StorePtr(tail, "next", f.Param(1))
		sSetTail := b.StorePtr(f.Param(0), "tail", f.Param(1))
		sSetHead := b.StorePtr(f.Param(0), "head", f.Param(1))
		q.sPushTail, q.sPushVal, q.sPushNext = sTail, sVal, sNext
		q.sPushLink, q.sPushSetTail, q.sPushSetHead = sLink, sSetTail, sSetHead
	}
	return q
}

// NewQueue allocates an empty queue header.
func NewQueue(al *mem.Allocator) mem.Addr { return al.AllocLines(1) }

// Pop removes and returns the head value; ok is false on empty.
func (q *Queue) Pop(tc Ctx, qa mem.Addr) (val uint64, ok bool) {
	node := mem.Addr(tc.Load(q.sPopHead, qa+w(qHeadOff)))
	if node == nilPtr {
		return 0, false
	}
	val = tc.Load(q.sPopVal, node+w(qValOff))
	next := tc.Load(q.sPopNext, node+w(qNextOff))
	tc.Store(q.sPopSetHead, qa+w(qHeadOff), next)
	if next == nilPtr {
		tc.Store(q.sPopClearTail, qa+w(qTailOff), nilPtr)
	}
	return val, true
}

// Push appends a fresh node (thread-private line) carrying val.
func (q *Queue) Push(tc Ctx, qa mem.Addr, val uint64, node mem.Addr) {
	tail := mem.Addr(tc.Load(q.sPushTail, qa+w(qTailOff)))
	tc.Store(q.sPushVal, node+w(qValOff), val)
	tc.Store(q.sPushNext, node+w(qNextOff), nilPtr)
	if tail == nilPtr {
		tc.Store(q.sPushSetHead, qa+w(qHeadOff), uint64(node))
	} else {
		tc.Store(q.sPushLink, tail+w(qNextOff), uint64(node))
	}
	tc.Store(q.sPushSetTail, qa+w(qTailOff), uint64(node))
}

// QueueLen counts elements directly from memory (untimed).
func QueueLen(m *htm.Machine, qa mem.Addr) int {
	n := 0
	cur := mem.Addr(m.Mem.Load(qa + w(qHeadOff)))
	for cur != nilPtr {
		n++
		cur = mem.Addr(m.Mem.Load(cur + w(qNextOff)))
	}
	return n
}
