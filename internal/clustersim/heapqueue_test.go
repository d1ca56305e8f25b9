package clustersim

import (
	"cmp"
	"container/heap"
	"testing"
)

// heapQueue is the container/heap-backed eventQueue: O(log n) push/pop,
// the original queue and the differential reference for the live-set
// eventHeap and the streamed intake over it — any ordering bug in
// either shows up as a bit-level divergence against it.
type heapQueue struct {
	evs []simEvent
}

// Len, Less, Swap, Push and Pop implement heap.Interface; the ordering
// is oracleEventOrder.
func (q *heapQueue) Len() int { return len(q.evs) }

func (q *heapQueue) Less(i, j int) bool { return oracleEventOrder(q.evs[i], q.evs[j]) < 0 }

// oracleEventOrder is the oracle's own (time, kind, seq) order, written
// apart from eventLess so that a change to the run queue's order shows
// up as a divergence from the oracle.
func oracleEventOrder(a, b simEvent) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.kind, b.kind), cmp.Compare(a.seq, b.seq))
}

func (q *heapQueue) Swap(i, j int) { q.evs[i], q.evs[j] = q.evs[j], q.evs[i] }

func (q *heapQueue) Push(x any) { q.evs = append(q.evs, x.(simEvent)) }

func (q *heapQueue) Pop() any {
	old := q.evs
	n := len(old)
	e := old[n-1]
	q.evs = old[:n-1]
	return e
}

func (q *heapQueue) push(e simEvent) { heap.Push(q, e) }

func (q *heapQueue) pop() simEvent { return heap.Pop(q).(simEvent) }

func (q *heapQueue) peek() simEvent { return q.evs[0] }

func (q *heapQueue) empty() bool { return len(q.evs) == 0 }

// newHeapQueue is the oracle's run queue: every arrival of src pushed up
// front into one flat heap, for both adapters, so a run on it holds the
// latent-arrival overlay and the live-set heap together to a single
// heap.
func newHeapQueue(src *rowSource) eventQueue {
	q := &heapQueue{evs: make([]simEvent, 0, src.len())}
	for row := range src.len() {
		start, _, _, _ := src.span(row)
		q.evs = append(q.evs, simEvent{at: start, kind: evArrival, seq: row})
	}
	heap.Init(q)
	return q
}

// useHeapQueue runs every engine opened until t ends on the heap oracle.
// Tests that call it must not run in parallel with others.
func useHeapQueue(t testing.TB) {
	t.Helper()
	prev := newOracleQueue
	newOracleQueue = newHeapQueue
	t.Cleanup(func() { newOracleQueue = prev })
}
