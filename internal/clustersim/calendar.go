package clustersim

import "slices"

// calendarQueue is a calendar queue (Brown, CACM 1988): the pending
// events hash into a power-of-two ring of time buckets of fixed width,
// and the dequeue scan walks buckets from the current position, so both
// push and pop are O(1) amortized — against the O(log n) of the binary
// heap, which at 10M-VM scale spends a measurable fraction of the run
// sifting a millions-deep heap.
//
// The ordering contract is exactly eventLess — the strict (time, kind,
// seq) total order — so the calendar substitutes for the binary heap
// without perturbing one result bit; the randomized property test and
// FuzzCalendarQueue in calendar_test.go and the engine-level
// differential suites pit it against the test-side heapQueue.
//
// Layout: an event with time at lives in bucket int64(at/width) & mask.
// The scan position curAbs is an absolute (un-masked) bucket index;
// bucket contents are filtered by their absolute index ("this year's
// events only"), so far-future events sharing a ring slot are skipped
// until the scan's year reaches them. If a whole ring revolution finds
// nothing, the remaining events are more than a year ahead and a direct
// min-scan repositions the calendar in one pass.
//
// Storage: every event sits in a node of one pool, and a bucket is a
// doubly linked list of node indices. A popped node joins a free list
// that the next push takes from, and a resize relinks the nodes into a
// ring that reuses the old slot array whenever it is large enough. So
// once the pool has reached the live set's high-water mark, neither
// push nor pop nor resize allocates, and event storage never exceeds
// the pool's append growth over that mark.
//
// Mass collisions: many events at one instant (every VM clipped to the
// trace horizon departs at it) share one bucket, and finding each next
// one by walking the bucket would cost O(k^2) node visits. So findMin
// sorts a bucket in which it finds more than calendarSortMin
// current-year events; a sorted bucket keeps its order (pushes insert
// in place) until it empties, and findMin reads only its head.
type calendarQueue struct {
	slots []calSlot
	nodes []calNode
	free  int32 // free-list head, chained through next
	mask  int64 // len(slots)-1
	size  int
	width float64
	// curAbs: events below this absolute bucket index are gone.
	curAbs  int64
	sortBuf []int32 // sortSlot's scratch

	// Width calibration. A size-triggered resize never fires at steady
	// state (departures replace arrivals one for one), so a width picked
	// during warm-up can stay wrong forever: too wide and the live
	// population concentrates in a few fat buckets, and every findMin
	// scans tens of events. scanWork accumulates findMin effort (buckets
	// stepped + events examined); when it exceeds calendarScanFactor per
	// pop over a calibration window, the ring rebuilds with the width
	// re-derived from the live population's actual time span.
	scanWork int
	popCount int

	// One-event peek cache, so the peek-then-pop pattern of the
	// engine's batch coalescing scans at most once per event.
	hasPeek bool
	peekEv  simEvent
	peekN   int32 // node holding peekEv
}

// calNode is one pool slot: an event and its bucket-list links (or,
// on the free list, the next free node). int32 links keep a node at
// 48 bytes; 2^31 pending events would be 100 GB of nodes, far past any
// run's live set.
type calNode struct {
	ev         simEvent
	next, prev int32
}

// calSlot is one ring slot: the first node of its bucket list, and
// whether the list is in eventLess order. A sorted slot is never empty.
type calSlot struct {
	head   int32
	sorted bool
}

// nilNode ends a bucket list and the free list.
const nilNode int32 = -1

// calendarSortMin is the number of current-year events in one bucket
// above which findMin sorts the bucket rather than walk it per pop.
const calendarSortMin = 8

// calendarMinBuckets floors the ring size; 16 keeps the direct-scan
// fallback trivial for tiny queues while letting the ring shrink hard
// after a drain.
const calendarMinBuckets = 16

// calendarPopWindow and calendarScanFactor tune the steady-state
// recalibration: every window pops, if findMin averaged more than the
// factor in scan work per pop, the width is miscalibrated and the ring
// rebuilds. The resize walks every pending event, so the window bounds
// recalibration overhead to O(size/window) per pop — negligible — while
// catching miscalibration within one window.
const (
	calendarPopWindow  = 4096
	calendarScanFactor = 8
)

// newCalendarQueue sizes the ring for about sizeHint events spread over
// span seconds. Both are hints: the ring resizes itself as the
// population moves, so they only position the first few resize steps.
func newCalendarQueue(sizeHint int, span float64) *calendarQueue {
	nb := calendarMinBuckets
	for nb < sizeHint {
		nb <<= 1
	}
	q := &calendarQueue{
		slots: make([]calSlot, nb),
		nodes: make([]calNode, 0, sizeHint),
		free:  nilNode,
		mask:  int64(nb - 1),
	}
	for i := range q.slots {
		q.slots[i].head = nilNode
	}
	q.width = calendarWidth(span, sizeHint)
	return q
}

// calendarWidth picks a bucket width targeting ~1 event per bucket-year
// step: span/n. Any positive width is correct (the year filter and the
// direct-scan fallback handle both extremes); this is purely the
// constant-factor knob. The microsecond floor keeps the absolute bucket
// index of any simulation-range timestamp far inside int64 even when a
// near-degenerate population (all events within a float ulp) would
// otherwise drive the width toward zero.
func calendarWidth(span float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	w := span / float64(n)
	if !(w > 1e-6) { // also catches NaN
		w = 1e-6
	}
	return w
}

func (q *calendarQueue) empty() bool { return q.size == 0 }

// linkAfter links node n into slot s after node prev, or first when
// prev is nilNode.
func (q *calendarQueue) linkAfter(s *calSlot, prev, n int32) {
	next := s.head
	if prev == nilNode {
		s.head = n
	} else {
		next = q.nodes[prev].next
		q.nodes[prev].next = n
	}
	q.nodes[n].next, q.nodes[n].prev = next, prev
	if next != nilNode {
		q.nodes[next].prev = n
	}
}

func (q *calendarQueue) push(e simEvent) {
	if q.size+1 > 2*len(q.slots) {
		q.resize()
	}
	n := q.free
	if n != nilNode {
		q.free = q.nodes[n].next
	} else {
		n = int32(len(q.nodes))
		q.nodes = append(q.nodes, calNode{})
	}
	q.nodes[n].ev = e
	abs := int64(e.at / q.width)
	s := &q.slots[abs&q.mask]
	prev := nilNode
	if s.sorted {
		for m := s.head; m != nilNode && !eventLess(e, q.nodes[m].ev); m = q.nodes[m].next {
			prev = m
			q.scanWork++
		}
	}
	q.linkAfter(s, prev, n)
	q.size++
	if abs < q.curAbs {
		// The engine never schedules into the past, but the queue stays
		// correct if a caller does: rewind the scan.
		q.curAbs = abs
	}
	if q.hasPeek && eventLess(e, q.peekEv) {
		q.hasPeek = false
	}
}

func (q *calendarQueue) peek() simEvent {
	if !q.hasPeek {
		q.findMin()
	}
	return q.peekEv
}

func (q *calendarQueue) pop() simEvent {
	if !q.hasPeek {
		q.findMin()
	}
	e, n := q.peekEv, q.peekN
	s := &q.slots[int64(e.at/q.width)&q.mask]
	nd := &q.nodes[n]
	if nd.prev != nilNode {
		q.nodes[nd.prev].next = nd.next
	} else {
		s.head = nd.next
	}
	if nd.next != nilNode {
		q.nodes[nd.next].prev = nd.prev
	}
	if s.head == nilNode {
		s.sorted = false
	}
	// Drop the vm/shock pointers for the GC and recycle the node.
	nd.ev, nd.next = simEvent{}, q.free
	q.free = n
	q.size--
	q.hasPeek = false
	switch {
	case q.size < len(q.slots)/4 && len(q.slots) > calendarMinBuckets:
		q.resize()
	default:
		q.popCount++
		if q.popCount >= calendarPopWindow {
			if q.scanWork > calendarScanFactor*q.popCount {
				q.resize()
			}
			q.popCount, q.scanWork = 0, 0
		}
	}
	return e
}

// findMin locates the next event in eventLess order and caches it for
// peek/pop. Callers guarantee size > 0.
func (q *calendarQueue) findMin() {
	nb := int64(len(q.slots))
	// Invariant: no pending event maps below curAbs (pop never advances
	// past a bucket with current-year events; push rewinds). So the
	// first year-matching occupant found while scanning forward is in
	// the earliest non-empty year-bucket, and the eventLess-min of that
	// bucket's matches is the global min. In a sorted bucket that is the
	// head, if the head is of this year at all.
	for step := int64(0); step < nb; step++ {
		a := q.curAbs + step
		s := &q.slots[a&q.mask]
		best := nilNode
		q.scanWork++
		if s.sorted {
			if int64(q.nodes[s.head].ev.at/q.width) == a {
				best = s.head
			}
		} else {
			matches := 0
			for n := s.head; n != nilNode; n = q.nodes[n].next {
				q.scanWork++
				ev := &q.nodes[n].ev
				if int64(ev.at/q.width) != a {
					continue // a different year shares this slot
				}
				matches++
				if best == nilNode || eventLess(*ev, q.nodes[best].ev) {
					best = n
				}
			}
			if matches > calendarSortMin {
				q.sortSlot(s)
			}
		}
		if best != nilNode {
			q.curAbs = a
			q.hasPeek, q.peekEv, q.peekN = true, q.nodes[best].ev, best
			return
		}
	}
	// Everything is over a year away: one direct scan finds the global
	// min and repositions the year.
	q.directMin()
}

// directMin is the sparse-population fallback: scan every pending event
// once. It runs only when a full ring revolution found nothing, which
// bounds its amortized contribution.
func (q *calendarQueue) directMin() {
	found := false
	for _, s := range q.slots {
		for n := s.head; n != nilNode; n = q.nodes[n].next {
			if e := q.nodes[n].ev; !found || eventLess(e, q.peekEv) {
				found = true
				q.peekEv, q.peekN = e, n
			}
		}
	}
	if !found {
		panic("clustersim: pop/peek on empty calendarQueue")
	}
	q.hasPeek = true
	q.curAbs = int64(q.peekEv.at / q.width)
}

// resize rebuilds the ring at a power of two matched to the current
// population and re-derives the bucket width from the live population's
// actual time span (min..max pending event), then rehashes every event.
// Deriving the width from the live window rather than the remaining
// horizon is what keeps ~1 event per bucket-year: under trace-driven
// churn the pending departures cluster a mean-lifetime ahead of now,
// a tiny slice of the horizon. Amortized O(1) per push/pop by the
// usual doubling argument plus the calibration window.
//
// The pending nodes are first unlinked into one chain, so the new ring
// can take over the old slot array in place.
func (q *calendarQueue) resize() {
	nb := calendarMinBuckets
	for nb < q.size {
		nb <<= 1
	}
	chain := nilNode
	minAt, maxAt, first := 0.0, 0.0, true
	for _, s := range q.slots {
		for n := s.head; n != nilNode; {
			nd := &q.nodes[n]
			at := nd.ev.at
			if first || at < minAt {
				minAt = at
			}
			if first || at > maxAt {
				maxAt = at
			}
			first = false
			next := nd.next
			nd.next, chain = chain, n
			n = next
		}
	}
	if nb <= cap(q.slots) {
		q.slots = q.slots[:nb]
	} else {
		q.slots = make([]calSlot, nb)
	}
	for i := range q.slots {
		q.slots[i] = calSlot{head: nilNode}
	}
	q.mask = int64(nb - 1)
	q.width = calendarWidth(maxAt-minAt, q.size)
	q.hasPeek = false
	q.curAbs = int64(minAt / q.width)
	for n := chain; n != nilNode; {
		next := q.nodes[n].next
		abs := int64(q.nodes[n].ev.at / q.width)
		q.linkAfter(&q.slots[abs&q.mask], nilNode, n)
		if abs < q.curAbs {
			q.curAbs = abs
		}
		n = next
	}
	q.popCount, q.scanWork = 0, 0
}

// sortSlot puts s's bucket list in eventLess order and marks it sorted.
func (q *calendarQueue) sortSlot(s *calSlot) {
	buf := q.sortBuf[:0]
	for n := s.head; n != nilNode; n = q.nodes[n].next {
		buf = append(buf, n)
	}
	slices.SortFunc(buf, func(a, b int32) int {
		switch ea, eb := &q.nodes[a].ev, &q.nodes[b].ev; {
		case eventLess(*ea, *eb):
			return -1
		case eventLess(*eb, *ea):
			return 1
		}
		return 0
	})
	s.head = nilNode
	for i := len(buf) - 1; i >= 0; i-- {
		q.linkAfter(s, nilNode, buf[i])
	}
	s.sorted = true
	q.sortBuf = buf
}
