package clustersim

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
type calendarQueue struct {
	buckets [][]simEvent
	mask    int64 // len(buckets)-1
	size    int
	width   float64
	curAbs  int64 // events below this absolute bucket index are gone

	// Width calibration. A size-triggered resize never fires at steady
	// state (departures replace arrivals one for one), so a width picked
	// during warm-up can stay wrong forever: too wide and the live
	// population concentrates in a few fat buckets — every findMin scans
	// tens of events, and the scan's sliding window strands bucket
	// capacity behind it that no revolution ever revisits. scanWork
	// accumulates findMin effort (buckets stepped + events examined);
	// when it exceeds calendarScanFactor per pop over a calibration
	// window, the ring rebuilds with the width re-derived from the live
	// population's actual time span.
	scanWork int
	popCount int

	// One-event peek cache, so the peek-then-pop pattern of the
	// engine's batch coalescing scans at most once per event.
	hasPeek bool
	peekEv  simEvent
	peekB   int // ring slot holding peekEv
	peekPos int // position within that slot
}

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
		buckets: make([][]simEvent, nb),
		mask:    int64(nb - 1),
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

func (q *calendarQueue) push(e simEvent) {
	if q.size+1 > 2*len(q.buckets) {
		q.resize()
	}
	abs := int64(e.at / q.width)
	slot := abs & q.mask
	q.buckets[slot] = append(q.buckets[slot], e)
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
	e := q.peekEv
	b := q.buckets[q.peekB]
	last := len(b) - 1
	// Swap-remove: (at, kind, seq) is unique per event, so in-bucket
	// order carries no information.
	b[q.peekPos] = b[last]
	b[last] = simEvent{} // drop the vm/shock pointers for the GC
	q.buckets[q.peekB] = b[:last]
	q.size--
	q.hasPeek = false
	switch {
	case q.size < len(q.buckets)/4 && len(q.buckets) > calendarMinBuckets:
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
	nb := int64(len(q.buckets))
	// Invariant: no pending event maps below curAbs (pop never advances
	// past a bucket with current-year events; push rewinds). So the
	// first year-matching occupant found while scanning forward is in
	// the earliest non-empty year-bucket, and the eventLess-min of that
	// bucket's matches is the global min.
	for step := int64(0); step < nb; step++ {
		a := q.curAbs + step
		slot := int(a & q.mask)
		b := q.buckets[slot]
		q.scanWork += 1 + len(b)
		best := -1
		for i := range b {
			if int64(b[i].at/q.width) != a {
				continue // a different year shares this slot
			}
			if best < 0 || eventLess(b[i], b[best]) {
				best = i
			}
		}
		if best >= 0 {
			q.curAbs = a
			q.hasPeek, q.peekEv, q.peekB, q.peekPos = true, b[best], slot, best
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
	for slot := range q.buckets {
		for i := range q.buckets[slot] {
			e := q.buckets[slot][i]
			if !found || eventLess(e, q.peekEv) {
				found = true
				q.peekEv, q.peekB, q.peekPos = e, slot, i
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
func (q *calendarQueue) resize() {
	nb := calendarMinBuckets
	for nb < q.size {
		nb <<= 1
	}
	minAt, maxAt, first := 0.0, 0.0, true
	for _, b := range q.buckets {
		for i := range b {
			at := b[i].at
			if first || at < minAt {
				minAt = at
			}
			if first || at > maxAt {
				maxAt = at
			}
			first = false
		}
	}
	old := q.buckets
	q.buckets = make([][]simEvent, nb)
	q.mask = int64(nb - 1)
	q.width = calendarWidth(maxAt-minAt, q.size)
	q.hasPeek = false
	q.curAbs = int64(minAt / q.width)
	for _, b := range old {
		for _, e := range b {
			abs := int64(e.at / q.width)
			q.buckets[abs&q.mask] = append(q.buckets[abs&q.mask], e)
			if abs < q.curAbs {
				q.curAbs = abs
			}
		}
	}
	q.popCount, q.scanWork = 0, 0
}
