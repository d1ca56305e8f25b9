package clustersim

// eventKind orders simultaneous events. Samples fire first so metering
// observes the population as it stood through the preceding interval;
// departures precede capacity shocks so a VM that leaves at the shock
// instant is not pointlessly evacuated (and its freed capacity is
// available to the evacuees); restorations precede revocations so a
// same-instant restore+revoke pair frees the returning capacity before
// the evacuation that needs it — and so back-to-back outages of one
// server (restore and re-revoke at the same instant, which the
// generators' admission sweep can legally produce) replay as two
// outages instead of silently dropping the second; resizes follow
// revocations so their displaced VMs never land on a server revoked at
// the same instant; and every shock precedes the arrivals so newcomers
// only ever see post-shock capacity (the invariant the old slice-based
// replay encoded in its sort comparator, extended to the
// transient-server events).
type eventKind int

const (
	evSample eventKind = iota
	evDeparture
	evRestore
	evRevoke
	evResize
	evArrival
)

// String names the kind for test failure messages.
func (k eventKind) String() string {
	switch k {
	case evSample:
		return "sample"
	case evDeparture:
		return "departure"
	case evRevoke:
		return "revoke"
	case evRestore:
		return "restore"
	case evResize:
		return "resize"
	case evArrival:
		return "arrival"
	default:
		return "eventKind(?)"
	}
}

// simEvent is one scheduled simulation event, 40 bytes. An arrival is
// its trace row alone (seq): everything else about the VM is read
// through the row source. A departure adds the VM's name, the string its
// Domain already holds, which the manager removes it by; name is empty
// for every other kind. A capacity shock is its schedule index.
type simEvent struct {
	at   float64
	kind eventKind
	name string
	// seq breaks ties among equal (at, kind) pairs. Arrival and
	// departure events carry the VM's trace index, shock events their
	// index in the run's shock schedule (Engine.shocks), which is also
	// how a shock resolves. So simultaneous events replay in trace
	// order — the same total order the previous implementation obtained
	// from a stable sort over the trace slice, which keeps refactored
	// runs bit-for-bit comparable.
	seq int
}

// eventLess is the strict total event order: (time, kind, seq), with
// the kind ranking documented on eventKind. Every queue implementation
// delivers exactly this order, which is what lets them substitute for
// one another without perturbing a single result bit.
func eventLess(a, b simEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventQueue is the pending-event set: push schedules, pop/peek deliver
// in (time, kind, seq) order. calendarQueue (O(1) amortized) is the
// live-set queue, and streamQueue overlays the trace's latent arrivals
// on it for both adapters; the binary heap they replaced lives on in the
// tests as their oracle (heapqueue_test.go). Unlike the pre-queue approach —
// materialise 2N events in one slice and sort it per run — all of them
// admit lazily scheduled events (departures are only scheduled for VMs
// that were actually admitted, samples reschedule themselves), so a
// run's live set stays proportional to the pending horizon rather than
// the whole trace.
type eventQueue interface {
	// push schedules an event.
	push(simEvent)
	// pop removes and returns the next event in (time, kind, seq) order.
	pop() simEvent
	// peek returns the next event without removing it. Callers must
	// check empty() first. The engine uses it to coalesce runs of
	// same-timestamp departures/arrivals/revocations into one batch.
	peek() simEvent
	// empty reports whether any events remain.
	empty() bool
}

// streamChunkShift sizes the arrival-order chunks: 1<<20 arrivals
// (4 MB of int32) per chunk, released as soon as the scan moves past
// them, so the retained arrival column shrinks toward zero as the run
// progresses instead of pinning 4 bytes per trace VM to the end.
const streamChunkShift = 20

// liveSetHint is the calendar size hint of a live-set queue. It holds
// departures, samples and shocks for the currently running VMs only, so
// a modest ring is right whatever the trace length — it resizes itself
// as the population moves.
const liveSetHint = 1024

// streamQueue is the one arrival intake: arrivals stay latent in the
// trace and are delivered from a pre-sorted arrival-order column (rows
// by (Start, row) — eventLess restricted to arrivals), one row at a
// time as the simulation reaches them, while departures, samples and
// shocks live in a conventional inner queue sized to the live set. The
// arrival order is held in chunks whose consumed prefix is freed
// incrementally, so peak queue memory is the unconsumed arrival suffix
// plus O(live events) — never the N-deep event set a pre-pushed seed
// would build.
type streamQueue struct {
	src    rowAdapter // resolves a row to its arrival time
	chunks [][]int32  // arrival order; consumed chunks are nilled
	next   int        // next undelivered absolute position
	total  int
	headOK bool
	head   simEvent // the next arrival, its time resolved
	inner  eventQueue
}

// newStreamQueue copies byStart (the arrival order column) into
// releasable chunks; the caller's slice can then be dropped.
func newStreamQueue(src rowAdapter, byStart []int32, inner eventQueue) *streamQueue {
	q := &streamQueue{src: src, total: len(byStart), inner: inner}
	const chunk = 1 << streamChunkShift
	for off := 0; off < len(byStart); off += chunk {
		end := off + chunk
		if end > len(byStart) {
			end = len(byStart)
		}
		c := make([]int32, end-off)
		copy(c, byStart[off:end])
		q.chunks = append(q.chunks, c)
	}
	return q
}

// ensureHead resolves the next pending arrival, if any, releasing each
// arrival-order chunk as the scan leaves it.
func (q *streamQueue) ensureHead() {
	if q.headOK || q.next >= q.total {
		return
	}
	const mask = 1<<streamChunkShift - 1
	c := q.next >> streamChunkShift
	idx := q.chunks[c][q.next&mask]
	q.next++
	if q.next&mask == 0 || q.next >= q.total {
		q.chunks[c] = nil
	}
	start, _, _, _ := q.src.span(int(idx))
	q.head = simEvent{at: start, kind: evArrival, seq: int(idx)}
	q.headOK = true
}

func (q *streamQueue) empty() bool {
	return !q.headOK && q.next >= q.total && q.inner.empty()
}

func (q *streamQueue) push(e simEvent) {
	// The engine never schedules arrivals — they exist only in the
	// trace — so everything pushed belongs to the live-set queue.
	q.inner.push(e)
}

func (q *streamQueue) peek() simEvent {
	q.ensureHead()
	if !q.headOK {
		return q.inner.peek()
	}
	if q.inner.empty() || eventLess(q.head, q.inner.peek()) {
		return q.head
	}
	return q.inner.peek()
}

func (q *streamQueue) pop() simEvent {
	q.ensureHead()
	if !q.headOK {
		return q.inner.pop()
	}
	if q.inner.empty() || eventLess(q.head, q.inner.peek()) {
		q.headOK = false
		return q.head
	}
	return q.inner.pop()
}
