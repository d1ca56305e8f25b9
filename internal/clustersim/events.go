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
// outages instead of silently dropping the second; and every shock
// precedes the arrivals so newcomers
// only ever see post-shock capacity (the invariant the old slice-based
// replay encoded in its sort comparator, extended to the
// transient-server events).
type eventKind int

const (
	evSample eventKind = iota
	evDeparture
	evRestore
	evRevoke
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
// the kind ranking documented on eventKind. It is the one order of the
// run queue and its arrival intake (the tests' heap oracle writes its
// own); it takes pointers so the heap compares its 40-byte events in
// place.
func eventLess(a, b *simEvent) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.seq < b.seq
}

// eventQueue is the pending-event set: push schedules, pop/peek deliver
// in (time, kind, seq) order. streamQueue is the run queue: it overlays
// the trace's latent arrivals on an eventHeap that holds the live set.
// The flat heap of every event, arrivals pushed up front, lives on in
// the tests as its oracle (heapqueue_test.go). Events are scheduled
// lazily (departures only for VMs that were actually admitted, samples
// reschedule themselves), so a run's pending set stays proportional to
// the running VMs rather than the whole trace.
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

// eventHeap is the live-set queue: a binary min-heap in eventLess order
// holding the running VMs' departures, the next sample and the pending
// shocks. Its array grows by append to the live set's high-water mark
// and is reused from then on, so neither push nor pop allocates past it.
type eventHeap []simEvent

func (h *eventHeap) push(e simEvent) {
	*h = append(*h, e)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess(&e, &s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = e
}

// pop removes and returns the least event. The heap must not be empty.
func (h *eventHeap) pop() simEvent {
	s := *h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = simEvent{} // the vacated slot keeps no name alive for the GC
	s = s[:n]
	*h = s
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && eventLess(&s[r], &s[c]) {
			c = r
		}
		if !eventLess(&s[c], &last) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = last
	return top
}

// streamChunkShift sizes the arrival-order chunks: 1<<20 arrivals
// (4 MB of int32) per chunk, released as soon as the scan moves past
// them, so the retained arrival column shrinks toward zero as the run
// progresses instead of pinning 4 bytes per trace VM to the end.
const streamChunkShift = 20

// streamQueue is the one arrival intake: arrivals stay latent in the
// trace and are delivered from a pre-sorted arrival-order column (rows
// by (Start, row) — eventLess restricted to arrivals), one row at a
// time as the simulation reaches them, while departures, samples and
// shocks live in the eventHeap. The arrival order is held in chunks
// whose consumed prefix is freed incrementally, so peak queue memory is
// the unconsumed arrival suffix plus O(live events) — never the N-deep
// event set a pre-pushed seed would build.
type streamQueue struct {
	src    rowAdapter // resolves a row to its arrival time
	chunks [][]int32  // arrival order; consumed chunks are nilled
	next   int        // next undelivered absolute position
	total  int
	headOK bool
	head   simEvent // the next arrival, its time resolved
	inner  eventHeap
}

// newStreamQueue copies byStart (the arrival order column) into
// releasable chunks; the caller's slice can then be dropped.
func newStreamQueue(src rowAdapter, byStart []int32) *streamQueue {
	q := &streamQueue{src: src, total: len(byStart)}
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

// arrivalNext reports whether the next event is the latent arrival at
// the head of the intake rather than the heap's least event.
func (q *streamQueue) arrivalNext() bool {
	q.ensureHead()
	return q.headOK && (len(q.inner) == 0 || eventLess(&q.head, &q.inner[0]))
}

func (q *streamQueue) empty() bool {
	return !q.headOK && q.next >= q.total && len(q.inner) == 0
}

func (q *streamQueue) push(e simEvent) {
	// The engine never schedules arrivals — they exist only in the
	// trace — so everything pushed belongs to the live set.
	q.inner.push(e)
}

func (q *streamQueue) peek() simEvent {
	if q.arrivalNext() {
		return q.head
	}
	return q.inner[0]
}

func (q *streamQueue) pop() simEvent {
	if q.arrivalNext() {
		q.headOK = false
		return q.head
	}
	return q.inner.pop()
}
