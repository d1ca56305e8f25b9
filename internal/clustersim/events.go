package clustersim

import (
	"cmp"
	"container/heap"
	"slices"

	"vmdeflate/internal/trace"
)

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

// simEvent is one scheduled simulation event. vm is nil for samples and
// capacity shocks; shock is nil for everything else.
type simEvent struct {
	at   float64
	kind eventKind
	vm   *trace.VMRecord
	// shock carries the capacity-shock payload of
	// evRevoke/evRestore/evResize events.
	shock *trace.CapacityShock
	// seq breaks ties among equal (at, kind) pairs. Arrival and
	// departure events carry the VM's trace index, shock events their
	// schedule index, so simultaneous events replay in trace order — the
	// same total order the previous implementation obtained from a
	// stable sort over the trace slice, which keeps refactored runs
	// bit-for-bit comparable.
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
// in (time, kind, seq) order. Two interchangeable implementations
// exist — heapQueue (container/heap, the original and the property-test
// reference) and calendarQueue (O(1) amortized, the default) — plus
// streamQueue, which overlays the trace's latent arrivals on a live-set
// queue for both intakes. Unlike the pre-queue approach —
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

// heapQueue is the container/heap-backed eventQueue: O(log n) push/pop.
// It remains as the differential reference for calendarQueue (see
// Config.useHeapQueue and the randomized property test) — any ordering
// bug in the calendar shows up as a bit-level divergence against it.
type heapQueue struct {
	evs []simEvent
}

// Len, Less, Swap, Push and Pop implement heap.Interface; the ordering
// is eventLess.
func (q *heapQueue) Len() int { return len(q.evs) }

func (q *heapQueue) Less(i, j int) bool { return eventLess(q.evs[i], q.evs[j]) }

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

// newArrivalQueue is the eager trace's event queue. Arrivals stay
// latent in the trace — a streamQueue over the arrival order and a
// live-set calendar, the same intake a streamed run uses — so the ring
// holds what is live, not N pre-pushed events. Departure events are
// scheduled by the engine when (and only when) a VM is admitted, and
// the first sample event is scheduled by the run loop. useHeap selects
// the reference instead: every arrival pushed up front into one flat
// binary heap, which makes the queue differential overlay + calendar
// against a single heap.
func newArrivalQueue(tr *trace.AzureTrace, useHeap bool) eventQueue {
	if useHeap {
		q := &heapQueue{evs: make([]simEvent, 0, len(tr.VMs))}
		for i, vm := range tr.VMs {
			q.evs = append(q.evs, simEvent{at: vm.Start, kind: evArrival, vm: vm, seq: i})
		}
		heap.Init(q)
		return q
	}
	return newStreamQueue(nil, tr.VMs, arrivalOrder(tr), newCalendarQueue(liveSetHint, tr.Duration()))
}

// arrivalOrder returns the trace's rows sorted by (Start, row): the
// order eventLess gives arrivals. It is built per run, not cached on the
// trace — the queue chunks and releases it as the run consumes it.
func arrivalOrder(tr *trace.AzureTrace) []int32 {
	order := make([]int32, len(tr.VMs))
	for i := range order {
		order[i] = int32(i)
	}
	// The row makes the order total, so the unstable sort is
	// deterministic.
	slices.SortFunc(order, func(a, b int32) int {
		return cmp.Or(cmp.Compare(tr.VMs[a].Start, tr.VMs[b].Start), cmp.Compare(a, b))
	})
	return order
}

// event is a flattened arrival/departure pair: idx is the VM's row in
// tr.VMs. Fleet sizing and the partition planner walk the whole trace
// in order and therefore want one sorted slice rather than a consumable
// queue.
type event struct {
	at      float64
	arrival bool
	idx     int32
}

// buildEvents materialises and sorts the full arrival/departure
// sequence of an eager trace in (time, departures-first, trace index)
// order. Simulation runs use an eventQueue instead; streamed traces use
// streamGeometry's merge walk, which replays this exact order without
// materialising the event slice.
func buildEvents(tr *trace.AzureTrace) []event {
	evs := make([]event, 0, 2*len(tr.VMs))
	for i, vm := range tr.VMs {
		evs = append(evs, event{at: vm.Start, arrival: true, idx: int32(i)})
		evs = append(evs, event{at: vm.End, arrival: false, idx: int32(i)})
	}
	// The trace index makes the order total, so the unstable sort is
	// deterministic.
	slices.SortFunc(evs, func(a, b event) int {
		switch {
		case a.at < b.at:
			return -1
		case a.at > b.at:
			return 1
		// Departures before arrivals at the same instant free capacity
		// for the newcomers.
		case !a.arrival && b.arrival:
			return -1
		case a.arrival && !b.arrival:
			return 1
		default:
			return int(a.idx) - int(b.idx)
		}
	})
	return evs
}
